import io
import os
import sys
import json
import contextlib
import dataclasses
import builtins
import subprocess
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pmcat import yoneda
from pmcat.cli import main, _write_json
from pmcat.document import serialize_document
from pmcat.pmc import trivial_partial_model_structure, verify_partial_model
from pmcat.relcat import RelCategory, random_preorder_relcat, check_two_of_six
from pmcat.fixtures import FIXTURES, build, fixture_path


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_check_passes_on_marked_fixtures():
    for name in ("pt", "I1", "Iw", "J", "B2"):
        code, _ = run_cli("check", str(fixture_path(name)))
        assert code == 0, name


def test_check_scans_the_category_laws_once(monkeypatch):
    from pmcat.fincat import FinCategory
    scanned = []

    def counted(cat, _real=FinCategory._law_scan):
        scanned.append(cat)
        return _real(cat)
    monkeypatch.setattr(FinCategory, "_law_scan", counted)
    code, out = run_cli("check", str(fixture_path("B2")), "--format", "json")
    assert code == 0 and json.loads(out)["result"]["kind"] == "calculus-structure"
    assert len(scanned) == 1


@pytest.mark.parametrize("argv", [("check",), ("ho",), ("export",),
                                  ("mapspace", "--from", "0", "--to", "1")])
def test_a_call_reads_its_document_once(monkeypatch, argv):
    path = str(fixture_path("Iw"))
    opened = []

    def counted(file, *args, _real=builtins.open, **kwargs):
        opened.append(file)
        return _real(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counted)
    code, out = run_cli(argv[0], path, *argv[1:], "--format", "json")
    assert code == 0 and json.loads(out)["input"]["file"] == "Iw.relcat"
    assert opened.count(path) == 1


def test_mapspace_builds_no_nerve_table(monkeypatch):
    from pmcat import sset
    built = []
    monkeypatch.setattr(sset, "_nerve_tables", lambda cat, n_max: built.append(cat))
    for name in FIXTURES:
        code, out = run_cli("mapspace", str(fixture_path(name)), *_endpoints(name),
                            "--format", "json")
        assert code == 0 and json.loads(out)["result"]["components"] is not None, name
    assert built == []


def test_check_fails_on_p4_with_witness():
    code, out = run_cli("check", str(fixture_path("P4")), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["result"]["two_of_six"]["witnesses"][0] == ["01", "12", "23"]


def test_malformed_document_exits_two(tmp_path):
    bad = tmp_path / "bad.relcat"
    bad.write_text("relcat-version 1\nobject 0\nmorphism f 0 ghost\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("check", str(bad))
    assert code == 2
    assert "ghost" in err.getvalue()


# every subcommand, with the flags it needs
SUBCOMMANDS = (("check",), ("nerve",), ("segal",), ("ho",),
               ("mapspace", "--from", "0", "--to", "0"), ("saturate",), ("yoneda",),
               ("export",))


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_non_utf8_document_exits_two(tmp_path, argv):
    bad = tmp_path / "bad.relcat"
    bad.write_bytes(b"relcat-version 1\nobject \xff\xfe\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv[0], str(bad), *argv[1:], "--format", "json")
    assert (code, out) == (2, "")
    assert err.getvalue() == (f"input error: line 0: {bad} is not UTF-8: "
                              "invalid start byte at byte 24\n")


@pytest.mark.parametrize("argv", SUBCOMMANDS)
def test_unreadable_document_exits_two(tmp_path, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv[0], str(tmp_path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith(f"input error: line 0: cannot read {tmp_path}: ")


def test_missing_composite_exits_two(tmp_path):
    bad = tmp_path / "open.relcat"
    bad.write_text("relcat-version 1\nobject 0\nobject 1\nobject 2\n"
                   "morphism f 0 1\nmorphism g 1 2\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("check", str(bad))
    assert code == 2


OPEN_MARKING = ("relcat-version 1\nobject 0\nobject 1\nobject 2\n"
                "morphism 01 0 1\nmorphism 12 1 2\nmorphism 02 0 2\n"
                "compose 01 12 02\nweq 01\nweq 12\n")


@pytest.mark.parametrize("argv", [("nerve",), ("export",), ("yoneda",),
                                  ("mapspace", "--from", "0", "--to", "2")])
def test_nerve_commands_refuse_marking_not_closed(tmp_path, argv):
    # 01 and 12 are marked, their composite 02 is not
    doc = tmp_path / "open.relcat"
    doc.write_text(OPEN_MARKING)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv[0], str(doc), *argv[1:])
    assert code == 2
    assert out == ""
    assert "not-closed ('01', '12')" in err.getvalue()


def test_mapspace_refuses_marking_not_closed_where_a_composite_is_missing(tmp_path):
    # the hammocks from x3 to x0 compose x2<x3 with x3<x0, whose composite
    # x2<x0 is unmarked: building their nerve used to fail on the missing
    # composite instead of refusing the document
    rc = random_preorder_relcat(0, max_objects=4)
    doc = tmp_path / "open4.relcat"
    doc.write_text(serialize_document(
        RelCategory(rc.cat, ["x0<x3", "x2<x3", "x3<x0"])))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("mapspace", str(doc), "--from", "x3", "--to", "x0",
                            "--nmax", "2")
    assert code == 2
    assert out == ""
    assert "not-closed" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_check_reports_marking_not_closed(tmp_path):
    doc = tmp_path / "open.relcat"
    doc.write_text(OPEN_MARKING)
    code, out = run_cli("check", str(doc), "--format", "json")
    assert code == 1
    violations = json.loads(out)["result"]["relative_laws"]["violations"]
    assert [v["law"] for v in violations] == ["not-closed"]
    assert violations[0]["witness"] == ["01", "12"]


def test_export_plain_nerve_ignores_marking(tmp_path):
    doc = tmp_path / "open.relcat"
    doc.write_text(OPEN_MARKING)
    code, _ = run_cli("export", str(doc), "--what", "nerve")
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (("segal", "Iw", "--k", "abc"), "comma-separated integers"),
    (("segal", "Iw", "--k", "2,1"), ">= 2"),
    (("segal", "Iw", "--dims", "-1"), ">= 0"),
    (("yoneda", "Iw", "--dims", "-1"), ">= 0"),
    (("nerve", "Iw", "--kmax", "-1"), ">= 0"),
    (("nerve", "Iw", "--nmax", "x"), "expected an integer"),
    (("export", "Iw", "--what", "nerve", "--nmax", "-2"), ">= 0"),
    (("mapspace", "Iw", "--from", "0", "--to", "1", "--nmax", "-1"), ">= 0"),
    (("segal", "Iw", "--cell-budget", "-5"), ">= 0"),
    # B2 carries calculus data, so without --diagnostic the bound is unused
    (("saturate", "B2", "--bound", "-3"), ">= 4"),
    (("saturate", "P4", "--bound", "2"), ">= 4"),
    (("saturate", "B2", "--diagnostic", "--bound", "3"), ">= 4"),
    (("saturate", "P4", "--bound", "x"), "expected an integer"),
])
def test_bad_flag_values_exit_two(argv, message):
    command, fixture, *flags = argv
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main([command, str(fixture_path(fixture)), *flags])
    assert exc.value.code == 2
    assert message in err.getvalue()


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            main(["check", "--bogus"])
    assert exc.value.code == 2


def test_json_reports_are_deterministic():
    for name in ("Iw", "P4"):
        runs = [run_cli("check", str(fixture_path(name)), "--format", "json")
                for _ in range(2)]
        assert runs[0] == runs[1]


def test_segal_certificate_report_is_byte_identical():
    runs = [run_cli("segal", str(fixture_path("Iw")), "--k", "2", "--full",
                    "--format", "json") for _ in range(2)]
    assert runs[0] == runs[1]


def test_reports_match_goldens():
    import pathlib
    for name in FIXTURES:
        golden = (pathlib.Path(fixture_path(name)).parent
                  / "expected" / f"{name}.check.json")
        code, out = run_cli("check", str(fixture_path(name)), "--format", "json")
        assert out == golden.read_text(), name
        assert code == json.loads(out)["exit_code"]


def _written(value):
    out = []
    _write_json(value, out, "\n")
    return "".join(out)


def test_writer_spells_every_golden_as_json_dumps():
    import pathlib
    goldens = sorted((pathlib.Path(fixture_path("pt")).parent / "expected").glob("*.json"))
    assert len(goldens) > 40
    for golden in goldens:
        text = golden.read_text()
        value = json.loads(text)
        assert _written(value) + "\n" == text, golden.name
        assert _written(value) == json.dumps(value, indent=2, sort_keys=True)


# keys and strings with non-ASCII characters, quotes, backslashes and
# control characters, and ""
_texts = st.text(alphabet=st.sampled_from('a"\\\x00\x1f\n\t\x7f\xe9\u2028\U0001f600 '),
                 max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
    | st.sampled_from((0, -1, 2 ** 64 + 1, -(2 ** 64) - 1)) | _texts,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_texts, inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2, sort_keys=True)


def test_writer_prints_bools_as_json_literals():
    assert _written([True, False, 1, 0]) == "[\n  true,\n  false,\n  1,\n  0\n]"
    assert _written({"a": True}) == '{\n  "a": true\n}'


@pytest.mark.parametrize("value", [1.5, [0.0], {"x": {"y": float("nan")}}, {1: "a"},
                                   {"a": 1, None: 2}, {(1, 2): 3}, {"s": {1, 2}}, b"x"])
def test_writer_refuses_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        _written(value)


def _endpoints(name):
    value = build(name)
    objects = getattr(value, "rc", value).cat.objects
    return ("--from", objects[0], "--to", objects[-1])


def _nerve_flags(name):
    # J's golden is pinned at (2, 2); its default (4, 4) has 35.8 million
    # cells and is checked by test_nerve_of_j_at_defaults_fits_in_a_gigabyte
    return ("--kmax", "2", "--nmax", "2") if name == "J" else ()


def test_command_reports_match_goldens():
    """``segal --full`` pins the B_k object ids, ``segal`` of J and B2
    the certificates of the two largest B_k, ``export`` the
    classification nerve's simplex order and operator tables, ``nerve``
    its sizes and identity checks, and ho/saturate/yoneda/mapspace every
    report the zigzag categories feed (P4 ``ho`` exits 2, so it has no
    report)."""
    import pathlib
    calls = [(name, "segal", ("--full",)) for name in ("pt", "I1", "Iw")]
    calls += [(name, "segal", ()) for name in ("J", "B2")]
    calls += [(name, "export", ()) for name in ("pt", "I1", "Iw", "P4")]
    calls += [(name, "nerve", _nerve_flags(name)) for name in FIXTURES]
    for name in FIXTURES:
        for command in ("ho", "saturate", "yoneda", "mapspace"):
            if (name, command) != ("P4", "ho"):
                calls.append((name, command,
                              _endpoints(name) if command == "mapspace" else ()))
    for name, command, flags in calls:
        golden = (pathlib.Path(fixture_path(name)).parent
                  / "expected" / f"{name}.{command}.json")
        code, out = run_cli(command, str(fixture_path(name)), *flags, "--format", "json")
        assert out == golden.read_text(), (name, command)
        assert code == json.loads(out)["exit_code"]


def test_consecutive_calls_keep_defaults():
    """The parser is built once per process; a flag given to one call
    must not become the default of the next."""
    import pathlib
    path = str(fixture_path("Iw"))
    code, _ = run_cli("segal", path, "--k", "2", "--dims", "1", "--cell-budget", "5",
                      "--allow-large", "--format", "json")
    assert code == 0
    golden = pathlib.Path(path).parent / "expected" / "Iw.segal.json"
    code, out = run_cli("segal", path, "--full", "--format", "json")
    assert out == golden.read_text()
    assert sorted(json.loads(out)["result"]["detail"]["k"]) == ["2", "3"]


def test_nerve_builds_no_grid(monkeypatch):
    # the sizes are counted and the identities checked on the functors:
    # no grid, no chain, no column table and no horizontal table is built
    import pathlib
    from pmcat.sset import TruncatedBisimplicialSet, Nerve

    def unbuilt(what):
        def raising(obj):
            raise AssertionError(f"{what} was built")
        return property(raising)
    for attr in ("simplices", "hfaces", "hdegens", "vfaces", "vdegens"):
        monkeypatch.setattr(TruncatedBisimplicialSet, attr, unbuilt(attr))
    monkeypatch.setattr(Nerve, "simplices", unbuilt("a spelled chain"))
    monkeypatch.setattr(Nerve, "_tables", unbuilt("a nerve table"))
    for name in FIXTURES:
        golden = pathlib.Path(fixture_path(name)).parent / "expected" / f"{name}.nerve.json"
        code, out = run_cli("nerve", str(fixture_path(name)), *_nerve_flags(name),
                            "--format", "json")
        assert out == golden.read_text() and code == 0, name


def test_segal_spells_no_chain(monkeypatch):
    import pathlib
    from pmcat.sset import Nerve

    def unspelled(s):
        raise AssertionError("chains were spelled")
    monkeypatch.setattr(Nerve, "simplices", property(unspelled))
    for name in ("pt", "I1", "Iw"):
        golden = pathlib.Path(fixture_path(name)).parent / "expected" / f"{name}.segal.json"
        code, out = run_cli("segal", str(fixture_path(name)), "--full", "--format", "json")
        assert out == golden.read_text() and code == 0, name


def test_nerve_reports_the_total_of_its_truncated_list(monkeypatch):
    from pmcat.sset import TruncatedBisimplicialSet
    monkeypatch.setattr(TruncatedBisimplicialSet, "validate_identities",
                        lambda self: [f"violation {i}" for i in range(12)])
    code, out = run_cli("nerve", str(fixture_path("Iw")), "--kmax", "1", "--nmax", "1",
                        "--format", "json")
    result = json.loads(out)["result"]
    assert code == 1 and not result["identities_ok"]
    assert result["identity_violations"] == [f"violation {i}" for i in range(10)]
    assert result["identity_violations_total"] == 12


def test_nerve_of_j_at_defaults_fits_in_a_gigabyte():
    # 35.8 million cells, 2^25 of them at (4, 4); A_4 has 32 objects and
    # 1,024 morphisms, which is all that the sizes and the check read
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pmcat.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", code, "nerve", str(fixture_path("J")),
                             "--format", "json"], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)["result"]
    assert report["bidegree_counts"]["(4,4)"] == 2 ** 25 == 33_554_432
    assert sum(report["bidegree_counts"].values()) == 35_794_186
    assert report["identities_ok"]


def test_nerve_subcommand():
    code, out = run_cli("nerve", str(fixture_path("Iw")),
                        "--kmax", "1", "--nmax", "1", "--format", "json")
    assert code == 0
    counts = json.loads(out)["result"]["bidegree_counts"]
    assert counts["(0,0)"] == 2 and counts["(1,0)"] == 3 and counts["(0,1)"] == 3
    result = json.loads(out)["result"]
    assert result["identity_violations"] == [] and result["identity_violations_total"] == 0


def test_segal_subcommand_summary():
    code, out = run_cli("segal", str(fixture_path("Iw")), "--k", "2",
                        "--format", "json")
    assert code == 0
    detail = json.loads(out)["result"]["detail"]
    assert detail["k"]["2"]["certificate_summary"]["valid"]


def test_segal_requires_calculus_data():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("segal", str(fixture_path("P4")))
    assert code == 2


def test_segal_large_k_names_the_flag():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("segal", str(fixture_path("pt")), "--k", "5")
    assert code == 2
    assert "--allow-large" in err.getvalue()


def test_mapspace_subcommand():
    code, out = run_cli("mapspace", str(fixture_path("I1")),
                        "--from", "1", "--to", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["simplex_counts"][0] == 0


def test_saturate_modes():
    code, _ = run_cli("saturate", str(fixture_path("B2")))
    assert code == 0
    code, out = run_cli("saturate", str(fixture_path("P4")), "--format", "json")
    assert code == 1
    assert "01" in json.loads(out)["result"]["unmarked_but_iso"]


def test_yoneda_subcommand():
    code, out = run_cli("yoneda", str(fixture_path("Iw")), "--dims", "1",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["passed"]


def test_yoneda_hom_comparison_can_fail_with_calculus_data(monkeypatch):
    # B2 carries verified calculus data; its hom comparison still reads
    # the word oracle, so an oracle that miscounts fails every pair
    real = yoneda.bounded_localization_oracle

    def off_by_one(rc, a, b, bound):
        rep = real(rc, a, b, bound)
        return dataclasses.replace(rep, count=rep.count + 1)

    monkeypatch.setattr(yoneda, "bounded_localization_oracle", off_by_one)
    code, out = run_cli("yoneda", str(fixture_path("B2")), "--dims", "1",
                        "--format", "json")
    result = json.loads(out)["result"]
    pairs = {(a, b) for a, b, kind, _detail in result["failures"]
             if kind == "hom-comparison"}
    assert code == 1
    assert len(result["failures"]) == len(pairs) == result["pairs_checked"] == 16


def test_yoneda_exits_one_on_an_unlawful_action(monkeypatch):
    # the identity of 0 moves an object image of the presheaf of 0: the
    # report names the object and the law
    real = yoneda.presheaf_action

    def corrupted(rc, a, table):
        action = real(rc, a, table)
        if a == "0":
            F = action["id:0"]
            first, objects = F.source.objects[0], F.target.objects
            F.obj_map[first] = objects[1 - objects.index(F.obj_map[first])]
        return action

    monkeypatch.setattr(yoneda, "presheaf_action", corrupted)
    code, out = run_cli("yoneda", str(fixture_path("Iw")), "--dims", "1",
                        "--format", "json")
    failures = json.loads(out)["result"]["failures"]
    assert code == 1
    assert ["0", "action", "action of identity id:0 is not the identity"] in failures


def test_yoneda_fails_naturally_without_the_three_arrow_hypothesis(tmp_path):
    # seed 290 on three objects is the chain x1 -> x2 -> x0 with only the
    # composite w = x1<x0 marked.  It passes two-of-six, but its trivial
    # calculus fails (c-i): the pushout of w along x1<x2 has the unmarked
    # leg x2<x0.  In the localization Hom(x2, x2) holds the identity and
    # the idempotent (x1<x2).w^-1.(x2<x0), and the word oracle is stable
    # there with these 2 classes.  Every marked map into or out of x2 is
    # an identity, so each width-one zigzag from x2 to x2 is a map
    # x2 -> x2 and there is 1 component: the hom comparison catches a
    # document that the paper's 3-arrow hypothesis does not cover, with
    # no patched code
    rc = random_preorder_relcat(290, max_objects=3)
    assert rc.cat.morphisms[-3:] == ("x1<x0", "x1<x2", "x2<x0")
    assert rc.weq == ("id:x0", "id:x1", "id:x2", "x1<x0")
    assert check_two_of_six(rc).passed
    c_i = verify_partial_model(trivial_partial_model_structure(rc)).verdict(
        "c-i:u-pushout-closure")
    assert c_i.witnesses == [("x1<x0", "x1<x2", "pushed-out leg x2<x0 not in U")]
    doc = tmp_path / "seed290.relcat"
    doc.write_text(serialize_document(rc))
    code, out = run_cli("yoneda", str(doc), "--dims", "1", "--format", "json")
    assert code == 1
    assert json.loads(out)["result"]["failures"] == [
        ["x2", "x2", "hom-comparison",
         "presheaf components 1 != 2 (word oracle (bound 7))"]]


def test_export_subcommand():
    code, out = run_cli("export", str(fixture_path("I1")), "--what", "nerve",
                        "--nmax", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)["result"]
    assert data["kind"] == "simplicial-set"
    assert len(data["simplices"]["0"]) == 2
    code, out = run_cli("export", str(fixture_path("I1")), "--kmax", "1",
                        "--nmax", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["kind"] == "bisimplicial-set"


def test_ho_subcommand():
    code, out = run_cli("ho", str(fixture_path("Iw")), "--format", "json")
    assert code == 0
    hom = json.loads(out)["result"]["hom_class_counts"]
    assert all(v == 1 for v in hom.values())


@pytest.mark.parametrize("command, kind", [("ho", "homotopy-category"),
                                           ("saturate", "saturation")])
def test_an_inconsistent_homotopy_category_exits_one(monkeypatch, command, kind):
    from pmcat import cli, hammock

    def inconsistent(pms):
        raise hammock.HoConsistencyError("class-level laws fail: forced")
    # ho calls it through cli, saturate through hammock.check_saturation
    monkeypatch.setattr(cli, "homotopy_category", inconsistent)
    monkeypatch.setattr(hammock, "homotopy_category", inconsistent)
    code, out = run_cli(command, str(fixture_path("Iw")), "--format", "json")
    assert code == 1
    assert json.loads(out)["result"] == {"kind": kind,
                                         "consistency_error": "class-level laws fail: forced"}


def test_conflicting_factor_line_exits_two(tmp_path):
    doc = tmp_path / "twice.relcat"
    doc.write_text("relcat-version 1\nobject 0\nobject 1\nmorphism f 0 1\nweq f\n"
                   "factor f f 1 id:1\nfactor f id:0 0 f\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("check", str(doc))
    assert code == 2
    assert "line 7: conflicting factorization for f" in err.getvalue()


def test_middle_map_on_mistyped_factorization_is_a_witness(tmp_path):
    # the square's middle map is typed against a factorization that the
    # per-w check rejects; it must not be composed with that factorization
    doc = tmp_path / "mistyped.relcat"
    doc.write_text("relcat-version 1\nobject 0\nobject 1\nmorphism 01 0 1\nweq 01\nu 01\n"
                   "factor 01 01 0 id:1\nmiddle 01 01 id:0 id:1 id:0\n")
    code, out = run_cli("check", str(doc), "--format", "json")
    assert code == 1
    c3 = json.loads(out)["result"]["axioms"]["axioms"]["c-iii:functorial-factorization"]
    assert ["01", "factorization mistyped"] in c3["witnesses"]
    assert c3["notes"][0].startswith("identity and pasting laws not checked")


# every subcommand with its edge flags; mapspace also gets the fixture's
# first and last object
EDGE_CALLS = (
    ("check",),
    ("nerve", "--kmax", "0", "--nmax", "0"),
    ("nerve", "--kmax", "0", "--nmax", "1"),
    ("segal", "--k", "2", "--dims", "0"),
    ("segal", "--k", "2", "--cell-budget", "0"),
    ("ho",),
    ("mapspace", "--nmax", "0"),
    ("saturate", "--bound", "4"),
    ("saturate", "--diagnostic", "--bound", "4"),
    ("yoneda", "--dims", "0"),
    ("export", "--kmax", "0", "--nmax", "0"),
    ("export", "--what", "nerve", "--nmax", "0"),
)


@pytest.mark.parametrize("fmt", ("text", "json"))
def test_every_subcommand_keeps_the_exit_contract(fmt):
    """Each subcommand on each fixture at its edge flags exits 0, 1 or 2,
    and no exception but argparse's SystemExit leaves ``main``."""
    for name in FIXTURES:
        for command, *flags in EDGE_CALLS:
            if command == "mapspace":
                flags += _endpoints(name)
            argv = [command, str(fixture_path(name)), *flags, "--format", fmt]
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code, _ = run_cli(*argv)
                except SystemExit as e:
                    code = e.code
            assert code in (0, 1, 2), argv


# -- fuzzed flags keep the exit contract ---------------------------------------

# flag values, each drawn as (valid, malformed): sizes stay in 0..3, which
# keeps every call small; the malformed ones are not integers, negative,
# or broken --k lists
SIZES = (("0", "1", "2", "3"), ("x", "1.5", "", " ", "-1", "-12", "2e1", "0x2"))
K_LISTS = (("2", "3", "2,3", "3,2,3"),
           ("", ",", "2,", "2,,3", "1,2", "0", "-2", "2;3", "a,2", "2.5", "5"))
# each fails to parse where it is appended; none abbreviates a switch, as
# "--allow" would abbreviate --allow-large
UNKNOWN_FLAGS = ("--bogus", "-q", "--kmax", "--k=", "--no-such-flag")

# per subcommand, each flag and its values (None: a switch); ``export``
# gets a k_max of at most 2 (J's (3, 3) grids take 190 MB).
# ``segal --allow-large`` is never drawn: with k = 5 it is unbounded
FLAG_DRAWS = {
    "check": {},
    "ho": {},
    "nerve": {"--kmax": SIZES, "--nmax": SIZES},
    "segal": {"--k": K_LISTS, "--dims": SIZES, "--cell-budget": SIZES, "--full": None},
    "mapspace": {"--nmax": SIZES},
    "saturate": {"--bound": (("4", "5"), SIZES[0] + SIZES[1]), "--diagnostic": None},
    "yoneda": {"--dims": SIZES},
    "export": {"--what": (("nerve", "rezk-nerve"), ("grid",)),
               "--kmax": (SIZES[0][:3], SIZES[1]), "--nmax": SIZES},
}


def fuzzed_flags(rng, command, objects):
    """One drawn flag list for ``command``: each flag kept or dropped,
    its value mostly valid, then perhaps an unknown flag."""
    def draw(values):
        valid, malformed = values
        return rng.choice(valid if rng.random() < 0.8 else malformed)

    draws = {**FLAG_DRAWS[command], "--format": (("text", "json"), ("xml",))}
    if command == "mapspace":
        draws.update({"--from": (objects, ("ghost", "")), "--to": (objects, ("ghost", ""))})
    argv = []
    for flag, values in draws.items():
        if rng.random() < 0.8:
            argv += [flag] if values is None else [flag, draw(values)]
    if rng.random() < 0.1:
        argv.append(rng.choice(UNKNOWN_FLAGS))
    return argv


def test_fuzzed_flags_keep_the_exit_contract():
    """Every subcommand on every fixture, with flags drawn from four
    seeded streams, exits 0, 1 or 2, and no exception but argparse's
    SystemExit leaves ``main``; each exit code occurs."""
    import random
    seen = set()
    for seed in range(4):
        rng = random.Random(f"pmcat-fuzzed-flags-{seed}")
        for command in FLAG_DRAWS:
            for name in FIXTURES:
                value = build(name)
                objects = getattr(value, "rc", value).cat.objects
                argv = [command, str(fixture_path(name)),
                        *fuzzed_flags(rng, command, objects)]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    try:
                        code, _ = run_cli(*argv)
                    except SystemExit as e:
                        code = e.code
                assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), argv
                seen.add(code)
    assert seen == {0, 1, 2}


def test_unread_calculus_data_is_named_in_a_note(tmp_path):
    # neither line is read by an axiom: 01 01 01 01 is no square of Arr(W),
    # and 12 is no weak equivalence; the verdicts are unchanged
    docs = {
        "middle": (fixture_path("Iw").read_text() + "middle 01 01 01 01 01\n",
                   "1 middle key(s) naming no square of Arr(W), not checked; "
                   "the first: 01 01 01 01"),
        "factor": ("relcat-version 1\nobject 0\nobject 1\nmorphism 12 0 1\n"
                   "factor 12 12 1 id:1\nfactor id:0 id:0 0 id:0\nfactor id:1 id:1 1 id:1\n"
                   "middle id:0 id:0 id:0 id:0 id:0\nmiddle id:1 id:1 id:1 id:1 id:1\n",
                   "1 factor key(s) not a weak equivalence, not checked; the first: 12"),
    }
    for name, (text, note) in docs.items():
        doc = tmp_path / f"{name}.relcat"
        doc.write_text(text)
        code, out = run_cli("check", str(doc), "--format", "json")
        c3 = json.loads(out)["result"]["axioms"]["axioms"]["c-iii:functorial-factorization"]
        assert code == 0 and c3["passed"], name
        assert c3["notes"] == [note]


# -- fuzzed documents keep the exit contract -----------------------------------

FUZZ_COMMANDS = (
    ("check",), ("ho",), ("saturate",), ("segal", "--k", "2"), ("mapspace",),
    ("nerve", "--kmax", "1", "--nmax", "1"),
)


def fuzzed_document(rc, calculus, data, directory):
    """``rc`` serialized, raw or with calculus data, after random line
    deletions, duplications and token swaps drawn from ``data``; the
    path of the document written in ``directory``."""
    value = trivial_partial_model_structure(rc) if calculus else rc
    lines = serialize_document(value).splitlines()
    for _ in range(data.draw(st.integers(0, 4), label="edits")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        edit = data.draw(st.sampled_from(("delete", "duplicate", "swap")), label="edit")
        if edit == "delete" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "swap":
            words = lines[i].split()
            j, k = (data.draw(st.integers(0, len(words) - 1), label="token") for _ in "jk")
            words[j], words[k] = words[k], words[j]
            lines[i] = " ".join(words)
    doc = Path(directory) / "fuzzed.relcat"
    doc.write_text("\n".join(lines) + "\n")
    return doc


def exit_code(*argv):
    """The exit code of one CLI call, argparse's SystemExit included."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return run_cli(*argv)[0]
        except SystemExit as e:
            return e.code


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans(), st.data())
def test_fuzzed_documents_keep_the_exit_contract(seed, calculus, data):
    """A serialized random preorder, raw or with calculus data, after
    random line deletions, duplications and token swaps: each command
    exits 0, 1 or 2, and no exception but argparse's SystemExit leaves
    ``main``.  ``yoneda`` runs on three objects, in the next test."""
    rc = random_preorder_relcat(seed, max_objects=4)
    objects = rc.cat.objects
    with tempfile.TemporaryDirectory() as tmp:
        doc = fuzzed_document(rc, calculus, data, tmp)
        for command, *flags in FUZZ_COMMANDS:
            if command == "mapspace":
                flags = ["--from", objects[0], "--to", objects[-1]]
            argv = [command, str(doc), *flags]
            assert exit_code(*argv) in (0, 1, 2), argv


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans(), st.data())
def test_fuzzed_documents_keep_the_yoneda_exit_contract(seed, calculus, data):
    """The documents of the test above, on at most three objects, under
    ``yoneda --dims 1``: it exits 0, 1 or 2, and no exception leaves
    ``main``.  Four objects stay excluded: one such call can take over
    20 s, against under 2 s on three."""
    rc = random_preorder_relcat(seed, max_objects=3)
    with tempfile.TemporaryDirectory() as tmp:
        doc = fuzzed_document(rc, calculus, data, tmp)
        assert exit_code("yoneda", str(doc), "--dims", "1") in (0, 1, 2)


def test_text_reports_keep_list_structure(tmp_path):
    # each two-of-six witness is one item whose three maps sit under it,
    # and a tuple prints as a list
    doc = tmp_path / "seed0.relcat"
    doc.write_text(serialize_document(random_preorder_relcat(0, max_objects=4)))
    code, out = run_cli("check", str(doc))
    lines = out.splitlines()
    start = lines.index("    witnesses:", lines.index("  two_of_six:")) + 1
    assert code == 1
    assert lines[start:start + 31] == [
        "      - - id:x2", "        - x2<x0", "        - x0<x2",
        "      - - x0<x2", "        - x2<x0", "        - id:x0",
        "      - - x0<x2", "        - x2<x0", "        - x0<x2",
        "      - - x0<x3", "        - x3<x0", "        - x0<x3",
        "      - - x2<x0", "        - x0<x2", "        - x2<x0",
        "      - - x2<x3", "        - x3<x0", "        - x0<x3",
        "      - - x2<x3", "        - x3<x2", "        - x2<x3",
        "      - - x3<x0", "        - x0<x3", "        - x3<x0",
        "      - - x3<x2", "        - x2<x3", "        - x3<x0",
        "      - - x3<x2", "        - x2<x3", "        - x3<x2",
        "    notes: []",
    ]
    code, out = run_cli("segal", str(fixture_path("Iw")), "--k", "2")
    assert code == 0
    assert "        pi0:\n          - 1\n          - 1\n" in out
    assert out.count("\n            - name: ") == 7


def test_a_composite_with_the_wrong_ends_is_not_a_category(tmp_path):
    # g.f is given as f, which ends at b, not c
    doc = tmp_path / "wrong_ends.relcat"
    doc.write_text("relcat-version 1\nobject a\nobject b\nobject c\nmorphism f a b\n"
                   "morphism g b c\nmorphism k a c\ncompose f g f\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("check", str(doc))
    assert code == 2 and out == ""
    assert err.getvalue().startswith("input error: line 0: not a category: ")
