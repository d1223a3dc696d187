"""The three benchmark workloads and their output gate.

Each workload's ``setup`` returns a list of ``Call`` objects and the
input files, ``{path: text}``, that the calls read.  A call
runs one public pmcat entry point in-process (``cli.main`` with stdout
captured, or the Python API) and a check turns its output into a list of
problems; an empty list is a correct answer.  Checks read semantic
fields of the JSON report, never its bytes, so report blocks added later
do not trip the gate.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import PreorderOracle

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# corpus: documents per run and their size.  5% of the documents take half
# the time, so with every document drawn from --seed the seed alone moved
# a pass by about 15% at 400 documents and 11% at 700, and with half of
# them drawn from --seed by 7-12%.  With host drift scaled out (see
# clock.py), 175 documents from --seed still moved run_s by 5-9% over ten
# seeds, against 2% over runs of one seed.  575 of the documents
# therefore come from one stream that every run shares, 125 from --seed.
# 700 keeps a run near 35-45 s next to the other workloads.
CORPUS_DOCUMENTS = 700
CORPUS_SHARED_DOCUMENTS = 575
CORPUS_SHARED_STREAM = "pmcat-corpus-shared"
CORPUS_MAX_OBJECTS = 6

# every subcommand a fixture gets in the corpus workload
FIXTURE_COMMANDS = (
    ("check",), ("ho",), ("saturate",), ("saturate", "--diagnostic"),
    ("mapspace",), ("yoneda",), ("export",), ("nerve", "--kmax", "2", "--nmax", "2"),
)

CERTIFY_CALLS = (
    ("segal", "Iw"), ("segal", "B2"), ("segal", "J", "--k", "2"), ("nerve", "B2"),
)

# (fixture, k) of the homology workload, and the top degree computed for
# N(B_k) and for N(A'_k)
HOMOLOGY_CASES = (("B2", 2), ("B2", 3), ("J", 2))
HOMOLOGY_DEGREES = (("B_k", 1), ("A'_k", 2))


@dataclass
class Call:
    label: str
    run: object       # () -> output
    check: object     # output -> list of problems


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- report summaries ------------------------------------------------------------

def summarize(report):
    """The verdict and invariant fields of a CLI JSON report."""
    r = report["result"]
    kind = r["kind"]
    if kind == "relative-category":
        return {
            "kind": kind,
            "category_laws_ok": r["category_laws"]["ok"],
            "relative_laws_ok": r["relative_laws"]["ok"],
            "two_of_three": r["two_of_three"]["passed"],
            "two_of_three_witnesses": len(r["two_of_three"]["witnesses"]),
            "two_of_six": r["two_of_six"]["passed"],
            "two_of_six_witnesses": r["two_of_six"]["witnesses"],
        }
    if kind == "calculus-structure":
        return {
            "kind": kind,
            "axioms_passed": r["axioms"]["passed"],
            "axioms": {name: v["passed"] for name, v in r["axioms"]["axioms"].items()},
            "two_of_three": r["two_of_three"]["passed"],
        }
    if kind == "classification-nerve":
        return {"kind": kind, "bidegree_counts": r["bidegree_counts"],
                "identities_ok": r["identities_ok"]}
    if kind == "fiber-square":
        detail = r["detail"]
        return {
            "kind": kind,
            "passed": detail["passed"],
            "saturation": detail["saturation"],
            "k": {k: {
                "strict_identity": v["strict_identity"],
                "certificate_valid": v["certificate_valid"],
                "certificate_summary_valid": v["certificate_summary"]["valid"],
                "witnesses_reverified": v["certificate_summary"]["witnesses_reverified"],
                "witnesses_total": v["certificate_summary"]["witnesses_total"],
                "pi0": v["pi0"],
                "homology_dims_compared": v["homology_dims_compared"],
                "skipped_dims": v["skipped_dims"],
                "corroboration_failures": v["corroboration_failures"],
            } for k, v in detail["k"].items()},
        }
    if kind == "homotopy-category":
        if "objects" in r:
            return {"kind": kind, "objects": r["objects"],
                    "hom_class_counts": r["hom_class_counts"],
                    "laws_verified": r["laws_verified"]}
        return {"kind": kind, "consistency_error": "consistency_error" in r}
    if kind == "saturation":
        if "verdict" not in r:
            return {"kind": kind, "axioms_passed": False}
        return {"kind": kind, "mode": r["mode"], "verdict": r["verdict"],
                "unmarked_but_iso": r["unmarked_but_iso"],
                "marked_but_not_iso": r["marked_but_not_iso"]}
    if kind == "mapping-space":
        return {"kind": kind, "simplex_counts": r["simplex_counts"],
                "components": r["components"]}
    if kind == "mapping-space-embedding":
        return {"kind": kind, "passed": r["passed"], "failures": len(r["failures"]),
                "weqs_checked": r["weqs_checked"], "pairs_checked": r["pairs_checked"]}
    if kind == "bisimplicial-set":
        return {"kind": kind, "counts": {kn: len(v) for kn, v in r["simplices"].items()},
                "h_faces": len(r["h_faces"]), "v_faces": len(r["v_faces"])}
    raise ValueError(f"no summary for report kind {kind!r}")


def cli_runner(pm, argv, counts=None):
    """() -> (exit code, stdout text) for one in-process CLI call."""
    main = pm.cli.main

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        text = out.getvalue()
        if counts is not None:
            counts("cli.report_bytes", len(text.encode("utf-8")))
        return code, text
    return run


def parsed(output):
    """(exit code, JSON report or None) from a CLI call's output."""
    code, text = output
    return code, (json.loads(text) if text else None)


def expect(entry):
    """Check against a stored {"exit": n, "summary": {...} or null}."""
    def check(output):
        code, report = parsed(output)
        problems = []
        if code != entry["exit"]:
            problems.append(f"exit {code}, expected {entry['exit']}")
        want = entry["summary"]
        got = summarize(report) if report is not None else None
        if got != want:
            problems.append(f"summary {json.dumps(got, sort_keys=True)[:300]} "
                            f"!= expected {json.dumps(want, sort_keys=True)[:300]}")
        return problems
    return check


def _fixture_file(pm, name):
    return str(pm.fixtures.fixture_path(name))


def mapspace_endpoints(pm, fixture):
    """``--from`` and ``--to`` of a fixture's ``mapspace`` call: its first
    and last object."""
    value = pm.fixtures.build(fixture)
    objects = getattr(value, "rc", value).cat.objects
    return ["--from", objects[0], "--to", objects[-1]]


# -- certify ---------------------------------------------------------------------

def certify_setup(pm, seed, workdir, counts=None):
    """Retraction certificates and the classification nerve through the
    CLI, on the packaged fixtures; the inputs do not depend on the seed."""
    expected = load_expected()["certify"]
    calls = []
    for command, fixture, *flags in CERTIFY_CALLS:
        label = " ".join((command, fixture, *flags))
        argv = [command, _fixture_file(pm, fixture), *flags, "--format", "json"]
        calls.append(Call(label, cli_runner(pm, argv, counts), expect(expected[label])))
    return calls, {}


# -- homology --------------------------------------------------------------------

def homology_setup(pm, seed, workdir, counts=None):
    """Builds B_k and A'_k through ``segal.embedding_parts``; each call
    is then ``sset.nerve`` plus ``sset.homology`` on both, the nerve-level
    corroboration that ``segal`` runs at reduced depth.  The inputs do
    not depend on the seed."""
    expected = load_expected()["homology"]
    calls = []
    for fixture, k in HOMOLOGY_CASES:
        rc = pm.fixtures.build(fixture).rc
        _h, _a_k, b_k, a_prime = pm.segal.embedding_parts(rc, k)
        label = f"{fixture} k={k}"
        calls.append(Call(label, _homology_runner(pm, {"B_k": b_k, "A'_k": a_prime}),
                          _homology_check(expected[label])))
    return calls, {}


def _homology_runner(pm, categories):
    def run():
        out = {}
        for space, top in HOMOLOGY_DEGREES:
            s = pm.sset.nerve(categories[space], top + 1)
            out[space] = {"simplices": [s.size(n) for n in range(top + 2)],
                          "homology": [g.to_dict() for g in pm.sset.homology(s, top)]}
        return out
    return run


def _homology_check(want):
    def check(got):
        problems = [] if got == want else [f"{got} != expected {want}"]
        low = len(got["B_k"]["homology"])
        if got["B_k"]["homology"] != got["A'_k"]["homology"][:low]:
            problems.append("N(B_k) and N(A'_k) disagree in homology")
        return problems
    return check


# -- corpus ----------------------------------------------------------------------

def corpus_document_seeds(seed):
    """Generator seeds: the shared ones, then those drawn from ``seed``."""
    out = []
    for rng, count in ((random.Random(CORPUS_SHARED_STREAM), CORPUS_SHARED_DOCUMENTS),
                       (random.Random(seed), CORPUS_DOCUMENTS - CORPUS_SHARED_DOCUMENTS)):
        out.extend(rng.randrange(2 ** 32) for _ in range(count))
    return out


def corpus_setup(pm, seed, workdir, counts=None):
    """Fixture calls, then five calls per generated document.

    Generated documents are serialized raw and with the trivial calculus
    data, as files under ``workdir`` that the calls read back through the
    CLI like a user's file.  Their expected answers are derived by
    ``PreorderOracle`` when first checked, which keeps that work out of
    the set-up time.
    """
    expected = load_expected()["corpus"]
    calls, files = [], {}
    for fixture in pm.fixtures.FIXTURES:
        path = _fixture_file(pm, fixture)
        for command, *flags in FIXTURE_COMMANDS:
            if command == "mapspace":
                flags = mapspace_endpoints(pm, fixture)
            label = " ".join((command, fixture, *flags))
            argv = [command, path, *flags, "--format", "json"]
            calls.append(Call(label, cli_runner(pm, argv, counts), expect(expected[label])))
    for i, doc_seed in enumerate(corpus_document_seeds(seed)):
        rc = pm.relcat.random_preorder_relcat(doc_seed, max_objects=CORPUS_MAX_OBJECTS)
        pms = pm.pmc.trivial_partial_model_structure(rc)
        raw = str(Path(workdir) / f"doc{i}.relcat")
        calc = str(Path(workdir) / f"doc{i}.pms.relcat")
        files[raw] = pm.document.serialize_document(rc)
        files[calc] = pm.document.serialize_document(pms)
        objs = rc.cat.objects
        doc = _DocumentChecks(rc)
        for label, argv, check in (
                ("check raw", ["check", raw], doc.check_raw),
                ("check pms", ["check", calc], doc.check_pms),
                ("ho", ["ho", calc], doc.check_ho),
                ("saturate", ["saturate", calc], doc.check_saturate),
                ("mapspace", ["mapspace", raw, "--from", objs[0], "--to", objs[-1]],
                 doc.check_mapspace)):
            calls.append(Call(f"doc {doc_seed} {label}",
                              cli_runner(pm, argv + ["--format", "json"], counts), check))
    return calls, files


def _exit_matches(code, passed):
    return [] if code == (0 if passed else 1) else [f"exit {code} with verdict {passed}"]


class _DocumentChecks:
    """Checks of the five calls on one generated document, in call order.

    ``check pms`` records the axiom verdict; ``ho`` and ``saturate`` must
    answer exactly when the axioms hold.
    """

    def __init__(self, rc):
        self.rc = rc
        self._oracle = None
        self.axioms_passed = None

    @property
    def oracle(self):
        if self._oracle is None:
            self._oracle = PreorderOracle.from_relcat(self.rc)
        return self._oracle

    def check_raw(self, output):
        code, report = parsed(output)
        s = summarize(report)
        t23 = self.oracle.two_of_three_witnesses()
        t26 = self.oracle.two_of_six_passes()
        problems = []
        if not (s["category_laws_ok"] and s["relative_laws_ok"]):
            problems.append("a generated preorder failed the category or relative laws")
        if s["two_of_three_witnesses"] != t23:
            problems.append(f"{s['two_of_three_witnesses']} two-of-three witnesses, "
                            f"expected {t23}")
        if s["two_of_six"] != t26:
            problems.append(f"two-of-six {s['two_of_six']}, expected {t26}")
        return problems + _exit_matches(code, s["two_of_three"] and s["two_of_six"])

    def check_pms(self, output):
        code, report = parsed(output)
        s = summarize(report)
        self.axioms_passed = s["axioms_passed"]
        t23 = self.oracle.two_of_three_witnesses() == 0
        t26 = self.oracle.two_of_six_passes()
        problems = []
        if not s["axioms"]["a:relative-category"]:
            problems.append("axiom a failed on a generated preorder")
        if s["axioms"]["b:two-of-six"] != t26:
            problems.append(f"axiom b {s['axioms']['b:two-of-six']}, expected {t26}")
        if s["two_of_three"] != t23:
            problems.append(f"two-of-three {s['two_of_three']}, expected {t23}")
        if s["axioms_passed"] != all(s["axioms"].values()):
            problems.append("axioms verdict disagrees with the individual axioms")
        return problems + _exit_matches(code, s["axioms_passed"] and s["two_of_three"])

    def _answered(self, code, answered):
        """Problems with whether ho/saturate answered, given the axioms."""
        if not answered:
            return [] if code == 1 and self.axioms_passed is False else [
                f"exit {code} without an answer; axioms passed: {self.axioms_passed}"]
        if self.axioms_passed is False:
            return ["answered although the axioms failed"]
        return []

    def check_ho(self, output):
        code, report = parsed(output)
        s = summarize(report)
        if "objects" not in s:
            return self._answered(code, False)
        oracle = self.oracle
        problems = self._answered(code, True) + _exit_matches(code, True)
        pairs = {f"{a}=>{b}" for a in oracle.objects for b in oracle.objects}
        if s["objects"] != oracle.objects or set(s["hom_class_counts"]) != pairs:
            problems.append("ho objects or hom pairs differ from the document")
        if any(s["hom_class_counts"][f"{a}=>{b}"] < 1 for a, b in oracle.le):
            problems.append("a morphism has no class in Ho")
        return problems

    def check_saturate(self, output):
        code, report = parsed(output)
        s = summarize(report)
        if "verdict" not in s:
            return self._answered(code, False)
        problems = self._answered(code, True) + _exit_matches(code, s["verdict"] == "pass")
        if s["mode"] != "verified-structure":
            problems.append(f"saturation mode {s['mode']}")
        if s["marked_but_not_iso"]:
            problems.append(f"marked maps not invertible: {s['marked_but_not_iso']}")
        if not set(s["unmarked_but_iso"]) <= self.oracle.unmarked_ids:
            problems.append("unmarked_but_iso names a marked or unknown morphism")
        if (s["verdict"] == "pass") != (not s["unmarked_but_iso"]):
            problems.append("saturation verdict disagrees with its lists")
        return problems

    def check_mapspace(self, output):
        code, report = parsed(output)
        s = summarize(report)
        objs = self.oracle.objects
        counts, components = self.oracle.mapping_space(objs[0], objs[-1])
        problems = _exit_matches(code, True)
        if s["simplex_counts"] != counts or s["components"] != components:
            problems.append(f"mapping space {s['simplex_counts']}/{s['components']}, "
                            f"expected {counts}/{components}")
        return problems


WORKLOADS = {
    "certify": certify_setup,
    "homology": homology_setup,
    "corpus": corpus_setup,
}
