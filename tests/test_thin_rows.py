"""Decisions read from the rows of a thin category's relation: two-of-six
and two-of-three, pushouts and pullbacks, axioms (c-i) and (c-ii), the
middle maps of (c-iii) and pi0.  Each must give what its composing or
union-find reference in conftest gives, on the fixtures, on random preorders, on the codiscrete
4- and 5-point preorders with everything marked, and on calculus data
broken on purpose."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from pmcat.cli import main
from pmcat.document import serialize_document
from pmcat.fincat import FinCategory, find_pullback, find_pushout, join_index
from pmcat.fixtures import FIXTURES, build, fixture_path
from pmcat.hammock import zigzag_category
from pmcat.pmc import (
    PartialModelStructure, trivial_partial_model_structure, verify_partial_model,
)
from pmcat.relcat import (
    RelCategory, check_two_of_six, check_two_of_three, preorder_category,
    random_preorder_relcat,
)
from pmcat.sset import nerve, pi0
from conftest import (
    SABOTAGES, cyclic_group, reference_axiom_report, reference_pi0, reference_pullback,
    reference_pushout, reference_two_of_six, reference_two_of_three, sabotaged,
    thin_decision_counts,
)

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def codiscrete(n):
    """The preorder on x0..x(n-1) in which every object is below every
    other, everything marked."""
    objs = [f"x{i}" for i in range(n)]
    cat = preorder_category(objs, [(a, b) for a in objs for b in objs if a != b],
                            lambda a, b: f"{a}<{b}")
    return RelCategory(cat, cat.morphisms)


def relcat_of(name):
    built = build(name)
    return getattr(built, "rc", built)


THIN_INPUTS = [relcat_of(name) for name in FIXTURES] + [codiscrete(4), codiscrete(5)]


def assert_rows_agree(rc):
    """Every decision that reads rows against its reference on ``rc``."""
    cat = rc.cat
    assert check_two_of_six(rc) == reference_two_of_six(rc)
    assert check_two_of_three(rc) == reference_two_of_three(rc)
    for f in cat.morphisms:
        for g in cat.out_of(cat.src[f]):
            assert find_pushout(cat, f, g) == reference_pushout(cat, f, g), (f, g)
        for g in cat.into(cat.tgt[f]):
            assert find_pullback(cat, f, g) == reference_pullback(cat, f, g), (f, g)
    s = nerve(cat, 1)
    assert pi0(s) == reference_pi0(s)


def assert_axioms_agree(pms):
    assert verify_partial_model(pms).to_dict() == reference_axiom_report(pms).to_dict()


# -- the relations themselves ------------------------------------------------------

@pytest.mark.parametrize("rc", THIN_INPUTS, ids=list(FIXTURES) + ["codiscrete4", "codiscrete5"])
def test_the_relation_and_its_marked_rows_are_the_hom_sets(rc):
    cat = rc.cat
    for i, a in enumerate(cat.objects):
        assert cat.relation[i] == sum(1 << j for j, b in enumerate(cat.objects)
                                      if cat.hom(a, b))
        assert rc.marked_relation[i] == sum(1 << j for j, b in enumerate(cat.objects)
                                            if any(rc.is_weq(m) for m in cat.hom(a, b)))


@pytest.mark.parametrize("rc", THIN_INPUTS, ids=list(FIXTURES) + ["codiscrete4", "codiscrete5"])
def test_the_down_relation_is_the_relation_transposed(rc):
    cat = rc.cat
    n = len(cat.objects)
    assert cat.down_relation == [sum(1 << i for i in range(n) if cat.relation[i] >> j & 1)
                                 for j in range(n)]


def test_a_category_that_is_not_thin_keeps_no_relation():
    cat = cyclic_group(2)
    assert cat.relation is None and cat.down_relation is None
    assert RelCategory(cat, cat.morphisms).marked_relation is None


def test_join_index_is_the_first_bound_below_every_other():
    # up-sets of the chain 0 < 1 < 2 and of two incomparable tops over 0
    chain = [0b111, 0b110, 0b100]
    assert join_index(chain, 0b110) == 1 and join_index(chain, 0b100) == 2
    assert join_index(chain, 0) == -1
    assert join_index([0b111, 0b010, 0b100], 0b110) == -1
    # isomorphic bounds: the first one wins
    assert join_index([0b11, 0b11], 0b11) == 0


# -- two-of-six, pushouts, pullbacks and pi0 -----------------------------------------

@pytest.mark.parametrize("rc", THIN_INPUTS, ids=list(FIXTURES) + ["codiscrete4", "codiscrete5"])
def test_row_decisions_match_their_references(rc):
    assert_rows_agree(rc)
    assert_axioms_agree(trivial_partial_model_structure(rc))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_row_decisions_match_their_references_on_random_preorders(seed):
    assert_rows_agree(random_preorder_relcat(seed, max_objects=6))


def test_the_codiscrete_preorders_have_their_known_answers():
    # everything marked: two-of-six and two-of-three pass, every span has
    # a pushout (any object is a least upper bound, the first one wins)
    for n in (4, 5):
        rc = codiscrete(n)
        assert check_two_of_six(rc).passed and check_two_of_three(rc).passed
        assert find_pushout(rc.cat, "x1<x2", "x1<x3").apex == "x0"
        assert pi0(nerve(rc.cat, 1)) == (tuple(rc.cat.objects),)
        # V = identities would fail: the pullback of an identity along a
        # map into its object is the first object, an isomorphism away
        assert verify_partial_model(trivial_partial_model_structure(rc, v_sub=rc.weq)).passed


def test_unmarked_maps_of_a_codiscrete_preorder_fail_as_the_reference_does():
    cat = codiscrete(4).cat
    for unmarked in (("x0<x1",), ("x0<x1", "x1<x0"), ("x2<x3", "x1<x2")):
        rc = RelCategory(cat, [m for m in cat.morphisms if m not in unmarked])
        assert not check_two_of_six(rc).passed
        assert_rows_agree(rc)


def test_a_span_under_two_minimal_bounds_has_no_pushout():
    # s below a and b, both below u0 and u1, which are incomparable: no
    # least upper bound, though u0, the first object, is a bound; the
    # cospan a -> u0 <- b has its meet s for pullback
    rows = [("sa", "s", "a"), ("sb", "s", "b")] + [
        (f"{x}{u}", x, u) for x in ("a", "b") for u in ("u0", "u1")] + [
        (f"s{u}", "s", u) for u in ("u0", "u1")]
    comp = {("sa", f"a{u}"): f"s{u}" for u in ("u0", "u1")}
    comp.update({("sb", f"b{u}"): f"s{u}" for u in ("u0", "u1")})
    cat = FinCategory.build(["u0", "u1", "a", "b", "s"], rows, comp)
    assert find_pushout(cat, "sa", "sb") is None is reference_pushout(cat, "sa", "sb")
    assert find_pullback(cat, "au0", "bu0").apex == "s"
    assert find_pullback(cat, "au0", "bu0") == reference_pullback(cat, "au0", "bu0")
    assert_rows_agree(RelCategory(cat, cat.morphisms))


def test_the_row_decisions_compose_nothing(monkeypatch):
    reference = codiscrete(4)
    expected = (reference_two_of_six(reference), reference_two_of_three(reference),
                reference_pushout(reference.cat, "x1<x2", "x1<x3"),
                reference_pullback(reference.cat, "x1<x2", "x3<x2"))
    rc = codiscrete(4)      # its opposite is built after compose refuses
    cat = rc.cat

    def refuse(*_):
        raise AssertionError("composed")
    monkeypatch.setattr(cat, "compose", refuse)
    monkeypatch.setattr(FinCategory, "isos", refuse)
    assert (check_two_of_six(rc), check_two_of_three(rc),
            find_pushout(cat, "x1<x2", "x1<x3"),
            find_pullback(cat, "x1<x2", "x3<x2")) == expected


def test_pi0_of_a_thin_nerve_visits_no_morphism(monkeypatch):
    rc = build("B2").rc
    zigzags = zigzag_category(rc, "0", "12")
    s = nerve(zigzags, 1)
    expected = reference_pi0(s)
    monkeypatch.setattr(type(s), "edge_ends", lambda self: pytest.fail("edges walked"))
    assert pi0(s) == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_pi0_of_every_zigzag_category_matches_the_union_find(name):
    rc = relcat_of(name)
    for a in rc.cat.objects:
        for b in rc.cat.objects:
            s = nerve(zigzag_category(rc, a, b), 1)
            assert pi0(s) == reference_pi0(s), (a, b)


def test_pi0_of_a_discrete_and_of_a_group_category():
    discrete = FinCategory.build(["a", "b", "c"], [], {})
    s = nerve(discrete, 1)
    assert pi0(s) == reference_pi0(s) == (("a",), ("b",), ("c",))
    s = nerve(cyclic_group(3), 1)
    assert pi0(s) == reference_pi0(s) == (("*",),)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_pi0_of_random_zigzag_categories_matches_the_union_find(seed):
    rc = random_preorder_relcat(seed, max_objects=4)
    objs = rc.cat.objects
    s = nerve(zigzag_category(rc, objs[0], objs[-1]), 1)
    assert pi0(s) == reference_pi0(s)


# -- (c-iii) and the whole axiom report ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seeds, st.sampled_from((None,) + SABOTAGES))
def test_axiom_reports_match_the_reference_on_random_preorders(seed, how):
    pms = trivial_partial_model_structure(random_preorder_relcat(seed, max_objects=6))
    assert_axioms_agree(pms if how is None else sabotaged(pms, how))


# the first seeds whose preorder has a composable pair of non-identity
# weak equivalences with a composite that is no identity, so that every
# sabotage has something to break
SABOTAGE_SEEDS = [s for s in range(60) if sabotaged(
    trivial_partial_model_structure(random_preorder_relcat(s, max_objects=6)),
    "u-not-closed").u_sub != random_preorder_relcat(s, max_objects=6).weq][:8]

# what each sabotage must make the report say
SABOTAGE_SIGNS = {
    "deleted-middle": ("c-iii:functorial-factorization", "no middle map"),
    "mistyped-middle": ("c-iii:functorial-factorization", "mistyped"),
    "dropped-factorization": ("c-iii:functorial-factorization", "no factorization"),
    "u-not-closed": ("c-i:u-pushout-closure", None),
    "v-not-closed": ("c-ii:v-pullback-closure", None),
}


@pytest.mark.parametrize("how", SABOTAGES)
@pytest.mark.parametrize("seed", SABOTAGE_SEEDS)
def test_sabotaged_calculus_data_is_reported_as_the_reference_reports_it(seed, how):
    pms = sabotaged(trivial_partial_model_structure(random_preorder_relcat(seed, max_objects=6)),
                    how)
    report = verify_partial_model(pms)
    assert report.to_dict() == reference_axiom_report(pms).to_dict()
    if how == "non-square-middle":
        assert report.passed == verify_partial_model(
            trivial_partial_model_structure(pms.rc)).passed
        assert "naming no square of Arr(W)" in report.verdict(
            "c-iii:functorial-factorization").notes[-1]
        return
    axiom, text = SABOTAGE_SIGNS[how]
    verdict = report.verdict(axiom)
    assert not verdict.passed
    assert text is None or any(text in str(w[-1]) for w in verdict.witnesses)


def test_middle_maps_missing_and_mistyped_are_named_in_square_order():
    # every other middle map of the codiscrete 4-point preorder deleted
    # and the rest of the odd ones mistyped: one witness per square, in
    # the order of (w, w2), as the reference lists them
    pms = trivial_partial_model_structure(codiscrete(4))
    middle = {}
    for i, (sq, m) in enumerate(sorted(pms.middle.items(), reverse=True)):
        if i % 2:
            middle[sq] = m if i % 3 else "x0<x1"
    broken = PartialModelStructure(pms.rc, pms.u_sub, pms.v_sub, pms.factorization, middle)
    report = verify_partial_model(broken)
    assert report.to_dict() == reference_axiom_report(broken).to_dict()
    witnesses = report.verdict("c-iii:functorial-factorization").witnesses
    assert {w[-1] for w in witnesses} >= {"no middle map", "middle map x0<x1 mistyped"}


def test_the_cross_check_counts_what_it_compares():
    counts = thin_decision_counts(range(12))
    assert counts["documents"] == 12
    assert counts["axiom reports"] == 24
    assert counts["failing axiom reports"] > 0
    assert counts["pushouts and pullbacks"] > 100


# -- no opposite on the thin paths of check, ho and saturate -------------------------

def counted_opposites(monkeypatch):
    calls = []

    def counted(cat, _real=FinCategory.opposite):
        calls.append(cat)
        return _real(cat)
    monkeypatch.setattr(FinCategory, "opposite", counted)
    return calls


def run_quietly(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def test_check_ho_and_saturate_build_no_opposite_on_thin_documents(monkeypatch, tmp_path):
    # the fixtures with calculus data, then 100 random preorders with the
    # trivial structure: every pullback is a meet read off the down-sets
    paths = [str(fixture_path(name)) for name in FIXTURES
             if isinstance(build(name), PartialModelStructure)]
    assert len(paths) == 5
    for seed in range(100):
        doc = tmp_path / f"r{seed}.relcat"
        doc.write_text(serialize_document(trivial_partial_model_structure(
            random_preorder_relcat(seed, max_objects=6))))
        paths.append(str(doc))
    calls = counted_opposites(monkeypatch)
    codes = [run_quietly(command, path, "--format", "json")
             for path in paths for command in ("check", "ho", "saturate")]
    assert set(codes) == {0, 1} and calls == []


def test_a_group_still_pulls_back_through_its_opposite(monkeypatch):
    # B(Z/2), everything marked: not thin, so the general search runs in
    # the opposite and agrees with the composing reference
    cat = cyclic_group(2)
    expected = {(f, g): reference_pullback(cat, f, g)
                for f in cat.morphisms for g in cat.into(cat.tgt[f])}
    calls = counted_opposites(monkeypatch)
    assert {key: find_pullback(cat, *key) for key in expected} == expected
    assert all(wit is not None for wit in expected.values()) and calls
