"""Law-level property tests over seeded random relative categories."""

from hypothesis import given, settings, strategies as st

from pmcat.fincat import find_pushout, find_pullback
from pmcat.relcat import (
    RelCategory, random_preorder_relcat, validate_relative, restrict_to_weq,
)
from pmcat.sset import nerve, rezk_nerve, pi0, homology
from conftest import boolean_lattice, cell_violations

seeds = st.integers(min_value=0, max_value=10 ** 6)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_pushout_witnesses_survive_independent_recheck(seed):
    rc = random_preorder_relcat(seed, max_objects=5)
    cat = rc.cat
    checked = 0
    for f in cat.morphisms:
        for g in cat.out_of(cat.src[f]):
            wit = find_pushout(cat, f, g)
            if wit is not None:
                assert wit.verify(cat, f, g)
                checked += 1
            if checked >= 12:
                return


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_pullback_witnesses_survive_independent_recheck(seed):
    rc = random_preorder_relcat(seed, max_objects=5)
    cat = rc.cat
    checked = 0
    for f in cat.morphisms:
        for g in cat.into(cat.tgt[f]):
            wit = find_pullback(cat, f, g)
            if wit is not None:
                assert wit.verify(cat, f, g)
                checked += 1
            if checked >= 12:
                return


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_nerve_identities_on_random_categories(seed):
    rc = random_preorder_relcat(seed, max_objects=5)
    s = nerve(rc.cat, 3)
    assert s.validate_identities() == []


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_rezk_identities_on_random_relative_categories(seed):
    rc = random_preorder_relcat(seed, max_objects=4)
    b = rezk_nerve(rc, 2, 2)
    assert b.validate_identities() == [] and cell_violations(b) == []
    # level zero counts the marked nerve
    w_nerve = nerve(restrict_to_weq(rc).cat, 2)
    for n in range(3):
        assert b.size(0, n) == w_nerve.size(n)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_h0_rank_is_component_count(seed):
    rc = random_preorder_relcat(seed, max_objects=5)
    s = nerve(rc.cat, 2)
    assert homology(s, 0)[0].rank == len(pi0(s))


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_restrict_to_weq_is_fully_marked_and_lawful(seed):
    rc = random_preorder_relcat(seed, max_objects=6)
    sub = restrict_to_weq(rc)
    assert sub.weq == sub.cat.morphisms
    assert sub.cat.validate().ok
    assert validate_relative(sub).ok


def test_boolean_lattice_slide_instance():
    # a concrete slide square: (1<12 forward, 2<12 backward) rewrites to
    # (0<1 backward, 0<2 forward); the oracle must identify the words
    from pmcat.hammock import bounded_localization_oracle, FWD, BWD
    cat = boolean_lattice()
    rc = RelCategory(cat, cat.morphisms)
    rep = bounded_localization_oracle(rc, "1", "2", 6)
    w1 = ((FWD, "1<12"), (BWD, "2<12"))
    w2 = ((BWD, "0<1"), (FWD, "0<2"))
    assert rep.class_of(w1) is not None
    assert rep.class_of(w1) == rep.class_of(w2)
