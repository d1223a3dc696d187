import pytest
from hypothesis import given, settings, strategies as st

from pmcat.fincat import StructuralError
from pmcat.relcat import (
    RelCategory, validate_relative, check_two_of_three, check_two_of_six,
    restrict_to_weq, random_preorder_relcat,
)
from conftest import chain_poset, cyclic_group, walking_iso


def iw():
    cat = chain_poset(1)
    return RelCategory(cat, cat.morphisms)


def i1():
    return RelCategory(chain_poset(1), [])


def p4():
    return RelCategory(chain_poset(3), ["02", "13"])


def test_validate_relative_iw():
    assert validate_relative(iw()).ok


def test_validate_relative_non_closed_pair_absent():
    # W = {ids, 01} on poset [2]: no two marked non-identities compose,
    # so closure holds.  Oracle: scan the marked set by hand.
    cat = chain_poset(2)
    rc = RelCategory(cat, ["01"])
    marked = set(rc.weq)
    assert not any(
        cat.tgt[f] == cat.src[g] and not cat.is_identity(f) and not cat.is_identity(g)
        for f in marked for g in marked)
    assert validate_relative(rc).ok


def test_validate_relative_closure_violation():
    cat = chain_poset(2)
    rc = RelCategory(cat, ["01", "12"])  # composite 02 missing
    report = validate_relative(rc)
    assert not report.ok
    assert any(v.law == "not-closed" and v.witness == ("01", "12")
               for v in report.violations)


def test_every_identity_is_marked():
    # identities are marked whether or not weq lists them, in morphism order
    for cat, weq in ((chain_poset(2), []), (chain_poset(2), ["01"]),
                     (cyclic_group(3), []), (walking_iso(), ["s"])):
        rc = RelCategory(cat, weq)
        ids = {cat.identity[o] for o in cat.objects}
        assert ids <= set(rc.weq)
        assert set(rc.weq) == ids | set(weq)
        assert list(rc.weq) == [m for m in cat.morphisms if m in rc.weq]
        assert validate_relative(rc).ok


def test_unknown_weq_id_is_structural():
    with pytest.raises(StructuralError):
        RelCategory(chain_poset(1), ["zz"])


# -- two-of-three ----------------------------------------------------------

def test_two_of_three_all_marked_passes():
    assert check_two_of_three(iw()).passed


def test_two_of_three_p4_passes():
    # Oracle: scan pairs by hand -- marked composable non-identity pairs
    # in W = {02, 13} do not exist, and no pair has exactly two of
    # {r, s, sr} marked.  The checker must agree.
    assert check_two_of_three(p4()).passed


def test_two_of_three_failure_witness():
    cat = chain_poset(2)
    rc = RelCategory(cat, ["01", "02"])
    report = check_two_of_three(rc)
    assert not report.passed
    assert ("01", "12") in report.witnesses


# -- two-of-six ------------------------------------------------------------

def test_two_of_six_p4_fails_with_expected_witness():
    report = check_two_of_six(p4())
    assert not report.passed
    assert report.witnesses[0] == ("01", "12", "23")


def test_two_of_six_iw_passes():
    report = check_two_of_six(iw())
    assert report.passed
    assert any("two-of-three: pass" in n for n in report.notes)
    assert any("isomorphisms marked: pass" in n for n in report.notes)


def test_two_of_six_identities_only_passes():
    assert check_two_of_six(i1()).passed


def test_two_of_six_walking_iso():
    j = walking_iso()
    assert check_two_of_six(RelCategory(j, j.morphisms)).passed
    # marking only identities fails iso-containment via the triple scan:
    # s, t, s gives ts = id and st = id marked, but s is not marked
    report = check_two_of_six(RelCategory(j, []))
    assert not report.passed
    assert ("s", "t", "s") in report.witnesses


# -- implications on random fixtures ----------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_two_of_six_implies_two_of_three_and_isos(seed):
    rc = random_preorder_relcat(seed)
    assert validate_relative(rc).ok
    if check_two_of_six(rc).passed:
        assert check_two_of_three(rc).passed
        assert all(rc.is_weq(m) for m in rc.cat.isos())


def _two_of_six_by_triples(rc):
    """Reference: every composable triple, each composite formed anew."""
    cat = rc.cat
    witnesses = []
    for r in cat.morphisms:
        for s in cat.out_of(cat.tgt[r]):
            sr = cat.compose(s, r)
            if not rc.is_weq(sr):
                continue
            for t in cat.out_of(cat.tgt[s]):
                if not rc.is_weq(cat.compose(t, s)):
                    continue
                tsr = cat.compose(t, sr)
                if not (rc.is_weq(r) and rc.is_weq(s) and rc.is_weq(t) and rc.is_weq(tsr)):
                    witnesses.append((r, s, t))
    return witnesses


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=0))
def test_two_of_six_witnesses_match_the_triple_scan(seed, drop):
    # the random marking, and the same marking with some maps dropped
    # (no longer closed), give the reference's witnesses in its order
    rc = random_preorder_relcat(seed)
    thinned = RelCategory(rc.cat, [w for i, w in enumerate(rc.weq) if not drop >> i & 1])
    for marked in (rc, thinned):
        assert check_two_of_six(marked).witnesses == _two_of_six_by_triples(marked)


def test_two_of_six_witnesses_match_the_triple_scan_on_groups():
    for cat in (cyclic_group(2), cyclic_group(3), walking_iso()):
        for weq in (cat.morphisms, []):
            rc = RelCategory(cat, weq)
            assert check_two_of_six(rc).witnesses == _two_of_six_by_triples(rc)


# -- restriction to the marked subcategory -----------------------------------

def test_restrict_to_weq_iw_is_iw():
    rc = iw()
    sub = restrict_to_weq(rc)
    assert sub.cat.morphisms == rc.cat.morphisms
    assert sub.weq == sub.cat.morphisms


def test_restrict_to_weq_rigid_interval_is_discrete():
    sub = restrict_to_weq(i1())
    assert len(sub.cat.objects) == 2
    assert all(sub.cat.is_identity(m) for m in sub.cat.morphisms)


def test_restrict_to_weq_p4():
    sub = restrict_to_weq(p4())
    assert set(sub.cat.morphisms) == {"id:0", "id:1", "id:2", "id:3", "02", "13"}
    assert sub.cat.validate().ok
