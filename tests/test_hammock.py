import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmcat import hammock
from pmcat.fincat import category_isomorphism
from pmcat.fixtures import build
from pmcat.relcat import RelCategory, random_preorder_relcat
from pmcat.pmc import trivial_partial_model_structure, verify_partial_model
from pmcat.sset import pi0
from pmcat.fincat import StructuralError
from pmcat.hammock import (
    zigzag_category, mapping_space, ho_compose, homotopy_category,
    bounded_localization_oracle, HoConsistencyError, check_saturation,
    diagnostic_saturation,
)
from conftest import (
    chain_poset, boolean_lattice, walking_iso, terminal_category, thin_functor,
    cyclic_group,
)


def iw_pms():
    cat = chain_poset(1)
    return trivial_partial_model_structure(RelCategory(cat, cat.morphisms))


def i1_pms():
    return trivial_partial_model_structure(RelCategory(chain_poset(1), []))


def b2_pms():
    cat = boolean_lattice()
    return trivial_partial_model_structure(RelCategory(cat, cat.morphisms))


def j_pms():
    cat = walking_iso()
    rc = RelCategory(cat, cat.morphisms)
    return trivial_partial_model_structure(rc, v_sub=rc.weq)


def pt_pms():
    return trivial_partial_model_structure(
        RelCategory(terminal_category(), ["id:*"]))


def brute_zigzags(rc, a, b):
    """Oracle: enumerate zigzag triples directly from the raw tables."""
    cat = rc.cat
    out = set()
    for left in cat.morphisms:
        if cat.tgt[left] != a or not rc.is_weq(left):
            continue
        for right in cat.morphisms:
            if cat.src[right] != b or not rc.is_weq(right):
                continue
            for mid in cat.morphisms:
                if cat.src[mid] == cat.src[left] and cat.tgt[mid] == cat.tgt[right]:
                    out.add((left, mid, right))
    return out


# -- zigzag categories -------------------------------------------------------

def test_rigid_interval_has_one_zigzag_forward():
    rc = i1_pms().rc
    zc = zigzag_category(rc, "0", "1")
    assert len(zc.objects) == 1
    assert zc.diagrams[zc.objects[0]] == (("0", "0", "1", "1"), ("id:0", "01", "id:1"))


def test_rigid_interval_reverse_is_empty():
    zc = zigzag_category(i1_pms().rc, "1", "0")
    assert len(zc.objects) == 0


def test_point_identity_hammock():
    zc = zigzag_category(pt_pms().rc, "*", "*")
    assert len(zc.objects) == 1


def test_enumeration_matches_brute_force():
    for pms in (iw_pms(), b2_pms(), j_pms()):
        rc = pms.rc
        for a in rc.cat.objects:
            for b in rc.cat.objects:
                zc = zigzag_category(rc, a, b)
                keys = {zc.diagrams[o][1] for o in zc.objects}
                assert keys == brute_zigzags(rc, a, b)


def test_zigzag_category_is_category_with_marked_components():
    rc = iw_pms().rc
    zc = zigzag_category(rc, "1", "0")
    assert zc.validate().ok
    for m, (end0, x, y, end1) in zc.components.items():
        assert rc.is_weq(x) and rc.is_weq(y)
        assert end0 == "id:1" and end1 == "id:0"


def test_oracle_rejects_tiny_bounds():
    with pytest.raises(Exception):
        bounded_localization_oracle(i1_pms().rc, "0", "1", 2)


def test_mapping_space_counts():
    assert mapping_space(i1_pms().rc, "0", "1", 1).size(0) == 1
    assert mapping_space(i1_pms().rc, "1", "0", 1).size(0) == 0
    ms = mapping_space(iw_pms().rc, "0", "1", 1)
    assert len(pi0(ms)) == 1


def test_mapping_space_contains_identity_component():
    for pms in (iw_pms(), b2_pms()):
        for a in pms.rc.cat.objects:
            ms = mapping_space(pms.rc, a, a, 1)
            i = pms.rc.cat.identity[a]
            zc = zigzag_category(pms.rc, a, a)
            assert zc.object_of((a,) * 4, (i,) * 3) in ms.simplices[0]


# -- composition --------------------------------------------------------------

def morphism_zigzag(cat, f):
    return (cat.identity[cat.src[f]], f, cat.identity[cat.tgt[f]])


def test_compose_with_identity_stays_in_class():
    pms = iw_pms()
    _ho_cat, class_of = homotopy_category(pms)
    cat = pms.rc.cat
    z = morphism_zigzag(cat, "01")
    assert class_of[ho_compose(pms, z, ("id:1",) * 3)] == class_of[z]
    assert class_of[ho_compose(pms, ("id:0",) * 3, z)] == class_of[z]


def test_interval_inverse_composite_is_identity_class():
    pms = iw_pms()
    _ho_cat, class_of = homotopy_category(pms)
    forward = morphism_zigzag(pms.rc.cat, "01")     # 0 ~> 1
    backward = ("01", "id:0", "id:0")               # 1 <- 0 -> 0 <- 0
    out = ho_compose(pms, forward, backward)
    assert class_of[out] == class_of[("id:0",) * 3]


def test_ho_compose_refuses_zigzags_that_do_not_meet():
    pms = iw_pms()
    forward = morphism_zigzag(pms.rc.cat, "01")     # 0 ~> 1
    with pytest.raises(StructuralError, match="do not compose"):
        ho_compose(pms, forward, forward)


def cyclic_group_pms(n):
    cat = cyclic_group(n)
    rc = RelCategory(cat, cat.morphisms)
    return trivial_partial_model_structure(rc, v_sub=rc.weq)


def test_boolean_lattice_composites_agree_with_poset_composition():
    # on every calculus fixture, and on B(Z/2) and B(Z/3) with all maps
    # marked, which pass every axiom and are not thin: 46 composable pairs
    inputs = [build(name) for name in ("pt", "I1", "Iw", "J", "B2")]
    inputs += [cyclic_group_pms(2), cyclic_group_pms(3)]
    pairs = 0
    for pms in inputs:
        assert verify_partial_model(pms).passed
        _ho_cat, class_of = homotopy_category(pms)
        cat = pms.rc.cat
        for f in cat.morphisms:
            for g in cat.out_of(cat.tgt[f]):
                out = ho_compose(pms, morphism_zigzag(cat, f), morphism_zigzag(cat, g))
                assert class_of[out] == class_of[morphism_zigzag(cat, cat.compose(g, f))]
                pairs += 1
    assert pairs == 46


def test_class_of_is_keyed_by_every_zigzag_triple_with_its_ends():
    # class_of's keys are exactly the zigzags (l, m, r) over all pairs of
    # objects, and each lands in a class from tgt[l] to src[r]
    for name in ("pt", "I1", "Iw", "J", "B2"):
        pms = build(name)
        rc = pms.rc
        cat = rc.cat
        ho_cat, class_of = homotopy_category(pms)
        expected = set()
        for a in cat.objects:
            for b in cat.objects:
                expected |= brute_zigzags(rc, a, b)
        assert set(class_of) == expected, name
        for (left, _mid, right), cid in class_of.items():
            assert ho_cat.src[cid] == cat.tgt[left], name
            assert ho_cat.tgt[cid] == cat.src[right], name


# -- homotopy categories -------------------------------------------------------

def test_ho_rigid_interval_is_interval():
    ho_cat, _class_of = homotopy_category(i1_pms())
    assert len(ho_cat.hom("0", "1")) == 1
    assert len(ho_cat.hom("1", "0")) == 0
    assert category_isomorphism(thin_functor(chain_poset(1), ho_cat, {"0": "0", "1": "1"})) is not None


def test_ho_interval_is_walking_iso():
    ho_cat, _class_of = homotopy_category(iw_pms())
    for a in ("0", "1"):
        for b in ("0", "1"):
            assert len(ho_cat.hom(a, b)) == 1
    assert category_isomorphism(thin_functor(walking_iso(), ho_cat, {"a": "0", "b": "1"})) is not None


def test_ho_point_is_terminal():
    ho_cat, _class_of = homotopy_category(pt_pms())
    assert len(ho_cat.objects) == 1 and len(ho_cat.morphisms) == 1


def test_ho_boolean_lattice_is_indiscrete():
    ho_cat, _class_of = homotopy_category(b2_pms())
    for a in ho_cat.objects:
        for b in ho_cat.objects:
            assert len(ho_cat.hom(a, b)) == 1


def test_ho_class_level_laws_hold():
    for pms in (iw_pms(), i1_pms(), b2_pms(), j_pms()):
        ho_cat, _class_of = homotopy_category(pms)
        assert ho_cat.validate().ok


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_ho_hom_sets_are_the_mapping_space_components(seed):
    # the category path (zigzag category, nerve, pi0) is the reference
    rc = random_preorder_relcat(seed)
    pms = trivial_partial_model_structure(rc)
    assume(verify_partial_model(pms).passed)
    ho_cat, _class_of = homotopy_category(pms)
    for a in rc.cat.objects:
        for b in rc.cat.objects:
            assert len(ho_cat.hom(a, b)) == len(pi0(mapping_space(rc, a, b, 1))), (a, b)


# -- bounded localization oracle ------------------------------------------------

def test_oracle_rigid_interval():
    rc = i1_pms().rc
    rep = bounded_localization_oracle(rc, "0", "1", 7)
    assert rep.count == 1 and rep.stable


def test_oracle_point():
    rep = bounded_localization_oracle(pt_pms().rc, "*", "*", 7)
    assert rep.count == 1 and rep.stable


def test_oracle_p4_connects_generator_to_single_class():
    rc = RelCategory(chain_poset(3), ["02", "13"])
    rep = bounded_localization_oracle(rc, "0", "1", 7)
    assert rep.count == 1 and rep.stable
    assert rep.class_of(((1, "01"),)) == 0


def test_oracle_agrees_with_homotopy_category():
    for pms in (pt_pms(), i1_pms(), iw_pms(), b2_pms()):
        ho_cat, _class_of = homotopy_category(pms)
        for a in pms.rc.cat.objects:
            for b in pms.rc.cat.objects:
                rep = bounded_localization_oracle(pms.rc, a, b, 7)
                assert rep.stable
                assert rep.count == len(ho_cat.hom(a, b)), (a, b)


# sha256 prefixes of repr([(a, b, all_classes at bound 7) for every pair]),
# computed before the oracle interned its words as integers
ORACLE_DIGESTS = {
    "B2": "bf301c38d63031a0", "P4": "04c0bb16db422d6a",
    0: "6cb48e867c489e93", 1: "6cf47feeb5872ca5", 2: "4dab702b53570791",
    3: "66fae36fcd6932c7", 4: "5a1b09976f21789e", 5: "e00de48e87d35124",
    6: "4dab702b53570791", 7: "e1e5c3a14e0cf755", 8: "6cf47feeb5872ca5",
    9: "d1bd92f593cc1aca", 10: "4dab702b53570791", 11: "4698133c176f7e01",
}


@pytest.mark.parametrize("name", list(ORACLE_DIGESTS))
def test_oracle_partitions_are_pinned(name):
    if name in ("B2", "P4"):
        value = build(name)
        rc = value if isinstance(value, RelCategory) else value.rc
    else:
        rc = random_preorder_relcat(name, max_objects=4)
    objects = rc.cat.objects
    parts = [(a, b, bounded_localization_oracle(rc, a, b, 7).all_classes)
             for a in objects for b in objects]
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
    assert digest == ORACLE_DIGESTS[name]


# -- saturation ------------------------------------------------------------------

def test_saturation_on_verified_fixtures():
    for pms in (pt_pms(), i1_pms(), iw_pms(), b2_pms(), j_pms()):
        assert verify_partial_model(pms).passed
        report = check_saturation(pms)
        assert report.passed, report.to_dict()


def test_saturation_groupoid_marking_is_isos():
    # all maps of the walking iso are isomorphisms and all are marked, so
    # a pass says that every map becomes invertible
    assert check_saturation(j_pms()).passed


def test_diagnostic_flags_p4_unsaturated():
    rc = RelCategory(chain_poset(3), ["02", "13"])
    report = diagnostic_saturation(rc, 7)
    assert report.verdict == "fail"
    assert "01" in report.unmarked_but_iso


def test_diagnostic_agrees_on_saturated_fixture():
    report = diagnostic_saturation(iw_pms().rc, 7)
    assert report.verdict == "pass"


def test_a_wrong_class_composite_is_refused_although_ho_is_thin(monkeypatch):
    # the class table of Ho is built outside the category engine, so it is
    # law-checked in full: Ho being thin does not make its table right
    pms = iw_pms()
    assert homotopy_category(pms)[0].is_thin()
    real = hammock.FinCategory

    def with_a_wrong_composite(objects, rows, identity, comp):
        ends = {m: (s, t) for m, s, t in rows}
        ids = set(identity.values())
        (f, g), h = next((pair, h) for pair, h in comp.items() if not ids & set(pair))
        wrong = next(m for m in ends if ends[m] != ends[h])
        return real(objects, rows, identity, {**comp, (f, g): wrong})

    monkeypatch.setattr(hammock, "FinCategory", with_a_wrong_composite)
    with pytest.raises(HoConsistencyError, match="composite-typing"):
        homotopy_category(pms)
