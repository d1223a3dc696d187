import hashlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmcat import hammock
from pmcat.fincat import category_isomorphism
from pmcat.fixtures import build
from pmcat.relcat import RelCategory, random_preorder_relcat
from pmcat.pmc import trivial_partial_model_structure, verify_partial_model
from pmcat.sset import pi0
from pmcat.hammock import (
    Zigzag, identity_zigzag, zigzag_of_morphism, zigzag_category, mapping_space,
    ho_compose, homotopy_category, bounded_localization_oracle, HoConsistencyError,
    check_saturation, diagnostic_saturation,
)
from conftest import (
    chain_poset, boolean_lattice, walking_iso, terminal_category, thin_functor,
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

def test_compose_with_identity_stays_in_class():
    pms = iw_pms()
    ho = homotopy_category(pms)
    rc = pms.rc
    z = zigzag_of_morphism(rc, "01")
    out = ho_compose(pms, z, identity_zigzag(rc, "1"))
    assert (ho.class_of[("0", "1", out.key)]
            == ho.class_of[("0", "1", z.key)])
    out2 = ho_compose(pms, identity_zigzag(rc, "0"), z)
    assert (ho.class_of[("0", "1", out2.key)]
            == ho.class_of[("0", "1", z.key)])


def test_interval_inverse_composite_is_identity_class():
    pms = iw_pms()
    ho = homotopy_category(pms)
    rc = pms.rc
    forward = zigzag_of_morphism(rc, "01")          # 0 ~> 1
    backward = Zigzag("1", "0", "01", "id:0", "id:0")  # 1 <- 0 -> 0 <- 0
    out = ho_compose(pms, forward, backward)
    assert out.source == "0" and out.target == "0"
    iz = identity_zigzag(rc, "0")
    assert (ho.class_of[("0", "0", out.key)]
            == ho.class_of[("0", "0", iz.key)])


def test_boolean_lattice_composites_agree_with_poset_composition():
    pms = b2_pms()
    ho = homotopy_category(pms)
    cat = pms.rc.cat
    for f in cat.morphisms:
        for g in cat.out_of(cat.tgt[f]):
            zf = zigzag_of_morphism(pms.rc, f)
            zg = zigzag_of_morphism(pms.rc, g)
            out = ho_compose(pms, zf, zg)
            composite = cat.compose(g, f)
            zc = zigzag_of_morphism(pms.rc, composite)
            key = (cat.src[f], cat.tgt[g])
            assert (ho.class_of[key + (out.key,)]
                    == ho.class_of[key + (zc.key,)])


# -- homotopy categories -------------------------------------------------------

def test_ho_rigid_interval_is_interval():
    ho = homotopy_category(i1_pms())
    assert len(ho.hom_classes("0", "1")) == 1
    assert len(ho.hom_classes("1", "0")) == 0
    assert category_isomorphism(thin_functor(chain_poset(1), ho.cat, {"0": "0", "1": "1"})) is not None


def test_ho_interval_is_walking_iso():
    ho = homotopy_category(iw_pms())
    for a in ("0", "1"):
        for b in ("0", "1"):
            assert len(ho.hom_classes(a, b)) == 1
    assert category_isomorphism(thin_functor(walking_iso(), ho.cat, {"a": "0", "b": "1"})) is not None


def test_ho_point_is_terminal():
    ho = homotopy_category(pt_pms())
    assert len(ho.cat.objects) == 1 and len(ho.cat.morphisms) == 1


def test_ho_boolean_lattice_is_indiscrete():
    ho = homotopy_category(b2_pms())
    for a in ho.cat.objects:
        for b in ho.cat.objects:
            assert len(ho.hom_classes(a, b)) == 1


def test_ho_class_level_laws_hold():
    for pms in (iw_pms(), i1_pms(), b2_pms(), j_pms()):
        ho = homotopy_category(pms)
        assert ho.cat.validate().ok


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_ho_hom_sets_are_the_mapping_space_components(seed):
    # the category path (zigzag category, nerve, pi0) is the reference
    rc = random_preorder_relcat(seed)
    pms = trivial_partial_model_structure(rc)
    assume(verify_partial_model(pms).passed)
    ho = homotopy_category(pms)
    for a in rc.cat.objects:
        for b in rc.cat.objects:
            assert len(ho.cat.hom(a, b)) == len(pi0(mapping_space(rc, a, b, 1))), (a, b)


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
        ho = homotopy_category(pms)
        for a in pms.rc.cat.objects:
            for b in pms.rc.cat.objects:
                rep = bounded_localization_oracle(pms.rc, a, b, 7)
                assert rep.stable
                assert rep.count == len(ho.hom_classes(a, b)), (a, b)


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
    # all maps of the walking iso are isomorphisms, so marking
    # everything is exactly marking the isomorphisms
    report = check_saturation(j_pms())
    assert report.passed
    assert set(report.iso_morphisms) == set(walking_iso().morphisms)


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
    assert homotopy_category(pms).cat.is_thin()
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
