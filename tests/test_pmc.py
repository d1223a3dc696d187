from pmcat.fincat import FinCategory
from pmcat.pmc import (
    PartialModelStructure, trivial_partial_model_structure, weq_squares,
    verify_partial_model,
)
from pmcat.relcat import RelCategory
from conftest import chain_poset, boolean_lattice, walking_iso, terminal_category


def iw_pms():
    cat = chain_poset(1)
    return trivial_partial_model_structure(RelCategory(cat, cat.morphisms))


def i1_pms():
    return trivial_partial_model_structure(RelCategory(chain_poset(1), []))


def b2_pms():
    cat = boolean_lattice()
    return trivial_partial_model_structure(RelCategory(cat, cat.morphisms))


def j_pms():
    # V = identities is not pullback-closed here: the chosen pullback of
    # id:a along t has an isomorphism leg.  V = W is.
    cat = walking_iso()
    rc = RelCategory(cat, cat.morphisms)
    return trivial_partial_model_structure(rc, v_sub=rc.weq)


def test_interval_with_trivial_factorization_passes():
    report = verify_partial_model(iw_pms())
    assert report.passed, report.describe()


def test_boolean_lattice_passes():
    report = verify_partial_model(b2_pms())
    assert report.passed, report.describe()


def test_rigid_interval_passes_vacuously():
    report = verify_partial_model(i1_pms())
    assert report.passed, report.describe()


def test_walking_iso_passes():
    report = verify_partial_model(j_pms())
    assert report.passed, report.describe()


def test_terminal_passes():
    pt = RelCategory(terminal_category(), ["id:*"])
    report = verify_partial_model(trivial_partial_model_structure(pt))
    assert report.passed


def test_p4_fails_two_of_six_with_witness():
    rc = RelCategory(chain_poset(3), ["02", "13"])
    pms = trivial_partial_model_structure(rc)
    report = verify_partial_model(pms)
    assert not report.passed
    two_six = report.verdict("b:two-of-six")
    assert not two_six.passed
    assert two_six.witnesses[0] == ("01", "12", "23")


def test_factorization_composite_re_asserted():
    pms = b2_pms()
    cat = pms.rc.cat
    assert verify_partial_model(pms).passed
    for w in pms.rc.weq:
        u, mid, v = pms.factor(w)
        assert pms.in_u(u) and pms.in_v(v)
        assert cat.compose(v, u) == w


def test_pullback_closure_failure_detected():
    # V = {02} on [2]: the pullback of 02 along 12 has apex 0 with
    # pulled-back leg 01, which is not in V.
    cat = chain_poset(2)
    rc = RelCategory(cat, cat.morphisms)
    fact = {w: (w, cat.tgt[w], cat.identity[cat.tgt[w]]) for w in rc.weq}
    middle = {sq: sq[3] for sq in weq_squares(rc)}
    pms = PartialModelStructure(rc, rc.weq, ["02"], fact, middle)
    report = verify_partial_model(pms)
    v_closure = report.verdict("c-ii:v-pullback-closure")
    assert not v_closure.passed
    assert any(w[0] == "02" and w[1] == "12" for w in v_closure.witnesses)


def test_factorization_totality_failure():
    cat = chain_poset(1)
    rc = RelCategory(cat, cat.morphisms)
    fact = {w: (w, cat.tgt[w], cat.identity[cat.tgt[w]]) for w in rc.weq}
    del fact["01"]
    middle = {sq: sq[3] for sq in weq_squares(rc)}
    pms = PartialModelStructure(rc, rc.weq, [], fact, middle)
    report = verify_partial_model(pms)
    fr = report.verdict("c-iii:functorial-factorization")
    assert not fr.passed
    assert ("01", "no factorization") in fr.witnesses


def test_missing_middle_map_detected():
    cat = chain_poset(1)
    rc = RelCategory(cat, cat.morphisms)
    fact = {w: (w, cat.tgt[w], cat.identity[cat.tgt[w]]) for w in rc.weq}
    middle = {sq: sq[3] for sq in weq_squares(rc)}
    victim = ("id:0", "01", "id:0", "01")
    assert victim in middle
    del middle[victim]
    pms = PartialModelStructure(rc, rc.weq, [], fact, middle)
    report = verify_partial_model(pms)
    assert not report.verdict("c-iii:functorial-factorization").passed


# -- identity and pasting laws of the middle maps ------------------------------

def idempotent_pms(prefer):
    """One object, an idempotent e (e.e = e), everything marked, U = V = W,
    and id:* = id.id, e = e.e.  A square's middle map is ``prefer`` where
    it makes both sub-squares commute, else the other endomorphism."""
    cat = FinCategory.build(["*"], [("e", "*", "*")], {("e", "e"): "e"})
    rc = RelCategory(cat, cat.morphisms)
    fact = {w: (w, "*", w) for w in rc.weq}
    other = {"e": "id:*", "id:*": "e"}[prefer]

    def commutes(sq, m):
        w, w2, a, b = sq
        (u1, _, v1), (u2, _, v2) = fact[w], fact[w2]
        return (cat.compose(m, u1) == cat.compose(u2, a)
                and cat.compose(b, v1) == cat.compose(v2, m))

    middle = {sq: prefer if commutes(sq, prefer) else other
              for sq in weq_squares(rc)}
    return PartialModelStructure(rc, rc.weq, rc.weq, fact, middle)


def test_middle_map_identity_law_violation_has_witness():
    fr = verify_partial_model(idempotent_pms("e")).verdict(
        "c-iii:functorial-factorization")
    assert fr.witnesses == [(("e", "e", "id:*", "id:*"), "identity square has middle e")]


def test_middle_map_pasting_law_violation_has_witnesses():
    fr = verify_partial_model(idempotent_pms("id:*")).verdict(
        "c-iii:functorial-factorization")
    assert len(fr.witnesses) == 4
    assert all(w[-1] == "middle maps do not paste" for w in fr.witnesses)


# -- axiom subsumption property ----------------------------------------------

def test_verify_implies_two_of_six():
    from pmcat.relcat import check_two_of_six
    for pms in (iw_pms(), i1_pms(), b2_pms(), j_pms()):
        if verify_partial_model(pms).passed:
            assert check_two_of_six(pms.rc).passed


def test_u_pushouts_re_verified_for_all_legs():
    from pmcat.fincat import find_pushout
    pms = b2_pms()
    cat = pms.rc.cat
    for u in pms.u_sub:
        for f in cat.out_of(cat.src[u]):
            wit = find_pushout(cat, u, f)
            assert wit is not None and wit.verify(cat, u, f)
            assert pms.in_u(wit.leg_g)


def test_full_u_v_marking_variants_pass():
    # the shipped fixtures carry U = V = W with the trivial factorization
    from pmcat.fixtures import build
    for name in ("Iw", "B2", "J"):
        pms = build(name)
        assert set(pms.v_sub) == set(pms.rc.weq)
        assert set(pms.u_sub) == set(pms.rc.weq)
        assert verify_partial_model(pms).passed, name
