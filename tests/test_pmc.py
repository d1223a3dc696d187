from hypothesis import given, settings, strategies as st

from pmcat.document import parse_document
from pmcat.fincat import FinCategory, StructuralError
from pmcat.pmc import (
    PartialModelStructure, trivial_partial_model_structure, weq_squares,
    verify_partial_model,
)
from pmcat.relcat import RelCategory, diagram_category, random_preorder_relcat, WEQ
from conftest import (
    chain_poset, boolean_lattice, walking_iso, terminal_category, cyclic_group,
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


# -- (c-iii) against a reference ------------------------------------------------

LAWS_NOT_CHECKED = ("identity and pasting laws not checked: "
                    "the middle maps do not define a functor Arr(W) -> C")


def reference_laws(pms):
    """The identity and pasting laws of the middle maps, checked square
    by square and pair by pair of composable squares, with the witnesses
    (c-iii) reports."""
    rc, cat = pms.rc, pms.rc.cat
    squares = weq_squares(rc)
    square_set = set(squares)
    out_of = {}
    for sq in squares:
        out_of.setdefault(sq[0], []).append(sq)
    wit = []
    for w in rc.weq:
        if w not in pms.factorization:
            continue
        sq = (w, w, cat.identity[cat.src[w]], cat.identity[cat.tgt[w]])
        if sq in square_set:
            m = pms.middle.get(sq)
            if m is not None and m != cat.identity[pms.factorization[w][1]]:
                wit.append((sq, f"identity square has middle {m}"))
    for sq1 in squares:
        w, w2, a, b = sq1
        for sq2 in out_of.get(w2, ()):
            _, w3, a2, b2 = sq2
            pasted = (w, w3, cat.compose(a2, a), cat.compose(b2, b))
            m1, m2, m12 = (pms.middle.get(sq) for sq in (sq1, sq2, pasted))
            if None in (m1, m2, m12):
                continue
            try:
                m2m1 = cat.compose(m2, m1)
            except StructuralError:
                continue
            if m2m1 != m12:
                wit.append((sq1, sq2, "middle maps do not paste"))
    return wit


def middles_typed(pms):
    cat = pms.rc.cat
    for sq in weq_squares(pms.rc):
        m = pms.middle.get(sq)
        ends = [pms.factorization[w][1] if w in pms.factorization else None
                for w in sq[:2]]
        if m not in cat.src or [cat.src[m], cat.tgt[m]] != ends:
            return False
    return True


def assert_c_iii_matches_reference(pms):
    fr = verify_partial_model(pms).verdict("c-iii:functorial-factorization")
    laws = [w for w in fr.witnesses
            if w[-1].startswith(("identity square has middle", "middle maps do not paste"))]
    others = [w for w in fr.witnesses if w not in laws]
    reference = reference_laws(pms)
    assert fr.passed == (not others and not reference)
    if middles_typed(pms):
        assert laws == reference
        assert fr.notes == []
    else:
        assert others and not laws
        assert fr.notes == [LAWS_NOT_CHECKED]


def with_middle(pms, square, m):
    middle = dict(pms.middle)
    middle[square] = m
    return PartialModelStructure(pms.rc, pms.u_sub, pms.v_sub, pms.factorization, middle)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_c_iii_matches_the_reference_on_random_preorders(seed, square_pick, map_pick):
    pms = trivial_partial_model_structure(random_preorder_relcat(seed, max_objects=5))
    assert_c_iii_matches_reference(pms)
    squares, morphisms = weq_squares(pms.rc), pms.rc.cat.morphisms
    assert_c_iii_matches_reference(with_middle(
        pms, squares[square_pick % len(squares)], morphisms[map_pick % len(morphisms)]))


def test_c_iii_matches_the_reference_on_categories_that_are_not_thin():
    # every middle map replaced in turn by every morphism: one object, so
    # each replacement is typed and the laws are compared witness for witness
    idempotent = FinCategory.build(["*"], [("e", "*", "*")], {("e", "e"): "e"})
    for cat in (idempotent, cyclic_group(2), cyclic_group(3)):
        rc = RelCategory(cat, cat.morphisms)
        pms = trivial_partial_model_structure(rc, v_sub=rc.weq)
        assert verify_partial_model(pms).verdict("c-iii:functorial-factorization").passed
        assert_c_iii_matches_reference(pms)
        for sq in weq_squares(rc):
            for m in cat.morphisms:
                assert_c_iii_matches_reference(with_middle(pms, sq, m))


def test_mistyped_middle_map_leaves_the_laws_unchecked_with_a_note():
    cat = chain_poset(1)
    pms = trivial_partial_model_structure(RelCategory(cat, cat.morphisms))
    square = ("id:0", "01", "id:0", "01")     # middle map 0 -> 1
    fr = verify_partial_model(with_middle(pms, square, "id:1")).verdict(
        "c-iii:functorial-factorization")
    assert not fr.passed
    assert fr.witnesses == [(square, "middle map id:1 mistyped")]
    assert fr.notes == [LAWS_NOT_CHECKED]


# two parallel pairs of legs x, x,y: A -> C and z, y,z: B -> D under
# w: A -> B and w2: C -> D, every composite A -> D being d
COMMA_IDS = """relcat-version 1
object A
object B
object C
object D
morphism w A B
morphism w2 C D
morphism x A C
morphism x,y A C
morphism z B D
morphism y,z B D
morphism d A D
compose w z d
compose w y,z d
compose x w2 d
compose x,y w2 d
weq w
weq w2
weq x
weq x,y
weq z
weq y,z
weq d
"""


def test_squares_whose_ids_would_collide_are_each_checked():
    # the squares (x, y,z) and (x,y, z) from w to w2 both spell their
    # components (x,y,z); Arr(W) keeps them apart, so a corrupted middle
    # map on either one fails (c-iii) with the witnesses of the loops
    pms = trivial_partial_model_structure(parse_document(COMMA_IDS))
    arr = diagram_category(pms.rc, (WEQ,))
    assert len(set(arr.morphisms)) == len(arr.morphisms) == len(weq_squares(pms.rc))
    assert verify_partial_model(pms).verdict("c-iii:functorial-factorization").passed
    for square, other in ((("w", "w2", "x", "y,z"), "z"), (("w", "w2", "x,y", "z"), "y,z")):
        missing = dict(pms.middle)
        del missing[square]
        missing = PartialModelStructure(pms.rc, pms.u_sub, pms.v_sub, pms.factorization, missing)
        a, b = square[2:]
        for bad, witnesses in (
                (missing, [(square, "no middle map")]),
                (with_middle(pms, square, "x"), [(square, "middle map x mistyped")]),
                (with_middle(pms, square, other), [
                    (square, "bottom sub-square does not commute"),
                    (square, ("w2", "id:D", "w2", "id:D"), "middle maps do not paste"),
                    (("w", "d", "id:A", b), ("d", "w2", a, "id:D"), "middle maps do not paste")])):
            fr = verify_partial_model(bad).verdict("c-iii:functorial-factorization")
            assert not fr.passed
            assert fr.witnesses == witnesses
            assert_c_iii_matches_reference(bad)


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
