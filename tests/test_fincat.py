import pytest

from pmcat.fincat import (
    FinCategory, Functor, StructuralError, CategoryLawError,
    check_functor, find_pushout, find_pullback,
    strict_pullback_category, category_isomorphism, pair_id,
)
from conftest import (
    chain_poset, boolean_lattice, walking_iso, terminal_category,
    cyclic_group, thin_functor,
)


def test_terminal_category_valid():
    pt = terminal_category()
    assert pt.validate().ok
    assert pt.morphisms == ("id:*",)


def broken_identity_law():
    """Poset [1] with the composite of 01 after id:0 pointing at the wrong id."""
    objects = ["0", "1"]
    rows = [("id:0", "0", "0"), ("id:1", "1", "1"), ("01", "0", "1")]
    identity = {"0": "id:0", "1": "id:1"}
    comp = {
        ("id:0", "id:0"): "id:0", ("id:1", "id:1"): "id:1",
        ("id:0", "01"): "id:0",   # wrong on purpose
        ("01", "id:1"): "01",
    }
    return FinCategory(objects, rows, identity, comp)


def test_identity_law_violation_has_witness():
    report = broken_identity_law().validate()
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert "identity-law" in laws
    witnesses = [v.witness for v in report.violations if v.law == "identity-law"]
    assert ("id:0", "01") in witnesses


def test_validate_scans_once_and_keeps_reporting_a_broken_law(monkeypatch):
    scanned = []

    def counted(cat, _real=FinCategory._law_scan):
        scanned.append(cat)
        return _real(cat)
    monkeypatch.setattr(FinCategory, "_law_scan", counted)
    cat = broken_identity_law()
    reports = [cat.validate(), cat.validate()]
    assert scanned == [cat] and reports[1] is reports[0]
    assert ("id:0", "01") in [v.witness for v in reports[1].violations]


def interleaved_table_faults():
    """Objects a, b, c with f: a->b, g: b->c, k: a->c, e: c->a, and a
    table whose missing, mistyped and spurious entries interleave in
    (f, g) order."""
    objects = ["a", "b", "c"]
    ids = {o: "id:" + o for o in objects}
    rows = [(i, o, o) for o, i in ids.items()] + [
        ("f", "a", "b"), ("g", "b", "c"), ("k", "a", "c"), ("e", "c", "a")]
    comp = {}
    for m, s, t in rows:
        comp[(ids[s], m)] = m
        comp[(m, ids[t])] = m
    comp.update({
        ("g", "f"): "f",      # spurious: g ends at c, f starts at a
        ("f", "g"): "f",      # mistyped: g.f goes a -> c
        ("e", "f"): "g",      # mistyped: f.e goes c -> b
        ("f", "k"): "k",      # spurious
        ("k", "e"): "id:a",
        ("e", "g"): "e",      # spurious
    })
    del comp[("e", "id:a")]   # missing; (g, e) and (e, k) are missing too
    return FinCategory(objects, rows, ids, comp)


def test_table_faults_are_listed_in_pair_order():
    report = interleaved_table_faults().validate()
    assert report.structural == []
    no_entry = "h.(g.f) = None but (h.g).f = None"
    assert [(v.law, v.witness, v.detail) for v in report.violations] == [
        ("composite-typing", ("f", "g", "f"), "composite has wrong source or target"),
        ("spurious-composite", ("f", "k"), "entry for non-composable pair"),
        ("spurious-composite", ("g", "f"), "entry for non-composable pair"),
        ("missing-composite", ("g", "e"), "no entry for composable pair"),
        ("missing-composite", ("e", "id:a"), "no entry for composable pair"),
        ("composite-typing", ("e", "f", "g"), "composite has wrong source or target"),
        ("spurious-composite", ("e", "g"), "entry for non-composable pair"),
        ("missing-composite", ("e", "k"), "no entry for composable pair"),
        ("identity-law", ("e", "id:a"), "id:a.e is None, expected e"),
        ("associativity", ("id:b", "g", "e"), no_entry),
        ("associativity", ("id:c", "e", "id:a"), no_entry),
        ("associativity", ("id:c", "e", "f"), "h.(g.f) = g but (h.g).f = None"),
        ("associativity", ("id:c", "e", "k"), no_entry),
        ("associativity", ("f", "g", "id:c"), "h.(g.f) = None but (h.g).f = f"),
        ("associativity", ("f", "g", "e"), no_entry),
        ("associativity", ("g", "id:c", "e"), no_entry),
        ("associativity", ("k", "e", "id:a"), "h.(g.f) = id:a but (h.g).f = None"),
        ("associativity", ("k", "e", "f"), "h.(g.f) = f but (h.g).f = None"),
        ("associativity", ("k", "e", "k"), "h.(g.f) = k but (h.g).f = None"),
        ("associativity", ("e", "f", "id:b"), "h.(g.f) = None but (h.g).f = g"),
        ("associativity", ("e", "f", "g"), "h.(g.f) = None but (h.g).f = g"),
    ]


def test_p4_full_table_valid():
    p4 = chain_poset(3)
    assert p4.validate().ok
    # exhaustive associativity really ran: every composable triple associates
    for f in p4.morphisms:
        for g in p4.out_of(p4.tgt[f]):
            for h in p4.out_of(p4.tgt[g]):
                assert p4.compose(h, p4.compose(g, f)) == p4.compose(p4.compose(h, g), f)


def test_full_subcategory_reads_its_objects_once():
    cat = chain_poset(3)
    as_list = cat.full_subcategory(["1", "2", "3"])
    from_generator = cat.full_subcategory(o for o in ["1", "2", "3"])
    assert as_list.objects == from_generator.objects == ("1", "2", "3")
    assert as_list.morphisms == from_generator.morphisms
    assert from_generator.validate().ok


def test_unknown_ids_are_structural_errors():
    report = FinCategory(["0"], [("f", "0", "bogus")], {"0": "f"}, {}).validate()
    assert report.structural and not report.ok


def test_build_raises_on_structural_garbage():
    with pytest.raises(StructuralError):
        FinCategory.build(["0"], [("f", "0", "nope")], {})


def test_build_raises_on_law_failure():
    # missing composite 01 then 12 in poset [2]
    rows = [("01", "0", "1"), ("12", "1", "2")]
    with pytest.raises(CategoryLawError):
        FinCategory.build(["0", "1", "2"], rows, {})


# -- pushouts / pullbacks -------------------------------------------------

def join(a, b):
    sets = {"0": set(), "1": {1}, "2": {2}, "12": {1, 2}}
    u = sets[a] | sets[b]
    return next(k for k, v in sets.items() if v == u)


def test_pushout_in_boolean_lattice_is_join():
    b2 = boolean_lattice()
    wit = find_pushout(b2, "0<1", "0<2")
    assert wit is not None
    # independent oracle: the pushout of an inclusion span in a lattice is the join
    assert wit.apex == join("1", "2") == "12"
    assert wit.leg_f == "1<12" and wit.leg_g == "2<12"
    assert wit.verify(b2, "0<1", "0<2")


def test_pushout_along_identity():
    b2 = boolean_lattice()
    g = "0<2"
    wit = find_pushout(b2, "id:0", g)
    assert wit.apex == "2"
    assert wit.leg_f == g and wit.leg_g == "id:2"


def test_pushout_of_map_with_itself_chain():
    iw = chain_poset(1)
    wit = find_pushout(iw, "01", "01")
    assert wit.apex == "1"
    assert wit.leg_f == "id:1" and wit.leg_g == "id:1"
    assert wit.verify(iw, "01", "01")


def test_pullback_in_boolean_lattice_is_meet():
    b2 = boolean_lattice()
    wit = find_pullback(b2, "1<12", "2<12")
    assert wit is not None
    assert wit.apex == "0"
    assert wit.leg_f == "0<1" and wit.leg_g == "0<2"
    assert wit.verify(b2, "1<12", "2<12")


def test_pullback_along_identity():
    b2 = boolean_lattice()
    g = "0<12"
    wit = find_pullback(b2, "id:12", g)
    assert wit.apex == "0"
    assert wit.leg_f == g and wit.leg_g == "id:0"


def test_pullback_of_map_with_itself_chain():
    iw = chain_poset(1)
    wit = find_pullback(iw, "01", "01")
    assert wit.apex == "0"


def test_pushout_rejects_non_span():
    b2 = boolean_lattice()
    with pytest.raises(StructuralError):
        find_pushout(b2, "1<12", "2<12")


def test_cocone_witness_verify_rejects_tampering():
    b2 = boolean_lattice()
    wit = find_pushout(b2, "0<1", "0<2")
    from pmcat.fincat import CoconeWitness
    bad = CoconeWitness("12", "1<12", "2<12", ())
    assert not bad.verify(b2, "0<1", "0<2")


def test_pushouts_exist_in_walking_iso():
    j = walking_iso()
    for f in j.morphisms:
        for g in j.morphisms:
            if j.src[f] == j.src[g]:
                wit = find_pushout(j, f, g)
                assert wit is not None and wit.verify(j, f, g)


# -- functors -------------------------------------------------------------

def test_identity_functor_checks():
    p4 = chain_poset(3)
    assert check_functor(Functor.identity(p4)).ok


def test_constant_functor_checks():
    p4 = chain_poset(3)
    pt = terminal_category()
    assert check_functor(Functor.constant(p4, pt, "*")).ok


def test_functor_violation_witnessed():
    iw = chain_poset(1)
    p2 = chain_poset(2)
    # send w: 0 -> 1 to a morphism that does not match the object images
    F = Functor(iw, p2,
                {"0": "0", "1": "1"},
                {"id:0": "id:0", "id:1": "id:1", "01": "12"})
    report = check_functor(F)
    assert not report.ok
    assert any(v.law == "source-target" for v in report.violations)


# -- strict pullbacks of functors ------------------------------------------

def test_strict_pullback_of_identities_is_isomorphic_to_base():
    b2 = boolean_lattice()
    F = Functor.identity(b2)
    pb = strict_pullback_category(F, F)
    assert len(pb.objects) == len(b2.objects)
    assert pb.validate().ok
    diagonal = thin_functor(b2, pb, {o: pair_id(o, o) for o in b2.objects})
    assert category_isomorphism(diagonal) is not None


def test_strict_pullback_over_terminal_is_product():
    iw = chain_poset(1)
    j = walking_iso()
    pt = terminal_category()
    F = Functor.constant(iw, pt, "*")
    G = Functor.constant(j, pt, "*")
    prod = strict_pullback_category(F, G)
    assert len(prod.objects) == len(iw.objects) * len(j.objects)
    assert len(prod.morphisms) == len(iw.morphisms) * len(j.morphisms)
    assert prod.validate().ok
    assert pair_id("0", "a") in prod.objects


# -- isomorphisms of categories ----------------------------------------------

def test_isomorphism_of_identity_functor_is_identity():
    b2 = boolean_lattice()
    assert category_isomorphism(Functor.identity(b2)) == (
        {o: o for o in b2.objects}, {m: m for m in b2.morphisms})


def test_isomorphism_inverts_automorphism():
    b2 = boolean_lattice()
    swap = {"0": "0", "1": "2", "2": "1", "12": "12"}
    F = thin_functor(b2, b2, swap)
    inv_obj, inv_mor = category_isomorphism(F)
    assert inv_obj == swap
    assert all(inv_mor[F.mor_map[m]] == m for m in b2.morphisms)
    assert inv_mor != {m: m for m in b2.morphisms}


def test_isomorphism_rejects_functor_not_injective_on_objects():
    iw = chain_poset(1)
    F = Functor.constant(iw, iw, "0")
    assert check_functor(F).ok
    assert category_isomorphism(F) is None


def test_isomorphism_rejects_bijection_breaking_laws():
    # objects fixed, the two generators of [2] swapped: ends do not match
    p3 = chain_poset(2)
    typing = Functor(p3, p3, {o: o for o in p3.objects},
                     {m: {"01": "12", "12": "01"}.get(m, m) for m in p3.morphisms})
    assert any(v.law == "source-target" for v in check_functor(typing).violations)
    assert category_isomorphism(typing) is None
    # Z/4 with g1 and g2 swapped: g2 = g1.g1 goes to g1, but g2.g2 = id
    z4 = cyclic_group(4)
    swap = Functor(z4, z4, {"*": "*"},
                   {m: {"g1": "g2", "g2": "g1"}.get(m, m) for m in z4.morphisms})
    assert {v.law for v in check_functor(swap).violations} == {"composition"}
    assert category_isomorphism(swap) is None


def test_inverse_and_isos():
    j = walking_iso()
    assert j.inverse("s") == "t"
    assert set(j.isos()) == set(j.morphisms)
    p4 = chain_poset(3)
    assert set(p4.isos()) == {p4.identity[o] for o in p4.objects}
