import contextlib
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from pmcat import segal
from pmcat.fincat import FinCategory, Functor, check_functor, StructuralError
from pmcat.fixtures import build
from pmcat.relcat import (
    RelCategory, restrict_to_weq, diagram_functor, random_preorder_relcat,
)
from pmcat.pmc import PartialModelStructure, trivial_partial_model_structure
from pmcat.sset import nerve, pi0, homology
from pmcat.segal import (
    chain_category, zigzag_chain_category, embedding_parts, build_retraction,
    check_strict_segal_identity, verify_segal, check_transformation,
    TransformationRecord, _NO_MATCH,
)
from conftest import (
    chain_poset, boolean_lattice, walking_iso, terminal_category, cyclic_group,
    poset_category,
)


def iw_rc():
    cat = chain_poset(1)
    return RelCategory(cat, cat.morphisms)


def i1_rc():
    return RelCategory(chain_poset(1), [])


def b2_rc():
    cat = boolean_lattice()
    return RelCategory(cat, cat.morphisms)


def j_rc():
    cat = walking_iso()
    return RelCategory(cat, cat.morphisms)


def p4_rc():
    return RelCategory(chain_poset(3), ["02", "13"])


# -- chain categories ---------------------------------------------------------

def test_chain_category_zero_is_marked_subcategory():
    for rc in (iw_rc(), i1_rc(), p4_rc()):
        a0 = chain_category(rc, 0)
        sub = restrict_to_weq(rc).cat
        assert a0.objects == sub.objects
        # same ids, ordered by source, then target: the order of the
        # classification nerve's level k = 0
        assert sorted(a0.morphisms) == sorted(sub.morphisms)
        rank = {o: i for i, o in enumerate(a0.objects)}
        assert a0.morphisms == tuple(sorted(
            sub.morphisms, key=lambda m: (rank[sub.src[m]], rank[sub.tgt[m]])))
        assert sorted(a0.composites()) == sorted(sub.composites())


def test_chain_category_interval_counts():
    # oracle: squares in [1] with all maps marked are pairs of chains
    # comparing pointwise; count = 6 for k = 1
    oracle = 0
    for c in product((0, 1), repeat=2):
        for c2 in product((0, 1), repeat=2):
            if c[0] <= c[1] and c2[0] <= c2[1] and c[0] <= c2[0] and c[1] <= c2[1]:
                oracle += 1
    a1 = chain_category(iw_rc(), 1)
    assert len(a1.objects) == 3
    assert len(a1.morphisms) == oracle == 6


def test_chain_category_interval_k2():
    a2 = chain_category(iw_rc(), 2)
    assert len(a2.objects) == 4  # 00.00, 00.01, 01.11, 11.11


def test_chain_categories_are_categories():
    for rc in (iw_rc(), i1_rc(), b2_rc()):
        for k in (1, 2):
            assert chain_category(rc, k).validate().ok


# -- zigzag chain categories -----------------------------------------------------

def count_interval_zigzags(k, weq_all):
    """Oracle: monotone assignments c0<=c1<=c2, c3<=c2, c3<=c4<=...<=c_{k+3}
    over {0,1}; rigid marking forces the three middle maps to be
    identities."""
    count = 0
    for tup in product((0, 1), repeat=k + 4):
        ok = tup[0] <= tup[1] <= tup[2] and tup[3] <= tup[2]
        ok = ok and all(tup[i] <= tup[i + 1] for i in range(3, k + 3))
        if ok and not weq_all:
            ok = tup[1] == tup[2] == tup[3] == tup[4]
        if ok:
            count += 1
    return count


def test_zigzag_chain_interval_counts():
    assert count_interval_zigzags(2, True) == 15
    b2 = zigzag_chain_category(iw_rc(), 2)
    assert len(b2.objects) == 15


def test_zigzag_chain_rigid_counts():
    # x, y, w forced identities: objects match composable pairs
    assert count_interval_zigzags(2, False) == 4
    b2 = zigzag_chain_category(i1_rc(), 2)
    assert len(b2.objects) == 4


def test_all_identity_zigzag_object_exists():
    b2 = zigzag_chain_category(iw_rc(), 2)
    for o in ("0", "1"):
        i = f"id:{o}"
        assert f"({i},{i},{i},{i},{i})" in b2.objects


def test_zigzag_chain_needs_k_at_least_two():
    with pytest.raises(StructuralError):
        zigzag_chain_category(iw_rc(), 1)


def test_zigzag_chain_is_category():
    assert zigzag_chain_category(iw_rc(), 2).validate().ok
    assert zigzag_chain_category(i1_rc(), 3).validate().ok


# -- the embedding ------------------------------------------------------------------

def test_insert_identities_returns_checked_functor():
    from pmcat.fincat import Functor
    h = embedding_parts(iw_rc(), 2)[0]
    assert isinstance(h, Functor)
    assert check_functor(h).ok


def test_insert_identities_image():
    rc = iw_rc()
    h, a2, b2, ap = embedding_parts(rc, 2)
    for oid in a2.objects:
        objs, arrows = a2.diagrams[oid]
        image = b2.diagrams[h.obj_map[oid]][1]
        assert image[0] == arrows[0]
        assert all(b2.diagrams[h.obj_map[oid]][0][i] == objs[1] for i in (1, 2, 3, 4))
        assert image[4:] == arrows[1:]


def test_insert_identities_injective_and_full():
    rc = iw_rc()
    h, a2, b2, ap = embedding_parts(rc, 2)
    assert len(set(h.obj_map.values())) == len(a2.objects) == 4
    assert len(set(h.mor_map.values())) == len(a2.morphisms)
    assert check_functor(h).ok
    # full onto the subcategory: morphism counts agree
    assert len(ap.morphisms) == len(a2.morphisms)


# -- the retraction certificate -------------------------------------------------------

def pms_of(rc, groupoid=False):
    return trivial_partial_model_structure(rc, v_sub=rc.weq if groupoid else ())


def test_retraction_interval_k2():
    r, cert = build_retraction(pms_of(iw_rc()), 2)
    assert cert.valid, cert.summary()
    assert all(t.ok for t in cert.transformations)


def test_retraction_rigid_k2_collapses_to_identity():
    pms = pms_of(i1_rc())
    r, cert = build_retraction(pms, 2)
    assert cert.valid
    # with the trivial factorization and identity w the retraction fixes
    # the image subcategory pointwise and the r.i zigzag components are
    # identities
    h, a2, b2, ap = embedding_parts(pms.rc, 2)
    for oid in ap.objects:
        assert r.obj_map[oid] == oid
    psi = next(t for t in cert.transformations if t.name.startswith("psi"))
    cat = pms.rc.cat
    for comps in psi.components.values():
        assert all(cat.is_identity(c) for c in comps)


def test_retraction_poset_fixtures_k2_k3():
    for rc in (iw_rc(), i1_rc(), b2_rc()):
        pms = pms_of(rc)
        for k in (2, 3):
            r, cert = build_retraction(pms, k)
            assert cert.valid, (k, cert.summary())
            assert check_functor(r).ok


def test_retraction_groupoid_k2():
    r, cert = build_retraction(pms_of(j_rc(), groupoid=True), 2)
    assert cert.valid, cert.summary()


def test_certificate_contents():
    r, cert = build_retraction(pms_of(iw_rc()), 2)
    assert len(cert.object_rows) == 15
    for rows in cert.object_rows.values():
        assert set(rows) == {"row1:identity", "row2:compose-x", "row3:compose-y",
                             "row4:factor-and-push", "row5:retract"}
    assert all(w[-1] for w in cert.witnesses)  # universal properties re-verified
    names = [t.name.split(":")[0] for t in cert.transformations]
    assert names == ["phi1", "phi2", "phi3", "phi4", "phi4|A'", "tau", "psi = tau . phi4"]
    d = cert.to_dict(full=True)
    assert d["valid"] and "object_rows" in d


def test_retraction_lands_in_image_subcategory():
    pms = pms_of(b2_rc())
    r, cert = build_retraction(pms, 2)
    h, a2, b2, ap = embedding_parts(pms.rc, 2)
    image = set(h.obj_map.values())
    for o, val in r.obj_map.items():
        assert val in image


def sabotaged_iw(broken=(("id:0", "01", "id:0", "01"), "id:1")):
    """Iw with U = V = W and middle maps replaced by maps between the
    wrong objects, by ``broken`` (square, map, square, map, ...)."""
    from pmcat.pmc import PartialModelStructure
    base = pms_of(iw_rc(), groupoid=False)
    pms = trivial_partial_model_structure(base.rc, v_sub=base.rc.weq)
    middle = dict(pms.middle)
    middle.update(zip(broken[::2], broken[1::2]))
    return PartialModelStructure(pms.rc, pms.u_sub, pms.v_sub,
                                 dict(pms.factorization), middle)


def test_certificate_catches_sabotaged_calculus_data():
    # corrupting one middle map must fail the axioms and must not let a
    # certificate through
    from pmcat.pmc import verify_partial_model
    bad = sabotaged_iw()
    report = verify_partial_model(bad)
    assert not report.passed
    r, cert = build_retraction(bad, 2)
    assert not cert.valid


_IS_THIN = FinCategory.is_thin


def certified(pms, k, parts, monkeypatch):
    """build_retraction's certificate, r, and T1, T2 and T3 as the
    transformations receive them.  Functors are checked with the real
    ``is_thin``: on the componentwise path that check composes every
    pair of B_k, and its scan over J's B_3 alone takes 10 s."""
    seen = {}
    real = segal.check_transformation

    def recording(rc, rec, F, G, domain):
        seen.update({rec.source: F, rec.target: G})
        return real(rc, rec, F, G, domain)

    def functor_check(F):
        with monkeypatch.context() as patch:
            patch.setattr(FinCategory, "is_thin", _IS_THIN)
            return check_functor(F)
    with monkeypatch.context() as patch:
        patch.setattr(segal, "check_transformation", recording)
        patch.setattr(segal, "check_functor", functor_check)
        r, cert = build_retraction(pms, k, parts)
    return cert, r, {name: seen[name] for name in ("T1", "T2", "T3")}


@contextlib.contextmanager
def componentwise(monkeypatch):
    """No category is thin inside: the certificate composes each image
    of T1, T2, T3 and r in C and looks it up in B_k.  A B_k built
    outside keeps the composition its constructor chose, so squares are
    read the same way on both paths."""
    with monkeypatch.context() as patch:
        patch.setattr(FinCategory, "is_thin", lambda self: False)
        yield


@pytest.mark.parametrize("name, k", [("Iw", 2), ("Iw", 3), ("J", 2), ("J", 3), ("B2", 2)])
def test_thin_certificate_agrees_with_the_componentwise_one(monkeypatch, name, k):
    pms = build(name)
    parts = embedding_parts(pms.rc, k)
    thin_cert, thin_r, thin_functors = certified(pms, k, parts, monkeypatch)
    with componentwise(monkeypatch):
        cert, r, functors = certified(pms, k, parts, monkeypatch)
    assert thin_cert.morphisms_checked_on == segal._THIN
    assert cert.morphisms_checked_on == segal._COMPONENTWISE
    for name, F in functors.items():
        assert thin_functors[name].obj_map == F.obj_map, name
    # the thin r reads each image off the ends of the morphism
    assert (thin_r.obj_map, thin_r.mor_map) == (r.obj_map, r.mor_map)
    thin, reference = thin_cert.to_dict(full=True), cert.to_dict(full=True)
    del thin["morphisms_checked_on"], reference["morphisms_checked_on"]
    assert thin == reference and thin["valid"]


def test_both_certificates_catch_sabotaged_calculus_data(monkeypatch):
    # the thin certificate checks the broken middle map once, naming the
    # first morphism whose square needs it, as the composing path does
    bad = sabotaged_iw()
    r, thin = build_retraction(bad, 2)
    assert thin.morphisms_checked_on == segal._THIN and not thin.valid
    with componentwise(monkeypatch):
        r, cert = build_retraction(bad, 2)
    assert cert.morphisms_checked_on == segal._COMPONENTWISE and not cert.valid
    assert len(thin.errors) == 1
    assert thin.errors[0].split(": ")[0] == cert.errors[0].split(": ")[0]


def test_each_broken_square_is_named_once_at_its_first_morphism(monkeypatch):
    # the composing path names every morphism whose square is broken; the
    # thin one names each square once, at the first of them, in the order
    # of those first morphisms
    bad = sabotaged_iw((("id:0", "01", "id:0", "01"), "id:1",
                        ("01", "id:1", "01", "id:1"), "id:0"))
    b_k = embedding_parts(bad.rc, 2)[2]
    _r, thin = build_retraction(bad, 2)
    with componentwise(monkeypatch):
        _r, cert = build_retraction(bad, 2)
    prefix = "comparison data missing for morphism "

    def square(error):
        m = error[len(prefix):].split(": ")[0]
        return b_k.diagrams[b_k.src[m]][1][2], b_k.diagrams[b_k.tgt[m]][1][2]
    firsts = {}
    for error in cert.errors:
        firsts.setdefault(square(error), error.split(": ")[0])
    assert len(firsts) == 2 and len(cert.errors) > 2
    assert [error.split(": ")[0] for error in thin.errors] == list(firsts.values())


def test_a_broken_square_is_named_at_the_first_source_that_reaches_it(monkeypatch):
    # p below a, b and t, a and b below t, only p -> a and p -> b marked,
    # identities listed last: the first diagrams with w = id:p take
    # y = p -> a, and none of them maps to a diagram with w = id:b, since
    # no marked map leaves a.  The broken square (id:p, id:b) is named at
    # the first source that does map there, as the composing path names it
    rows = [("pa", "p", "a"), ("pb", "p", "b"), ("pt", "p", "t"), ("at", "a", "t"),
            ("bt", "b", "t")] + [(f"id:{o}", o, o) for o in "pabt"]
    cat = FinCategory.build(["p", "a", "b", "t"], rows,
                            {("pa", "at"): "pt", ("pb", "bt"): "pt"})
    pms = trivial_partial_model_structure(RelCategory(cat, ["pa", "pb"]))
    middle = {**pms.middle, ("id:p", "id:b", "pb", "pb"): "id:p"}
    bad = PartialModelStructure(pms.rc, pms.u_sub, pms.v_sub, pms.factorization, middle)
    b_k = embedding_parts(bad.rc, 2)[2]
    sources = [o for o in b_k.objects if b_k.diagrams[o][1][2] == "id:p"]
    assert sources[:3] == ["(id:p,id:p,id:p,pa,at)", "(id:p,id:p,id:p,pa,id:a)",
                           "(id:p,id:p,id:p,pb,bt)"]
    named = ("comparison data missing for morphism "
             "(id:p,pb,pb,pb,id:b,id:t):(id:p,id:p,id:p,pb,bt)=>(pb,id:b,id:b,id:b,bt)")
    _r, thin = build_retraction(bad, 2)
    with componentwise(monkeypatch):
        _r, cert = build_retraction(bad, 2)
    squares = [e for e in thin.errors if e.startswith("comparison")]
    assert [e.split(": ")[0] for e in squares] == [named]
    assert next(e for e in cert.errors if e.startswith("comparison")).startswith(named)


class Unvisited(tuple):
    """A tuple that may be indexed and counted, but not walked."""

    def __iter__(self):
        raise AssertionError("a pass over the morphisms")


def test_the_thin_certificate_visits_no_morphism_of_b_k(monkeypatch):
    pms = build("B2")
    parts = embedding_parts(pms.rc, 3)
    for cat in parts[2:]:
        monkeypatch.setattr(cat, "morphisms", Unvisited(cat.morphisms))
    with pytest.raises(AssertionError, match="a pass over the morphisms"):
        list(parts[2].morphisms)
    _r, cert = build_retraction(pms, 3, parts)
    assert cert.valid and cert.morphisms_checked_on == segal._THIN


def no_match(cert, name):
    return [e for e in cert.errors if e.startswith(f"{name}(") and "no matching" in e]


def test_a_moved_object_image_fails_both_paths_at_the_same_morphism(monkeypatch):
    # move T1(s) to an object that T1(r) does not reach, r the first
    # object with a morphism r -> s (r before s): the first morphism of
    # B_2 that carries the break is r -> s on both paths.  The interval
    # is listed top first: when B_2's first object maps to every other,
    # as the all-0 diagram of Iw or B2 does, the composing path fails
    # first at that morphism into s, which the object map still respects
    cat = poset_category(["1", "0"], lambda a, b: a <= b, name=lambda a, b: a + b)
    pms = pms_of(RelCategory(cat, cat.morphisms), groupoid=True)
    parts = embedding_parts(pms.rc, 2)
    b_k = parts[2]
    _r, clean = build_retraction(pms, 2, parts)
    # each functor's row of each object; a T1 row that no other row
    # repeats is moved alone by a patched object_of
    rows = [(name, o, tuple(map(tuple, by_row[row]))) for o, by_row in clean.object_rows.items()
            for name, row in segal._FUNCTOR_ROWS]
    seen = Counter(row for _name, _o, row in rows)
    t1 = {o: b_k.object_of(*row) for name, o, row in rows if name == "T1"}
    position = {o: i for i, o in enumerate(b_k.objects)}

    def breaks():
        for name, s, row in rows:
            if name != "T1" or seen[row] != 1:
                continue
            r = min((b_k.src[m] for m in b_k.into(s)), key=position.get)
            if position[r] < position[s]:
                for moved in b_k.objects:
                    if moved != t1[s] and not b_k.hom(t1[r], moved):
                        yield s, r, row, moved
    s, r, row, moved = next(breaks())
    real = b_k.object_of
    monkeypatch.setattr(b_k, "object_of", lambda objs, arrows: (
        moved if (tuple(objs), tuple(arrows)) == row else real(objs, arrows)))
    _r, thin = build_retraction(pms, 2, parts)
    with componentwise(monkeypatch):
        _r, reference = build_retraction(pms, 2, parts)
    first = _NO_MATCH.format(name="T1", m=b_k.hom(r, s)[0], k=2)
    assert not thin.valid and not reference.valid
    assert no_match(thin, "T1") == [first]
    assert no_match(reference, "T1")[0] == first
    assert thin.errors == [first]


def test_a_component_that_is_no_morphism_is_missing_on_both_paths(monkeypatch):
    # phi1's component at o, with its vertex-1 entry replaced by an
    # identity: still marked, but no morphism o -> T1(o)
    pms = build("Iw")
    parts = embedding_parts(pms.rc, 2)
    b_k = parts[2]
    o = next(o for o in b_k.objects if b_k.diagrams[o][1][1] == "01")
    real = segal.check_transformation

    def breaking(rc, rec, F, G, domain):
        if rec.name.startswith("phi1"):
            rec.components[o] = (rec.components[o][0], "id:0") + rec.components[o][2:]
        return real(rc, rec, F, G, domain)
    monkeypatch.setattr(segal, "check_transformation", breaking)
    _r, thin = build_retraction(pms, 2, parts)
    with componentwise(monkeypatch):
        _r, reference = build_retraction(pms, 2, parts)
    for cert in (thin, reference):
        phi1 = cert.transformations[0]
        assert (phi1.unmarked, phi1.missing, phi1.naturality_failures) == ([], [o], [])
        assert not cert.valid and all(t.ok for t in cert.transformations[1:])


def test_componentwise_certificate_on_a_category_that_is_not_thin():
    # B(Z/2), everything marked, U = V = W: its B_2 is not thin, so the
    # componentwise certificate runs without a patch
    z2 = cyclic_group(2)
    rc = RelCategory(z2, z2.morphisms)
    r, cert = build_retraction(trivial_partial_model_structure(rc, v_sub=rc.weq), 2)
    assert cert.morphisms_checked_on == segal._COMPONENTWISE
    assert cert.valid, cert.summary()


# -- one transformation -------------------------------------------------------------

def iw_phi1():
    """Iw at k = 2: (rc, B_2, T1, the components of phi1: 1 => T1 as
    built by the certificate), with T1 rebuilt from its definition."""
    pms = pms_of(iw_rc())
    parts = embedding_parts(pms.rc, 2)
    b2 = parts[2]
    r, cert = build_retraction(pms, 2, parts)
    cat = pms.rc.cat

    def rows(objs, arrows):
        return ((objs[0], objs[2], objs[2], objs[3], objs[4]) + objs[5:],
                (cat.compose(arrows[1], arrows[0]), cat.identity[objs[2]]) + arrows[2:])

    t1 = diagram_functor(b2, b2, rows, lambda c: (c[0], c[2], c[2], c[3], c[4]) + c[5:])
    assert check_functor(t1).ok
    return pms.rc, b2, t1, dict(cert.transformations[0].components)


def phi1_record(components):
    return TransformationRecord("phi1: 1 => T1", "1", "T1", components)


def test_check_transformation_passes_phi1_as_built():
    rc, b2, t1, phi1 = iw_phi1()
    rec = check_transformation(rc, phi1_record(phi1), Functor.identity(b2), t1, b2)
    assert rec.ok
    assert len(rec.components) == len(b2.objects) == 15


def test_check_transformation_lists_a_marked_component_that_is_no_morphism():
    # at an object whose x is the arrow 01, replace the component x by
    # the identity of its source: every entry stays marked, but vertex 1
    # no longer reaches T1's vertex 1, so the tuple is no morphism o -> T1(o)
    rc, b2, t1, phi1 = iw_phi1()
    o = next(o for o in b2.objects if b2.diagrams[o][1][1] == "01")
    comps = list(phi1[o])
    comps[1] = "id:0"
    phi1[o] = tuple(comps)
    rec = check_transformation(rc, phi1_record(phi1), Functor.identity(b2), t1, b2)
    assert rec.unmarked == []
    assert rec.missing == [o]
    assert rec.naturality_failures == []     # the squares at o are skipped
    assert not rec.ok


def mistyped_t1():
    """Iw's T1 at k = 2 with one morphism m: s -> t of B_2 sent to a
    morphism n out of T1(s) that misses T1(t)."""
    rc, b2, t1, phi1 = iw_phi1()
    m, n = next((m, n) for m in b2.morphisms if not b2.is_identity(m)
                for n in b2.out_of(t1.obj_map[b2.src[m]])
                if b2.tgt[n] != t1.obj_map[b2.tgt[m]])
    return rc, b2, t1, phi1, m, n, Functor(b2, b2, t1.obj_map, {**t1.mor_map, m: n})


def test_check_transformation_reports_a_broken_square(monkeypatch):
    # on the componentwise path the square at m is composed; in a poset
    # its two composites differ exactly at the vertices where the two
    # targets differ
    rc, b2, t1, phi1, m, n, broken = mistyped_t1()
    with componentwise(monkeypatch):
        rec = check_transformation(rc, phi1_record(phi1), Functor.identity(b2), broken, b2)
    wrong, right = b2.diagrams[b2.tgt[n]][0], b2.diagrams[t1.obj_map[b2.tgt[m]]][0]
    i = next(i for i in range(len(wrong)) if wrong[i] != right[i])
    assert rec.naturality_failures == [(m, i)]
    assert rec.unmarked == [] and rec.missing == []


def test_a_mistyped_functor_into_a_thin_category_fails_its_functor_check():
    # over a thin D naturality follows from the components alone (any two
    # parallel morphisms are equal), so the broken image is the functor
    # check's to reject
    rc, b2, t1, phi1, m, n, broken = mistyped_t1()
    assert b2.is_thin()
    rec = check_transformation(rc, phi1_record(phi1), Functor.identity(b2), broken, b2)
    assert rec.ok
    report = check_functor(broken)
    assert [(v.law, v.witness) for v in report.violations] == [("source-target", (m, n))]


# -- strict fiber identity ----------------------------------------------------------

def test_strict_identity_all_fixtures_up_to_four():
    for rc in (RelCategory(terminal_category(), []), iw_rc(), i1_rc(),
               b2_rc(), j_rc(), p4_rc()):
        cache = {}
        for k in (1, 2, 3, 4):
            assert check_strict_segal_identity(rc, k, cache), (rc, k)


def test_strict_identity_at_k3_on_four_isomorphic_objects_fits_in_a_gigabyte():
    # the indiscrete groupoid on four objects, all marked: A_3 has 65,536
    # morphisms, and the strict pullback as many; as composition tables
    # they held 16.8 million entries each and did not fit in 2.5 GB
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pmcat.relcat import random_preorder_relcat\n"
            "from pmcat.segal import check_strict_segal_identity\n"
            "rc = random_preorder_relcat(61, max_objects=4)\n"
            "assert len(rc.cat.morphisms) == 16 and len(rc.weq) == 16\n"
            "print(check_strict_segal_identity(rc, 3))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_strict_identity_fails_when_the_pullback_loses_a_morphism(monkeypatch):
    real = segal.strict_pullback_category

    def lossy(F, G):
        pb = real(F, G)
        lost = next(m for m in pb.morphisms if not pb.is_identity(m))
        rows = [(m, pb.src[m], pb.tgt[m]) for m in pb.morphisms if m != lost]
        comp = {pair: h for pair, h in pb.composites()
                if lost not in pair and h != lost}
        return FinCategory(pb.objects, rows, pb.identity, comp)

    monkeypatch.setattr(segal, "strict_pullback_category", lossy)
    assert not check_strict_segal_identity(iw_rc(), 2)


# -- full pipeline -------------------------------------------------------------------

def test_verify_segal_interval():
    rep = verify_segal(pms_of(iw_rc()), (2, 3), 2)
    assert rep.passed, rep.describe()
    for k in (2, 3):
        assert rep.k_results[k]["homology_dims_compared"] == [0, 1, 2]
        assert rep.k_results[k]["skipped_dims"] == []


def test_segal_report_to_dict_is_a_json_ready_copy():
    rep = verify_segal(pms_of(iw_rc()), (2,), 0)
    cert = rep.k_results[2]["certificate"]
    first = json.dumps(rep.to_dict(), sort_keys=True)
    assert json.dumps(rep.to_dict(), sort_keys=True) == first
    assert rep.k_results[2]["certificate"] is cert
    summary = json.loads(first)["k"]["2"]["certificate_summary"]
    assert summary == json.loads(json.dumps(cert.to_dict()))
    full = rep.to_dict(full=True)["k"]["2"]["certificate_summary"]
    assert "object_rows" in full and "object_rows" not in summary


def test_verify_segal_boolean_lattice_reports_skips():
    rep = verify_segal(pms_of(b2_rc()), (2,), 2)
    assert rep.passed, rep.describe()
    r2 = rep.k_results[2]
    assert 0 in r2["homology_dims_compared"]
    assert r2["pi0"][0] == r2["pi0"][1]


def test_verify_segal_builds_only_the_tables_of_preorder_cores(monkeypatch):
    from pmcat import sset
    from pmcat.fixtures import build
    cores, built = [], []

    def recorded_core(cat, _real=sset.preorder_core):
        core = _real(cat)
        cores.append(core.category)
        return core

    def recorded_tables(cat, n_max, _real=sset._nerve_tables):
        built.append(cat)
        return _real(cat, n_max)
    monkeypatch.setattr(sset, "preorder_core", recorded_core)
    monkeypatch.setattr(sset, "_nerve_tables", recorded_tables)
    rep = verify_segal(build("B2"), (2, 3), 2)
    assert rep.passed, rep.describe()
    assert built and all(any(cat is core for core in cores) for cat in built)


def test_verify_segal_keeps_one_k_alive(monkeypatch):
    # B_2 and A'_2 are gone by the time B_3 is enumerated
    import gc
    import weakref
    from pmcat.fixtures import build
    alive, entered = [], []

    def recorded_parts(rc, k, _real=segal.embedding_parts):
        gc.collect()
        entered.append((k, [ref() is not None for ref in alive]))
        parts = _real(rc, k)
        alive.extend(weakref.ref(c) for c in parts[2:])
        return parts
    monkeypatch.setattr(segal, "embedding_parts", recorded_parts)
    assert verify_segal(build("B2"), (2, 3), 2).passed
    assert entered == [(2, []), (3, [False, False])]


def test_verify_segal_groupoid_low_dims():
    rep = verify_segal(pms_of(j_rc(), groupoid=True), (2,), 0)
    assert rep.passed, rep.describe()


def test_verify_segal_refuses_big_k():
    with pytest.raises(StructuralError):
        verify_segal(pms_of(iw_rc()), (5,), 0)


def test_marking_that_is_not_closed_is_refused():
    # x0<x2 and x2<x1 are marked but their composite is not: B_2 then
    # misses composites (its own validate() lists them), and before the
    # refusal the certificate read only the entries that exist and
    # came out VALID
    cat = random_preorder_relcat(287, max_objects=3).cat
    rc = RelCategory(cat, [cat.identity[o] for o in cat.objects] + ["x0<x2", "x2<x1"])
    assert not zigzag_chain_category(rc, 2).validate().ok
    pms = trivial_partial_model_structure(rc)
    for refused in (lambda: embedding_parts(rc, 2), lambda: build_retraction(pms, 2),
                    lambda: verify_segal(pms, (2,), 0)):
        with pytest.raises(StructuralError, match="not-closed.*x0<x1 is unmarked"):
            refused()


def test_nerve_corroboration_values_interval():
    # the two nerves are connected with trivial low homology on Iw
    rc = iw_rc()
    h, a2, b2, ap = embedding_parts(rc, 2)
    na, nb = nerve(ap, 3), nerve(b2, 3)
    assert len(pi0(na)) == len(pi0(nb)) == 1
    assert homology(na, 2) == homology(nb, 2)
