"""Composition behind ``compose`` and ``composites``: pinned composites of
the derived categories, no stored table in them, and the thin shortcuts
of ``check_functor`` and ``check_transformation`` against reference
checkers that read composition tables."""

import hashlib
from itertools import product
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from pmcat import sset
from pmcat.fincat import FinCategory, Functor, check_functor, strict_pullback_category
from pmcat.fixtures import build
from pmcat.hammock import zigzag_category
from pmcat.relcat import (
    RelCategory, diagram_functor, random_preorder_relcat, restrict_to_weq,
)
from pmcat.segal import (
    TransformationRecord, chain_category, check_transformation,
    embedding_parts, zigzag_chain_category,
)
from conftest import cyclic_group

seeds = st.integers(min_value=0, max_value=10 ** 6)


def composition_digest(cat):
    return hashlib.sha256(repr(sorted(cat.composites())).encode()).hexdigest()[:16]


# sha256 prefixes of repr(sorted(composites)), taken when every derived
# category still filled a composition table
B2_DIGESTS = {
    ("A", 2): "82a82b514f67abb3", ("B", 2): "43e79d441166161a",
    ("A'", 2): "6009a2cafea64dab", ("A", 3): "592034ed40351098",
    ("B", 3): "e27ead68b2060487", ("A'", 3): "4f3718ea59945c2d",
}
REZK_B2_DIGESTS = ("7e4c93a503afd3dd", "d953e6412d2e7ca0", "82a82b514f67abb3")
Z2_B2_DIGEST = "5fc581b53a8c057a"


def test_b2_chain_and_zigzag_categories_keep_their_composites():
    rc = build("B2").rc
    for k in (2, 3):
        _h, a_k, b_k, a_prime = embedding_parts(rc, k)
        for name, cat in (("A", a_k), ("B", b_k), ("A'", a_prime)):
            assert composition_digest(cat) == B2_DIGESTS[(name, k)], (name, k)


def test_rezk_nerve_chain_categories_keep_their_composites(monkeypatch):
    built = []
    real = sset.diagram_category

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(sset, "diagram_category", recording)
    sset.rezk_nerve(build("B2").rc, 2, 2)
    assert tuple(map(composition_digest, built)) == REZK_B2_DIGESTS


def test_componentwise_composites_of_a_category_that_is_not_thin():
    # B(Z/2), everything marked: the composites come from the components
    z2 = cyclic_group(2)
    b_2 = zigzag_chain_category(RelCategory(z2, z2.morphisms), 2)
    assert not b_2.is_thin()
    assert composition_digest(b_2) == Z2_B2_DIGEST


def test_lookup_finds_each_morphism_by_its_parts():
    # the hom-set of the ends is scanned for the components: in B(Z/2)'s
    # B_2 a hom-set holds parallel morphisms, and each is found by its own
    z2 = cyclic_group(2)
    thin = zigzag_chain_category(build("B2").rc, 2)
    b_2 = zigzag_chain_category(RelCategory(z2, z2.morphisms), 2)
    assert thin.is_thin()
    for cat in (thin, b_2):
        for m in cat.morphisms:
            assert cat.lookup(cat.src[m], cat.tgt[m], cat.components[m]) == m
    a, b = next(pair for pair in product(b_2.objects, repeat=2) if len(b_2.hom(*pair)) > 1)
    later = b_2.hom(a, b)[-1]
    assert b_2.lookup(a, b, list(b_2.components[later])) == later
    taken = {b_2.components[m] for m in b_2.hom(a, b)}
    stray = next(c for c in product(z2.morphisms, repeat=len(b_2.components[later]))
                 if c not in taken)
    assert b_2.lookup(a, b, stray) is None


def stores_no_table(cat):
    """No attribute of ``cat`` is a dict keyed by pairs of its morphisms."""
    for value in vars(cat).values():
        if isinstance(value, dict) and any(
                isinstance(key, tuple) and len(key) == 2 and key[0] in cat.src
                and key[1] in cat.src for key in value):
            return False
    return True


def test_derived_categories_store_no_table():
    rc = build("Iw").rc
    _h, a_k, b_k, a_prime = embedding_parts(rc, 2)
    a_1 = chain_category(rc, 1)
    last = diagram_functor(a_1, chain_category(rc, 0), lambda objs, arrows: (objs[1:], ()),
                           lambda c: c[1:])
    derived = (a_k, b_k, a_prime, rc.cat.full_subcategory(rc.cat.objects[:1]),
               rc.cat.opposite(), restrict_to_weq(rc).cat,
               strict_pullback_category(last, last))
    for cat in derived:
        assert stores_no_table(cat), cat
        assert cat.validate().ok, cat
    assert not stores_no_table(rc.cat)


# -- reference checkers that read tables ------------------------------------------

def reference_table(cat, base=None):
    """(f, g) -> g.f over the composable pairs of ``cat``.  Without
    ``base`` it is what ``cat`` lists, here a stored table or a wide
    subcategory of one; a diagram category over ``base`` composes its
    components in the base's table and looks the result up."""
    if base is None:
        return dict(cat.composites())
    base_table = dict(base.composites())
    table = {}
    for f in cat.morphisms:
        for g in cat.out_of(cat.tgt[f]):
            h = cat.lookup(cat.src[f], cat.tgt[g], tuple(
                base_table[pair] for pair in zip(cat.components[f], cat.components[g])))
            if h is not None:
                table[(f, g)] = h
    return table


def reference_functor_ok(F, src_table, tgt_table):
    """The functor laws read in the tables: typing, identities and every
    composite."""
    S, T = F.source, F.target
    if any(F.obj_map.get(o) not in T.objects for o in S.objects):
        return False
    if any(F.mor_map.get(m) not in T.src for m in S.morphisms):
        return False
    obj, mor = F.obj_map, F.mor_map
    return (all(T.src[mor[m]] == obj[S.src[m]] and T.tgt[mor[m]] == obj[S.tgt[m]]
                for m in S.morphisms)
            and all(mor[S.identity[o]] == T.identity[obj[o]] for o in S.objects)
            and all(tgt_table.get((mor[f], mor[g])) == mor[h]
                    for (f, g), h in src_table.items()))


def reference_transformation(rc, components, F, G, domain, table):
    """(unmarked, missing, naturality failures) of ``components`` as a
    transformation F => G, each square read in the table of G's target."""
    D, base = G.target, reference_table(rc.cat)
    ids, unmarked, missing, failures = {}, [], [], []
    for o in domain.objects:
        comps = components.get(o)
        if comps is not None:
            unmarked.extend((o, c) for c in comps if not rc.is_weq(c))
            ids[o] = D.lookup(F.obj_map[o], G.obj_map[o], comps)
        if ids.get(o) is None:
            missing.append(o)
    for m in domain.morphisms:
        left, right = ids.get(domain.src[m]), ids.get(domain.tgt[m])
        if left is None or right is None:
            continue
        f_m, g_m = F.mor_map[m], G.mor_map[m]
        composite = table.get((left, g_m))
        if composite is None or composite != table.get((f_m, right)):
            vertices = zip(D.components[left], D.components[g_m],
                           D.components[f_m], D.components[right])
            i = next((i for i, (a, g, f, b) in enumerate(vertices)
                      if base[(a, g)] != base[(f, b)]), None)
            if i is not None:
                failures.append((m, i))
    return unmarked, missing, failures


# -- corruptions ------------------------------------------------------------------

KINDS = (None, "wrong-ends", "unknown-id", "object")


def corrupt(F, kind, pick):
    """A copy of F with one image broken as ``kind`` says, chosen by
    ``pick``; F itself when there is nothing to break that way."""
    S, T = F.source, F.target
    obj_map, mor_map = dict(F.obj_map), dict(F.mor_map)
    if kind is None or not S.morphisms:
        return F
    m = S.morphisms[pick % len(S.morphisms)]
    if kind == "wrong-ends":
        ends = (T.src[mor_map[m]], T.tgt[mor_map[m]])
        others = [n for n in T.morphisms if (T.src[n], T.tgt[n]) != ends]
        if not others:
            return F
        mor_map[m] = others[pick % len(others)]
    elif kind == "unknown-id":
        mor_map[m] = "no-such-morphism"
    elif kind == "object":
        o = S.objects[pick % len(S.objects)]
        others = [p for p in T.objects if p != obj_map[o]]
        if not others:
            return F
        obj_map[o] = others[pick % len(others)]
    return Functor(S, T, obj_map, mor_map)


def functors_of(rc):
    """(functor, source base, target base) for functors among rc's
    category, its chain categories and one hammock category; a base is
    None for a category given by its table."""
    cat = rc.cat
    a_1, a_2 = chain_category(rc, 1), chain_category(rc, 2)
    hammock = zigzag_category(rc, cat.objects[0], cat.objects[-1])
    out = [(Functor.identity(cat), None, None),
           (Functor.constant(cat, cat, cat.objects[-1]), None, None),
           (Functor.identity(hammock), cat, cat)]
    if a_1.objects and a_2.objects:
        out += [(Functor.identity(a_1), cat, cat),
                (Functor.constant(a_2, a_1, a_1.objects[0]), cat, cat),
                (diagram_functor(a_2, a_1, lambda objs, arrows: (objs[:-1], arrows[:-1]),
                                 lambda c: c[:-1]), cat, cat),
                (diagram_functor(a_2, a_1, lambda objs, arrows: (objs[-2:], arrows[-1:]),
                                 lambda c: c[-2:]), cat, cat)]
    return out


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.integers(min_value=0, max_value=10 ** 6))
def test_thin_functor_check_agrees_with_the_table_reference(seed, kind, pick):
    rc = random_preorder_relcat(seed, max_objects=3)
    for F, src_base, tgt_base in functors_of(rc):
        assert F.target.is_thin()
        G = corrupt(F, kind, pick)
        want = reference_functor_ok(G, reference_table(G.source, src_base),
                                    reference_table(G.target, tgt_base))
        assert check_functor(G).ok == want, (seed, kind, pick)
        if G is F:
            assert want


def transformations_of(rc):
    """(F, G, components, base) of natural transformations F => G = 1 on
    diagram categories over rc: on the chains of the marked maps, from
    the constant chain at the first vertex, with components (id, a1,
    a2.a1); on a hammock category, the identity transformation."""
    marked = restrict_to_weq(rc)
    cat = marked.cat
    out = []
    for k in (1, 2):
        a_k = chain_category(marked, k)
        if not a_k.objects:
            continue
        F = diagram_functor(
            a_k, a_k,
            lambda objs, arrows: ((objs[0],) * len(objs), (cat.identity[objs[0]],) * len(arrows)),
            lambda c: (c[0],) * len(c))
        components = {}
        for o, (objs, arrows) in a_k.diagrams.items():
            comps = [cat.identity[objs[0]]]
            for arrow in arrows:
                comps.append(arrow if len(comps) == 1 else cat.compose(arrow, comps[-1]))
            components[o] = tuple(comps)
        out.append((marked, F, Functor.identity(a_k), components))
    hammock = zigzag_category(rc, rc.cat.objects[0], rc.cat.objects[-1])
    if hammock.objects:
        one = Functor.identity(hammock)
        out.append((rc, one, one, {o: hammock.components[hammock.identity[o]]
                                   for o in hammock.objects}))
    return out


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(KINDS), st.integers(min_value=0, max_value=10 ** 6))
def test_thin_naturality_check_agrees_with_the_table_reference(seed, kind, pick):
    rc = random_preorder_relcat(seed, max_objects=3)
    for base_rc, F, one, components in transformations_of(rc):
        D = one.target
        assert D.is_thin()
        components = dict(components)
        G = one
        if kind == "wrong-ends":
            # a square that composes but ends elsewhere: G(m) keeps its
            # source and misses its target
            m = D.morphisms[pick % len(D.morphisms)]
            others = [n for n in D.out_of(D.src[m]) if D.tgt[n] != D.tgt[m]]
            if others:
                G = Functor(D, D, one.obj_map, {**one.mor_map, m: others[pick % len(others)]})
        elif kind == "unknown-id":
            o = D.objects[pick % len(D.objects)]
            components[o] = ("no-such-morphism",) + components[o][1:]
        elif kind == "object":
            G = corrupt(one, "object", pick)
        record = TransformationRecord("t", "F", "G", components)
        if kind == "wrong-ends" and G is not one:
            # over a thin D naturality follows from the components, so a
            # broken image is the functor check's to reject; the square
            # is composed on the componentwise path
            assert not check_functor(G).ok
            with patch.object(FinCategory, "is_thin", lambda self: False):
                rec = check_transformation(base_rc, record, F, G, D)
        else:
            rec = check_transformation(base_rc, record, F, G, D)
        want = reference_transformation(base_rc, components, F, G, D,
                                        reference_table(D, base_rc.cat))
        assert (rec.unmarked, rec.missing, rec.naturality_failures) == want, (seed, kind)
        if kind is None:
            assert rec.ok
