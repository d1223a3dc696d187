"""Finite evaluation of the mapping-space embedding.

An object A is sent to the presheaf whose value at B is the width-one
zigzag mapping space from B to A (the nerve of the zigzag category),
with the action of a *marked* map g: B' -> B given by precomposition
into the zigzag's left leg.  Only the marked part of the action is
materialized: the width-one model does not support precomposition along
arbitrary maps without further calculus moves, and the relative-functor
content only involves the marked maps.  Every report states this model
explicitly.

A marked map w: A -> A' induces, by precomposition into the right leg,
a map of presheaves; the verifier checks it is levelwise a bijection on
components and an isomorphism on homology up to the requested degree.
Homology isomorphy is certified through the algebraic mapping cone:
the cone complex must be acyclic one degree beyond the target range.
"""

from dataclasses import dataclass, field

from .fincat import StructuralError
from .relcat import diagram_functor
from .sset import (
    nerve, nerve_map_tables, pi0, homology, normalized_boundaries,
    homology_of_boundaries, simplicial_map_violations,
)
from .hammock import zigzag_category, bounded_localization_oracle, homotopy_category

MODEL_NOTE = ("width-one zigzag model; presheaf action materialized on marked "
              "maps only; agreement with wider hammocks beyond components and "
              "low homology is not decided by this tool")

# word-length bound of the localization oracle behind the hom comparison
# when no verified structure is supplied
ORACLE_BOUND = 7


class SSetMap:
    """A simplicial map between truncated simplicial sets, stored as
    index tables per dimension."""

    def __init__(self, source, target, tables):
        self.source = source
        self.target = target
        self.tables = {n: list(t) for n, t in tables.items()}

    def check_simplicial(self):
        """Commutation with every face and degeneracy inside the
        truncation; list of violations."""
        s, t = self.source, self.target
        return simplicial_map_violations(
            self.tables, (s.faces, s.degeneracies), (t.faces, t.degeneracies),
            min(s.n_max, t.n_max))

    def compose(self, other):
        """self after other."""
        tables = {n: [self.tables[n][v] for v in other.tables[n]]
                  for n in other.tables}
        return SSetMap(other.source, self.target, tables)

    def is_identity_map(self):
        return all(t == list(range(len(t))) for t in self.tables.values())


@dataclass
class SimplicialPresheaf:
    """Value table of one object under the embedding."""

    source: str
    n_max: int
    values: dict           # object B -> TruncatedSimplicialSet
    zigzag_cats: dict      # object B -> zigzag DiagramCategory
    action: dict           # marked g: B' -> B  ->  SSetMap value(B') -> value(B)
    model: str = MODEL_NOTE


def yoneda_object(rc, a, n_max):
    """The presheaf of zigzag mapping spaces into ``a``.

    The action table covers the marked morphisms: g: B' -> B acts by
    sending the left leg l: X -> B' to g.l.
    """
    cat = rc.cat
    if a not in set(cat.objects):
        raise StructuralError(f"unknown object {a}")
    zcs = {b: zigzag_category(rc, b, a) for b in cat.objects}
    values = {b: nerve(zcs[b], n_max) for b in cat.objects}
    action = {}
    for g in rc.weq:
        b_prime, b = cat.src[g], cat.tgt[g]
        F = diagram_functor(
            zcs[b_prime], zcs[b],
            lambda objs, arrows: ((b,) + objs[1:], (cat.comp[(arrows[0], g)],) + arrows[1:]),
            lambda comps: (cat.identity[b],) + comps[1:])
        action[g] = SSetMap(values[b_prime], values[b],
                            nerve_map_tables(F, values[b_prime], values[b]))
    return SimplicialPresheaf(a, n_max, values, zcs, action)


def check_presheaf_action(rc, presheaf):
    """Functor laws of the action table over the marked subcategory."""
    cat = rc.cat
    bad = []
    for g, mp in presheaf.action.items():
        for msg in mp.check_simplicial():
            bad.append(f"action of {g} is not simplicial: {msg}")
        if cat.is_identity(g) and not mp.is_identity_map():
            bad.append(f"action of identity {g} is not the identity")
    for g1 in rc.weq:
        for g2 in rc.weq:
            if cat.composable(g1, g2):
                g21 = cat.comp[(g1, g2)]
                lhs = presheaf.action[g2].compose(presheaf.action[g1])
                rhs = presheaf.action[g21]
                if lhs.tables != rhs.tables:
                    bad.append(f"action of {g2}.{g1} differs from the composite")
    return bad


def weq_induced_presheaf_maps(rc, w, n_max):
    """The levelwise maps induced by a marked w: A -> A': at each B the
    zigzag right leg r: A' -> Y is precomposed to r.w."""
    cat = rc.cat
    if not rc.is_weq(w):
        raise StructuralError(f"{w} is not marked")
    a, a_prime = cat.src[w], cat.tgt[w]
    ya = yoneda_object(rc, a, n_max)
    ya_prime = yoneda_object(rc, a_prime, n_max)
    maps = {}
    for b in cat.objects:
        F = diagram_functor(
            ya_prime.zigzag_cats[b], ya.zigzag_cats[b],
            lambda objs, arrows: (objs[:-1] + (a,), arrows[:-1] + (cat.comp[(w, arrows[-1])],)),
            lambda comps: comps[:-1] + (cat.identity[a],))
        maps[b] = SSetMap(ya_prime.values[b], ya.values[b],
                          nerve_map_tables(F, ya_prime.values[b], ya.values[b]))
    return ya, ya_prime, maps


def _pi0_bijective(mp):
    src_classes = pi0(mp.source)
    tgt_classes = pi0(mp.target)
    if len(src_classes) != len(tgt_classes):
        return False
    tgt_class_of = {}
    for i, cls in enumerate(tgt_classes):
        for v in cls:
            tgt_class_of[v] = i
    images = set()
    for cls in src_classes:
        rep = cls[0]
        idx = mp.source.index[0][rep]
        img_val = mp.target.simplices[0][mp.tables[0][idx]]
        images.add(tgt_class_of[img_val])
    return len(images) == len(tgt_classes)


def _cone_acyclic(mp, up_to):
    """H_i of the algebraic mapping cone vanishes for 1 <= i <= up_to.

    The map is then an isomorphism on H_i for i < up_to (and injective
    at up_to); combined with equal invariants this certifies the range.
    """
    s, t, tables = mp.source, mp.target, mp.tables
    depth = up_to + 1
    dims_s, bnd_s = normalized_boundaries(s, depth - 1)
    dims_t, bnd_t = normalized_boundaries(t, depth)
    # C_n = S_{n-1} + T_n and d(x, y) = (-dx, f(x) + dy); the rows into
    # degree n - 1 are those of S_{n-2}, then those of T_{n-1}.  The chain
    # map f sends a nondegenerate simplex to its image, or to zero if the
    # image is degenerate.
    cone_dims = [dims_t[0]] + [dims_s[n - 1] + dims_t[n] for n in range(1, depth + 1)]
    cone_bnds = {}
    for n in range(1, depth + 1):
        shift = dims_s[n - 1]
        rows = [{c + shift: v for c, v in row.items()} for row in bnd_t[n]]
        f, image_at = tables[n - 1], t.normal_positions(n - 1)
        for x, p in enumerate(s.normal_positions(n - 1)):
            q = None if p is None else image_at[f[x]]
            if q is not None:
                rows[q][p] = 1
        cone_bnds[n] = [{c: -v for c, v in row.items()}
                        for row in bnd_s.get(n - 1, ())] + rows
    groups = homology_of_boundaries(cone_dims, cone_bnds, up_to)
    return all(g.rank == 0 and not g.torsion for g in groups[1:up_to + 1])


@dataclass
class YonedaReport:
    """Evidence that the embedding is a relative functor with marked
    maps inducing levelwise component bijections and homology
    isomorphisms, plus the component-level hom comparison."""

    n_dims: int
    failures: list = field(default_factory=list)
    checked_weqs: int = 0
    checked_pairs: int = 0
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        return {
            "passed": self.passed,
            "dims": self.n_dims,
            "failures": [list(f) for f in self.failures],
            "weqs_checked": self.checked_weqs,
            "pairs_checked": self.checked_pairs,
            "notes": list(self.notes),
        }


def verify_yoneda_relative(rc, n_dims, pms=None):
    """Levelwise component-bijection and homology-isomorphism checks for
    every marked map, plus the component-level hom comparison at every
    pair of objects.

    The hom comparison uses the homotopy category when a verified
    structure is supplied and the bounded word oracle otherwise.
    """
    cat = rc.cat
    report = YonedaReport(n_dims, notes=[MODEL_NOTE])
    trunc = n_dims + 2
    for w in rc.weq:
        if cat.is_identity(w):
            continue
        ya, ya_prime, maps = weq_induced_presheaf_maps(rc, w, trunc)
        report.checked_weqs += 1
        for b, mp in maps.items():
            bad = mp.check_simplicial()
            if bad:
                report.failures.append((w, b, "not simplicial", bad[0]))
                continue
            if not _pi0_bijective(mp):
                report.failures.append((w, b, "pi0", "not a bijection"))
            h_src = homology(mp.source, n_dims)
            h_tgt = homology(mp.target, n_dims)
            for i in range(n_dims + 1):
                if h_src[i] != h_tgt[i]:
                    report.failures.append((w, b, f"H_{i}", f"{h_src[i]} != {h_tgt[i]}"))
            if not _cone_acyclic(mp, n_dims + 1):
                report.failures.append((w, b, "cone", "mapping cone not acyclic"))

    ho = homotopy_category(pms) if pms is not None else None
    for a in cat.objects:
        for b in cat.objects:
            presheaf_classes = len(pi0(nerve(zigzag_category(rc, a, b), 1)))
            report.checked_pairs += 1
            if ho is not None:
                expected = len(ho.hom_classes(a, b))
                source = "homotopy category"
            else:
                orep = bounded_localization_oracle(rc, a, b, ORACLE_BOUND)
                if not orep.stable:
                    report.notes.append(
                        f"oracle unstable at ({a},{b}); comparison inconclusive")
                    continue
                expected = orep.count
                source = f"word oracle (bound {ORACLE_BOUND})"
            if presheaf_classes != expected:
                report.failures.append(
                    (a, b, "hom-comparison",
                     f"presheaf components {presheaf_classes} != {expected} ({source})"))
    return report
