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
Homology isomorphy is certified through the algebraic mapping cone: the
cone complex must be acyclic one degree beyond the target range.  The
components of every value are compared with the hom-sets counted by the
bounded word oracle.  Each value is built once, in a table keyed by
(B, A) that also keeps its components, boundaries and homology.
"""

from dataclasses import dataclass, field

from .fincat import StructuralError
from .relcat import diagram_functor
from .sset import (
    nerve, nerve_map_tables, pi0, normalized_boundaries,
    homology_of_boundaries, simplicial_map_violations,
)
from .hammock import zigzag_category, bounded_localization_oracle

MODEL_NOTE = ("width-one zigzag model; presheaf action materialized on marked "
              "maps only; agreement with wider hammocks beyond components and "
              "low homology is not decided by this tool")

# word-length bound of the localization oracle behind the hom comparison
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


class PresheafValue:
    """The value at B of the presheaf of A: the zigzag category B ~> A,
    its nerve, components and normalized boundaries up to the
    truncation, and homology up to two degrees below it."""

    def __init__(self, rc, b, a, n_max):
        self.zigzags = zigzag_category(rc, b, a)
        self.nerve = nerve(self.zigzags, n_max)
        self.components = pi0(self.nerve)
        self.boundaries = normalized_boundaries(self.nerve, n_max)
        dims, rows = self.boundaries
        self.homology = homology_of_boundaries(
            dims, {n: rows[n] for n in range(1, n_max)}, n_max - 2)


def presheaf_values(rc, n_max, objects=None):
    """The value table: (B, A) -> PresheafValue for every object B and
    every A in ``objects`` (default: all objects)."""
    cat = rc.cat
    return {(b, a): PresheafValue(rc, b, a, n_max)
            for b in cat.objects for a in (cat.objects if objects is None else objects)}


@dataclass
class SimplicialPresheaf:
    """Value table of one object under the embedding."""

    source: str
    n_max: int
    values: dict           # object B -> TruncatedSimplicialSet
    action: dict           # marked g: B' -> B  ->  SSetMap value(B') -> value(B)
    model: str = MODEL_NOTE


def yoneda_object(rc, a, n_max):
    """The presheaf of zigzag mapping spaces into ``a``, read from the
    value table built for ``a`` alone.

    The action table covers the marked morphisms: g: B' -> B acts by
    sending the left leg l: X -> B' to g.l.
    """
    cat = rc.cat
    table = presheaf_values(rc, n_max, (a,))
    values = {b: table[(b, a)].nerve for b in cat.objects}
    action = {}
    for g in rc.weq:
        b_prime, b = cat.src[g], cat.tgt[g]
        F = diagram_functor(
            table[(b_prime, a)].zigzags, table[(b, a)].zigzags,
            lambda objs, arrows: ((b,) + objs[1:], (cat.compose(g, arrows[0]),) + arrows[1:]),
            lambda comps: (cat.identity[b],) + comps[1:])
        action[g] = SSetMap(values[b_prime], values[b],
                            nerve_map_tables(F, values[b_prime], values[b]))
    return SimplicialPresheaf(a, n_max, values, action)


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
                g21 = cat.compose(g2, g1)
                lhs = presheaf.action[g2].compose(presheaf.action[g1])
                rhs = presheaf.action[g21]
                if lhs.tables != rhs.tables:
                    bad.append(f"action of {g2}.{g1} differs from the composite")
    return bad


def weq_induced_presheaf_maps(rc, w, n_max, table=None):
    """The levelwise maps induced by a marked w: A -> A', keyed by B,
    from the value at (B, A') to the value at (B, A): the zigzag right
    leg r: A' -> Y is precomposed to r.w.  Values are read from
    ``table`` (built for A and A' alone when not given)."""
    cat = rc.cat
    if not rc.is_weq(w):
        raise StructuralError(f"{w} is not marked")
    a, a_prime = cat.src[w], cat.tgt[w]
    table = table or presheaf_values(rc, n_max, (a, a_prime))
    maps = {}
    for b in cat.objects:
        source, target = table[(b, a_prime)], table[(b, a)]
        F = diagram_functor(
            source.zigzags, target.zigzags,
            lambda objs, arrows: (objs[:-1] + (a,), arrows[:-1] + (cat.compose(arrows[-1], w),)),
            lambda comps: comps[:-1] + (cat.identity[a],))
        maps[b] = SSetMap(source.nerve, target.nerve,
                          nerve_map_tables(F, source.nerve, target.nerve))
    return maps


def _pi0_bijective(mp, src_classes, tgt_classes):
    """Whether ``mp`` induces a bijection between the given components
    of its source and of its target; a simplicial map sends each
    component into one, so a vertex per component suffices."""
    class_of = {v: i for i, cls in enumerate(tgt_classes) for v in cls}
    vertex = {v: i for i, v in enumerate(mp.source.simplices[0])}
    image, into = mp.tables[0], mp.target.simplices[0]
    images = {class_of[into[image[vertex[cls[0]]]]] for cls in src_classes}
    return len(src_classes) == len(images) == len(tgt_classes)


def _cone_acyclic(mp, source_boundaries, target_boundaries, up_to):
    """H_i of the algebraic mapping cone vanishes for 1 <= i <= up_to.

    The boundaries are ``normalized_boundaries`` of the source up to
    degree up_to (at least) and of the target up to up_to + 1.  The map
    is then an isomorphism on H_i for i < up_to (and injective at
    up_to); combined with equal invariants this certifies the range.
    """
    s, t, tables = mp.source, mp.target, mp.tables
    depth = up_to + 1
    dims_s, bnd_s = source_boundaries
    dims_t, bnd_t = target_boundaries
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
    isomorphisms, plus the component-level hom comparison against the
    bounded word oracle (a pair unstable at ORACLE_BOUND is only noted)."""

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


def verify_yoneda_relative(rc, n_dims):
    """Levelwise component-bijection and homology-isomorphism checks for
    every marked map, plus the component-level hom comparison against
    the bounded word oracle at every pair of objects; every check reads
    one table of presheaf values, built at truncation n_dims + 2."""
    cat = rc.cat
    report = YonedaReport(n_dims, notes=[MODEL_NOTE])
    table = presheaf_values(rc, n_dims + 2)
    for w in rc.weq:
        if cat.is_identity(w):
            continue
        a, a_prime = cat.src[w], cat.tgt[w]
        maps = weq_induced_presheaf_maps(rc, w, n_dims + 2, table)
        report.checked_weqs += 1
        for b, mp in maps.items():
            bad = mp.check_simplicial()
            if bad:
                report.failures.append((w, b, "not simplicial", bad[0]))
                continue
            source, target = table[(b, a_prime)], table[(b, a)]
            if not _pi0_bijective(mp, source.components, target.components):
                report.failures.append((w, b, "pi0", "not a bijection"))
            for i, (h_src, h_tgt) in enumerate(zip(source.homology, target.homology)):
                if h_src != h_tgt:
                    report.failures.append((w, b, f"H_{i}", f"{h_src} != {h_tgt}"))
            if not _cone_acyclic(mp, source.boundaries, target.boundaries, n_dims + 1):
                report.failures.append((w, b, "cone", "mapping cone not acyclic"))

    report.checked_pairs = len(table)
    for (a, b), value in table.items():
        orep = bounded_localization_oracle(rc, a, b, ORACLE_BOUND)
        if not orep.stable:
            report.notes.append(f"oracle unstable at ({a},{b}); comparison inconclusive")
        elif len(value.components) != orep.count:
            report.failures.append(
                (a, b, "hom-comparison", f"presheaf components {len(value.components)} "
                 f"!= {orep.count} (word oracle (bound {ORACLE_BOUND}))"))
    return report
