"""Finite evaluation of the mapping-space embedding.

An object A is sent to the presheaf whose value at B is the width-one
zigzag mapping space from B to A (the nerve of the zigzag category),
with the action of a *marked* map g: B' -> B given by precomposition
into the zigzag's left leg.  Only the marked part of the action is
materialized: the width-one model does not support precomposition along
arbitrary maps without further calculus moves, and the relative-functor
content only involves the marked maps.  Every report states this model
explicitly.  Every map here is the nerve of a functor between zigzag
categories, and the nerve is a functor, N(G.F) = N(G).N(F) (Rezk,
Trans. AMS 353, 2001): each law is checked on the functors, and then
holds on every simplex.  For every A the report checks the action over
the marked maps: each acts by a functor, identities as identities and
composites as composites.

A marked map w: A -> A' induces, by precomposition into the right leg,
a map of presheaves; the verifier checks it is levelwise a bijection on
components and an isomorphism on homology up to the requested degree.
Homology isomorphy is certified through the algebraic mapping cone: the
cone complex must be acyclic one degree beyond the target range.  The
components of every value are compared with the hom-sets counted by the
bounded word oracle.  Each value is built once, in a table keyed by
(B, A) that also keeps its components, boundaries and homology; the
action, the induced maps and the hom comparison all read that table.
"""

from dataclasses import dataclass, field

from .fincat import StructuralError, check_functor
from .relcat import diagram_functor, validate_relative
from .sset import (
    nerve, nerve_map_tables, pi0, normalized_boundaries, homology_of_boundaries,
)
from .hammock import zigzag_category, bounded_localization_oracle

MODEL_NOTE = ("width-one zigzag model; presheaf action materialized on marked "
              "maps only; agreement with wider hammocks beyond components and "
              "low homology is not decided by this tool")

# word-length bound of the localization oracle behind the hom comparison
ORACLE_BOUND = 7


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


def presheaf_values(rc, n_max):
    """The value table: (B, A) -> PresheafValue for every pair of objects."""
    objects = rc.cat.objects
    return {(b, a): PresheafValue(rc, b, a, n_max) for b in objects for a in objects}


def _leg_map(rc, source, target, f, left):
    """The functor from the zigzags of the value ``source`` to those of
    the value ``target`` induced by f on the legs: with ``left``,
    f: B' -> B sends the left leg l: X -> B' to f.l; otherwise
    f: A -> A' sends the right leg r: A' -> Y to r.f.  The moved end's
    component becomes an identity."""
    cat = rc.cat
    if left:
        b = cat.tgt[f]
        move = lambda objs, arrows: ((b,) + objs[1:], (cat.compose(f, arrows[0]),) + arrows[1:])
        steps = lambda comps: (cat.identity[b],) + comps[1:]
    else:
        a = cat.src[f]
        move = lambda objs, arrows: (objs[:-1] + (a,), arrows[:-1] + (cat.compose(arrows[-1], f),))
        steps = lambda comps: comps[:-1] + (cat.identity[a],)
    return diagram_functor(source.zigzags, target.zigzags, move, steps)


def presheaf_action(rc, a, table):
    """The action on the presheaf of ``a``, read from ``table``: each
    marked g: B' -> B as the functor from the zigzags of the value at
    (B', a) to those of the value at (B, a) that sends the left leg
    l: X -> B' to g.l."""
    cat = rc.cat
    return {g: _leg_map(rc, table[(cat.src[g], a)], table[(cat.tgt[g], a)], g, True)
            for g in rc.weq}


def check_presheaf_action(rc, action):
    """Functor laws of an action table over the marked subcategory,
    checked on the functors (so on every simplex of their nerves): each
    must pass ``check_functor``, an identity must act as the identity and
    g2.g1 as the composite of the two actions, on objects and on
    morphisms.  A list of violations; where the marking is not closed
    under composition, a marked pair whose composite has no action is
    one of them."""
    cat = rc.cat
    bad = []
    for g, F in action.items():
        report = check_functor(F)
        if not report.ok:
            bad += [f"action of {g} is not a functor: {line}"
                    for line in report.describe().splitlines()]
        if cat.is_identity(g) and any(x != y for part in _parts(F) for x, y in part.items()):
            bad.append(f"action of identity {g} is not the identity")
    for g1, first in action.items():
        for g2 in cat.out_of(cat.tgt[g1]):
            if g2 in action:
                g = cat.compose(g2, g1)
                if g not in action:
                    bad.append(f"action of {g2}.{g1} is missing: {g} is not marked")
                    continue
                parts = zip(_parts(first), _parts(action[g2]), _parts(action[g]))
                if any({x: after.get(y) for x, y in before.items()} != composite
                       for before, after, composite in parts):
                    bad.append(f"action of {g2}.{g1} differs from the composite")
    return bad


def _parts(F):
    """F on objects and on morphisms."""
    return F.obj_map, F.mor_map


def weq_induced_presheaf_maps(rc, w, table):
    """The functors induced by a marked w: A -> A', keyed by B, from the
    zigzags of the value at (B, A') to those of the value at (B, A) in
    ``table``: the zigzag right leg r: A' -> Y is precomposed to r.w."""
    cat = rc.cat
    if not rc.is_weq(w):
        raise StructuralError(f"{w} is not marked")
    a, a_prime = cat.src[w], cat.tgt[w]
    return {b: _leg_map(rc, table[(b, a_prime)], table[(b, a)], w, False)
            for b in cat.objects}


def _pi0_bijective(F, src_classes, tgt_classes):
    """Whether the functor F induces a bijection between the given
    components of its source and of its target; a functor sends each
    component into one, so an object per component suffices."""
    class_of = {v: i for i, cls in enumerate(tgt_classes) for v in cls}
    images = {class_of[F.obj_map[cls[0]]] for cls in src_classes}
    return len(src_classes) == len(images) == len(tgt_classes)


def _cone_acyclic(s, t, tables, source_boundaries, target_boundaries, up_to):
    """H_i of the algebraic mapping cone of the simplicial map ``tables``
    from the nerve ``s`` to the nerve ``t`` vanishes for 1 <= i <= up_to.

    The boundaries are ``normalized_boundaries`` of the source up to
    degree up_to (at least) and of the target up to up_to + 1.  The map
    is then an isomorphism on H_i for i < up_to (and injective at
    up_to); combined with equal invariants this certifies the range.
    """
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
    isomorphisms, that each presheaf's action is lawful, plus the
    component-level hom comparison against the bounded word oracle (a
    pair unstable at ORACLE_BOUND is only noted)."""

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
    every marked map, the action's functor laws on every presheaf, and
    the component-level hom comparison against the bounded word oracle
    at every pair of objects; every check reads one table of presheaf
    values, built at truncation n_dims + 2.  Each map is checked on the
    functor that induces it (the nerve is a functor); only the mapping
    cone builds a nerve map's tables.  Refuses with StructuralError,
    naming the first violation, unless the marked maps form a wide
    subcategory: the action of g2.g1 is compared with g2's after g1's."""
    validate_relative(rc).require("the weak equivalences are not a subcategory")
    cat = rc.cat
    report = YonedaReport(n_dims, notes=[MODEL_NOTE])
    table = presheaf_values(rc, n_dims + 2)
    for w in rc.weq:
        if cat.is_identity(w):
            continue
        a, a_prime = cat.src[w], cat.tgt[w]
        maps = weq_induced_presheaf_maps(rc, w, table)
        report.checked_weqs += 1
        for b, F in maps.items():
            functor = check_functor(F)
            if not functor.ok:
                report.failures.append((w, b, "not a functor",
                                        functor.describe().splitlines()[0]))
                continue
            source, target = table[(b, a_prime)], table[(b, a)]
            if not _pi0_bijective(F, source.components, target.components):
                report.failures.append((w, b, "pi0", "not a bijection"))
            for i, (h_src, h_tgt) in enumerate(zip(source.homology, target.homology)):
                if h_src != h_tgt:
                    report.failures.append((w, b, f"H_{i}", f"{h_src} != {h_tgt}"))
            if not _cone_acyclic(source.nerve, target.nerve,
                                 nerve_map_tables(F, source.nerve, target.nerve),
                                 source.boundaries, target.boundaries, n_dims + 1):
                report.failures.append((w, b, "cone", "mapping cone not acyclic"))

    for a in cat.objects:
        for msg in check_presheaf_action(rc, presheaf_action(rc, a, table)):
            report.failures.append((a, "action", msg))

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
