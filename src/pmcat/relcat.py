"""Relative categories, the two-out-of-three / two-out-of-six scans, and
categories of shaped diagrams.

A relative category is a finite category with a marked wide subcategory
of weak equivalences: every identity is marked and marked morphisms are
closed under composition.  The property checkers scan every composable
pair (respectively triple) and return either a pass or a concrete
witness.

:func:`diagram_category` is the one engine behind every category of
small diagrams the toolkit builds: the chain categories A_k, the
zigzag-chain categories B_k, the three-arrow zigzag (hammock)
categories, the arrow category of the weak equivalences, and through
the A_k the classification nerve.  :func:`diagram_functor` builds the
functors between them that move diagrams and components.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .fincat import (
    ComponentwiseCategory, FinCategory, Functor, StructuralError, Violation,
    ValidationReport, bit_positions,
)


class RelCategory:
    """A finite category together with its weak equivalences.

    ``weq`` is stored as a tuple in deterministic order (category
    morphism order).  Every identity is marked, whether or not ``weq``
    lists it.
    """

    def __init__(self, cat, weq):
        unknown = [w for w in weq if w not in cat.src]
        if unknown:
            raise StructuralError(f"weak equivalences not in category: {unknown}")
        marked = set(weq) | {cat.identity[o] for o in cat.objects}
        self.cat = cat
        self.weq = tuple(m for m in cat.morphisms if m in marked)
        self._weq_set = frozenset(self.weq)

    def is_weq(self, m):
        return m in self._weq_set

    @cached_property
    def marked_relation(self):
        """On a thin category, the weak equivalences as a sub-relation of
        ``cat.relation``: bit j of row i is set when the morphism from the
        i-th object to the j-th is marked.  None when the category is not
        thin.  Built on the first read."""
        cat = self.cat
        if cat.relation is None:
            return None
        where, src, tgt = cat.object_index, cat.src, cat.tgt
        rows = [0] * len(cat.objects)
        for m in self.weq:
            rows[where[src[m]]] |= 1 << where[tgt[m]]
        return rows

    def __repr__(self):
        return f"RelCategory({len(self.cat.objects)} objects, {len(self.weq)}/{len(self.cat.morphisms)} marked)"


def validate_relative(rc):
    """Check composition closure of the marked subcategory (every
    identity is marked by construction)."""
    cat = rc.cat
    return ValidationReport([], [
        Violation("not-closed", (f, g), f"composite {cat.compose(g, f)} is unmarked")
        for f, g in unclosed_pairs(cat, rc.weq)])


def unclosed_pairs(cat, members):
    """The composable pairs (f, g) of ``members`` whose composite is not
    one of them, in the order of ``members``."""
    member_set, out_of = set(members), {}
    for g in members:
        out_of.setdefault(cat.src[g], []).append(g)
    return [(f, g) for f in members for g in out_of.get(cat.tgt[f], ())
            if cat.compose(g, f) not in member_set]


@dataclass
class PropertyReport:
    """Pass/fail of a closure property, with witnesses when failing."""

    name: str
    passed: bool
    witnesses: list
    notes: list

    def to_dict(self):
        return {
            "property": self.name,
            "passed": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
            "notes": list(self.notes),
        }


def check_two_of_three(rc):
    """Scan all composable pairs (r, s): if two of r, s, s.r are marked,
    the third must be.  Witness is the offending pair.

    On a thin category the pairs are read from the relations, composing
    nothing: for r: a -> b, the ends c of the offending s: b -> c are the
    row of b masked by the rows of a and b in the marked relation.  The
    witnesses come in the order of the scan."""
    cat = rc.cat
    witnesses = []
    marked = rc.marked_relation
    if marked is not None:
        up, where, src, tgt, out_of = cat.relation, cat.object_index, cat.src, cat.tgt, cat.out_of
        for r in cat.morphisms:
            a, b = where[src[r]], where[tgt[r]]
            s_marked, sr_marked = marked[b], marked[a]
            # r marked: exactly one of s, s.r; r unmarked: both
            bad = up[b] & (s_marked ^ sr_marked if sr_marked >> b & 1 else s_marked & sr_marked)
            if bad:
                witnesses += [(r, s) for s in out_of(tgt[r]) if bad >> where[tgt[s]] & 1]
        return PropertyReport("two-of-three", not witnesses, witnesses, [])
    compose = cat.compose
    for r in cat.morphisms:
        for s in cat.out_of(cat.tgt[r]):
            sr = compose(s, r)
            marks = (rc.is_weq(r), rc.is_weq(s), rc.is_weq(sr))
            if sum(marks) == 2:
                witnesses.append((r, s))
    return PropertyReport("two-of-three", not witnesses, witnesses, [])


def check_two_of_six(rc):
    """Scan all composable triples (r, s, t): if s.r and t.s are marked,
    then r, s, t and t.s.r must be.

    On a pass the two stated consequences are re-verified and recorded:
    two-of-three holds, and every isomorphism is marked.

    On a thin category the triples are read from the relations, composing
    nothing: for r: a -> b and s: b -> c with s.r marked, the ends d of
    the offending t: c -> d are the row of c masked by the marked rows of
    b (t.s marked) and, when r and s are marked, of c and a (t and t.s.r
    unmarked).  A morphism a -> b is an isomorphism when b is related to
    a.  The witnesses come in the order of the scan.
    """
    cat = rc.cat
    marked = rc.marked_relation
    if marked is not None:
        witnesses = _thin_two_of_six(rc, marked)
    else:
        witnesses = _two_of_six(rc)
    notes = []
    if not witnesses:
        two_of_three = check_two_of_three(rc)
        notes.append(f"consequence two-of-three: {'pass' if two_of_three.passed else 'FAIL'}")
        if marked is not None:
            up, where, src, tgt = cat.relation, cat.object_index, cat.src, cat.tgt
            unmarked_isos = [m for m in cat.morphisms
                             if up[where[tgt[m]]] >> where[src[m]] & 1
                             and not marked[where[src[m]]] >> where[tgt[m]] & 1]
        else:
            unmarked_isos = [m for m in cat.isos() if not rc.is_weq(m)]
        notes.append("consequence isomorphisms marked: "
                     + ("pass" if not unmarked_isos else f"FAIL {unmarked_isos}"))
        if not two_of_three.passed or unmarked_isos:
            return PropertyReport("two-of-six", False, [], notes)
    return PropertyReport("two-of-six", not witnesses, witnesses, notes)


def _two_of_six(rc):
    """The witnesses of :func:`check_two_of_six`, composing each triple."""
    cat = rc.cat
    compose, is_weq, out_of, tgt = cat.compose, rc.is_weq, cat.out_of, cat.tgt
    marked_after = {}     # s -> each t after s, in out_of order, with t.s marked
    witnesses = []
    for r in cat.morphisms:
        r_marked = is_weq(r)
        for s in out_of(tgt[r]):
            sr = compose(s, r)
            if not is_weq(sr):
                continue
            after = marked_after.get(s)
            if after is None:
                after = marked_after[s] = [t for t in out_of(tgt[s]) if is_weq(compose(t, s))]
            rs_marked = r_marked and is_weq(s)
            for t in after:
                if not (rs_marked and is_weq(t) and is_weq(compose(t, sr))):
                    witnesses.append((r, s, t))
    return witnesses


def _thin_two_of_six(rc, marked):
    """The witnesses of :func:`check_two_of_six` on a thin category, read
    from the relation and its marked rows ``marked``."""
    cat = rc.cat
    up, where, src, tgt, out_of = cat.relation, cat.object_index, cat.src, cat.tgt, cat.out_of
    witnesses = []
    for r in cat.morphisms:
        a, b = where[src[r]], where[tgt[r]]
        sr_marked, ts_marked = marked[a], marked[b]
        r_marked = sr_marked >> b & 1
        for s in out_of(tgt[r]):
            c = where[tgt[s]]
            if not sr_marked >> c & 1:
                continue
            bad = up[c] & ts_marked
            if r_marked and ts_marked >> c & 1:
                bad &= ~(marked[c] & sr_marked)
            if bad:
                witnesses += [(r, s, t) for t in out_of(tgt[s]) if bad >> where[tgt[t]] & 1]
    return witnesses


def restrict_to_weq(rc):
    """The wide subcategory of weak equivalences, all of them marked,
    composing through ``rc.cat``."""
    cat = rc.cat
    rows = [(m, cat.src[m], cat.tgt[m]) for m in rc.weq]
    sub = FinCategory(cat.objects, rows, cat.identity, cat.compose)
    return RelCategory(sub, sub.morphisms)


# -- categories of shaped diagrams ----------------------------------------------

@dataclass(frozen=True)
class Slot:
    """One arrow of a diagram shape: forward (vertex i -> vertex i+1) or
    backward (vertex i+1 -> vertex i), optionally required to be marked."""

    backward: bool = False
    marked: bool = False


ARROW = Slot()
WEQ = Slot(marked=True)
WEQ_BACK = Slot(backward=True, marked=True)


class DiagramCategory(ComponentwiseCategory):
    """Diagrams of one shape in a relative category, with componentwise
    marked natural transformations as morphisms.

    ``diagrams`` maps an object id to its (vertex tuple, arrow tuple) and
    ``components`` a morphism id to its components, one per vertex, each
    in the base category, which ``factors`` repeats once per vertex.
    Objects and morphisms are looked up by their parts with
    :meth:`object_of` and :meth:`lookup`; only this module knows how ids
    are spelled.  A composite is missing only where the marking is not
    closed under composition.  Over a thin base, ``relation`` holds the
    category as its relation (:attr:`FinCategory.relation`), as the
    enumeration of its maps built it.
    """

    def __init__(self, objects, rows, identity, factors, components, diagrams,
                 relation=None):
        super().__init__(objects, rows, identity, factors, components)
        self.diagrams = diagrams
        if relation is not None:
            self.relation = relation
        self._object_of = {d: o for o, d in diagrams.items()}

    def object_of(self, objs, arrows):
        """Id of the diagram with these vertices and arrows, or None."""
        return self._object_of.get((tuple(objs), tuple(arrows)))


def _shaped_diagrams(rc, slots, first, last):
    cat = rc.cat
    if not slots:
        return [((o,), ()) for o in cat.objects
                if first in (None, o) and last in (None, o)]
    head = slots[0]
    out = []
    for m in cat.morphisms:
        if head.marked and not rc.is_weq(m):
            continue
        a, b = (cat.tgt[m], cat.src[m]) if head.backward else (cat.src[m], cat.tgt[m])
        if first is None or a == first:
            out.append(((a, b), (m,)))
    for slot in slots[1:]:
        step, end = (cat.into, cat.src) if slot.backward else (cat.out_of, cat.tgt)
        out = [(objs + (end[m],), arrows + (m,))
               for objs, arrows in out for m in step(objs[-1])
               if not slot.marked or rc.is_weq(m)]
    if last is not None:
        out = [d for d in out if d[0][-1] == last]
    return out


def diagram_transitions(rc, slots, fixed=None):
    """The diagrams of a shape and the maps between them, without the
    category around them: (diagrams, transitions).

    ``diagrams`` lists every (vertices, arrows) of the shape, the first
    arrow in category order and later arrows out of (forward) or into
    (backward) the last vertex reached.  ``transitions`` lists every
    (source index, target index, components), by source, then by target
    index.  Components at a fixed end are identities.

    On a thin category the maps are read off the relation of
    :func:`_up_sets`: by the thin lemma (parallel morphisms are equal)
    every square of components commutes, so d maps to d' exactly when
    each vertex has a marked arrow d_i -> d'_i, and that arrow is the
    component.  Otherwise :func:`_extended_transitions` extends the
    components one vertex at a time.  See :func:`diagram_category` for
    ``slots`` and ``fixed``.
    """
    return _transitions(rc, slots, fixed)[:2]


def _transitions(rc, slots, fixed):
    """(diagrams, transitions, up-sets); the up-sets are None unless the
    category is thin."""
    slots = tuple(slots)
    first, last = fixed if fixed is not None else (None, None)
    diagrams = _shaped_diagrams(rc, slots, first, last)
    if not rc.cat.is_thin():
        return diagrams, _extended_transitions(rc, slots, fixed, diagrams), None
    up = _up_sets(rc, diagrams)
    marked = {o: {} for o in rc.cat.objects}       # x -> y -> the marked x -> y
    for m in rc.weq:
        marked[rc.cat.src[m]][rc.cat.tgt[m]] = m
    vertices = [objs for objs, _arrows in diagrams]
    positions = list(range(len(diagrams)))     # one int per target, shared
    component, out = dict.__getitem__, []
    for a, objs in enumerate(vertices):
        steps = [marked[o] for o in objs]
        out += [(a, positions[b], tuple(map(component, steps, vertices[b])))
                for b in bit_positions(up[a])]
    return diagrams, out, up


def _up_sets(rc, diagrams):
    """The relation of the diagrams over a thin category, one bitset per
    diagram: bit j of ``up[i]`` is set when diagram i maps to diagram j.
    Each is the AND, over the vertices, of one mask per (vertex, base
    object o): the diagrams whose vertex is reached from o by a marked
    arrow.  At a fixed end every diagram has the same vertex o, so the
    mask is o itself and the component its identity."""
    cat = rc.cat
    at = [{} for _ in (diagrams[0][0] if diagrams else ())]  # vertex -> object -> diagrams
    for j, (objs, _arrows) in enumerate(diagrams):
        for i, o in enumerate(objs):
            at[i][o] = at[i].get(o, 0) | 1 << j
    reached = {o: [o] for o in cat.objects}
    for m in rc.weq:
        if not cat.is_identity(m):
            reached[cat.src[m]].append(cat.tgt[m])
    # the diagrams at distinct objects are disjoint sets, so their sum is
    # their union
    masks = [{o: sum(here.get(y, 0) for y in reached[o]) for o in here} for here in at]
    up = []
    for objs, _arrows in diagrams:
        row = -1
        for mask, o in zip(masks, objs):
            row &= mask[o]
        up.append(row)
    return up


def _extended_transitions(rc, slots, fixed, diagrams):
    """The transitions of :func:`diagram_transitions` on any category.
    From each source diagram the components are extended one vertex at a
    time through marked maps, and each slot's target arrow is sought
    only among the morphisms between the two target vertices whose
    square commutes.  Per source, transitions are stably sorted by
    target index."""
    cat = rc.cat
    first, last = fixed if fixed is not None else (None, None)
    compose, tgt, is_weq = cat.compose, cat.tgt, rc.is_weq
    # a diagram is determined by its arrows, or by its vertex if it has none
    index = {arrows or objs: i for i, (objs, arrows) in enumerate(diagrams)}
    weq_out = {o: [m for m in cat.out_of(o) if is_weq(m)] for o in cat.objects}
    top = len(slots)

    def choices(i, o):
        if (i == 0 and first is not None) or (i == top and last is not None):
            return (cat.identity[o],)
        return weq_out[o]

    out = []
    for a, (objs, arrows) in enumerate(diagrams):
        partial = [((c,), ()) for c in choices(0, objs[0])]
        for i, (slot, arrow) in enumerate(zip(slots, arrows)):
            nxt = []
            for comps, targets in partial:
                prev = comps[-1]
                for c in choices(i + 1, objs[i + 1]):
                    # the square from the source arrow (vertex i+1 -> vertex i
                    # when backward) to a target arrow b
                    x, y = (c, prev) if slot.backward else (prev, c)
                    side = compose(y, arrow)
                    for b in cat.hom(tgt[x], tgt[y]):
                        if compose(b, x) == side and (not slot.marked or is_weq(b)):
                            nxt.append((comps + (c,), targets + (b,)))
            partial = nxt
        found = [(index[targets or (tgt[comps[0]],)], comps) for comps, targets in partial]
        found.sort(key=itemgetter(0))
        out.extend((a, b, comps) for b, comps in found)
    return out


def _parts_id(parts):
    return "(" + ",".join(parts) + ")"


def _fresh(name, seen):
    """``name``, primed until it is not in ``seen``, which then holds it:
    spelled parts collide when an id holds a comma, as the parts
    ('x,y', 'z') and ('x', 'y,z') do."""
    while name in seen:
        name += "'"
    seen.add(name)
    return name


def diagram_category(rc, slots, fixed=None):
    """The category of diagrams of a shape in ``rc``.

    ``slots`` is a sequence of :class:`Slot`; ``fixed`` optionally pins
    the (first, last) vertex, either of which may be None.  Morphisms are
    componentwise marked maps commuting with every arrow.  An arrowless
    shape keeps the object and morphism ids of ``rc.cat``, so it is the
    marked subcategory, its morphisms ordered by source, then target.
    """
    cat = rc.cat
    slots = tuple(slots)
    diagrams, transitions, relation = _transitions(rc, slots, fixed)
    seen = set()
    obj_ids = [_fresh(_parts_id(arrows), seen) if slots else objs[0]
               for objs, arrows in diagrams]
    rows = []
    identity = {}
    components = {}
    seen = set()
    for a, b, comps in transitions:
        sid, tid = obj_ids[a], obj_ids[b]
        is_id = a == b and all(cat.is_identity(c) for c in comps)
        if not slots:
            mid = comps[0]
        elif is_id:
            mid = f"id:{sid}"
        else:
            mid = _fresh(f"{_parts_id(comps)}:{sid}=>{tid}", seen)
        if is_id:
            identity[sid] = mid
        rows.append((mid, sid, tid))
        components[mid] = comps
    return DiagramCategory(obj_ids, rows, identity, (cat,) * (len(slots) + 1),
                           components, dict(zip(obj_ids, diagrams)), relation)


def diagram_functor(source, target, diagrams, components):
    """The functor between diagram categories that moves each diagram by
    ``diagrams`` (on its vertex and arrow tuples, returning both) and
    each morphism by ``components`` (on its component tuple).  An image
    that is not a diagram or morphism of ``target`` maps to None."""
    obj_map = {o: target.object_of(*diagrams(*d)) for o, d in source.diagrams.items()}
    src, tgt, lookup = source.src, source.tgt, target.lookup
    mor_map = {m: lookup(obj_map[src[m]], obj_map[tgt[m]], components(c))
               for m, c in source.components.items()}
    return Functor(source, target, obj_map, mor_map)


def preorder_category(elements, pairs, name):
    """The thin category of a preorder on ``elements``: a morphism
    ``name(a, b)``: a -> b for each (a, b) in ``pairs`` (the relation
    without its diagonal), composed as the relation dictates."""
    mor = {}
    rows = []
    for a, b in pairs:
        mid = name(a, b)
        mor[(a, b)] = mid
        rows.append((mid, a, b))
    comp = {}
    closed = set(pairs) | {(o, o) for o in elements}
    for (a, b), f in mor.items():
        for (b2, c), g in mor.items():
            if b2 == b and (a, c) in closed:
                comp[(f, g)] = mor[(a, c)] if a != c else "id:" + a
    return FinCategory.build(elements, rows, comp)


def random_preorder_relcat(seed, max_objects=6):
    """Seeded random finite relative category for property testing.

    The category is a random preorder (each ordered pair drawn with
    probability 0.35, then closed; its table is forced and lawful), and
    the marking is the closure of a random set of maps (each 0.5).
    Preorders allow genuine isomorphism cycles, which gives the
    two-out-of-six consequence checks teeth.
    """
    import random as _random
    rng = _random.Random(seed)
    n = rng.randint(1, max_objects)
    objs = [f"x{i}" for i in range(n)]
    rel = {(o, o) for o in objs}
    for a in objs:
        for b in objs:
            if a != b and rng.random() < 0.35:
                rel.add((a, b))
    for b in objs:          # transitive closure, one middle object at a time
        for a in objs:
            for c in objs:
                if (a, b) in rel and (b, c) in rel:
                    rel.add((a, c))
    cat = preorder_category(objs, [(a, b) for a, b in sorted(rel) if a != b],
                            lambda a, b: f"{a}<{b}")
    # random marking, closed under composition
    marked = {cat.identity[o] for o in objs}
    for m in cat.morphisms:
        if not cat.is_identity(m) and rng.random() < 0.5:
            marked.add(m)
    while unclosed := unclosed_pairs(cat, marked):
        marked.update(cat.compose(g, f) for f, g in unclosed)
    return RelCategory(cat, sorted(marked))
