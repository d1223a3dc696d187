"""Weak-equivalence calculus structures and their axioms.

A structure here is a relative category together with two marked
subcategories U and V of the weak equivalences and a factorization
table splitting every weak equivalence as w = v.u with u in U and
v in V.  The axioms verified exhaustively:

(a)   the underlying data is a relative category;
(b)   two-out-of-six, read on a thin C from the rows of its relation and
      of the marked sub-relation (:attr:`RelCategory.marked_relation`);
(c-i) every u in U has a pushout along every morphism out of its
      source, and the pushed-out leg is again in U.  On a thin C the
      pushout is the join of the two targets, read once per pair of
      ends, and the leg is in U when its bit of U's marked relation is
      set: no witness is built;
(c-ii) dually for V and pullbacks, a pullback on a thin C being the
      meet of the two sources, read on the down-sets;
(c-iii) the factorization is total, correct, and functorial: every
      commutative square between weak equivalences (with weak
      equivalence legs) carries a recorded middle map making both
      sub-squares commute, and the middle maps form a functor
      Arr(W) -> C.  On a thin C, where parallel morphisms are equal, the
      typing of each factorization and middle map decides all of that,
      composing nothing, and a square is a pair of weak equivalences
      related by the marked relation at both ends.  One walk over the
      middle maps tells the squares from the keys naming none and checks
      each map's typing; the squares are counted by popcount, listed
      (by :func:`weq_squares`) only to name a missing middle map, and
      Arr(W) is not built.  Otherwise check_functor runs on Arr(W).
      On the poset 0 < 1, everything marked, Arr(W) has three objects:

>>> from pmcat.fincat import FinCategory
>>> iw = RelCategory(FinCategory.build(["0", "1"], [("01", "0", "1")], {}), ["01"])
>>> diagram_category(iw, (WEQ,)).objects
('(id:0)', '(id:1)', '(01)')
>>> verify_partial_model(trivial_partial_model_structure(iw)).passed
True

Factorizations and middle maps are supplied as data and verified,
never synthesized.  The one convenience constructor installs the
trivial factorization w = id.w (U = W, V = identities), whose middle
maps are forced.
"""

from dataclasses import dataclass

from .fincat import (
    Functor, StructuralError, Violation, bit_positions, check_functor, find_pushout,
    find_pullback, join_index,
)
from .relcat import (
    RelCategory, validate_relative, check_two_of_six, unclosed_pairs, PropertyReport,
    diagram_category, diagram_transitions, WEQ,
)


class CalculusError(ValueError):
    """A pushout, pullback, factorization or middle map needed by a
    calculus move is missing.  Unreachable on verified structures."""


class PartialModelStructure:
    """Relative category plus (U, V, factorization, middle maps).

    The structure answers the moves of the calculus: :meth:`factor`,
    :meth:`middle_map`, :meth:`pushout` and :meth:`pullback`.  A missing
    ingredient raises CalculusError, which is unreachable once
    verify_partial_model has passed.  Each pushout and pullback is
    searched once and remembered, found or not; on a thin category, once
    per pair of ends (targets of a span, sources of a cospan) it reads.
    """

    def __init__(self, rc, u_sub, v_sub, factorization, middle):
        cat = rc.cat
        for name, sub in (("u", u_sub), ("v", v_sub)):
            unknown = [m for m in sub if m not in cat.src]
            if unknown:
                raise StructuralError(f"{name}-morphisms not in category: {unknown}")
        self.rc = rc
        # (C, U) and (C, V) as markings of their own, identities included
        self._u, self._v = RelCategory(cat, u_sub), RelCategory(cat, v_sub)
        self.u_sub, self.v_sub = self._u.weq, self._v.weq
        self.factorization = dict(factorization)   # w -> (u, mid object, v)
        self.middle = dict(middle)                 # (w, w2, a, b) -> m
        self._witnesses = {}                       # (kind, a, f) or thin ends -> witness or None
        self._thin = cat.is_thin()                 # the category never changes

    def in_u(self, m):
        return self._u.is_weq(m)

    def in_v(self, m):
        return self._v.is_weq(m)

    def factor(self, w):
        try:
            return self.factorization[w]
        except KeyError:
            raise CalculusError(f"no factorization recorded for {w}") from None

    def middle_map(self, square):
        m = self.middle.get(square)
        if m is None:
            raise CalculusError(f"no middle map recorded for {square}")
        return m

    def _witness(self, kind, search, a, f):
        cat = self.rc.cat
        shared, ends = (cat.src, cat.tgt) if kind == "pushout" else (cat.tgt, cat.src)
        by_ends = shared[a] == shared[f] and self._thin     # the search reads only these
        key = (kind, ends[a], ends[f]) if by_ends else (kind, a, f)
        if key not in self._witnesses:     # the search raises on a non-span
            self._witnesses[key] = search(cat, a, f)
        wit = self._witnesses[key]
        if wit is None:
            raise CalculusError(f"no {kind} of {a} along {f}")
        return wit

    def pushout(self, u, f):
        """The pushout witness of the span (u, f)."""
        return self._witness("pushout", find_pushout, u, f)

    def pullback(self, v, f):
        """The pullback witness of the cospan (v, f)."""
        return self._witness("pullback", find_pullback, v, f)


def trivial_partial_model_structure(rc, v_sub=()):
    """U = W, V = identities (or the given v_sub), w = id.w, middle map
    of a square = its target leg.  Whether the axioms hold still depends
    on rc (pushout closure of W is a real condition); verify separately.

    V = identities works on posets, where chosen pullbacks are unique on
    the nose.  Categories with non-identity isomorphisms usually need
    ``v_sub=rc.weq`` because the deterministically chosen pullback leg
    of an identity may be a mere isomorphism.
    """
    cat = rc.cat
    factorization = {w: (w, cat.tgt[w], cat.identity[cat.tgt[w]]) for w in rc.weq}
    middle = {sq: sq[3] for sq in weq_squares(rc)}
    return PartialModelStructure(rc, rc.weq, v_sub, factorization, middle)


def weq_squares(rc):
    """All morphisms of the arrow category Arr(W) of the marked
    subcategory, in its morphism order: tuples (w, w2, a, b) with
    everything marked and b.w = w2.a."""
    diagrams, transitions = diagram_transitions(rc, (WEQ,))
    return [(diagrams[s][1][0], diagrams[t][1][0]) + comps
            for s, t, comps in transitions]


@dataclass
class AxiomReport:
    """One verdict per axiom; passes iff every verdict passes."""

    structural: list
    verdicts: list  # of (axiom name, PropertyReport)

    @property
    def passed(self):
        return not self.structural and all(r.passed for _, r in self.verdicts)

    def verdict(self, name):
        for n, r in self.verdicts:
            if n == name:
                return r
        raise KeyError(name)

    def to_dict(self):
        return {
            "passed": self.passed,
            "structural": [v.to_dict() for v in self.structural],
            "axioms": {n: r.to_dict() for n, r in self.verdicts},
        }

    def describe(self):
        lines = [f"axioms: {'pass' if self.passed else 'FAIL'}"]
        for n, r in self.verdicts:
            lines.append(f"  ({n}) {'pass' if r.passed else 'FAIL'}"
                         + (f" witnesses {r.witnesses[:3]}" if r.witnesses else ""))
        return "\n".join(lines)


def verify_partial_model(pms):
    """Exhaustively verify every axiom, (c-iii) as a functor Arr(W) -> C:
    through check_functor, or on a thin C by the typing of each
    factorization and middle map, read against the marked relation in
    one walk over the middle maps, without listing Arr(W) (see
    :func:`_thin_middle_maps`).  On a thin C, two-of-six reads the rows
    of the relation too, and (c-i) and (c-ii) one join or meet per pair
    of ends and a bit of U's or V's marked relation, building no
    witness (see :func:`_thin_unclosed_moves`).  Structural
    problems (unknown ids, mistyped factorizations) are reported apart
    from axiom failures; unread calculus data, in a (c-iii) note."""
    rc = pms.rc
    cat = rc.cat
    thin, objects = cat.is_thin(), set(cat.objects)
    structural = []
    verdicts = []

    cat_report = cat.validate()
    rel_report = validate_relative(rc)
    verdicts.append(("a:relative-category", PropertyReport(
        "relative-category",
        cat_report.ok and rel_report.ok,
        [v.witness for v in cat_report.violations + rel_report.violations],
        [])))
    structural.extend(cat_report.structural)

    verdicts.append(("b:two-of-six", check_two_of_six(rc)))
    w_unclosed = [v.witness for v in rel_report.violations if v.law == "not-closed"]

    # (c-i) U is a subcategory of W, closed under pushout along every map
    # out of a source; (c-ii) dually V, under pullback along every map into
    # a target
    for axiom, sub, marking, pushout, (kind, moved, name) in (
            ("c-i:u-pushout-closure", pms.u_sub, pms._u, True, ("pushout", "pushed-out", "U")),
            ("c-ii:v-pullback-closure", pms.v_sub, pms._v, False,
             ("pullback", "pulled-back", "V"))):
        unclosed = w_unclosed if sub == rc.weq else unclosed_pairs(cat, sub)
        wit = unclosed + [(x,) for x in sub if not rc.is_weq(x)]
        moves = _thin_unclosed_moves if thin else _unclosed_moves
        for x, f, leg in moves(pms, sub, marking, pushout):
            wit.append((x, f, f"no {kind}" if leg is None
                        else f"{moved} leg {leg} not in {name}"))
        verdicts.append((axiom, PropertyReport(axiom.split(":")[1], not wit, wit, [])))

    # (c-iii) factorization: totality, correctness, functoriality
    f_wit = []
    usable = set()     # the w whose factorization is typed, with known ids
    for w in rc.weq:
        entry = pms.factorization.get(w)
        if entry is None:
            f_wit.append((w, "no factorization"))
            continue
        u, mid, v = entry
        if u not in cat.src or v not in cat.src or mid not in objects:
            structural.append(Violation("factorization-ids", (w, u, mid, v), "unknown id"))
            continue
        if not (cat.src[u] == cat.src[w] and cat.tgt[u] == mid
                and cat.src[v] == mid and cat.tgt[v] == cat.tgt[w]):
            f_wit.append((w, "factorization mistyped"))
            continue
        usable.add(w)
        if not thin and cat.compose(v, u) != w:
            f_wit.append((w, f"composite v.u = {cat.compose(v, u)} differs from w"))
        if not pms.in_u(u):
            f_wit.append((w, f"factor {u} not in U"))
        if not pms.in_v(v):
            f_wit.append((w, f"factor {v} not in V"))

    # the middle maps as a functor Arr(W) -> C, w -> mid(w), square -> m;
    # on a thin C the typing checked here decides both sub-squares and is
    # all of check_functor, so Arr(W) itself is built only when C is not thin
    if thin:
        square_wit, typed, squares, unread_middle = _thin_middle_maps(pms, usable)
        f_wit += square_wit
    else:
        typed, squares, unread_middle = _middle_map_functor(pms, usable, f_wit)
    # a functor needs a typed middle map on every square, identity squares
    # included, and so every w usably factored: its identity square is skipped if not
    notes = []
    if typed < squares:
        notes.append("identity and pasting laws not checked: "
                     "the middle maps do not define a functor Arr(W) -> C")
    for what, unread in (("middle key(s) naming no square of Arr(W)", unread_middle),
                         ("factor key(s) not a weak equivalence",
                          [w for w in pms.factorization if not rc.is_weq(w)])):
        if unread:
            notes.append(f"{len(unread)} {what}, not checked; the first: {', '.join(unread[:3])}")
    verdicts.append(("c-iii:functorial-factorization", PropertyReport(
        "functorial-factorization", not f_wit, f_wit, notes)))

    return AxiomReport(structural, verdicts)


def _unclosed_moves(pms, sub, marking, pushout):
    """(c-i)'s failures when ``pushout``, else (c-ii)'s: each (x, f, leg)
    with x in ``sub`` and f out of its source (into its target) whose
    pushout (pullback) is missing, leg None, or whose pushed-out
    (pulled-back) leg is not in ``marking``, in the order of ``sub``
    and then of f.  Each witness is the structure's own search."""
    cat = pms.rc.cat
    move, maps_at, shared = ((pms.pushout, cat.out_of, cat.src) if pushout
                             else (pms.pullback, cat.into, cat.tgt))
    for x in sub:
        for f in maps_at(shared[x]):
            try:
                leg = move(x, f).leg_g
            except CalculusError:
                yield x, f, None
                continue
            if not marking.is_weq(leg):
                yield x, f, leg


def _thin_unclosed_moves(pms, sub, marking, pushout):
    """:func:`_unclosed_moves` on a thin C, building no witness.  The
    pushout of x along f is the join p of their targets, read once per
    pair of ends, and the pushed-out leg runs from tgt(f) to p, so it is
    in U exactly when bit p of row tgt(f) of U's marked relation is set.
    Dually a pullback is the meet of the sources on the down-sets, and
    its leg p -> src(f) is in V when bit src(f) of row p is set."""
    cat = pms.rc.cat
    objects, where, marked = cat.objects, cat.object_index, marking.marked_relation
    if pushout:
        rows, maps_at, shared, far = cat.relation, cat.out_of, cat.src, cat.tgt
    else:
        rows, maps_at, shared, far = cat.down_relation, cat.into, cat.tgt, cat.src
    legs = {}       # (far end of x, of f) -> the leg outside the marking, True, or None
    for x in sub:
        i = where[far[x]]
        for f in maps_at(shared[x]):
            j = where[far[f]]
            if (i, j) not in legs:
                p = join_index(rows, rows[i] & rows[j])
                a, b = (j, p) if pushout else (p, j)      # the leg runs a -> b
                if p < 0:
                    legs[i, j] = None
                elif marked[a] >> b & 1:
                    legs[i, j] = True
                else:
                    legs[i, j] = cat.hom(objects[a], objects[b])[0]
            leg = legs[i, j]
            if leg is not True:
                yield x, f, leg


def _middle_map_functor(pms, usable, f_wit):
    """(c-iii)'s middle maps on a C that is not thin, checked on Arr(W):
    typing and both sub-squares per square, then check_functor when the
    map is total.  Appends witnesses to ``f_wit``; returns (typed
    squares, squares, the middle keys naming no square)."""
    rc = pms.rc
    cat = rc.cat
    arr = diagram_category(rc, (WEQ,))
    w_of = {o: arrows[0] for o, (_, arrows) in arr.diagrams.items()}
    squares = {s: (w_of[arr.src[s]], w_of[arr.tgt[s]]) + arr.components[s]
               for s in arr.morphisms}
    mor_map = {}
    for s, sq in squares.items():
        w, w2, a, b = sq
        if w not in usable or w2 not in usable:
            continue
        m = pms.middle.get(sq)
        u1, mid1, v1 = pms.factorization[w]
        u2, mid2, v2 = pms.factorization[w2]
        if m is None:
            f_wit.append((sq, "no middle map"))
            continue
        if m not in cat.src or cat.src[m] != mid1 or cat.tgt[m] != mid2:
            f_wit.append((sq, f"middle map {m} mistyped"))
            continue
        mor_map[s] = m
        if cat.compose(m, u1) != cat.compose(u2, a):
            f_wit.append((sq, "top sub-square does not commute"))
        if cat.compose(b, v1) != cat.compose(v2, m):
            f_wit.append((sq, "bottom sub-square does not commute"))
    if len(mor_map) == len(squares):
        obj_map = {o: pms.factorization[w][1] for o, w in w_of.items()}
        for v in check_functor(Functor(arr, cat, obj_map, mor_map)).violations:
            if v.law == "identity":
                s = arr.identity[v.witness[0]]
                f_wit.append((squares[s], f"identity square has middle {mor_map[s]}"))
            else:
                f, g = v.witness
                f_wit.append((squares[f], squares[g], "middle maps do not paste"))
    listed = set(squares.values())
    return len(mor_map), len(squares), [" ".join(sq) for sq in pms.middle if sq not in listed]


def _thin_middle_maps(pms, usable):
    """(c-iii)'s middle maps on a thin C, read against the marked
    relation without listing Arr(W).

    A square (w, w2, a, b) is a pair of weak equivalences with marked
    a: src(w) -> src(w2) and b: tgt(w) -> tgt(w2), which then commutes
    and is fixed by (w, w2).  So one walk over the middle keys tells the
    squares from the keys naming none and checks the typing of each
    middle map; the squares are counted per w by popcount, and listed
    only when some middle map is missing, to name it.  Returns (the
    witnesses in square order, typed squares, squares, the middle keys
    naming no square)."""
    rc = pms.rc
    cat = rc.cat
    src, tgt, middle = cat.src, cat.tgt, pms.middle
    position = {w: i for i, w in enumerate(rc.weq)}
    mid = {w: pms.factorization[w][1] for w in usable}
    found = {}            # (position of w, of w2) -> witness
    present = typed = 0
    unread = []
    for sq, m in middle.items():
        if len(sq) == 4:
            w, w2, a, b = sq
            square = (w in position and w2 in position and a in position and b in position
                      and src[a] == src[w] and tgt[a] == src[w2]
                      and src[b] == tgt[w] and tgt[b] == tgt[w2])
        else:
            square = False
        if not square:
            unread.append(" ".join(sq))
        elif w in mid and w2 in mid and m is not None:
            present += 1
            if m in src and src[m] == mid[w] and tgt[m] == mid[w2]:
                typed += 1
            else:
                found[position[w], position[w2]] = (sq, f"middle map {m} mistyped")

    # the w2 of the squares out of w: the AND of two masks over the
    # weak equivalences, those with a marked arrow into their source from
    # src(w) and those with one into their target from tgt(w)
    where, marked = cat.object_index, rc.marked_relation
    at_src, at_tgt = [0] * len(cat.objects), [0] * len(cat.objects)
    for i, w in enumerate(rc.weq):
        at_src[where[src[w]]] |= 1 << i
        at_tgt[where[tgt[w]]] |= 1 << i
    from_src = [sum(at_src[y] for y in bit_positions(row)) for row in marked]
    from_tgt = [sum(at_tgt[y] for y in bit_positions(row)) for row in marked]
    usable_mask = sum(1 << position[w] for w in usable)
    squares = usable_squares = 0
    for i, w in enumerate(rc.weq):
        out = from_src[where[src[w]]] & from_tgt[where[tgt[w]]]
        squares += out.bit_count()
        if usable_mask >> i & 1:
            usable_squares += (out & usable_mask).bit_count()
    if present < usable_squares:
        for sq in weq_squares(rc):
            if sq[0] in usable and sq[1] in usable and middle.get(sq) is None:
                found[position[sq[0]], position[sq[1]]] = (sq, "no middle map")
    return [found[k] for k in sorted(found)], typed, squares, unread

