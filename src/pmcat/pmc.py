"""Weak-equivalence calculus structures and their axioms.

A structure here is a relative category together with two marked
subcategories U and V of the weak equivalences and a factorization
table splitting every weak equivalence as w = v.u with u in U and
v in V.  The axioms verified exhaustively:

(a)   the underlying data is a relative category;
(b)   two-out-of-six;
(c-i) every u in U has a pushout along every morphism out of its
      source, and the pushed-out leg is again in U;
(c-ii) dually for V and pullbacks;
(c-iii) the factorization is total, correct, and functorial: every
      commutative square between weak equivalences (with weak
      equivalence legs) carries a recorded middle map making both
      sub-squares commute, and the middle maps form a functor
      Arr(W) -> C.  On a thin C, where parallel morphisms are equal, the
      typing of each factorization and middle map decides all of that,
      composing nothing: the squares are listed by :func:`weq_squares`
      and Arr(W) is not built.  Otherwise check_functor runs on Arr(W).
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
    Functor, StructuralError, Violation, check_functor, find_pushout, find_pullback,
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
    factorization and middle map, without building Arr(W).  Structural
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
    for axiom, sub, in_sub, maps_at, move, words in (
            ("c-i:u-pushout-closure", pms.u_sub, pms.in_u, lambda u: cat.out_of(cat.src[u]),
             pms.pushout, ("pushout", "pushed-out", "U")),
            ("c-ii:v-pullback-closure", pms.v_sub, pms.in_v, lambda v: cat.into(cat.tgt[v]),
             pms.pullback, ("pullback", "pulled-back", "V"))):
        kind, moved, name = words
        unclosed = w_unclosed if sub == rc.weq else unclosed_pairs(cat, sub)
        wit = unclosed + [(x,) for x in sub if not rc.is_weq(x)]
        for x in sub:
            for f in maps_at(x):
                try:
                    leg = move(x, f).leg_g
                except CalculusError:
                    wit.append((x, f, f"no {kind}"))
                    continue
                if not in_sub(leg):
                    wit.append((x, f, f"{moved} leg {leg} not in {name}"))
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
        squares = dict(enumerate(weq_squares(rc)))
    else:
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
        if not thin and cat.compose(m, u1) != cat.compose(u2, a):
            f_wit.append((sq, "top sub-square does not commute"))
        if not thin and cat.compose(b, v1) != cat.compose(v2, m):
            f_wit.append((sq, "bottom sub-square does not commute"))
    # a functor needs a typed middle map on every square, identity squares
    # included, and so every w usably factored: its identity square is skipped if not
    notes = []
    if len(mor_map) < len(squares):
        notes.append("identity and pasting laws not checked: "
                     "the middle maps do not define a functor Arr(W) -> C")
    elif not thin:
        obj_map = {o: pms.factorization[w][1] for o, w in w_of.items()}
        for v in check_functor(Functor(arr, cat, obj_map, mor_map)).violations:
            if v.law == "identity":
                s = arr.identity[v.witness[0]]
                f_wit.append((squares[s], f"identity square has middle {mor_map[s]}"))
            else:
                f, g = v.witness
                f_wit.append((squares[f], squares[g], "middle maps do not paste"))
    listed = set(squares.values())     # to name the calculus data no axiom reads
    for what, unread in (("middle key(s) naming no square of Arr(W)",
                          [" ".join(sq) for sq in pms.middle if sq not in listed]),
                         ("factor key(s) not a weak equivalence",
                          [w for w in pms.factorization if not rc.is_weq(w)])):
        if unread:
            notes.append(f"{len(unread)} {what}, not checked; the first: {', '.join(unread[:3])}")
    verdicts.append(("c-iii:functorial-factorization", PropertyReport(
        "functorial-factorization", not f_wit, f_wit, notes)))

    return AxiomReport(structural, verdicts)

