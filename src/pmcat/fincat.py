"""Finite categories, functors, and universal properties found by
exhaustive search.

A category is a finite list of objects, a finite list of morphisms with
source/target, an identity morphism per object, and a composition that
is read only through ``compose`` and ``composites``.  Each category
keeps one index of its morphisms, the hom index (source, target) ->
morphisms; other modules read it through :meth:`FinCategory.hom`.  A
category given by its data stores its composition table, on which every
law (identity, associativity, typing) is checked by brute force.  A category built from
others stores none: subcategories and the opposite answer through the
category they come from, and a :class:`ComponentwiseCategory` composes
componentwise on demand, or from its hom index when it is thin.
Pushouts and pullbacks are found by exhaustive search over all candidate
cocones and cones, and universality is certified against every
competitor.

One lemma is used throughout: in a thin category (every hom-set has at
most one element) any two parallel morphisms are equal.  So a thin
category composes from its hom index, is associative once its table is
typed, and a functor into one is checked by its typing alone.  It
keeps its relation, one up-set bitset per object, and its transpose,
one down-set bitset per object; a pushout there is a join read from the
up-sets of the targets of the span, and a pullback a meet read from the
down-sets of the sources of the cospan, the ends pmc keys witnesses by.

All values are immutable after construction; every operation is a pure
function of its inputs, and ties are broken by input order, never by
iteration order of sets.
"""

from dataclasses import dataclass
from functools import cached_property

ID_PREFIX = "id:"


class StructuralError(ValueError):
    """Raw data references an unknown object or morphism id."""


class CategoryLawError(ValueError):
    """Construction was asked for a category but the laws fail."""

    def __init__(self, report):
        self.report = report
        super().__init__("not a category:\n" + report.describe())


@dataclass(frozen=True)
class Violation:
    """One failed law with a concrete witness."""

    law: str
    witness: tuple
    detail: str

    def to_dict(self):
        return {"law": self.law, "witness": list(self.witness), "detail": self.detail}


@dataclass
class ValidationReport:
    """Outcome of an exhaustive law check.

    ``structural`` lists malformed references (unknown ids, bad typing of
    the raw data itself); ``violations`` lists genuine law failures.  The
    input is a category iff both lists are empty.
    """

    structural: list
    violations: list

    @property
    def ok(self):
        return not self.structural and not self.violations

    def require(self, what):
        """Raise StructuralError on the first problem, if any, after ``what``."""
        if not self.ok:
            v = (self.structural + self.violations)[0]
            raise StructuralError(f"{what}: {v.law} {v.witness}: {v.detail}")

    def describe(self):
        lines = ([f"structural: {v.law} {v.witness}: {v.detail}" for v in self.structural]
                 + [f"violation: {v.law} {v.witness}: {v.detail}" for v in self.violations])
        return "\n".join(lines) if lines else "ok"

    def to_dict(self):
        return {
            "ok": self.ok,
            "structural": [v.to_dict() for v in self.structural],
            "violations": [v.to_dict() for v in self.violations],
        }


class FinCategory:
    """A finite category.

    ``comp`` is either the composition table, a dict (f, g) -> g.f over
    the composable pairs (f first, then g), which is stored as given; or,
    for a category built from others, the function that is its
    :meth:`compose`, asked on demand.

    >>> pt = FinCategory.build(["*"], [], {})
    >>> pt.morphisms
    ('id:*',)
    >>> pt.compose('id:*', 'id:*')
    'id:*'
    """

    def __init__(self, objects, morphisms, identity, comp):
        self.objects = tuple(objects)
        self.morphisms = tuple(m[0] for m in morphisms)
        self.src = {m[0]: m[1] for m in morphisms}
        self.tgt = {m[0]: m[2] for m in morphisms}
        self.identity = dict(identity)
        if callable(comp):
            self._comp, self.compose = None, comp
        else:
            self._comp = dict(comp)
        self._identity_ids = set(self.identity.values())
        self._hom, self._by_src, self._by_tgt = {}, {}, {}
        for m in self.morphisms:
            s, t = self.src[m], self.tgt[m]
            self._hom.setdefault((s, t), []).append(m)
            self._by_src.setdefault(s, []).append(m)
            self._by_tgt.setdefault(t, []).append(m)
        self._opposite = self._report = None

    @classmethod
    def build(cls, objects, morphisms, comp):
        """Assemble a category, auto-generating missing identities.

        ``morphisms`` lists non-identity (or explicitly given identity)
        morphisms as (id, src, tgt); ``comp`` gives (f, g) -> g.f for
        pairs of non-identity morphisms.  Identities get the reserved id
        ``id:<object>`` and their composites are filled in.  The result
        is law-checked and CategoryLawError is raised on failure.
        """
        objects = list(objects)
        morphisms = [tuple(m) for m in morphisms]
        identity = {o: ID_PREFIX + str(o) for o in objects}
        seen = {m[0] for m in morphisms}
        morphisms = [(i, o, o) for o, i in identity.items() if i not in seen] + morphisms
        comp = dict(comp)
        for m, s, t in morphisms:
            if s in identity:
                comp.setdefault((identity[s], m), m)
            if t in identity:
                comp.setdefault((m, identity[t]), m)
        cat = cls(objects, morphisms, identity, comp)
        report = cat.validate()
        if report.structural:
            raise StructuralError(report.describe())
        if not report.ok:
            raise CategoryLawError(report)
        return cat

    def validate(self):
        """Exhaustively check that the data describe a category: a
        ValidationReport listing every violated law with a concrete
        witness, empty iff this is a category.  The composition checked
        is what :meth:`composites` lists.  The report is computed on the
        first call and kept: a category is not modified after
        construction."""
        if self._report is None:
            self._report = self._law_scan()
        return self._report

    def _law_scan(self):
        objects, mids, identity = self.objects, self.morphisms, self.identity
        src, tgt = self.src, self.tgt
        comp = self._comp if self._comp is not None else dict(self.composites())
        structural = []
        violations = []
        obj_set = set(objects)
        if len(obj_set) != len(objects):
            structural.append(Violation("duplicate-object", (), "object ids repeat"))
        if len(set(mids)) != len(mids):
            structural.append(Violation("duplicate-morphism", (), "morphism ids repeat"))
        for mid in mids:
            if src[mid] not in obj_set:
                structural.append(Violation("unknown-object", (mid, src[mid]), "source not declared"))
            if tgt[mid] not in obj_set:
                structural.append(Violation("unknown-object", (mid, tgt[mid]), "target not declared"))
        for o in objects:
            i = identity.get(o)
            if i is None:
                structural.append(Violation("missing-identity", (o,), "no identity assigned"))
            elif i not in src:
                structural.append(Violation("unknown-morphism", (o, i), "identity id not declared"))
            elif not (src[i] == o and tgt[i] == o):
                structural.append(Violation("identity-typing", (o, i), "identity is not an endomorphism"))
        for (f, g), h in comp.items():
            for m in (f, g, h):
                if m not in src:
                    structural.append(Violation("unknown-morphism", (f, g, h), f"{m} not declared"))
        if structural:
            return ValidationReport(structural, violations)

        # totality and typing over the composable pairs, spurious entries
        # among the table's own; violations in (f, g) order of mids
        by_src = self._by_src
        for f in mids:
            for g in by_src.get(tgt[f], ()):
                h = comp.get((f, g))
                if h is None:
                    violations.append(Violation(
                        "missing-composite", (f, g), "no entry for composable pair"))
                elif not (src[h] == src[f] and tgt[h] == tgt[g]):
                    violations.append(Violation(
                        "composite-typing", (f, g, h), "composite has wrong source or target"))
        spurious = [Violation("spurious-composite", (f, g), "entry for non-composable pair")
                    for f, g in comp if tgt[f] != src[g]]
        if spurious:
            position = {m: i for i, m in enumerate(mids)}
            violations = sorted(violations + spurious,
                                key=lambda v: (position[v.witness[0]], position[v.witness[1]]))

        # identity laws
        for m in mids:
            i_s, i_t = identity[src[m]], identity[tgt[m]]
            if comp.get((i_s, m)) != m:
                violations.append(Violation(
                    "identity-law", (i_s, m), f"{m}.{i_s} is {comp.get((i_s, m))}, expected {m}"))
            if comp.get((m, i_t)) != m:
                violations.append(Violation(
                    "identity-law", (m, i_t), f"{i_t}.{m} is {comp.get((m, i_t))}, expected {m}"))

        # associativity over all composable triples, decided by typing when thin
        if not violations and self.is_thin():
            return ValidationReport(structural, violations)
        for f in mids:
            for g in by_src.get(tgt[f], ()):
                gf = comp.get((f, g))
                if gf is None:
                    continue
                for h in by_src.get(tgt[g], ()):
                    hg = comp.get((g, h))
                    left = comp.get((gf, h))
                    right = comp.get((f, hg)) if hg is not None else None
                    if left != right or left is None:
                        violations.append(Violation(
                            "associativity", (f, g, h), f"h.(g.f) = {left} but (h.g).f = {right}"))
        return ValidationReport(structural, violations)

    # -- accessors ---------------------------------------------------

    def hom(self, a, b):
        return tuple(self._hom.get((a, b), ()))

    def out_of(self, a):
        return tuple(self._by_src.get(a, ()))

    def into(self, b):
        return tuple(self._by_tgt.get(b, ()))

    def is_identity(self, m):
        return m in self._identity_ids

    def is_thin(self):
        """True when every hom-set has at most one element."""
        return len(self._hom) == len(self.morphisms)

    @cached_property
    def object_index(self):
        """Each object's position in ``objects``."""
        return {o: i for i, o in enumerate(self.objects)}

    @cached_property
    def relation(self):
        """A thin category as its relation, one up-set bitset per object:
        bit j of ``relation[i]`` is set when there is a morphism from the
        i-th object to the j-th, so each row holds its own bit.  None
        when some hom-set has two elements.  Built on the first read."""
        if not self.is_thin():
            return None
        where = self.object_index
        up = [0] * len(self.objects)
        for s, t in self._hom:
            up[where[s]] |= 1 << where[t]
        return up

    @cached_property
    def down_relation(self):
        """:attr:`relation` transposed, one down-set bitset per object:
        bit j of ``down_relation[i]`` is set when there is a morphism
        from the j-th object to the i-th.  None when some hom-set has
        two elements.  Built on the first read."""
        if self.relation is None:
            return None
        where = self.object_index
        down = [0] * len(self.objects)
        for s, t in self._hom:
            down[where[t]] |= 1 << where[s]
        return down

    def compose(self, g, f):
        """Classical order: ``compose(g, f)`` is g after f.  Raises
        StructuralError when there is no composite."""
        try:
            return self._comp[(f, g)]
        except KeyError:
            raise _no_composite(g, f) from None

    def composites(self):
        """Every ((f, g), g.f): the entries of the stored table, or
        without one each composable pair that has a composite."""
        if self._comp is not None:
            yield from self._comp.items()
            return
        compose = self.compose
        for f in self.morphisms:
            for g in self._by_src.get(self.tgt[f], ()):
                try:
                    yield (f, g), compose(g, f)
                except StructuralError:
                    pass

    def inverse(self, m):
        """Two-sided inverse of m, or None."""
        for g in self.hom(self.tgt[m], self.src[m]):
            if (self.compose(g, m) == self.identity[self.src[m]]
                    and self.compose(m, g) == self.identity[self.tgt[m]]):
                return g
        return None

    def is_iso(self, m):
        return self.inverse(m) is not None

    def isos(self):
        return tuple(m for m in self.morphisms if self.is_iso(m))

    def opposite(self):
        """The opposite category, built on the first call and kept: a
        category is not modified after construction."""
        if self._opposite is None:
            rows = [(m, self.tgt[m], self.src[m]) for m in self.morphisms]
            compose = self.compose
            self._opposite = FinCategory(self.objects, rows, self.identity,
                                         lambda g, f: compose(f, g))
        return self._opposite

    def full_subcategory(self, objects):
        """Full subcategory on the listed objects, in this category's
        order, ids preserved, composing through this category."""
        wanted = set(objects)
        keep = [o for o in self.objects if o in wanted]
        rows = [(m, self.src[m], self.tgt[m]) for m in self.morphisms
                if self.src[m] in wanted and self.tgt[m] in wanted]
        identity = {o: self.identity[o] for o in keep}
        return FinCategory(keep, rows, identity, self.compose)

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


class ComponentwiseCategory(FinCategory):
    """A category whose morphisms are tuples of morphisms, one in each
    category of ``factors`` (``components`` maps an id to its tuple),
    composed position by position: diagrams and their natural
    transformations, or the pairs of a fiber product.  A composite is
    missing when the composed tuple is no morphism.  The hom index is
    the only index: a tuple is found by scanning the hom-set of its
    ends.  Over thin factors a morphism is fixed by its ends, as each
    component is by its own, so g.f is the one morphism src(f) -> tgt(g).
    """

    def __init__(self, objects, morphisms, identity, factors, components):
        super().__init__(objects, morphisms, identity, self._componentwise)
        self.components = components
        self._factors = tuple(factors)
        if all(P.is_thin() for P in factors):
            src, tgt, hom = self.src, self.tgt, self._hom

            def compose(g, f):
                if tgt[f] == src[g]:
                    h = hom.get((src[f], tgt[g]))
                    if h is not None:
                        return h[0]
                raise _no_composite(g, f)
            self.compose = compose

    def lookup(self, src_id, tgt_id, comps):
        """Id of the morphism with these ends and components, or None."""
        comps = tuple(comps)
        for m in self._hom.get((src_id, tgt_id), ()):
            if self.components[m] == comps:
                return m
        return None

    def _componentwise(self, g, f):
        if self.tgt[f] == self.src[g]:
            h = self.lookup(self.src[f], self.tgt[g], (
                P.compose(b, a) for P, a, b in
                zip(self._factors, self.components[f], self.components[g])))
            if h is not None:
                return h
        raise _no_composite(g, f)


def bit_positions(mask):
    """The positions of the set bits of ``mask``, ascending."""
    bits = bin(mask)[:1:-1]
    out, i = [], bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


def join_index(rows, bounds):
    """The index of the join of ``bounds`` in the relation given by its
    ``rows``: the first set bit of ``bounds`` whose row holds every
    other, or -1 if there is none.  Over up-sets
    (:attr:`FinCategory.relation`) and common upper bounds this is a
    join; over down-sets (:attr:`FinCategory.down_relation`) and common
    lower bounds, a meet."""
    rest = bounds
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if not bounds & ~rows[x]:
            return x
        rest ^= low
    return -1


def _no_composite(g, f):
    return StructuralError(f"morphisms do not compose: {g} after {f}")


class Functor:
    """A functor given by explicit object and morphism tables.

    Into a thin category the object table may come alone: by the thin
    lemma each morphism then goes to the one morphism between the images
    of its ends (None where there is none), and ``mor_map`` is built from
    the hom index on its first read.
    """

    def __init__(self, source, target, obj_map, mor_map=None):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        if mor_map is not None:
            self.mor_map = dict(mor_map)

    @cached_property
    def mor_map(self):
        hom, obj, src, tgt = self.target.hom, self.obj_map, self.source.src, self.source.tgt
        return {m: (hom(obj[src[m]], obj[tgt[m]]) or (None,))[0]
                for m in self.source.morphisms}

    @classmethod
    def identity(cls, cat):
        return cls(cat, cat, {o: o for o in cat.objects},
                   {m: m for m in cat.morphisms})

    @classmethod
    def constant(cls, source, target, obj):
        return cls(source, target, {o: obj for o in source.objects},
                   {m: target.identity[obj] for m in source.morphisms})

    def __repr__(self):
        return f"Functor({self.source!r} -> {self.target!r})"


def check_functor_typing(F):
    """The typing half of :func:`check_functor`: every object and
    morphism needs a known image, and each morphism must go to a
    morphism between the images of its ends."""
    structural = []
    violations = []
    src_cat, tgt_cat = F.source, F.target
    tgt_objects = set(tgt_cat.objects)
    for o in src_cat.objects:
        if o not in F.obj_map:
            structural.append(Violation("missing-object-image", (o,), "object map not total"))
        elif F.obj_map[o] not in tgt_objects:
            structural.append(Violation("unknown-object", (o, F.obj_map[o]), "image object unknown"))
    for m in src_cat.morphisms:
        if m not in F.mor_map:
            structural.append(Violation("missing-morphism-image", (m,), "morphism map not total"))
        elif F.mor_map[m] not in tgt_cat.src:
            structural.append(Violation("unknown-morphism", (m, F.mor_map[m]), "image morphism unknown"))
    if structural:
        return ValidationReport(structural, violations)

    for m in src_cat.morphisms:
        fm = F.mor_map[m]
        if tgt_cat.src[fm] != F.obj_map[src_cat.src[m]] or tgt_cat.tgt[fm] != F.obj_map[src_cat.tgt[m]]:
            violations.append(Violation(
                "source-target", (m, fm), "image does not match mapped endpoints"))
    return ValidationReport(structural, violations)


def check_functor(F):
    """Exhaustively verify functor laws; empty report iff F is a functor.

    Each morphism must go to a morphism between the images of its ends.
    On a thin target nothing else needs checking: F(g.f) and F(g).F(f)
    are parallel, as are F(id) and id, and parallel morphisms of a thin
    category are equal.  Otherwise identities and every composite of the
    source are compared through the target's compose.
    """
    report = check_functor_typing(F)
    src_cat, tgt_cat = F.source, F.target
    if report.structural or tgt_cat.is_thin():
        return report
    for o in src_cat.objects:
        if F.mor_map[src_cat.identity[o]] != tgt_cat.identity[F.obj_map[o]]:
            report.violations.append(Violation(
                "identity", (o,), f"F({src_cat.identity[o]}) is not an identity"))
    for (f, g), h in src_cat.composites():
        try:
            image = tgt_cat.compose(F.mor_map[g], F.mor_map[f])
        except StructuralError:
            image = None
        if image != F.mor_map[h]:
            report.violations.append(Violation(
                "composition", (f, g), f"F(g.f) = {F.mor_map[h]} but F(g).F(f) = {image}"))
    return report


@dataclass(frozen=True)
class CoconeWitness:
    """A verified pushout: apex, both legs, and one comparison morphism
    per competing cocone (keyed by (apex', leg_f', leg_g'))."""

    apex: str
    leg_f: str  # out of tgt(f)
    leg_g: str  # out of tgt(g)
    comparisons: tuple  # of ((apex', p', q'), h)

    @cached_property
    def _comparison_of(self):
        return dict(self.comparisons)

    def comparison(self, apex, p, q):
        """The stored comparison morphism to the competitor (apex, p, q),
        or None if there is none."""
        return self._comparison_of.get((apex, p, q))

    def verify(self, cat, f, g):
        """Independent re-check of commutativity and universality."""
        if cat.src[f] != cat.src[g]:
            return False
        if cat.compose(self.leg_f, f) != cat.compose(self.leg_g, g):
            return False
        found = _comparisons(cat, self.apex, self.leg_f, self.leg_g, _cocones(cat, f, g))
        return found is not None and all(self.comparison(*c) == h for c, h in found)


@dataclass(frozen=True)
class ConeWitness(CoconeWitness):
    """A verified pullback: a pushout of the opposite category, so its
    legs go into src(f) and src(g) and its comparisons into competing
    cones."""

    def verify(self, cat, f, g):
        return super().verify(cat.opposite(), f, g)


def _cocones(cat, f, g):
    """All cocones under the span of f and g, in deterministic order."""
    out = []
    compose, hom, a, b = cat.compose, cat._hom, cat.tgt[f], cat.tgt[g]
    for apex in cat.objects:
        for p in hom.get((a, apex), ()):
            for q in hom.get((b, apex), ()):
                if compose(p, f) == compose(q, g):
                    out.append((apex, p, q))
    return out


def _comparisons(cat, apex, p, q, competitors):
    """For each competing cocone, the one morphism out of ``apex`` that
    carries p and q to its legs, as ((apex', p', q'), h); None as soon as
    some competitor has none or several."""
    compose, hom = cat.compose, cat._hom
    out = []
    for apex2, p2, q2 in competitors:
        hs = [h for h in hom.get((apex, apex2), ())
              if compose(h, p) == p2 and compose(h, q) == q2]
        if len(hs) != 1:
            return None
        out.append(((apex2, p2, q2), hs[0]))
    return tuple(out)


def find_pushout(cat, f, g):
    """Pushout of the span tgt(f) <- src(f)=src(g) -> tgt(g).

    Returns a CoconeWitness verified against every competing cocone, or
    None when no universal cocone exists.  Among isomorphic pushouts the
    one whose apex comes first in the category's object order wins, and
    within an apex legs are scanned in morphism input order.

    On a thin category a pushout is a join, read from the rows of
    :attr:`FinCategory.relation`: parallel morphisms are equal, so the
    apexes of cocones are the common upper bounds of the two targets (the
    AND of their rows), and a comparison is the one morphism between two
    apexes.  The pushout is the first bound whose row holds every other
    bound.  Nothing is composed and no other object is scanned, and the
    witness is the one the general scan finds;
    :meth:`CoconeWitness.verify` still composes.  In the poset 0 < 1,
    0 < 2, 1 < 12, 2 < 12 the pushout of the span 1 <- 0 -> 2 is 12:

    >>> square = FinCategory.build(
    ...     ["0", "1", "2", "12"],
    ...     [("01", "0", "1"), ("02", "0", "2"), ("0-12", "0", "12"),
    ...      ("1-12", "1", "12"), ("2-12", "2", "12")],
    ...     {("01", "1-12"): "0-12", ("02", "2-12"): "0-12"})
    >>> square.is_thin()
    True
    >>> wit = find_pushout(square, "01", "02")
    >>> wit.apex, wit.leg_f, wit.leg_g, wit.verify(square, "01", "02")
    ('12', '1-12', '2-12', True)
    """
    if cat.src[f] != cat.src[g]:
        raise StructuralError(f"not a span: {f}, {g} have different sources")
    up = cat.relation
    if up is not None:
        hom = cat._hom
        return _thin_universal(cat, up, cat.tgt[f], cat.tgt[g],
                               lambda s, t: hom[s, t][0], CoconeWitness)
    return _universal_cocone(cat, f, g, CoconeWitness)


def _universal_cocone(cat, f, g, witness):
    """The first cocone in scan order with a comparison to every
    competitor, as a ``witness``; None if there is none."""
    competitors = _cocones(cat, f, g)
    for apex, p, q in competitors:
        comparisons = _comparisons(cat, apex, p, q, competitors)
        if comparisons is not None:
            return witness(apex, p, q, comparisons)
    return None


def _thin_universal(cat, rows, a, b, arrow, witness):
    """The universal cocone under a span with targets a and b of a thin
    category, read off ``rows``: a cocone is an apex that both targets
    reach, a common bound (the AND of their rows), and it is universal
    when its row holds every other bound, so the first such bound is the
    join.  ``arrow(s, t)`` is the one morphism from s to t in the
    direction the rows run; over down-sets this gives the cone of a
    pullback.  None if there is no join."""
    objects, where = cat.objects, cat.object_index
    bounds = rows[where[a]] & rows[where[b]]
    x = join_index(rows, bounds)
    if x < 0:
        return None
    apex = objects[x]
    return witness(apex, arrow(a, apex), arrow(b, apex), tuple(
        ((y, arrow(a, y), arrow(b, y)), arrow(apex, y))
        for y in map(objects.__getitem__, bit_positions(bounds))))


def find_pullback(cat, f, g):
    """Pullback of the cospan src(f) -> tgt(f)=tgt(g) <- src(g); dual to
    find_pushout with the same tie-breaking: the pushout of the opposite
    category, searched there.  On a thin category it is a meet, read
    from the rows of :attr:`FinCategory.down_relation` at the two
    sources with no opposite built, and the witness is the one the
    search in the opposite finds."""
    if cat.tgt[f] != cat.tgt[g]:
        raise StructuralError(f"not a cospan: {f}, {g} have different targets")
    down = cat.down_relation
    if down is not None:
        hom = cat._hom
        return _thin_universal(cat, down, cat.src[f], cat.src[g],
                               lambda s, t: hom[t, s][0], ConeWitness)
    return _universal_cocone(cat.opposite(), f, g, ConeWitness)


def pair_id(a, b):
    return f"({a}|{b})"


def strict_pullback_category(F, G):
    """Strict fiber product of two functors with a common target.

    Objects are pairs (x, y) with Fx = Gy, morphisms pairs of morphisms
    agreeing in the target, composed componentwise on demand (see
    :class:`ComponentwiseCategory`).  Pair ids are rendered ``(x|y)``.
    """
    if F.target is not G.target and F.target.morphisms != G.target.morphisms:
        raise StructuralError("functors do not share a target")
    X, Y = F.source, G.source
    over_obj, over_mor = {}, {}     # the fibers of G, in Y's order
    for y in Y.objects:
        over_obj.setdefault(G.obj_map[y], []).append(y)
    for n in Y.morphisms:
        over_mor.setdefault(G.mor_map[n], []).append(n)
    objects = []
    identity = {}
    for x in X.objects:
        for y in over_obj.get(F.obj_map[x], ()):
            objects.append(pair_id(x, y))
            identity[pair_id(x, y)] = pair_id(X.identity[x], Y.identity[y])
    rows = []
    components = {}
    for m in X.morphisms:
        for n in over_mor.get(F.mor_map[m], ()):
            rows.append((pair_id(m, n), pair_id(X.src[m], Y.src[n]),
                         pair_id(X.tgt[m], Y.tgt[n])))
            components[pair_id(m, n)] = (m, n)
    return ComponentwiseCategory(objects, rows, identity, (X, Y), components)


def category_isomorphism(F):
    """The inverse (object map, morphism map) of F if F is an isomorphism
    of categories, else None.

    F is one exactly when it is a functor bijective on objects and on
    morphisms.  Such a functor reflects composable pairs (F is injective
    on objects), so its inverse tables preserve sources, targets,
    identities and composites: the inverse is a functor too.

    >>> arrow = FinCategory.build(["a", "b"], [("f", "a", "b")], {})
    >>> category_isomorphism(Functor.identity(arrow))[0]
    {'a': 'a', 'b': 'b'}
    >>> category_isomorphism(Functor.constant(arrow, arrow, "a")) is None
    True
    """
    C, D = F.source, F.target
    inv_obj = {F.obj_map.get(o): o for o in C.objects}
    inv_mor = {F.mor_map.get(m): m for m in C.morphisms}
    if (len(inv_obj) != len(C.objects) or inv_obj.keys() != set(D.objects)
            or len(inv_mor) != len(C.morphisms) or inv_mor.keys() != set(D.morphisms)
            or not check_functor(F).ok):
        return None
    return inv_obj, inv_mor
