"""Finite categories as explicit composition tables.

A category here is a finite list of objects, a finite list of morphisms
with source/target, an identity morphism per object, and a *total*
composition table over composable pairs.  Nothing is presented by
generators: the table is the category, and every law (identity,
associativity, typing) is checked by brute force.  Pushouts and
pullbacks are found by exhaustive search over all candidate cocones and
cones, and universality is certified against every competitor.

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

    def describe(self):
        lines = []
        for v in self.structural:
            lines.append(f"structural: {v.law} {v.witness}: {v.detail}")
        for v in self.violations:
            lines.append(f"violation: {v.law} {v.witness}: {v.detail}")
        return "\n".join(lines) if lines else "ok"

    def to_dict(self):
        return {
            "ok": self.ok,
            "structural": [v.to_dict() for v in self.structural],
            "violations": [v.to_dict() for v in self.violations],
        }


def validate_category(objects, morphisms, identity, comp):
    """Exhaustively check that raw data describes a category.

    ``objects``: list of ids.  ``morphisms``: list of (id, src, tgt).
    ``identity``: dict object -> morphism id.  ``comp``: dict
    (f, g) -> g.f for composable pairs (f first, then g).

    Returns a ValidationReport listing every violated law with a
    concrete witness; the report is empty iff the input is a category.
    """
    structural = []
    violations = []
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        structural.append(Violation("duplicate-object", (), "object ids repeat"))
    mids = [m[0] for m in morphisms]
    if len(set(mids)) != len(mids):
        structural.append(Violation("duplicate-morphism", (), "morphism ids repeat"))
    src, tgt = {}, {}
    for mid, s, t in morphisms:
        if s not in obj_set:
            structural.append(Violation("unknown-object", (mid, s), "source not declared"))
        if t not in obj_set:
            structural.append(Violation("unknown-object", (mid, t), "target not declared"))
        src[mid], tgt[mid] = s, t
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

    # totality and typing of the table
    for f in mids:
        for g in mids:
            if tgt[f] == src[g]:
                h = comp.get((f, g))
                if h is None:
                    violations.append(Violation(
                        "missing-composite", (f, g), "no entry for composable pair"))
                elif not (src[h] == src[f] and tgt[h] == tgt[g]):
                    violations.append(Violation(
                        "composite-typing", (f, g, h), "composite has wrong source or target"))
            elif (f, g) in comp:
                violations.append(Violation(
                    "spurious-composite", (f, g), "entry for non-composable pair"))

    # identity laws
    for m in mids:
        i_s, i_t = identity[src[m]], identity[tgt[m]]
        if comp.get((i_s, m)) != m:
            violations.append(Violation(
                "identity-law", (i_s, m), f"{m}.{i_s} is {comp.get((i_s, m))}, expected {m}"))
        if comp.get((m, i_t)) != m:
            violations.append(Violation(
                "identity-law", (m, i_t), f"{i_t}.{m} is {comp.get((m, i_t))}, expected {m}"))

    # associativity over all composable triples
    by_src = {}
    for m in mids:
        by_src.setdefault(src[m], []).append(m)
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


class FinCategory:
    """A finite category with a total composition table.

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
        self.comp = dict(comp)
        self._identity_ids = set(self.identity.values())
        self._hom = {}
        for m in self.morphisms:
            self._hom.setdefault((self.src[m], self.tgt[m]), []).append(m)
        self._by_src = {}
        self._by_tgt = {}
        for m in self.morphisms:
            self._by_src.setdefault(self.src[m], []).append(m)
            self._by_tgt.setdefault(self.tgt[m], []).append(m)
        self._opposite = None

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
        seen = {m[0] for m in morphisms}
        identity = {}
        ident_rows = []
        for o in objects:
            iid = ID_PREFIX + str(o)
            identity[o] = iid
            if iid not in seen:
                ident_rows.append((iid, o, o))
        morphisms = ident_rows + morphisms
        comp = dict(comp)
        src = {m[0]: m[1] for m in morphisms}
        tgt = {m[0]: m[2] for m in morphisms}
        for m, s, t in morphisms:
            if s in identity:
                comp.setdefault((identity[s], m), m)
            if t in identity:
                comp.setdefault((m, identity[t]), m)
        report = validate_category(objects, morphisms, identity, comp)
        if report.structural:
            raise StructuralError(report.describe())
        if not report.ok:
            raise CategoryLawError(report)
        return cls(objects, morphisms, identity, comp)

    def validate(self):
        rows = [(m, self.src[m], self.tgt[m]) for m in self.morphisms]
        return validate_category(self.objects, rows, self.identity, self.comp)

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

    def compose(self, g, f):
        """Classical order: ``compose(g, f)`` is g after f."""
        try:
            return self.comp[(f, g)]
        except KeyError:
            raise StructuralError(f"morphisms do not compose: {g} after {f}") from None

    def composable(self, f, g):
        """True when f can be followed by g."""
        return self.tgt[f] == self.src[g]

    def inverse(self, m):
        """Two-sided inverse of m, or None."""
        for g in self.hom(self.tgt[m], self.src[m]):
            if (self.comp[(m, g)] == self.identity[self.src[m]]
                    and self.comp[(g, m)] == self.identity[self.tgt[m]]):
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
            comp = {(g, f): h for (f, g), h in self.comp.items()}
            self._opposite = FinCategory(self.objects, rows, self.identity, comp)
        return self._opposite

    def full_subcategory(self, objects):
        """Full subcategory on the listed objects, ids preserved."""
        keep = [o for o in self.objects if o in set(objects)]
        keep_set = set(keep)
        rows = [(m, self.src[m], self.tgt[m]) for m in self.morphisms
                if self.src[m] in keep_set and self.tgt[m] in keep_set]
        # the composable pairs of kept morphisms, read off without a pass
        # over the whole table
        table = self.comp
        comp = {(f, g): table[(f, g)] for f, _s, t in rows for g in self._by_src[t]
                if self.tgt[g] in keep_set}
        identity = {o: self.identity[o] for o in keep}
        return FinCategory(keep, rows, identity, comp)

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")


class Functor:
    """A functor given by explicit object and morphism tables."""

    def __init__(self, source, target, obj_map, mor_map):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)

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


def check_functor(F):
    """Exhaustively verify functor laws; empty report iff F is a functor."""
    structural = []
    violations = []
    src_cat, tgt_cat = F.source, F.target
    for o in src_cat.objects:
        if o not in F.obj_map:
            structural.append(Violation("missing-object-image", (o,), "object map not total"))
        elif F.obj_map[o] not in set(tgt_cat.objects):
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
    for o in src_cat.objects:
        if F.mor_map[src_cat.identity[o]] != tgt_cat.identity[F.obj_map[o]]:
            violations.append(Violation(
                "identity", (o,), "identity not preserved"))
    for (f, g), h in src_cat.comp.items():
        ff, fg = F.mor_map[f], F.mor_map[g]
        image = tgt_cat.comp.get((ff, fg))
        if image != F.mor_map[h]:
            violations.append(Violation(
                "composition", (f, g), f"F(g.f) = {F.mor_map[h]} but F(g).F(f) = {image}"))
    return ValidationReport(structural, violations)


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
        if cat.comp[(f, self.leg_f)] != cat.comp[(g, self.leg_g)]:
            return False
        for apex2, p2, q2 in _cocones(cat, f, g):
            hs = [h for h in cat.hom(self.apex, apex2)
                  if cat.comp[(self.leg_f, h)] == p2 and cat.comp[(self.leg_g, h)] == q2]
            if len(hs) != 1 or self.comparison(apex2, p2, q2) != hs[0]:
                return False
        return True


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
    for apex in cat.objects:
        for p in cat.hom(cat.tgt[f], apex):
            for q in cat.hom(cat.tgt[g], apex):
                if cat.comp[(f, p)] == cat.comp[(g, q)]:
                    out.append((apex, p, q))
    return out


def find_pushout(cat, f, g):
    """Pushout of the span tgt(f) <- src(f)=src(g) -> tgt(g).

    Returns a CoconeWitness verified against every competing cocone, or
    None when no universal cocone exists.  Among isomorphic pushouts the
    one whose apex comes first in the category's object order wins, and
    within an apex legs are scanned in morphism input order.
    """
    if cat.src[f] != cat.src[g]:
        raise StructuralError(f"not a span: {f}, {g} have different sources")
    competitors = _cocones(cat, f, g)
    for apex, p, q in competitors:
        comparisons = []
        universal = True
        for apex2, p2, q2 in competitors:
            hs = [h for h in cat.hom(apex, apex2)
                  if cat.comp[(p, h)] == p2 and cat.comp[(q, h)] == q2]
            if len(hs) != 1:
                universal = False
                break
            comparisons.append(((apex2, p2, q2), hs[0]))
        if universal:
            return CoconeWitness(apex, p, q, tuple(comparisons))
    return None


def find_pullback(cat, f, g):
    """Pullback of the cospan src(f) -> tgt(f)=tgt(g) <- src(g); dual to
    find_pushout with the same tie-breaking."""
    if cat.tgt[f] != cat.tgt[g]:
        raise StructuralError(f"not a cospan: {f}, {g} have different targets")
    wit = find_pushout(cat.opposite(), f, g)
    if wit is None:
        return None
    return ConeWitness(wit.apex, wit.leg_f, wit.leg_g, wit.comparisons)


def pair_id(a, b):
    return f"({a}|{b})"


def strict_pullback_category(F, G):
    """Strict fiber product of two functors with a common target.

    Objects are pairs (x, y) with Fx = Gy, morphisms pairs of morphisms
    agreeing in the target, composition componentwise.  Pair ids are
    rendered ``(x|y)``.
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
    pairs = []
    out_of = {}                     # (x, y) -> the pairs leaving it
    for m in X.morphisms:
        for n in over_mor.get(F.mor_map[m], ()):
            rows.append((pair_id(m, n), pair_id(X.src[m], Y.src[n]),
                         pair_id(X.tgt[m], Y.tgt[n])))
            pairs.append((m, n))
            out_of.setdefault((X.src[m], Y.src[n]), []).append((m, n))
    comp = {}
    for m1, n1 in pairs:
        for m2, n2 in out_of.get((X.tgt[m1], Y.tgt[n1]), ()):
            comp[(pair_id(m1, n1), pair_id(m2, n2))] = pair_id(
                X.comp[(m1, m2)], Y.comp[(n1, n2)])
    return FinCategory(objects, rows, identity, comp)


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
