"""Chain categories, zigzag-chain categories, and the retraction
certificate behind the fiber-square condition on the classification
nerve.

For a relative category (C, W):

* ``chain_category(rc, k)`` is the category A_k of k-chains of C with
  componentwise marked natural transformations; A_0 is the marked
  subcategory itself.
* ``zigzag_chain_category(rc, k)`` is the category B_k whose objects
  replace the first chain step by a five-term zigzag

      c0 --b1--> c1 --x--> c2 <--w-- c3 --y--> c4 --b2--> ... --bk-->

  with x, y, w marked.
* ``embedding_parts(rc, k)`` holds the embedding h: A_k -> B_k that
  fills the x, w, y slots with identities; its image is the full
  subcategory A'_k.
* ``build_retraction(pms, k)`` constructs the retraction
  r: B_k -> A'_k together with the zigzag of natural weak equivalences
  connecting i.r with the identity of B_k (four transformations through
  three auxiliary functors) and the two-step zigzag connecting r.i with
  the identity of A'_k, and certifies every single ingredient: every
  transformation component is a morphism of B_k (marked in every vertex
  and commuting with both diagrams), every functor and every naturality
  square is lawful, and every pushout/pullback witness re-passes its
  universal property.

When C is thin, so is B_k, and the certificate reads B_k as its
relation (``b_k.relation``, one up-set bitset per object), visiting no
morphism of B_k.  It rests on the thin lemma: any two parallel
morphisms of a thin category are equal.  So a map of objects into B_k
is a functor once it is monotone, each morphism going to the one
morphism between the images of its ends; T1, T2, T3 and r are checked
as monotone object maps.  Every naturality square commutes, so a
transformation is checked by its components.  The middle map a
morphism needs depends only on the w slots of its ends, and is checked
once per such pair.  Otherwise each image is composed in C from the
recorded comparisons and looked up in B_k, and every naturality square
is composed in B_k.  Either way a failure names the first morphism of
B_k that carries it.

The composites written with overlines in informal accounts of this
construction are read here as the recorded pushout/pullback legs and
their composites with the displayed maps; the certificate stores that
reading explicitly so it can be audited.
"""

from dataclasses import dataclass, field

from .fincat import (
    Functor, StructuralError, ValidationReport, Violation, bit_positions, check_functor,
    strict_pullback_category, category_isomorphism, pair_id,
)
from .relcat import (
    diagram_category, diagram_functor, validate_relative,
    ARROW, WEQ, WEQ_BACK,
)
from .pmc import CalculusError
from .sset import count_chains, nerve, pi0, homology
from .hammock import check_saturation


def chain_category(rc, k):
    """The category A_k of k-chains with marked componentwise maps.

    At k = 0 this is the marked subcategory itself (same object and
    morphism ids)."""
    if k < 0:
        raise StructuralError("chain length must be >= 0")
    return diagram_category(rc, (ARROW,) * k)


def zigzag_chain_category(rc, k):
    """Complete enumeration of B_k (k >= 2): arrow tuples
    (b1, x, w, y, b2..bk) with x, w, y marked and w backward."""
    if k < 2:
        raise StructuralError("zigzag chain categories need k >= 2")
    return diagram_category(rc, (ARROW, WEQ, WEQ_BACK, WEQ) + (ARROW,) * (k - 1))


def embedding_parts(rc, k):
    """(h, A_k, B_k, A'_k): the embedding h: A_k -> B_k filling x, w, y
    with identities, injective on objects and morphisms, and A'_k, the
    full subcategory of B_k on its image objects (ids preserved).

    Refuses with StructuralError, naming the first violation, unless the
    marked maps form a wide subcategory: otherwise A_k and B_k lack
    composites and are not categories."""
    validate_relative(rc).require("the weak equivalences are not a subcategory")
    cat = rc.cat
    a_k = chain_category(rc, k)
    b_k = zigzag_chain_category(rc, k)

    def fill(objs, arrows):
        i1 = cat.identity[objs[1]]
        return (objs[0],) + (objs[1],) * 4 + objs[2:], (arrows[0], i1, i1, i1) + arrows[1:]

    h = diagram_functor(a_k, b_k, fill, lambda c: (c[0],) + (c[1],) * 4 + c[2:])
    a_prime = b_k.full_subcategory(h.obj_map.values())
    return h, a_k, b_k, a_prime


@dataclass
class TransformationRecord:
    """One natural transformation in the certificate."""

    name: str
    source: str
    target: str
    components: dict              # object id -> component tuple
    unmarked: list = field(default_factory=list)
    missing: list = field(default_factory=list)       # objects whose component is not a morphism
    naturality_failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.unmarked and not self.missing and not self.naturality_failures


@dataclass
class SegalCertificate:
    """Everything build_retraction claims, with its evidence."""

    k: int
    object_rows: dict             # B_k object -> row-by-row instantiation
    transformations: list         # of TransformationRecord
    functor_reports: dict         # name -> ValidationReport
    witnesses: list               # (kind, f, g, apex, leg_f, leg_g, reverified)
    factorizations: dict          # w -> (u, mid, v)
    reading: str
    morphisms_checked_on: str     # _THIN or _COMPONENTWISE
    errors: list = field(default_factory=list)

    @property
    def valid(self):
        return (not self.errors
                and all(t.ok for t in self.transformations)
                and all(r.ok for r in self.functor_reports.values())
                and all(w[-1] for w in self.witnesses))

    def summary(self):
        lines = [f"retraction certificate k={self.k}: "
                 + ("VALID" if self.valid else "INVALID")]
        lines.append(f"  objects instantiated: {len(self.object_rows)}")
        for t in self.transformations:
            total = sum(len(c) for c in t.components.values())
            lines.append(
                f"  {t.name}: {len(t.components)} components ({total} entries), "
                f"{'all marked' if not t.unmarked else f'{len(t.unmarked)} unmarked'}, "
                f"{'natural' if not t.naturality_failures else f'{len(t.naturality_failures)} naturality failures'}")
        for name, rep in self.functor_reports.items():
            lines.append(f"  functor {name}: {'ok' if rep.ok else 'LAW FAILURE'}")
        lines.append(f"  pushout/pullback witnesses re-verified: "
                     f"{sum(1 for w in self.witnesses if w[-1])}/{len(self.witnesses)}")
        lines.append(f"  reading: {self.reading}")
        return "\n".join(lines)

    def to_dict(self, full=False):
        d = {
            "k": self.k,
            "valid": self.valid,
            "transformations": [
                {
                    "name": t.name, "source": t.source, "target": t.target,
                    "components": len(t.components),
                    "unmarked": t.unmarked, "missing": t.missing,
                    "naturality_failures": t.naturality_failures[:20],
                    "naturality_failures_total": len(t.naturality_failures),
                } for t in self.transformations],
            "functors": {n: r.ok for n, r in self.functor_reports.items()},
            "witnesses_reverified": sum(1 for w in self.witnesses if w[-1]),
            "witnesses_total": len(self.witnesses),
            "factorizations": {w: list(f) for w, f in self.factorizations.items()},
            "reading": self.reading,
            "morphisms_checked_on": self.morphisms_checked_on,
            "errors": self.errors[:20],
            "errors_total": len(self.errors),
        }
        if full:
            d["object_rows"] = {
                o: {name: {"objects": list(objs), "arrows": list(arrs)}
                    for name, (objs, arrs) in rows.items()}
                for o, rows in self.object_rows.items()}
            d["components"] = {
                t.name: {o: list(c) for o, c in t.components.items()}
                for t in self.transformations}
        return d


def check_transformation(rc, rec, F, G, domain):
    """Check ``rec.components`` as a natural transformation F => G over
    the objects and morphisms of ``domain``; returns ``rec``.

    F and G are functors into the diagram category D = G.target; F may
    land in a full subcategory of D, as r lands in A'_k.  Each component
    must be a morphism F(o) -> G(o) of D: marked in every vertex and
    commuting with the arrows of both diagrams.  ``unmarked`` lists the
    unmarked entries as (o, c), and ``missing`` the objects whose
    component is absent or is not such a morphism.

    Over a thin D that is all: by the thin lemma the two paths of a
    naturality square, both F(s) -> G(t), are equal, so only objects are
    visited and the morphism maps are not read (a mistyped functor is
    the functor check's to reject).  Otherwise every square away from
    the missing objects is read through D's compose, and
    ``naturality_failures`` lists (m, i) for each square that does not
    commute, i the first vertex where its two composites differ.
    """
    D = G.target
    ids = {}
    for o in domain.objects:
        comps = rec.components.get(o)
        if comps is not None:
            rec.unmarked.extend((o, c) for c in comps if not rc.is_weq(c))
            ids[o] = D.lookup(F.obj_map[o], G.obj_map[o], comps)
        if ids.get(o) is None:
            rec.missing.append(o)
    if D.is_thin():
        return rec
    base, compose = rc.cat.compose, D.compose
    for m in domain.morphisms:
        left, right = ids.get(domain.src[m]), ids.get(domain.tgt[m])
        if left is None or right is None:
            continue
        f_m, g_m = F.mor_map[m], G.mor_map[m]
        # a composite is absent only where the marking is not closed
        # under composition; the vertices then decide
        try:
            natural = compose(g_m, left) == compose(right, f_m)
        except StructuralError:
            natural = False
        if not natural:
            vertices = zip(D.components[left], D.components[g_m],
                           D.components[f_m], D.components[right])
            i = next((i for i, (a, g, f, b) in enumerate(vertices)
                      if base(g, a) != base(b, f)), None)
            if i is not None:
                rec.naturality_failures.append((m, i))
    return rec


# the row of a B_k object that each functor of the certificate sends it to
_FUNCTOR_ROWS = (("T1", "row2:compose-x"), ("T2", "row3:compose-y"),
                 ("T3", "row4:factor-and-push"), ("r", "row5:retract"))


def build_retraction(pms, k, parts=None):
    """Construct and certify the retraction of B_k onto A'_k.

    Returns (r, certificate).  ``parts`` may carry a prebuilt
    (h, a_k, b_k, a_prime) tuple to avoid re-enumeration.

    T1, T2, T3 and r send each morphism m: s -> t of B_k to a morphism
    between the images of s and t.  When C is thin, they are certified
    as monotone object maps on B_k's relation (:func:`_relation_errors`),
    and build their morphism maps from the hom index only when read.
    Otherwise each image is composed in C from the recorded pushout and
    pullback comparisons and looked up in B_k
    (:func:`_componentwise_images`).
    """
    rc = pms.rc
    cat = rc.cat
    ident = cat.identity
    thin = cat.is_thin()
    lemma = _THIN if thin else _COMPONENTWISE
    if parts is None:
        parts = embedding_parts(rc, k)
    h, a_k, b_k, a_prime = parts

    errors = []
    witnesses = []
    recorded = set()

    def record(kind, a, f):
        """The structure's pushout or pullback of (a, f), re-verified
        and listed in the certificate the first time it is used."""
        wit = getattr(pms, kind)(a, f)
        if (kind, a, f) not in recorded:
            recorded.add((kind, a, f))
            witnesses.append((kind, a, f, wit.apex, wit.leg_f, wit.leg_g,
                              wit.verify(cat, a, f)))
        return wit

    # -- objects -----------------------------------------------------------------
    # For each object: its rows and the transformation components between
    # them, following the displayed rows:
    #   row1 = identity  -phi1->  row2 = T1  <-phi2-  row3 = T2
    #   row3 = T2        -phi3->  row4 = T3  <-phi4-  row5 = i.r
    data = {}                   # object -> its pushout tower, v1, pullback
    object_rows = {}
    factorizations = {}
    phi1, phi2, phi3, phi4 = {}, {}, {}, {}
    for oid in b_k.objects:
        c, arrows = b_k.diagrams[oid]
        b1, x, w, y = arrows[:4]
        bs = arrows[4:]
        xb1, b2y = cat.compose(x, b1), cat.compose(bs[0], y)
        u1, m1, v1 = pms.factor(w)
        factorizations.setdefault(w, (u1, m1, v1))
        # iterated pushouts along the u's
        us, mids, bars = [u1], [m1], []
        for arrow in (b2y,) + bs[1:]:
            wit = record("pushout", us[-1], arrow)
            bars.append(wit.leg_f)      # M_j -> M_{j+1}
            us.append(wit.leg_g)        # next u
            mids.append(wit.apex)
        pb = record("pullback", v1, xb1)    # legs P -> M1 and P -> c0
        data[oid] = {"us": us, "mids": mids, "bars": bars, "v1": v1, "pullback": pb}
        i2, i3, im = ident[c[2]], ident[c[3]], ident[m1]
        object_rows[oid] = {
            "row1:identity": (c, arrows),
            "row2:compose-x": ((c[0], c[2], c[2], c[3], c[4]) + c[5:],
                               (xb1, i2, w, y) + bs),
            "row3:compose-y": ((c[0], c[2], c[2], c[3], c[3]) + c[5:],
                               (xb1, i2, w, i3, b2y) + bs[1:]),
            "row4:factor-and-push": ((c[0], c[2], c[2], m1, m1) + tuple(mids[1:]),
                                     (xb1, i2, v1, im) + tuple(bars)),
            "row5:retract": ((pb.apex, m1, m1, m1, m1) + tuple(mids[1:]),
                             (pb.leg_f, im, im, im) + tuple(bars)),
        }
        rest = tuple(ident[o] for o in c[5:])
        phi1[oid] = (ident[c[0]], x, i2, i3, ident[c[4]]) + rest
        phi2[oid] = (ident[c[0]], i2, i2, i3, y) + rest
        phi3[oid] = (ident[c[0]], i2, i2, u1, u1) + tuple(us[1:])
        phi4[oid] = (pb.leg_g, v1, v1, im, im) + tuple(ident[o] for o in mids[1:])

    # -- functors: objects by their rows; morphisms by their ends or components -
    obj_maps = {}
    for name, row in _FUNCTOR_ROWS:
        obj_maps[name] = {o: b_k.object_of(*rows[row]) for o, rows in object_rows.items()}
        errors.extend(f"{name}({o}) is not an object of B_{k}"
                      for o, t in obj_maps[name].items() if t is None)
    if errors:
        return None, SegalCertificate(k, object_rows, [], {}, witnesses,
                                      factorizations, _READING, lemma, errors)
    if thin:
        errors = _relation_errors(pms, b_k, k, obj_maps)
        mor_maps = dict.fromkeys(obj_maps)      # read off the ends, on demand
    else:
        mor_maps = _componentwise_images(pms, b_k, k, obj_maps, object_rows, data, errors)
    if errors:
        return None, SegalCertificate(k, object_rows, [], {}, witnesses,
                                      factorizations, _READING, lemma, errors)

    functors = {name: Functor(b_k, a_prime if name == "r" else b_k,
                              obj_maps[name], mor_maps[name])
                for name, _row in _FUNCTOR_ROWS}
    T1, T2, T3, r = functors.values()
    check = _object_map_report if thin else check_functor
    functor_reports = {"h": check_functor(h), "r": check(r),
                       "T1": check(T1), "T2": check(T2), "T3": check(T3)}

    # -- the A'_k side -----------------------------------------------------------
    # On image objects the w slot is an identity; the composite of its
    # factorization is the identity, and pushing the top row out along
    # it recovers the top row, yielding tau: T3|A' => 1 with components
    # (id, id, id, v1, v1, v2, ..., vk).
    tau, psi = {}, {}
    for oid in a_prime.objects:
        c, d = b_k.diagrams[oid][0], data[oid]
        vs = [d["v1"]]
        for j, arrow in enumerate(object_rows[oid]["row3:compose-y"][1][4:]):
            got = pms.pushout(d["us"][j], arrow).comparison(
                c[5 + j], cat.compose(arrow, vs[-1]), ident[c[5 + j]])
            if got is None:
                errors.append(f"push-down comparison missing at {oid} stage {j}")
                break
            vs.append(got)
        else:
            tau[oid] = (ident[c[0]], ident[c[1]], ident[c[2]], vs[0], vs[0]) + tuple(vs[1:])
            psi[oid] = tuple(cat.compose(t, p) for p, t in zip(phi4[oid], tau[oid]))

    one = Functor(b_k, b_k, {o: o for o in b_k.objects}) if thin else Functor.identity(b_k)
    transformations = [
        check_transformation(rc, TransformationRecord(name, src, tgt, comps), F, G, domain)
        for name, src, tgt, F, G, comps, domain in (
            ("phi1: 1 => T1", "1", "T1", one, T1, phi1, b_k),
            ("phi2: T2 => T1", "T2", "T1", T2, T1, phi2, b_k),
            ("phi3: T2 => T3", "T2", "T3", T2, T3, phi3, b_k),
            ("phi4: i.r => T3", "i.r", "T3", r, T3, phi4, b_k),
            ("phi4|A': i.r => T3 (restricted)", "i.r|A'", "T3|A'", r, T3,
             {o: phi4[o] for o in tau}, a_prime),
            ("tau: T3|A' => 1", "T3|A'", "1|A'", T3, one, tau, a_prime),
            ("psi = tau . phi4: r.i => 1 (on A')", "r.i", "1|A'", r, one, psi, a_prime))]
    cert = SegalCertificate(k, object_rows, transformations, functor_reports,
                            witnesses, factorizations, _READING, lemma, errors)
    return r, cert


def _relation_errors(pms, b_k, k, obj_maps):
    """The error lines of the certificate's morphism half over a thin
    C, read on the up-sets ``b_k.relation``; no morphism is visited.

    T1, T2, T3 and r must be monotone: for each image y the preimage of
    y's up-set is taken once, and each source's up-set must lie inside
    the preimage of its image's.  The middle map of a w-square, fixed
    by the w slots of a morphism's ends, must run M1 -> M1', each fixed
    by its w, and is checked once per square some morphism carries.
    Each failure names the first morphism of B_k that carries it: B_k
    lists its morphisms by source, then by target position.
    """
    cat = pms.rc.cat
    up, objects = b_k.relation, b_k.objects
    failures = []               # ((source, target position), kind, message)

    def morphism(s, t):
        return b_k.hom(objects[s], objects[t])[0]

    with_w, reach = {}, {}      # w -> the objects with that w slot, their up-sets
    for i, o in enumerate(objects):
        w = b_k.diagrams[o][1][2]
        with_w[w] = with_w.get(w, 0) | 1 << i
        reach[w] = reach.get(w, 0) | up[i]
    for w, sources in with_w.items():
        for w2, targets in with_w.items():
            if not reach[w] & targets:
                continue
            square = (w, w2, cat.hom(cat.src[w], cat.src[w2])[0],
                      cat.hom(cat.tgt[w], cat.tgt[w2])[0])
            try:
                mu = pms.middle_map(square)
                if (cat.src[mu], cat.tgt[mu]) == (pms.factor(w)[1], pms.factor(w2)[1]):
                    continue
                problem = None
            except (CalculusError, KeyError) as e:
                problem = e
            s = next(s for s in bit_positions(sources) if up[s] & targets)
            t = _lowest(up[s] & targets)
            if problem is None:
                problem = f"middle map {mu} does not run M1({objects[s]}) -> M1({objects[t]})"
            failures.append(((s, t), 0, f"comparison data missing for morphism "
                                        f"{morphism(s, t)}: {problem}"))

    position = {o: i for i, o in enumerate(objects)}
    for kind, (name, _row) in enumerate(_FUNCTOR_ROWS, 1):
        image = [position[obj_maps[name][o]] for o in objects]
        fibers = {}
        for i, y in enumerate(image):
            fibers[y] = fibers.get(y, 0) | 1 << i
        hit = sum(1 << y for y in fibers)
        # fibers are disjoint, so their sum is their union
        above = {y: sum(fibers[z] for z in bit_positions(up[y] & hit)) for y in fibers}
        s = next((s for s, y in enumerate(image) if up[s] & ~above[y]), None)
        if s is not None:
            t = _lowest(up[s] & ~above[image[s]])
            failures.append(((s, t), kind, _NO_MATCH.format(name=name, m=morphism(s, t), k=k)))
    return [message for _at, _kind, message in sorted(failures)]


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def _object_map_report(F):
    """:func:`check_functor`'s report on a functor into a thin category
    whose object map is monotone: only the objects' typing is left."""
    known = set(F.target.objects)
    return ValidationReport([Violation("unknown-object", (o, t), "image object unknown")
                             for o, t in F.obj_map.items() if t not in known], [])


def _componentwise_images(pms, b_k, k, obj_maps, object_rows, data, errors):
    """The morphism maps of T1, T2, T3 and r, each image composed in C
    from the recorded pushout and pullback comparisons and looked up in
    B_k; a failure is appended to ``errors`` for each morphism."""
    cat = pms.rc.cat
    mor_maps = {name: {} for name in obj_maps}
    for m in b_k.morphisms:
        comps = b_k.components[m]
        s, t = b_k.src[m], b_k.tgt[m]
        d_s, d_t = data[s], data[t]
        try:
            mu = [pms.middle_map((b_k.diagrams[s][1][2], b_k.diagrams[t][1][2],
                                  comps[3], comps[2]))]
            # comparisons into the pushout tower of the target
            for j, arrow in enumerate(object_rows[s]["row3:compose-y"][1][4:]):
                mu.append(pms.pushout(d_s["us"][j], arrow).comparison(
                    d_t["mids"][j + 1], cat.compose(d_t["bars"][j], mu[-1]),
                    cat.compose(d_t["us"][j + 1], comps[5 + j])))
                if mu[-1] is None:
                    raise CalculusError("pushout comparison missing for recorded cocone")
        except (CalculusError, KeyError, StructuralError) as e:
            errors.append(f"comparison data missing for morphism {m}: {e}")
            continue
        # express the source pullback cone as a competitor of the target one
        pb_s = d_s["pullback"]
        pi = d_t["pullback"].comparison(pb_s.apex, cat.compose(mu[0], pb_s.leg_f),
                                        cat.compose(comps[0], pb_s.leg_g))
        if pi is None:
            errors.append(f"pullback comparison missing for morphism {m}")
            continue
        tower = tuple(mu[1:])
        images = {"T1": (comps[0], comps[2], comps[2], comps[3], comps[4]) + comps[5:],
                  "T2": (comps[0], comps[2], comps[2], comps[3], comps[3]) + comps[5:],
                  "T3": (comps[0], comps[2], comps[2], mu[0], mu[0]) + tower,
                  "r": (pi, mu[0], mu[0], mu[0], mu[0]) + tower}
        for name, image in images.items():
            obj_map = obj_maps[name]
            mor_maps[name][m] = b_k.lookup(obj_map[s], obj_map[t], image)
            if mor_maps[name][m] is None:
                errors.append(_NO_MATCH.format(name=name, m=m, k=k))
    return mor_maps


_READING = ("overline composites are the recorded pushout/pullback legs; "
            "the retracted chain is (pullback leg of the v-part along the "
            "composed first map, then the pushed-forward tail arrows)")
_THIN = ("thin lemma: parallel morphisms of B_k are equal, so each image is "
         "the one morphism between the images of its ends")
_COMPONENTWISE = "componentwise: comparisons composed in C, looked up in B_k"
_NO_MATCH = ("{name}({m}) has no matching morphism in B_{k} "
             "(a component is unmarked or a square fails)")


# -- the fiber-square report ---------------------------------------------------

@dataclass
class SegalReport:
    """Per-k verdicts for the fiber-square condition inputs."""

    k_results: dict
    saturation_passed: bool
    boundary_statement: str

    @property
    def passed(self):
        return self.saturation_passed and all(
            r["strict_identity"] and r["certificate_valid"]
            and not r["corroboration_failures"]
            for r in self.k_results.values())

    def to_dict(self, full=False):
        """A JSON-ready copy: each k's certificate is replaced by its
        ``certificate_summary``, with the full evidence when ``full``."""
        return {
            "passed": self.passed,
            "saturation": self.saturation_passed,
            "k": {str(k): {**{key: v for key, v in r.items() if key != "certificate"},
                           "certificate_summary": r["certificate"].to_dict(full=full)}
                  for k, r in self.k_results.items()},
            "boundary": self.boundary_statement,
        }

    def describe(self):
        lines = [f"fiber-square inputs: {'pass' if self.passed else 'FAIL'}"]
        for k, r in sorted(self.k_results.items()):
            lines.append(
                f"  k={k}: strict identity {'ok' if r['strict_identity'] else 'FAIL'}; "
                f"certificate {'valid' if r['certificate_valid'] else 'INVALID'}; "
                f"nerve agreement dims {r['homology_dims_compared']} "
                + ("ok" if not r["corroboration_failures"]
                   else f"FAIL {r['corroboration_failures']}")
                + (f" (skipped dims {r['skipped_dims']}: size)" if r["skipped_dims"] else ""))
        lines.append(f"  saturation: {'pass' if self.saturation_passed else 'FAIL'}")
        lines.append(f"  note: {self.boundary_statement}")
        return "\n".join(lines)


_BOUNDARY = (
    "this report certifies the strict fiber identity, the retraction "
    "zigzags, and the saturation of the marking; promoting these to the "
    "homotopy fiber-square condition on the classification nerve uses an "
    "external homotopy-pullback criterion that is not re-verified here")


def _reduction(s):
    """What the homology of the nerve ``s`` is computed on: its
    category's preorder core, or its own chains when the category is not
    thin.  Reads the core that ``homology`` used."""
    core = s.core
    if core is not None:
        return core.to_dict()
    n = len(s.category.objects)
    return {"objects_before": n, "objects_after": n, "witnessed_steps": 0,
            "theorem": "none: the category is not thin, so its homology "
                       "comes from its own normalized chains"}


def check_strict_segal_identity(rc, k, cache=None):
    """The canonical comparison A_k -> A_{k-1} x_{A_0} A_1 is an
    isomorphism of categories.

    It sends a k-chain, and a map of k-chains, to the pair of its
    restrictions: drop the last vertex (into A_{k-1}) and keep the last
    arrow (into A_1).  The fiber product is strict, over the last vertex
    of a (k-1)-chain and the first vertex of a 1-chain."""
    cache = cache if cache is not None else {}

    def ak(i):
        if i not in cache:
            cache[i] = chain_category(rc, i)
        return cache[i]

    F = diagram_functor(ak(k - 1), ak(0), lambda objs, arrows: (objs[-1:], ()),
                        lambda c: c[-1:])
    G = diagram_functor(ak(1), ak(0), lambda objs, arrows: (objs[:1], ()),
                        lambda c: c[:1])
    pb = strict_pullback_category(F, G)
    head = diagram_functor(ak(k), ak(k - 1),
                           lambda objs, arrows: (objs[:-1], arrows[:-1]),
                           lambda c: c[:-1])
    last = diagram_functor(ak(k), ak(1),
                           lambda objs, arrows: (objs[-2:], arrows[-1:]),
                           lambda c: c[-2:])
    S = Functor(ak(k), pb,
                {o: pair_id(head.obj_map[o], last.obj_map[o]) for o in ak(k).objects},
                {m: pair_id(head.mor_map[m], last.mor_map[m]) for m in ak(k).morphisms})
    return category_isomorphism(S) is not None


def _segal_at(pms, k, sset_dims, cell_budget, cache):
    """:func:`verify_segal` at one k; ``cache`` keeps A_k for the next."""
    rc = pms.rc
    parts = embedding_parts(rc, k)
    _h, a_k, b_k, a_prime = parts
    cache[k] = a_k
    strict_ok = check_strict_segal_identity(rc, k, cache)
    _r, cert = build_retraction(pms, k, parts)
    # corroboration: nerve-level invariants of A'_k versus B_k
    failures = []
    dims = []
    for d in range(sset_dims + 1):
        if (count_chains(a_prime, d + 1) > cell_budget
                or count_chains(b_k, d + 1) > cell_budget):
            break
        dims.append(d)
    skipped = [d for d in range(sset_dims + 1) if d not in dims]
    trunc = (max(dims) + 1) if dims else 1
    nerve_a = nerve(a_prime, trunc)
    nerve_b = nerve(b_k, trunc)
    pi_a, pi_b = len(pi0(nerve_a)), len(pi0(nerve_b))
    if pi_a != pi_b:
        failures.append(f"pi0 {pi_a} != {pi_b}")
    if dims:
        h_a = homology(nerve_a, max(dims))
        h_b = homology(nerve_b, max(dims))
        for d in dims:
            if h_a[d] != h_b[d]:
                failures.append(f"H_{d}: {h_a[d]} != {h_b[d]}")
    return {
        "strict_identity": strict_ok,
        "certificate_valid": cert.valid,
        "certificate": cert,
        "pi0": (pi_a, pi_b),
        "homology_dims_compared": dims,
        "skipped_dims": skipped,
        "reduction": {"A'_k": _reduction(nerve_a), "B_k": _reduction(nerve_b)},
        "corroboration_failures": failures,
    }


def verify_segal(pms, k_range=(2, 3), sset_dims=2, cell_budget=200_000,
                 allow_large=False):
    """The full per-k pipeline: strict fiber identity, retraction
    certificate, nerve-level corroboration, saturation proxy.

    Homology comparisons whose chain groups would exceed ``cell_budget``
    simplices in some needed dimension are skipped and reported as
    skipped, never silently dropped.  k >= 5 needs ``allow_large``.
    """
    if any(k >= 5 for k in k_range) and not allow_large:
        raise StructuralError(
            "k >= 5 grows as |Mor|^(k+3); pass --allow-large (allow_large=True)")
    cache = {}
    # one k at a time, each once: B_k, A'_k and their nerves go when
    # _segal_at returns
    k_results = {k: _segal_at(pms, k, sset_dims, cell_budget, cache)
                 for k in sorted(set(k_range))}
    saturation = check_saturation(pms)
    return SegalReport(k_results, saturation.passed, _BOUNDARY)
