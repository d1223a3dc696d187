"""Shared builders for the small categories the tests lean on, and the
scans that the decisions read from relations replace, kept as their
references."""

from pmcat._util import UnionFind
from pmcat.fincat import ConeWitness, CoconeWitness, FinCategory, Functor, Violation
from pmcat.pmc import AxiomReport, PartialModelStructure, weq_squares
from pmcat.relcat import PropertyReport, unclosed_pairs, validate_relative
from pmcat.sset import _identity_violations


def poset_category(elements, leq, name=None):
    """Category of a finite preorder.

    Non-identity morphisms a -> b are named by ``name(a, b)`` (default
    ``"a<b"``); hom-sets have at most one element so the composition
    table is forced.
    """
    if name is None:
        name = lambda a, b: f"{a}<{b}"
    elements = list(elements)
    mor = {}
    for a in elements:
        for b in elements:
            if a != b and leq(a, b):
                mor[(a, b)] = name(a, b)
    rows = [(m, a, b) for (a, b), m in mor.items()]
    comp = {}
    for (a, b), f in mor.items():
        for (b2, c), g in mor.items():
            if b2 == b and leq(a, c):
                comp[(f, g)] = mor[(a, c)] if a != c else "id:" + str(a)
    return FinCategory.build(elements, rows, comp)


def chain_poset(n):
    """The linear order [n] with morphisms named by endpoint digits."""
    return poset_category(
        [str(i) for i in range(n + 1)],
        lambda a, b: int(a) <= int(b),
        name=lambda a, b: f"{a}{b}",
    )


def boolean_lattice():
    """Subsets of a two-element set: objects 0, 1, 2, 12."""
    contains = {"0": set(), "1": {1}, "2": {2}, "12": {1, 2}}
    return poset_category(
        ["0", "1", "2", "12"],
        lambda a, b: contains[a] <= contains[b],
    )


def walking_iso():
    """Two objects, one isomorphism each way."""
    rows = [("s", "a", "b"), ("t", "b", "a")]
    comp = {("s", "t"): "id:a", ("t", "s"): "id:b"}
    return FinCategory.build(["a", "b"], rows, comp)


def terminal_category():
    return FinCategory.build(["*"], [], {})


def cyclic_group(n):
    """The group Z/n as a one-object category; ``g<i>`` is i in Z/n."""
    rows = [(f"g{i}", "*", "*") for i in range(1, n)]
    comp = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" if (i + j) % n else "id:*"
            for i in range(1, n) for j in range(1, n)}
    return FinCategory.build(["*"], rows, comp)


def thin_functor(source, target, obj_map):
    """The functor into a thin category fixed by its object map: each
    morphism goes to the one morphism between the image objects, or to
    None when there is none."""
    mor_map = {m: next(iter(target.hom(obj_map[source.src[m]],
                                       obj_map[source.tgt[m]])), None)
               for m in source.morphisms}
    return Functor(source, target, obj_map, mor_map)


def simplicial_map_violations(tables, source, target, n_max):
    """Where index tables fail to be a simplicial map: the per-simplex
    reference for the checks that the library runs on functors.

    ``tables[n]`` sends the n-simplices of the source to those of the
    target; ``source`` and ``target`` are (faces, degeneracies) pairs
    keyed (n, i).  Every face and degeneracy up to dimension ``n_max``
    must commute with the tables; returns a list of violation strings
    (empty = pass).
    """
    bad = []
    # faces go one level down, degeneracies one level up
    for kind, which, levels, step in (("face", 0, range(1, n_max + 1), -1),
                                      ("degeneracy", 1, range(n_max), 1)):
        for n in levels:
            here, there = tables[n], tables[n + step]
            for i in range(n + 1):
                op = target[which][(n, i)]
                before = [op[y] for y in here]
                after = [there[y] for y in source[which][(n, i)]]
                if before != after:
                    bad.extend(f"{kind} ({n},{i}) at {x}"
                               for x, (p, q) in enumerate(zip(before, after)) if p != q)
    return bad


def cell_violations(b):
    """Reference for ``TruncatedBisimplicialSet.validate_identities``,
    which checks the horizontal identities on the functors: the
    horizontal and vertical simplicial identities on every cell of the
    index tables, and every horizontal face and degeneracy as a
    simplicial map between columns; list of violations."""
    k_max, n_max = b.k_max, b.n_max
    bad = []
    rows = [({(k, i): b.hfaces[(k, n, i)]
              for k in range(1, k_max + 1) for i in range(k + 1)},
             {(k, i): b.hdegens[(k, n, i)]
              for k in range(k_max) for i in range(k + 1)})
            for n in range(n_max + 1)]
    columns = [({(n, j): b.vfaces[(k, n, j)]
                 for n in range(1, n_max + 1) for j in range(n + 1)},
                {(n, j): b.vdegens[(k, n, j)]
                 for n in range(n_max) for j in range(n + 1)})
               for k in range(k_max + 1)]
    for n, (faces, degs) in enumerate(rows):
        sizes = [b.size(k, n) for k in range(k_max + 1)]
        bad.extend(f"h at level {n}: {msg}"
                   for msg in _identity_violations(k_max, sizes, faces, degs))
    for k, (faces, degs) in enumerate(columns):
        sizes = [b.size(k, n) for n in range(n_max + 1)]
        bad.extend(f"v at level {k}: {msg}"
                   for msg in _identity_violations(n_max, sizes, faces, degs))
    for k in range(k_max + 1):
        for i in range(k + 1):
            for name, ops, other in (("dh", b.hfaces, k - 1), ("sh", b.hdegens, k + 1)):
                if 0 <= other <= k_max:
                    tables = [ops[(k, n, i)] for n in range(n_max + 1)]
                    bad.extend(f"{name}{i} out of column {k}: {msg}" for msg in
                               simplicial_map_violations(tables, columns[k],
                                                         columns[other], n_max))
    return bad


# -- the composing and union-find scans behind the thin decisions ------------------
#
# On a thin category the library reads two-of-six, two-of-three, pushouts,
# pullbacks, the middle maps of (c-iii) and pi0 off the relation and its
# marked rows.  These are the scans it read them with before, each
# composing or walking every morphism, kept to compare against.

def reference_two_of_three(rc):
    """check_two_of_three, composing every composable pair."""
    cat = rc.cat
    witnesses = []
    for r in cat.morphisms:
        for s in cat.out_of(cat.tgt[r]):
            if sum((rc.is_weq(r), rc.is_weq(s), rc.is_weq(cat.compose(s, r)))) == 2:
                witnesses.append((r, s))
    return PropertyReport("two-of-three", not witnesses, witnesses, [])


def reference_two_of_six(rc):
    """check_two_of_six, composing every composable triple, with the
    isomorphisms found by composing inverses."""
    cat = rc.cat
    compose, is_weq = cat.compose, rc.is_weq
    witnesses = []
    for r in cat.morphisms:
        for s in cat.out_of(cat.tgt[r]):
            sr = compose(s, r)
            if not is_weq(sr):
                continue
            for t in cat.out_of(cat.tgt[s]):
                if is_weq(compose(t, s)) and not (
                        is_weq(r) and is_weq(s) and is_weq(t) and is_weq(compose(t, sr))):
                    witnesses.append((r, s, t))
    notes = []
    if not witnesses:
        two_of_three = reference_two_of_three(rc)
        notes.append(f"consequence two-of-three: {'pass' if two_of_three.passed else 'FAIL'}")
        unmarked_isos = [m for m in cat.isos() if not rc.is_weq(m)]
        notes.append("consequence isomorphisms marked: "
                     + ("pass" if not unmarked_isos else f"FAIL {unmarked_isos}"))
        if not two_of_three.passed or unmarked_isos:
            return PropertyReport("two-of-six", False, [], notes)
    return PropertyReport("two-of-six", not witnesses, witnesses, notes)


def reference_pushout(cat, f, g, witness=CoconeWitness):
    """find_pushout by the composing scan: the first universal cocone in
    scan order, every square decided by composing; None if there is
    none."""
    compose = cat.compose
    cocones = [(apex, p, q) for apex in cat.objects
               for p in cat.hom(cat.tgt[f], apex) for q in cat.hom(cat.tgt[g], apex)
               if compose(p, f) == compose(q, g)]
    for apex, p, q in cocones:
        comparisons = []
        for apex2, p2, q2 in cocones:
            hs = [h for h in cat.hom(apex, apex2)
                  if compose(h, p) == p2 and compose(h, q) == q2]
            if len(hs) != 1:
                break
            comparisons.append(((apex2, p2, q2), hs[0]))
        else:
            return witness(apex, p, q, tuple(comparisons))
    return None


def reference_pullback(cat, f, g):
    return reference_pushout(cat.opposite(), f, g, ConeWitness)


def reference_pi0(s):
    """pi0 by a union-find over the ends of every 1-simplex."""
    vals, edges = s.edge_ends()
    uf = UnionFind(range(len(vals)))
    for a, b in edges:
        uf.union(a, b)
    return tuple(tuple(vals[i] for i in cls) for cls in uf.classes())


def reference_thin_c_iii(pms):
    """Axiom (c-iii) on a thin C as one ``middle.get`` per square of
    Arr(W), the squares listed by weq_squares: (structural problems,
    PropertyReport)."""
    rc = pms.rc
    cat = rc.cat
    structural, f_wit, usable = [], [], set()
    for w in rc.weq:
        entry = pms.factorization.get(w)
        if entry is None:
            f_wit.append((w, "no factorization"))
            continue
        u, mid, v = entry
        if u not in cat.src or v not in cat.src or mid not in cat.objects:
            structural.append(Violation("factorization-ids", (w, u, mid, v), "unknown id"))
            continue
        if not (cat.src[u] == cat.src[w] and cat.tgt[u] == mid
                and cat.src[v] == mid and cat.tgt[v] == cat.tgt[w]):
            f_wit.append((w, "factorization mistyped"))
            continue
        usable.add(w)
        if not pms.in_u(u):
            f_wit.append((w, f"factor {u} not in U"))
        if not pms.in_v(v):
            f_wit.append((w, f"factor {v} not in V"))
    squares = weq_squares(rc)
    typed = 0
    for sq in squares:
        w, w2, _a, _b = sq
        if w not in usable or w2 not in usable:
            continue
        m = pms.middle.get(sq)
        if m is None:
            f_wit.append((sq, "no middle map"))
        elif m not in cat.src or (cat.src[m], cat.tgt[m]) != (
                pms.factorization[w][1], pms.factorization[w2][1]):
            f_wit.append((sq, f"middle map {m} mistyped"))
        else:
            typed += 1
    notes = []
    if typed < len(squares):
        notes.append("identity and pasting laws not checked: "
                     "the middle maps do not define a functor Arr(W) -> C")
    listed = set(squares)
    for what, unread in (("middle key(s) naming no square of Arr(W)",
                          [" ".join(sq) for sq in pms.middle if sq not in listed]),
                         ("factor key(s) not a weak equivalence",
                          [w for w in pms.factorization if not rc.is_weq(w)])):
        if unread:
            notes.append(f"{len(unread)} {what}, not checked; the first: {', '.join(unread[:3])}")
    return structural, PropertyReport("functorial-factorization", not f_wit, f_wit, notes)


def reference_axiom_report(pms):
    """verify_partial_model on a thin C with (b), (c-i), (c-ii) and
    (c-iii) decided by the scans above."""
    rc = pms.rc
    cat = rc.cat
    cat_report, rel_report = cat.validate(), validate_relative(rc)
    verdicts = [("a:relative-category", PropertyReport(
        "relative-category", cat_report.ok and rel_report.ok,
        [v.witness for v in cat_report.violations + rel_report.violations], [])),
        ("b:two-of-six", reference_two_of_six(rc))]
    for axiom, sub, in_sub, maps_at, search, words in (
            ("c-i:u-pushout-closure", pms.u_sub, pms.in_u, lambda u: cat.out_of(cat.src[u]),
             reference_pushout, ("pushout", "pushed-out", "U")),
            ("c-ii:v-pullback-closure", pms.v_sub, pms.in_v, lambda v: cat.into(cat.tgt[v]),
             reference_pullback, ("pullback", "pulled-back", "V"))):
        kind, moved, name = words
        wit = unclosed_pairs(cat, sub) + [(x,) for x in sub if not rc.is_weq(x)]
        for x in sub:
            for f in maps_at(x):
                found = search(cat, x, f)
                if found is None:
                    wit.append((x, f, f"no {kind}"))
                elif not in_sub(found.leg_g):
                    wit.append((x, f, f"{moved} leg {found.leg_g} not in {name}"))
        verdicts.append((axiom, PropertyReport(axiom.split(":")[1], not wit, wit, [])))
    structural, c_iii = reference_thin_c_iii(pms)
    verdicts.append(("c-iii:functorial-factorization", c_iii))
    return AxiomReport(cat_report.structural + structural, verdicts)


# -- calculus data broken on purpose ---------------------------------------------

SABOTAGES = ("deleted-middle", "mistyped-middle", "non-square-middle",
             "dropped-factorization", "u-not-closed", "v-not-closed")


def sabotaged(pms, how):
    """A copy of ``pms`` with its data broken in one way of SABOTAGES,
    each aimed at the last non-identity weak equivalence (or square)
    where there is one: a middle map deleted, or replaced by a morphism
    with other ends; middle keys naming no square (one of an unmarked
    morphism or an unknown id, and squares with a or b replaced by an
    identity with the wrong target); a factorization dropped; U or V
    missing the composite of a composable pair of its own maps."""
    rc = pms.rc
    cat = rc.cat
    u_sub, v_sub = list(pms.u_sub), list(pms.v_sub)
    factorization, middle = dict(pms.factorization), dict(pms.middle)
    proper = [w for w in rc.weq if not cat.is_identity(w)]
    squares = [sq for sq in middle if sq[0] != sq[1]] or list(middle)
    if how == "deleted-middle" and squares:
        del middle[squares[-1]]
    elif how == "mistyped-middle" and squares:
        sq = squares[-1]
        ends = (cat.src[middle[sq]], cat.tgt[middle[sq]])
        middle[sq] = next((m for m in reversed(cat.morphisms)
                           if (cat.src[m], cat.tgt[m]) != ends), "no-such-map")
    elif how == "non-square-middle":
        m = next((m for m in cat.morphisms if not rc.is_weq(m)), "no-such-map")
        middle[(m, m, m, m)] = m
        # a square with its a (or b) replaced by an identity at the right
        # source and the wrong target: every id marked, one end off
        for i, end in ((2, cat.src), (3, cat.tgt)):
            sq = next((sq for sq in reversed(squares) if end[sq[0]] != end[sq[1]]), None)
            if sq is not None:
                middle[sq[:i] + (cat.identity[end[sq[0]]],) + sq[i + 1:]] = middle[sq]
    elif how == "dropped-factorization":
        del factorization[(proper or rc.weq)[-1]]
    elif how in ("u-not-closed", "v-not-closed"):
        pairs = [(f, g) for f in proper for g in cat.out_of(cat.tgt[f])
                 if g in proper and not cat.is_identity(cat.compose(g, f))]
        if pairs:
            f, g = pairs[-1]
            kept = [m for m in rc.weq if m != cat.compose(g, f)]
            if how == "u-not-closed":
                u_sub = kept
            else:
                v_sub = kept
    return PartialModelStructure(rc, u_sub, v_sub, factorization, middle)


def thin_decision_counts(seeds):
    """Compare every decision read from rows with its reference above on
    ``random_preorder_relcat(seed, max_objects=6)`` for each seed: raw
    (two-of-six, two-of-three, the pushout of every span and the
    pullback of every cospan, pi0 of the nerve), with the trivial
    calculus data, and with one copy sabotaged as SABOTAGES[seed % 6]
    (both axiom reports in full).  Raises AssertionError at the first
    seed that differs; returns what was compared, counted."""
    from pmcat.fincat import find_pullback, find_pushout
    from pmcat.pmc import trivial_partial_model_structure, verify_partial_model
    from pmcat.relcat import check_two_of_six, check_two_of_three, random_preorder_relcat
    from pmcat.sset import nerve, pi0
    counts = dict.fromkeys(("documents", "two-of-six reports", "pushouts and pullbacks",
                            "pi0 partitions", "axiom reports", "failing axiom reports"), 0)
    for seed in seeds:
        rc = random_preorder_relcat(seed, max_objects=6)
        cat = rc.cat
        assert check_two_of_six(rc) == reference_two_of_six(rc), (seed, "two-of-six")
        assert check_two_of_three(rc) == reference_two_of_three(rc), (seed, "two-of-three")
        for f in cat.morphisms:
            for g in cat.out_of(cat.src[f]):
                assert find_pushout(cat, f, g) == reference_pushout(cat, f, g), (seed, f, g)
            for g in cat.into(cat.tgt[f]):
                assert find_pullback(cat, f, g) == reference_pullback(cat, f, g), (seed, f, g)
            counts["pushouts and pullbacks"] += (len(cat.out_of(cat.src[f]))
                                                 + len(cat.into(cat.tgt[f])))
        s = nerve(cat, 1)
        assert pi0(s) == reference_pi0(s), (seed, "pi0")
        pms = trivial_partial_model_structure(rc)
        for p in (pms, sabotaged(pms, SABOTAGES[seed % len(SABOTAGES)])):
            report = verify_partial_model(p)
            assert report.to_dict() == reference_axiom_report(p).to_dict(), (seed, "axioms")
            counts["failing axiom reports"] += not report.passed
        counts["documents"] += 1
        counts["two-of-six reports"] += 1
        counts["pi0 partitions"] += 1
        counts["axiom reports"] += 2
    return counts
