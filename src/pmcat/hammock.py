"""Three-arrow zigzag mapping spaces and the homotopy category.

A map from A to B in the localized category is modelled by a zigzag

    A <--l-- X --m--> Y <--r-- B

whose outer maps l and r are weak equivalences.  A zigzag is its arrow
triple (l, m, r), as the diagram engine lists it; the triple fixes its
ends, A = tgt l and B = src r.  Zigzags with fixed endpoints form a
category (morphisms are componentwise weak equivalences commuting with
all structure maps), the mapping space is its nerve, and hom-sets of the
homotopy category are its connected components.  homotopy_category
returns ``(ho_cat, class_of)``: the class-level FinCategory and the map
from each triple to its class.  Composition of classes is carried out by
explicit calculus moves: merge the wrong-way pair, factor it, pull the
one middle map back along the V-part and push the other forward along
the U-part.

An independent cross-check is provided by a bounded word-rewriting
oracle over alternating zigzags of arbitrary length, quotiented by the
congruence generated by composing adjacent same-direction maps,
deleting identities, cancelling a marked map against its formal
inverse, and sliding a forward map across a commutative square of
marked maps.
"""

from dataclasses import dataclass

from ._util import UnionFind
from .fincat import FinCategory, StructuralError
from .relcat import diagram_category, diagram_transitions, ARROW, WEQ_BACK
from .pmc import CalculusError
from .sset import nerve


HAMMOCK = (WEQ_BACK, ARROW, WEQ_BACK)
ORACLE_WORD_CAP = 500_000     # words one oracle call may enumerate


def zigzag_category(rc, a, b):
    """Complete enumeration of zigzags a ~> b and their morphisms.

    Objects are diagrams (A, X, Y, B), (left, mid, right); morphisms are
    componentwise weak equivalences with identity components at the
    fixed ends A and B.
    """
    cat = rc.cat
    if a not in set(cat.objects) or b not in set(cat.objects):
        raise StructuralError(f"unknown endpoints ({a}, {b})")
    return diagram_category(rc, HAMMOCK, fixed=(a, b))


def mapping_space(rc, a, b, n_max):
    """Nerve of the zigzag category."""
    return nerve(zigzag_category(rc, a, b), n_max)


def ho_compose(pms, z1, z2):
    """Normalized composite of composable zigzags via calculus moves.

    Zigzags are arrow triples (l, m, r).  Steps: (1) merge the two
    wrong-way maps through the shared endpoint into one backward marked
    map; (2) factor it as v.u; (3) pull the first middle map back along v
    and push the second forward along u; (4) compose the remaining
    same-direction maps.
    """
    cat = pms.rc.cat
    l1, m1, r1 = z1
    l2, m2, r2 = z2
    if cat.src[r1] != cat.tgt[l2]:
        raise StructuralError(f"zigzags do not compose: {z1} then {z2}")
    back = cat.compose(r1, l2)                    # X2 -> Y1, marked
    u, mid_obj, v = pms.factor(back)
    pb = pms.pullback(v, m1)                      # cospan Y1 <- M, X1 ->
    q, p = pb.leg_f, pb.leg_g                     # q: P -> M, p: P -> X1
    po = pms.pushout(u, m2)                       # span M <- X2 -> Y2
    mq, uq = po.leg_f, po.leg_g                   # mq: M -> Q, uq: Y2 -> Q
    out = (cat.compose(l1, p), cat.compose(mq, q), cat.compose(uq, r2))
    if not (pms.rc.is_weq(out[0]) and pms.rc.is_weq(out[2])):
        raise CalculusError(f"composite zigzag has unmarked outer maps: {out}")
    return out


class HoConsistencyError(ValueError):
    """Class-level composition failed to be well defined or lawful."""


def homotopy_category(pms):
    """The homotopy category as ``(ho_cat, class_of)``.

    ``ho_cat`` is a FinCategory with one morphism per class of zigzags,
    and ``class_of`` maps each zigzag, the arrow triple (l, m, r), to its
    class.  The classes from a to b are the components of the zigzags
    a ~> b under the maps between them, read off the diagram engine
    without building the zigzag category.  Composition is induced by
    ho_compose on every pair of representatives (well-definedness is
    asserted, not assumed) and the category laws are re-verified
    exhaustively at class level."""
    rc = pms.rc
    cat = rc.cat
    classes = {}          # (a, b) -> class ids
    class_of = {}         # (l, m, r) -> class id
    members = {}          # class id -> its zigzags
    rows = []
    for a in cat.objects:
        for b in cat.objects:
            diagrams, transitions = diagram_transitions(rc, HAMMOCK, (a, b))
            uf = UnionFind(range(len(diagrams)))
            for i, j, _comps in transitions:
                uf.union(i, j)
            classes[(a, b)] = []
            for i, group in enumerate(uf.classes()):
                cid = f"[{a}=>{b}#{i}]"
                rows.append((cid, a, b))
                classes[(a, b)].append(cid)
                members[cid] = frozenset(diagrams[d][1] for d in group)
                for z in members[cid]:
                    class_of[z] = cid
    objects = list(cat.objects)
    identity = {a: class_of[(cat.identity[a],) * 3] for a in objects}
    comp = {}
    for a in objects:
        for b in objects:
            for c in objects:
                for cid1 in classes[(a, b)]:
                    for cid2 in classes[(b, c)]:
                        results = {class_of[ho_compose(pms, z1, z2)]
                                   for z1 in members[cid1] for z2 in members[cid2]}
                        if len(results) != 1:
                            raise HoConsistencyError(
                                f"composition of {cid1} and {cid2} is not "
                                f"well defined: {sorted(results)}")
                        comp[(cid1, cid2)] = results.pop()
    ho_cat = FinCategory(objects, rows, identity, comp)
    report = ho_cat.validate()
    if not report.ok:
        raise HoConsistencyError("class-level laws fail:\n" + report.describe())
    return ho_cat, class_of


# -- bounded localization oracle ---------------------------------------------

FWD, BWD = 1, -1


@dataclass
class OracleReport:
    """Classes of bounded alternating zigzags between two objects.

    The congruence is saturated over all words up to ``bound`` but
    classes are counted on words of length at most ``bound - 2``: one
    rewrite changes length by at most two, so the outer collar absorbs
    detours and keeps window-edge words (whose reductions would need to
    leave the window) from polluting the count.
    """

    source: str
    target: str
    bound: int
    classes: tuple          # classes meeting the core window
    count: int
    stable: bool
    all_classes: tuple      # full partition of words up to the bound

    def class_of(self, word):
        for i, cls in enumerate(self.all_classes):
            if word in cls:
                return i
        return None


def _enumerate_words(rc, a, b, bound):
    cat = rc.cat
    fwd_steps = {o: [m for m in cat.out_of(o) if not cat.is_identity(m)]
                 for o in cat.objects}
    bwd_steps = {o: [m for m in cat.into(o) if rc.is_weq(m) and not cat.is_identity(m)]
                 for o in cat.objects}
    words = []

    def dfs(at, word):
        if len(words) > ORACLE_WORD_CAP:
            raise StructuralError("oracle word space exceeds cap")
        if at == b:
            words.append(tuple(word))
        if len(word) == bound:
            return
        for m in fwd_steps[at]:
            word.append((FWD, m))
            dfs(cat.tgt[m], word)
            word.pop()
        for m in bwd_steps[at]:
            word.append((BWD, m))
            dfs(cat.src[m], word)
            word.pop()

    dfs(a, [])
    return words


def _oracle_partition(rc, a, b, bound):
    """Union-find over bounded words, interned as their positions in the
    enumeration, under the rewriting congruence.

    Each rewrite is recorded once, from its longer side (composing or
    cancelling an adjacent pair), or for a slide from the side with the
    forward map first; the reverse rewrites (splitting a map, inserting a
    cancelling pair, sliding back) would only find the same pairs again.
    """
    cat = rc.cat
    words = _enumerate_words(rc, a, b, bound)
    position = {word: i for i, word in enumerate(words)}
    uf = UnionFind(range(len(words)))

    non_id = [m for m in cat.morphisms if not cat.is_identity(m)]
    w_non_id = [m for m in non_id if rc.is_weq(m)]
    slides = {}
    for f in non_id:
        for w in w_non_id:
            if cat.tgt[f] != cat.tgt[w]:
                continue
            for v in w_non_id:
                if cat.tgt[v] != cat.src[f]:
                    continue
                for g in non_id:
                    if (cat.src[g] == cat.src[v] and cat.tgt[g] == cat.src[w]
                            and cat.compose(f, v) == cat.compose(w, g)):
                        slides.setdefault((f, w), []).append((v, g))

    def note(i, new):
        j = position.get(new)
        if j is not None:
            uf.union(i, j)

    for idx, word in enumerate(words):
        for i in range(len(word) - 1):
            (d1, m1), (d2, m2) = word[i], word[i + 1]
            if d1 == d2:
                c = cat.compose(m2, m1) if d1 == FWD else cat.compose(m1, m2)
                mid = () if cat.is_identity(c) else ((d1, c),)
                note(idx, word[:i] + mid + word[i + 2:])
            elif m1 == m2:      # a map and its formal inverse; backward maps are marked
                note(idx, word[:i] + word[i + 2:])
            if d1 == FWD and d2 == BWD and (m1, m2) in slides:
                for v, g in slides[(m1, m2)]:
                    note(idx, word[:i] + ((BWD, v), (FWD, g)) + word[i + 2:])
    return tuple(sorted(tuple(sorted(words[i] for i in cls)) for cls in uf.classes()))


def _core_classes(partition, core_len):
    return tuple(cls for cls in partition
                 if any(len(w) <= core_len for w in cls))


ORACLE_MIN_BOUND = 4


def bounded_localization_oracle(rc, a, b, length_bound):
    """Classes of alternating zigzags a ~> b under the rewrite
    congruence, saturated on words up to length_bound and counted on the
    core window (two shorter), with a stability flag comparing against
    the same computation at length_bound - 2."""
    if length_bound < ORACLE_MIN_BOUND:
        raise StructuralError(f"the oracle needs length_bound >= {ORACLE_MIN_BOUND}")
    full = _oracle_partition(rc, a, b, length_bound)
    classes = _core_classes(full, length_bound - 2)
    smaller_full = _oracle_partition(rc, a, b, length_bound - 2)
    smaller = _core_classes(smaller_full, length_bound - 4)
    return OracleReport(a, b, length_bound, classes, len(classes),
                        len(classes) == len(smaller), full)


@dataclass
class SaturationReport:
    """Which morphisms become invertible after localizing, versus the
    marking.  ``mode`` records how invertibility was decided."""

    mode: str
    convention: str
    verdict: str            # "pass" | "fail" | "inconclusive"
    unmarked_but_iso: tuple
    marked_but_not_iso: tuple
    notes: list

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_dict(self):
        return {
            "mode": self.mode,
            "zigzag_morphism_convention": self.convention,
            "verdict": self.verdict,
            "unmarked_but_iso": list(self.unmarked_but_iso),
            "marked_but_not_iso": list(self.marked_but_not_iso),
            "notes": list(self.notes),
        }


def check_saturation(pms):
    """A map should be marked exactly when its class becomes invertible
    in the homotopy category.  Requires a verified structure; see
    diagnostic_saturation for the oracle-driven variant on a raw
    relative category."""
    rc = pms.rc
    cat = rc.cat
    ho_cat, class_of = homotopy_category(pms)
    isos = {f for f in cat.morphisms if ho_cat.is_iso(
        class_of[(cat.identity[cat.src[f]], f, cat.identity[cat.tgt[f]])])}
    unmarked = tuple(f for f in cat.morphisms if f in isos and not rc.is_weq(f))
    not_iso = tuple(f for f in rc.weq if f not in isos)
    verdict = "pass" if not unmarked and not not_iso else "fail"
    return SaturationReport(
        "verified-structure", "weq-components", verdict, unmarked, not_iso,
        ["invertibility decided by exhaustive two-sided inverse search "
         "over homotopy-category classes"])


def diagnostic_saturation(rc, length_bound=7):
    """Oracle-mode saturation check on a raw relative category.

    A morphism counts as invertible when some bounded word composes
    with it to the empty class on both sides.  Any instability of the
    involved word spaces makes the verdict inconclusive, never a false
    pass.
    """
    cat = rc.cat
    partitions = {}

    def classes_for(x, y):
        if (x, y) not in partitions:
            partitions[(x, y)] = bounded_localization_oracle(rc, x, y, length_bound)
        return partitions[(x, y)]

    def same_class(rep, w1, w2):
        c1, c2 = rep.class_of(w1), rep.class_of(w2)
        return c1 is not None and c1 == c2

    isos = []
    for f in cat.morphisms:
        a, b = cat.src[f], cat.tgt[f]
        if cat.is_identity(f):
            isos.append(f)
            continue
        loop_a = classes_for(a, a)
        loop_b = classes_for(b, b)
        f_word = ((FWD, f),)
        if any(same_class(loop_a, f_word + g, ()) and same_class(loop_b, g + f_word, ())
               for g in _enumerate_words(rc, b, a, length_bound - 1)):
            isos.append(f)
    iso_set = set(isos)
    unmarked = tuple(f for f in isos if not rc.is_weq(f))
    not_iso = tuple(f for f in rc.weq if f not in iso_set)
    unstable = sorted(k for k, rep in partitions.items() if not rep.stable)
    if unstable and not unmarked and not not_iso:
        verdict = "inconclusive"
    else:
        verdict = "pass" if not unmarked and not not_iso else "fail"
    notes = [f"bound {length_bound}"]
    if unstable:
        notes.append(f"unstable word spaces: {unstable}")
    return SaturationReport("diagnostic-oracle", "words", verdict,
                            unmarked, not_iso, notes)
