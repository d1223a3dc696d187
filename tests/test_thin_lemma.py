"""The thin lemma (parallel morphisms of a thin category are equal) in the
pushout and pullback search and in the enumeration of diagram maps:
on a thin category they compose nothing, and must find exactly what the
composing scans below find.  A category that is not thin still composes."""

from operator import itemgetter

from hypothesis import given, settings, strategies as st

from pmcat.fincat import CoconeWitness, find_pullback, find_pushout
from pmcat.relcat import (
    ARROW, WEQ, WEQ_BACK, RelCategory, _shaped_diagrams, diagram_transitions,
    random_preorder_relcat,
)
from conftest import cyclic_group

seeds = st.integers(min_value=0, max_value=10 ** 6)

B2_SHAPE = (ARROW, WEQ, WEQ_BACK, WEQ, ARROW)


# -- composing references ----------------------------------------------------

def composing_pushout(cat, f, g):
    """(apex, leg_f, leg_g, comparisons) of the first universal cocone in
    scan order, every square decided by composing; None if there is none."""
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
            return apex, p, q, tuple(comparisons)
    return None


def composing_pullback(cat, f, g):
    return composing_pushout(cat.opposite(), f, g)


def parts(wit):
    return None if wit is None else (wit.apex, wit.leg_f, wit.leg_g, wit.comparisons)


def composing_transitions(rc, slots):
    """diagram_transitions with no fixed end, each square closed by composing."""
    cat = rc.cat
    diagrams = _shaped_diagrams(rc, slots, None, None)
    index = {arrows or objs: i for i, (objs, arrows) in enumerate(diagrams)}
    weq_out = {o: [m for m in cat.out_of(o) if rc.is_weq(m)] for o in cat.objects}
    out = []
    for a, (objs, arrows) in enumerate(diagrams):
        partial = [((c,), ()) for c in weq_out[objs[0]]]
        for i, (slot, arrow) in enumerate(zip(slots, arrows)):
            nxt = []
            for comps, targets in partial:
                for c in weq_out[objs[i + 1]]:
                    x, y = (c, comps[-1]) if slot.backward else (comps[-1], c)
                    for b in cat.hom(cat.tgt[x], cat.tgt[y]):
                        if (cat.compose(b, x) == cat.compose(y, arrow)
                                and (not slot.marked or rc.is_weq(b))):
                            nxt.append((comps + (c,), targets + (b,)))
            partial = nxt
        found = [(index[targets or (cat.tgt[comps[0]],)], comps) for comps, targets in partial]
        found.sort(key=itemgetter(0))
        out.extend((a, b, comps) for b, comps in found)
    return diagrams, out


def spans_and_cospans(cat):
    spans = [(f, g) for f in cat.morphisms for g in cat.out_of(cat.src[f])]
    cospans = [(f, g) for f in cat.morphisms for g in cat.into(cat.tgt[f])]
    return spans, cospans


def z2():
    cat = cyclic_group(2)
    return RelCategory(cat, cat.morphisms)


# -- the thin search finds what composing finds ------------------------------

@settings(max_examples=40, deadline=None)
@given(seeds)
def test_thin_pushouts_and_pullbacks_match_the_composing_search(seed):
    cat = random_preorder_relcat(seed, max_objects=6).cat
    assert cat.is_thin()
    spans, cospans = spans_and_cospans(cat)
    for f, g in spans:
        assert parts(find_pushout(cat, f, g)) == composing_pushout(cat, f, g), (f, g)
    for f, g in cospans:
        assert parts(find_pullback(cat, f, g)) == composing_pullback(cat, f, g), (f, g)


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_thin_diagram_transitions_match_the_composing_scan(seed):
    rc = random_preorder_relcat(seed, max_objects=6)
    for slots in ((WEQ,), (ARROW, ARROW)):
        assert diagram_transitions(rc, slots) == composing_transitions(rc, slots), slots


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_thin_b2_shape_transitions_match_the_composing_scan(seed):
    # B_2 of a four-object preorder can have 240,000 maps, which the
    # composing scan takes seconds over; three objects keep it under 0.5 s
    rc = random_preorder_relcat(seed, max_objects=3)
    assert diagram_transitions(rc, B2_SHAPE) == composing_transitions(rc, B2_SHAPE)


def test_a_group_still_composes(monkeypatch):
    # B(Z/2) is not thin: a shortcut would take all four pairs of legs for
    # cocones and find no pushout of (g1, id), and close squares that do
    # not commute
    rc = z2()
    cat = rc.cat
    assert not cat.is_thin()
    calls = []
    real = cat.compose
    monkeypatch.setattr(cat, "compose", lambda g, f: calls.append((g, f)) or real(g, f))
    spans, cospans = spans_and_cospans(cat)
    pushouts = [parts(find_pushout(cat, f, g)) for f, g in spans]
    pullbacks = [parts(find_pullback(cat, f, g)) for f, g in cospans]
    searched = len(calls)
    shapes = ((WEQ,), (ARROW, ARROW), B2_SHAPE)
    transitions = [diagram_transitions(rc, slots) for slots in shapes]
    assert 0 < searched < len(calls)
    assert pushouts == [composing_pushout(cat, f, g) for f, g in spans]
    assert pullbacks == [composing_pullback(cat, f, g) for f, g in cospans]
    assert pushouts[spans.index(("g1", "id:*"))][:3] == ("*", "id:*", "g1")
    assert transitions == [composing_transitions(rc, slots) for slots in shapes]


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_verify_rejects_a_corrupted_thin_witness(seed):
    # the search trusts the lemma, the re-check does not: it composes
    # every cocone and comparison again
    cat = random_preorder_relcat(seed, max_objects=6).cat
    for f, g in spans_and_cospans(cat)[0]:
        wit = find_pushout(cat, f, g)
        if wit is None:
            continue
        assert wit.verify(cat, f, g)
        (competitor, h), *rest = wit.comparisons
        wrong = next((m for m in cat.morphisms if m != h), None)
        if wrong is not None:
            swapped = CoconeWitness(wit.apex, wit.leg_f, wit.leg_g,
                                    ((competitor, wrong),) + tuple(rest))
            assert not swapped.verify(cat, f, g)
        dropped = CoconeWitness(wit.apex, wit.leg_f, wit.leg_g, tuple(rest))
        assert not dropped.verify(cat, f, g)
