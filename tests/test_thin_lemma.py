"""The thin lemma (parallel morphisms of a thin category are equal) in the
pushout and pullback search, the enumeration of diagram maps, the
associativity scan and the axioms of a calculus structure: on a thin
category they compose nothing, and must find exactly what the composing
scans below and in conftest find, or what the same call finds with
``is_thin`` forced to False.  A category that is not thin still
composes."""

import re
from operator import itemgetter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from pmcat.document import DocumentError, parse_document, serialize_document
from pmcat.fincat import (
    CoconeWitness, FinCategory, StructuralError, find_pullback, find_pushout,
)
from pmcat.pmc import (
    CalculusError, PartialModelStructure, trivial_partial_model_structure,
    verify_partial_model,
)
from pmcat.fixtures import FIXTURES, build
from pmcat.hammock import HAMMOCK
from pmcat.relcat import (
    ARROW, WEQ, WEQ_BACK, RelCategory, _extended_transitions, _shaped_diagrams,
    diagram_category, diagram_transitions, random_preorder_relcat, unclosed_pairs,
)
from conftest import cyclic_group, reference_pullback, reference_pushout

seeds = st.integers(min_value=0, max_value=10 ** 6)

B2_SHAPE = (ARROW, WEQ, WEQ_BACK, WEQ, ARROW)


# -- composing references ----------------------------------------------------

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
        assert find_pushout(cat, f, g) == reference_pushout(cat, f, g), (f, g)
    for f, g in cospans:
        assert find_pullback(cat, f, g) == reference_pullback(cat, f, g), (f, g)


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


def extension_loop(rc, slots, fixed=None):
    """diagram_transitions by the loop that extends the components one
    vertex at a time, the path of a category that is not thin."""
    first, last = fixed if fixed is not None else (None, None)
    diagrams = _shaped_diagrams(rc, slots, first, last)
    return diagrams, _extended_transitions(rc, slots, fixed, diagrams)


def hammocks(rc):
    return [(HAMMOCK, (a, b)) for a in rc.cat.objects for b in rc.cat.objects]


@pytest.mark.parametrize("name", FIXTURES)
def test_the_relation_lists_what_the_extension_loop_lists_on_the_fixtures(name):
    # A_k and B_k for k <= 3, every hammock with fixed ends, Arr(W)
    built = build(name)
    rc = getattr(built, "rc", built)
    assert rc.cat.is_thin()
    shapes = ([((ARROW,) * k, None) for k in range(4)]
              + [(B2_SHAPE[:4] + (ARROW,) * (k - 1), None) for k in (2, 3)]
              + [((WEQ,), None)] + hammocks(rc))
    for slots, fixed in shapes:
        assert diagram_transitions(rc, slots, fixed) == extension_loop(rc, slots, fixed), (
            slots, fixed)


def test_the_relation_lists_what_the_extension_loop_lists_on_random_preorders():
    inputs = 0
    for seed in range(200):
        rc = random_preorder_relcat(seed, max_objects=6)
        assert rc.cat.is_thin()
        for slots, fixed in [((WEQ,), None)] + hammocks(rc):
            assert diagram_transitions(rc, slots, fixed) == extension_loop(rc, slots, fixed), (
                seed, slots, fixed)
            inputs += 1
    assert inputs > 1500


def test_a_diagram_category_keeps_its_relation():
    # bit j of relation[i] is set exactly when hom(i-th, j-th) is not empty
    rc = build("B2").rc
    for slots in ((WEQ,), (ARROW, ARROW), B2_SHAPE):
        cat = diagram_category(rc, slots)
        objects = cat.objects
        assert len(cat.relation) == len(objects)
        for i, a in enumerate(objects):
            assert cat.relation[i] == sum(1 << j for j, b in enumerate(objects)
                                          if cat.hom(a, b))
    assert diagram_category(z2(), (WEQ,)).relation is None


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
    pushouts = [find_pushout(cat, f, g) for f, g in spans]
    pullbacks = [find_pullback(cat, f, g) for f, g in cospans]
    searched = len(calls)
    shapes = ((WEQ,), (ARROW, ARROW), B2_SHAPE)
    transitions = [diagram_transitions(rc, slots) for slots in shapes]
    assert 0 < searched < len(calls)
    assert pushouts == [reference_pushout(cat, f, g) for f, g in spans]
    assert pullbacks == [reference_pullback(cat, f, g) for f, g in cospans]
    assert parts(pushouts[spans.index(("g1", "id:*"))])[:3] == ("*", "id:*", "g1")
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


# -- witnesses keyed by their ends ---------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seeds)
def test_witnesses_keyed_by_ends_are_the_searched_ones(seed):
    pms = trivial_partial_model_structure(random_preorder_relcat(seed, max_objects=6))
    cat = pms.rc.cat
    spans, cospans = spans_and_cospans(cat)
    for _ in range(2):      # the second round is answered from the memo alone
        for move, search, pairs in ((pms.pushout, find_pushout, spans),
                                    (pms.pullback, find_pullback, cospans)):
            for a, f in pairs:
                want = search(cat, a, f)
                if want is None:
                    named = f"of {re.escape(a)} along {re.escape(f)}$"
                    with pytest.raises(CalculusError, match=named):
                        move(a, f)
                else:
                    assert parts(move(a, f)) == parts(want), (a, f)
    # one search per pair of ends: targets of a span, sources of a cospan
    assert len(pms._witnesses) == (len({(cat.tgt[a], cat.tgt[f]) for a, f in spans})
                                   + len({(cat.src[a], cat.src[f]) for a, f in cospans}))
    # a pair that is no span (cospan) raises, though its ends are remembered
    for a in cat.morphisms:
        if not cat.is_identity(a):
            with pytest.raises(StructuralError, match="not a span"):
                pms.pushout(a, cat.identity[cat.tgt[a]])
            with pytest.raises(StructuralError, match="not a cospan"):
                pms.pullback(a, cat.identity[cat.src[a]])


# -- the axioms of a thin calculus structure, against the composing paths ------

CALCULUS_HEADS = ("weq", "u", "v", "factor", "middle")


def axiom_outcome(text):
    """The axiom report of a document as a dict, its parse error, or None
    for a document that parses to no calculus structure."""
    try:
        value = parse_document(text)
    except DocumentError as e:
        return str(e)
    if not isinstance(value, PartialModelStructure):
        return None
    return verify_partial_model(value).to_dict()


def not_thin():
    """Every category answers ``is_thin`` with False: the composing paths."""
    return patch.object(FinCategory, "is_thin", lambda self: False)


@settings(max_examples=60, deadline=None)
@given(seeds, st.data())
def test_thin_axiom_reports_match_the_composing_reports(seed, data):
    # an edit deletes a calculus line or puts another id of the same kind
    # (the object of a factorization, a morphism elsewhere) in one place
    rc = random_preorder_relcat(seed, max_objects=6)
    lines = serialize_document(trivial_partial_model_structure(rc)).splitlines()
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        calculus = [i for i, line in enumerate(lines) if line.split()[0] in CALCULUS_HEADS]
        if not calculus:
            break
        i = data.draw(st.sampled_from(calculus), label="line")
        words = lines[i].split()
        if data.draw(st.booleans(), label="delete"):
            del lines[i]
        else:
            j = data.draw(st.integers(1, len(words) - 1), label="token")
            ids = rc.cat.objects if (words[0], j) == ("factor", 3) else rc.cat.morphisms
            words[j] = data.draw(st.sampled_from(ids), label="replacement")
            lines[i] = " ".join(words)
    text = "\n".join(lines) + "\n"
    thin = axiom_outcome(text)
    with not_thin():
        assert axiom_outcome(text) == thin


# the first seeds whose preorder has at least three objects
RETYPE_SEEDS = [s for s in range(40)
                if len(random_preorder_relcat(s, max_objects=4).cat.objects) > 2][:6]


@pytest.mark.parametrize("seed", RETYPE_SEEDS)
def test_thin_c_iii_matches_the_composing_check_on_every_retyped_entry(seed):
    # every single edit that puts into a factorization or a middle map
    # another id sharing an end with the one it replaces: the typing
    # checks are all that is left of (c-iii) on a thin C
    rc = random_preorder_relcat(seed, max_objects=4)
    cat = rc.cat
    lines = serialize_document(trivial_partial_model_structure(rc)).splitlines()
    edits = 0
    for i, line in enumerate(lines):
        words = line.split()
        for j in {"factor": (2, 3, 4), "middle": (5,)}.get(words[0], ()):
            old = words[j]
            ids = cat.objects if (words[0], j) == ("factor", 3) else [
                m for m in cat.morphisms
                if cat.src[m] == cat.src[old] or cat.tgt[m] == cat.tgt[old]]
            for new in ids:
                if new != old:
                    edited = " ".join(words[:j] + [new] + words[j + 1:])
                    text = "\n".join(lines[:i] + [edited] + lines[i + 1:]) + "\n"
                    thin = axiom_outcome(text)
                    with not_thin():
                        assert axiom_outcome(text) == thin, edited
                    edits += 1
    assert edits > 10


# -- associativity decided by typing -------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seeds, st.data())
def test_thin_law_scan_matches_the_full_scan_on_a_corrupted_table(seed, data):
    cat = random_preorder_relcat(seed, max_objects=5).cat
    comp = dict(cat.composites())
    key = data.draw(st.sampled_from(sorted(comp)), label="entry")
    value = data.draw(st.sampled_from((None,) + cat.morphisms), label="value")
    if value is None:
        del comp[key]
    else:
        comp[key] = value
    rows = [(m, cat.src[m], cat.tgt[m]) for m in cat.morphisms]

    def scan():
        return FinCategory(cat.objects, rows, cat.identity, comp)._law_scan().to_dict()
    thin = scan()
    with not_thin():
        assert scan() == thin
    assert thin["ok"] == (comp == dict(cat.composites()))


# -- unclosed pairs follow out_of ---------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seeds, st.data())
def test_unclosed_pairs_keep_the_order_of_members(seed, data):
    cat = random_preorder_relcat(seed, max_objects=6).cat
    members = data.draw(st.lists(st.sampled_from(cat.morphisms), unique=True), label="members")
    for order in (members, members[::-1]):
        every_pair = [(f, g) for f in order for g in order if cat.tgt[f] == cat.src[g]
                      and cat.compose(g, f) not in set(order)]
        assert unclosed_pairs(cat, order) == every_pair


def test_u_closure_is_scanned_apart_from_w():
    # W is every map of 0 < 1 < 2, U leaves out the composite 02: the
    # scan of W finds nothing, so c-i must scan U itself
    text = ("relcat-version 1\nobject 0\nobject 1\nobject 2\nmorphism 01 0 1\n"
            "morphism 12 1 2\nmorphism 02 0 2\ncompose 01 12 02\n"
            "weq 01\nweq 12\nweq 02\nu 01\nu 12\n")
    report = axiom_outcome(text)
    assert report["axioms"]["a:relative-category"]["passed"]
    assert ["01", "12"] in report["axioms"]["c-i:u-pushout-closure"]["witnesses"]
