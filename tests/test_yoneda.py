import re

import pytest

from pmcat import yoneda
from pmcat.fincat import StructuralError, check_functor
from pmcat.fixtures import FIXTURES, build
from pmcat.relcat import RelCategory, random_preorder_relcat, validate_relative
from pmcat.pmc import trivial_partial_model_structure
from pmcat.sset import pi0, nerve, nerve_map_tables, normalized_boundaries
from pmcat.yoneda import (
    presheaf_values, presheaf_action, check_presheaf_action, weq_induced_presheaf_maps,
    verify_yoneda_relative, MODEL_NOTE, _cone_acyclic,
)
from pmcat.hammock import homotopy_category, zigzag_category
from conftest import (
    chain_poset, boolean_lattice, terminal_category, cyclic_group, poset_category,
    simplicial_map_violations,
)


def iw_rc():
    cat = chain_poset(1)
    return RelCategory(cat, cat.morphisms)


def i1_rc():
    return RelCategory(chain_poset(1), [])


def b2_rc():
    cat = boolean_lattice()
    return RelCategory(cat, cat.morphisms)


def p4_rc():
    return RelCategory(chain_poset(3), ["02", "13"])


def test_point_value_is_single_point():
    rc = RelCategory(terminal_category(), [])
    value = presheaf_values(rc, 2)[("*", "*")].nerve
    assert value.size(0) == 1
    assert len(pi0(value)) == 1


def test_rigid_interval_values():
    # the value of the presheaf of A at B is keyed (B, A)
    table = presheaf_values(i1_rc(), 2)
    assert table[("0", "1")].nerve.size(0) == 1
    assert table[("1", "1")].nerve.size(0) == 1
    assert table[("1", "0")].nerve.size(0) == 0


def test_action_tables_are_functorial():
    for rc in (iw_rc(), i1_rc(), b2_rc(), p4_rc()):
        table = presheaf_values(rc, 2)
        for a in rc.cat.objects:
            action = presheaf_action(rc, a, table)
            assert list(action) == list(rc.weq)
            assert check_presheaf_action(rc, action) == []


def _move_an_object_image(F):
    """Send the first object of F's source to the next object of its
    target instead."""
    first, objects = F.source.objects[0], F.target.objects
    F.obj_map[first] = objects[(objects.index(F.obj_map[first]) + 1) % len(objects)]


def _corrupt_identity(action, g):
    """Move one object image of the action of the identity ``g``."""
    _move_an_object_image(action[g])
    return action


def test_check_presheaf_action_catches_a_corrupted_identity():
    rc = iw_rc()
    action = _corrupt_identity(presheaf_action(rc, "0", presheaf_values(rc, 2)), "id:0")
    bad = check_presheaf_action(rc, action)
    assert "action of identity id:0 is not the identity" in bad
    assert "action of 01.id:0 differs from the composite" in bad
    assert any(msg.startswith("action of id:0 is not a functor: ") for msg in bad)


def test_the_report_names_an_unlawful_action(monkeypatch):
    real = yoneda.presheaf_action

    def corrupted(rc, a, table):
        action = real(rc, a, table)
        return _corrupt_identity(action, "id:0") if a == "0" else action

    monkeypatch.setattr(yoneda, "presheaf_action", corrupted)
    report = verify_yoneda_relative(iw_rc(), 1)
    assert not report.passed
    assert {f[:2] for f in report.failures} == {("0", "action")}
    assert ("0", "action", "action of identity id:0 is not the identity") in report.failures


def test_the_report_names_an_induced_map_that_is_not_a_functor(monkeypatch):
    # one object image of the map that 01 induces at B = 1 is moved: that
    # map is recorded by the first line of check_functor's report, and the
    # checks that read its nerve map are skipped
    real = yoneda.weq_induced_presheaf_maps

    def corrupted(rc, w, table):
        maps = real(rc, w, table)
        _move_an_object_image(maps["1"])
        return maps

    monkeypatch.setattr(yoneda, "weq_induced_presheaf_maps", corrupted)
    report = verify_yoneda_relative(iw_rc(), 1)
    [(w, b, kind, detail)] = report.failures
    assert (w, b, kind) == ("01", "1", "not a functor")
    assert detail.startswith("violation: source-target ")


def assert_chain_images(F, source, target, move, steps):
    """The nerve map of the functor F sends each chain of the zigzag
    category ``source`` to the chain of images under the diagram map
    (``move`` on vertices and arrows, ``steps`` on components) in
    ``target``."""
    def image_of(m, h):
        return (target.components[h] == steps(source.components[m])
                and target.diagrams[target.src[h]] == move(*source.diagrams[source.src[m]])
                and target.diagrams[target.tgt[h]] == move(*source.diagrams[source.tgt[m]]))
    s, t = nerve(F.source, 3), nerve(F.target, 3)
    for n, table in nerve_map_tables(F, s, t).items():
        for x, y in zip(s.simplices[n], table):
            image = t.simplices[n][y]
            if n == 0:
                assert target.diagrams[image] == move(*source.diagrams[x])
            else:
                assert all(map(image_of, x, image)), (n, x, image)


def test_presheaf_maps_send_each_chain_to_its_image():
    rc = b2_rc()
    cat = rc.cat
    table = presheaf_values(rc, 3)
    for a in cat.objects:
        for g, F in presheaf_action(rc, a, table).items():
            b_prime, b = cat.src[g], cat.tgt[g]
            assert_chain_images(
                F, zigzag_category(rc, b_prime, a), zigzag_category(rc, b, a),
                lambda objs, arrows: ((b,) + objs[1:], (cat.compose(g, arrows[0]),) + arrows[1:]),
                lambda comps: (cat.identity[b],) + comps[1:])
    for w in rc.weq:
        a, a_prime = cat.src[w], cat.tgt[w]
        for b, F in weq_induced_presheaf_maps(rc, w, table).items():
            assert_chain_images(
                F, zigzag_category(rc, b, a_prime), zigzag_category(rc, b, a),
                lambda objs, arrows: (objs[:-1] + (a,),
                                      arrows[:-1] + (cat.compose(arrows[-1], w),)),
                lambda comps: comps[:-1] + (cat.identity[a],))


def violations(tables, s, t):
    """The reference: where ``tables`` fail to be a simplicial map from
    the nerve ``s`` to the nerve ``t``, checked simplex by simplex."""
    return simplicial_map_violations(tables, (s.faces, s.degeneracies),
                                     (t.faces, t.degeneracies), min(s.n_max, t.n_max))


def test_weq_induced_maps_are_simplicial():
    rc = iw_rc()
    table = presheaf_values(rc, 3)
    for b, F in weq_induced_presheaf_maps(rc, "01", table).items():
        s, t = table[(b, "1")].nerve, table[(b, "0")].nerve
        assert check_functor(F).ok
        assert violations(nerve_map_tables(F, s, t), s, t) == []


@pytest.mark.parametrize("n, expected", [(0, 4), (1, 8), (2, 4)])
def test_the_simplicial_reference_catches_a_corrupted_entry(n, expected):
    rc = iw_rc()
    table = presheaf_values(rc, 2)
    F = weq_induced_presheaf_maps(rc, "01", table)["1"]
    s, t = table[("1", "1")].nerve, table[("1", "0")].nerve
    tables = nerve_map_tables(F, s, t)
    assert violations(tables, s, t) == []
    tables[n][0] = (tables[n][0] + 1) % t.size(n)
    assert len(violations(tables, s, t)) == expected


def _to_point(cat, up_to):
    """The nerve of ``cat``, that of the point, and the map between them."""
    source, point = nerve(cat, up_to + 1), nerve(terminal_category(), up_to + 1)
    return source, point, {n: [0] * source.size(n) for n in range(up_to + 2)}


def _cone(s, t, tables, up_to):
    return _cone_acyclic(s, t, tables, normalized_boundaries(s, up_to),
                         normalized_boundaries(t, up_to + 1), up_to)


def test_cone_of_two_points_to_the_point_has_free_h1():
    # H_0: Z^2 -> Z is onto with kernel Z, so the cone has H_1 = Z
    s, t, tables = _to_point(poset_category(["x", "y"], lambda a, b: a == b), 1)
    assert violations(tables, s, t) == []
    assert not _cone(s, t, tables, 1)


def test_cone_of_bz2_to_the_point_has_torsion_h2():
    # H_1(B(Z/2)) = Z/2 and H_0 is an isomorphism: the cone has H_1 = 0
    # and H_2 = Z/2, a failure that only the torsion shows
    assert _cone(*_to_point(cyclic_group(2), 1), 1)
    s, t, tables = _to_point(cyclic_group(2), 2)
    assert violations(tables, s, t) == []
    assert not _cone(s, t, tables, 2)


def test_cone_of_an_identity_is_acyclic():
    s = nerve(cyclic_group(2), 3)
    assert _cone(s, s, {n: list(range(s.size(n))) for n in range(4)}, 2)


def test_interval_weq_induces_component_bijections():
    report = verify_yoneda_relative(iw_rc(), 1)
    assert report.passed, report.to_dict()
    assert report.checked_weqs == 1
    assert report.notes == [MODEL_NOTE]


def test_identities_always_pass():
    report = verify_yoneda_relative(i1_rc(), 1)
    assert report.passed
    assert report.checked_weqs == 0  # only identities are marked


def test_hom_comparison_boolean_lattice():
    report = verify_yoneda_relative(b2_rc(), 1)
    assert report.passed, report.to_dict()
    assert report.checked_pairs == 16


def test_each_value_is_built_once(monkeypatch):
    counts = {}
    for name in ("zigzag_category", "nerve", "normalized_boundaries"):
        def counted(*args, _real=getattr(yoneda, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(yoneda, name, counted)
    report = verify_yoneda_relative(build("B2").rc, 2)
    assert report.passed, report.to_dict()
    assert counts == {"zigzag_category": 16, "nerve": 16, "normalized_boundaries": 16}


def test_hom_comparison_matches_homotopy_category_everywhere():
    for rc in (iw_rc(), i1_rc()):
        pms = trivial_partial_model_structure(rc)
        ho_cat, _class_of = homotopy_category(pms)
        y_report = verify_yoneda_relative(rc, 1)
        assert y_report.passed
        table = presheaf_values(rc, 1)
        for a in rc.cat.objects:
            for b in rc.cat.objects:
                assert len(pi0(table[(a, b)].nerve)) == len(ho_cat.hom(a, b))


def test_p4_diagnostic_mode_uses_oracle():
    report = verify_yoneda_relative(p4_rc(), 1)
    assert report.passed, report.to_dict()


def test_full_relative_check_at_dims_two():
    report = verify_yoneda_relative(iw_rc(), 2)
    assert report.passed, report.to_dict()


def _reference_action_violations(rc, a, table, action):
    """The per-simplex reference for ``check_presheaf_action``: each
    action's nerve map, from ``nerve_map_tables``, checked simplex by
    simplex, then the identity and composite laws compared as index
    tables; the failing (law, maps) keys."""
    cat = rc.cat
    tables, bad = {}, set()
    for g, F in action.items():
        s, t = table[(cat.src[g], a)].nerve, table[(cat.tgt[g], a)].nerve
        try:
            tables[g] = nerve_map_tables(F, s, t)
        except StructuralError:
            bad.add(("functor", g))
            continue
        if violations(tables[g], s, t):
            bad.add(("functor", g))
        if cat.is_identity(g) and any(level != list(range(len(level)))
                                           for level in tables[g].values()):
            bad.add(("identity", g))
    for g1 in tables:
        for g2 in cat.out_of(cat.tgt[g1]):
            g21 = cat.compose(g2, g1)
            if g2 in tables and g21 in tables and any(
                    [tables[g2][n][y] for y in tables[g1][n]] != tables[g21][n]
                    for n in tables[g1]):
                bad.add(("composite", (g2, g1)))
    return bad


def _functor_action_violations(rc, action):
    """``check_presheaf_action``'s verdict as the same keys."""
    bad = set()
    for msg in check_presheaf_action(rc, action):
        if m := re.fullmatch(r"action of (\S+) is not a functor: .*", msg):
            bad.add(("functor", m[1]))
        elif m := re.fullmatch(r"action of identity (\S+) is not the identity", msg):
            bad.add(("identity", m[1]))
        else:
            m = re.fullmatch(r"action of (\S+)\.(\S+) differs from the composite", msg)
            bad.add(("composite", (m[1], m[2])))
    return bad


def _agreement_inputs():
    """Every fixture, B(Z/2) and B(Z/3) with everything marked, and the
    closed markings among seeded random preorders on three objects."""
    rcs = {name: getattr(build(name), "rc", build(name)) for name in FIXTURES}
    for n in (2, 3):
        rcs[f"B(Z/{n})"] = RelCategory(cyclic_group(n), cyclic_group(n).morphisms)
    for seed in range(40):
        rc = random_preorder_relcat(seed, max_objects=3)
        if validate_relative(rc).ok:
            rcs[f"seed {seed}"] = rc
    return rcs


@pytest.mark.parametrize("rc", [pytest.param(rc, id=name)
                                for name, rc in _agreement_inputs().items()])
def test_functor_checks_agree_with_the_simplicial_reference(rc):
    # every action and every induced map at the truncation of `yoneda
    # --dims 1`: the functor-level verdict and the per-simplex reference
    # over the nerve tables name the same failures (here: none), and a
    # moved object image of an identity's action fails both
    cat = rc.cat
    table = presheaf_values(rc, 3)
    for a in cat.objects:
        action = presheaf_action(rc, a, table)
        assert _functor_action_violations(rc, action) == \
            _reference_action_violations(rc, a, table, action) == set()
        g = cat.identity[a]
        if len(action[g].target.objects) > 1:
            _corrupt_identity(action, g)
            assert ("functor", g) in _functor_action_violations(rc, action)
            assert ("functor", g) in _reference_action_violations(rc, a, table, action)
    for w in rc.weq:
        a, a_prime = cat.src[w], cat.tgt[w]
        for b, F in weq_induced_presheaf_maps(rc, w, table).items():
            s, t = table[(b, a_prime)].nerve, table[(b, a)].nerve
            assert check_functor(F).ok
            assert violations(nerve_map_tables(F, s, t), s, t) == []


def test_an_unclosed_marking_is_refused():
    # 01 and 12 are marked on the chain [2], their composite 02 is not:
    # the action of 12.01 has no action to be compared with
    with pytest.raises(StructuralError, match="not a subcategory: not-closed"):
        verify_yoneda_relative(RelCategory(chain_poset(2), ["01", "12"]), 1)


def test_the_action_check_names_a_composite_that_is_not_marked():
    # called directly on the same marking, the action check names the
    # pair instead of failing on the missing action of 02
    rc = RelCategory(chain_poset(2), ["01", "12"])
    for a in rc.cat.objects:
        bad = check_presheaf_action(rc, presheaf_action(rc, a, presheaf_values(rc, 2)))
        assert [line for line in bad if "missing" in line] == [
            "action of 12.01 is missing: 02 is not marked"], a
