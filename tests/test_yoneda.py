import pytest

from pmcat import yoneda
from pmcat.fixtures import build
from pmcat.relcat import RelCategory
from pmcat.pmc import trivial_partial_model_structure
from pmcat.sset import pi0, nerve, normalized_boundaries
from pmcat.yoneda import (
    presheaf_values, presheaf_action, check_presheaf_action, weq_induced_presheaf_maps,
    verify_yoneda_relative, MODEL_NOTE, SSetMap, _cone_acyclic,
)
from pmcat.hammock import homotopy_category, zigzag_category
from conftest import (
    chain_poset, boolean_lattice, terminal_category, cyclic_group, poset_category,
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


def _corrupt_identity(action, g):
    """Move one vertex of the action of the identity ``g``."""
    mp = action[g]
    mp.tables[0][0] = (mp.tables[0][0] + 1) % mp.target.size(0)
    return action


def test_check_presheaf_action_catches_a_corrupted_identity():
    rc = iw_rc()
    action = _corrupt_identity(presheaf_action(rc, "0", presheaf_values(rc, 2)), "id:0")
    bad = check_presheaf_action(rc, action)
    assert "action of identity id:0 is not the identity" in bad
    assert "action of 01.id:0 differs from the composite" in bad
    assert any(msg.startswith("action of id:0 is not simplicial") for msg in bad)


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


def assert_chain_images(mp, source, target, move, steps):
    """``mp`` sends each chain of the zigzag category ``source`` to the
    chain of images under the diagram map (``move`` on vertices and
    arrows, ``steps`` on components) in ``target``."""
    def image_of(m, h):
        return (target.components[h] == steps(source.components[m])
                and target.diagrams[target.src[h]] == move(*source.diagrams[source.src[m]])
                and target.diagrams[target.tgt[h]] == move(*source.diagrams[source.tgt[m]]))
    for n, table in mp.tables.items():
        for x, y in zip(mp.source.simplices[n], table):
            image = mp.target.simplices[n][y]
            if n == 0:
                assert target.diagrams[image] == move(*source.diagrams[x])
            else:
                assert all(map(image_of, x, image)), (n, x, image)


def test_presheaf_maps_send_each_chain_to_its_image():
    rc = b2_rc()
    cat = rc.cat
    table = presheaf_values(rc, 3)
    for a in cat.objects:
        for g, mp in presheaf_action(rc, a, table).items():
            b_prime, b = cat.src[g], cat.tgt[g]
            assert_chain_images(
                mp, zigzag_category(rc, b_prime, a), zigzag_category(rc, b, a),
                lambda objs, arrows: ((b,) + objs[1:], (cat.compose(g, arrows[0]),) + arrows[1:]),
                lambda comps: (cat.identity[b],) + comps[1:])
    for w in rc.weq:
        a, a_prime = cat.src[w], cat.tgt[w]
        for b, mp in weq_induced_presheaf_maps(rc, w, table).items():
            assert_chain_images(
                mp, zigzag_category(rc, b, a_prime), zigzag_category(rc, b, a),
                lambda objs, arrows: (objs[:-1] + (a,),
                                      arrows[:-1] + (cat.compose(arrows[-1], w),)),
                lambda comps: comps[:-1] + (cat.identity[a],))


def test_weq_induced_maps_are_simplicial():
    rc = iw_rc()
    maps = weq_induced_presheaf_maps(rc, "01", presheaf_values(rc, 3))
    for b, mp in maps.items():
        assert mp.check_simplicial() == []


@pytest.mark.parametrize("n, expected", [(0, 4), (1, 8), (2, 4)])
def test_check_simplicial_catches_a_corrupted_entry(n, expected):
    rc = iw_rc()
    mp = weq_induced_presheaf_maps(rc, "01", presheaf_values(rc, 2))["1"]
    assert mp.check_simplicial() == []
    mp.tables[n][0] = (mp.tables[n][0] + 1) % mp.target.size(n)
    assert len(mp.check_simplicial()) == expected


def _to_point(cat, up_to):
    source, point = nerve(cat, up_to + 1), nerve(terminal_category(), up_to + 1)
    return SSetMap(source, point, {n: [0] * source.size(n) for n in range(up_to + 2)})


def _cone(mp, up_to):
    return _cone_acyclic(mp, normalized_boundaries(mp.source, up_to),
                         normalized_boundaries(mp.target, up_to + 1), up_to)


def test_cone_of_two_points_to_the_point_has_free_h1():
    # H_0: Z^2 -> Z is onto with kernel Z, so the cone has H_1 = Z
    mp = _to_point(poset_category(["x", "y"], lambda a, b: a == b), 1)
    assert mp.check_simplicial() == []
    assert not _cone(mp, 1)


def test_cone_of_bz2_to_the_point_has_torsion_h2():
    # H_1(B(Z/2)) = Z/2 and H_0 is an isomorphism: the cone has H_1 = 0
    # and H_2 = Z/2, a failure that only the torsion shows
    mp = _to_point(cyclic_group(2), 1)
    assert _cone(mp, 1)
    mp = _to_point(cyclic_group(2), 2)
    assert mp.check_simplicial() == []
    assert not _cone(mp, 2)


def test_cone_of_an_identity_is_acyclic():
    s = nerve(cyclic_group(2), 3)
    mp = SSetMap(s, s, {n: list(range(s.size(n))) for n in range(4)})
    assert _cone(mp, 2)


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
