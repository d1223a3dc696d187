import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pmcat.relcat import RelCategory, random_preorder_relcat, restrict_to_weq
from pmcat.smith import smith_invariants
from pmcat.fincat import FinCategory, Functor, StructuralError
from pmcat.sset import (
    TruncationError, AbelianGroup, nerve, nerve_map_tables, rezk_nerve, pi0,
    homology, homology_of_boundaries, normalized_boundaries,
    preorder_core, core_violations,
)
from pmcat import sset
from conftest import (
    chain_poset, boolean_lattice, walking_iso, terminal_category, cyclic_group,
    poset_category, cell_violations,
)


def iw():
    cat = chain_poset(1)
    return RelCategory(cat, cat.morphisms)


def i1():
    return RelCategory(chain_poset(1), [])


# -- nerve ---------------------------------------------------------------

def test_nerve_point_counts():
    s = nerve(terminal_category(), 2)
    assert [s.size(n) for n in range(3)] == [1, 1, 1]


def test_nerve_interval_counts():
    s = nerve(chain_poset(1), 1)
    assert s.size(0) == 2 and s.size(1) == 3


def test_nerve_walking_iso_counts():
    # oracle: chains in the two-object category with all hom-sets
    # singletons: 2 objects, 4 morphisms, 4*2 composable pairs
    j = walking_iso()
    pairs = sum(1 for f in j.morphisms for g in j.morphisms if j.tgt[f] == j.src[g])
    s = nerve(j, 2)
    assert (s.size(0), s.size(1), s.size(2)) == (2, 4, pairs) == (2, 4, 8)


def test_nerve_identities_hold():
    for cat in (terminal_category(), chain_poset(1), chain_poset(3),
                boolean_lattice(), walking_iso()):
        assert nerve(cat, 3).validate_identities() == []


def parallel_pair():
    """Two parallel arrows f, g: a -> b and an idempotent h on b with
    h.f = h.g = g, so a composite can differ from both of its parts."""
    return FinCategory.build(
        ["a", "b"], [("f", "a", "b"), ("g", "a", "b"), ("h", "b", "b")],
        {("f", "h"): "g", ("g", "h"): "g", ("h", "h"): "h"})


def chains_by_definition(cat, n):
    if n == 0:
        return set(cat.objects)
    out = {(m,) for m in cat.morphisms}
    for _ in range(n - 1):
        out = {c + (m,) for c in out for m in cat.morphisms if cat.src[m] == cat.tgt[c[-1]]}
    return out


def face_by_definition(cat, x, n, i):
    """d_i: drop an end, or compose the two morphisms at vertex i."""
    if n == 1:
        return cat.tgt[x[0]] if i == 0 else cat.src[x[0]]
    if i == 0:
        return x[1:]
    if i == n:
        return x[:-1]
    return x[:i - 1] + (cat.compose(x[i], x[i - 1]),) + x[i + 1:]


def degeneracy_by_definition(cat, x, n, i):
    """s_i: the identity inserted at vertex i."""
    if n == 0:
        return (cat.identity[x],)
    vertex = cat.src[x[0]] if i == 0 else cat.tgt[x[i - 1]]
    return x[:i] + (cat.identity[vertex],) + x[i:]


def oracle_categories():
    yield "J", walking_iso()
    yield "B2", boolean_lattice()
    yield "parallel pair", parallel_pair()
    yield "Z/3", cyclic_group(3)
    for seed in range(20):
        rc = random_preorder_relcat(seed, max_objects=4)
        yield f"seed {seed}", rc.cat
        yield f"seed {seed} marked", restrict_to_weq(rc).cat


@pytest.mark.parametrize("n_max", range(5))
def test_nerve_operators_match_their_definition(n_max):
    # validate_identities cannot see a numbering that is wrong in a
    # consistent way; this reads every entry back as a chain
    for name, cat in oracle_categories():
        s = nerve(cat, n_max)
        for n in range(n_max + 1):
            level = s.simplices[n]
            assert len(set(level)) == len(level), (name, n)
            assert set(level) == chains_by_definition(cat, n), (name, n)
        assert set(s.faces) == {(n, i) for n in range(1, n_max + 1) for i in range(n + 1)}
        assert set(s.degeneracies) == {(n, i) for n in range(n_max) for i in range(n + 1)}
        for (n, i), table in s.faces.items():
            assert [s.simplices[n - 1][y] for y in table] == [
                face_by_definition(cat, x, n, i) for x in s.simplices[n]], (name, n, i)
        for (n, i), table in s.degeneracies.items():
            assert [s.simplices[n + 1][y] for y in table] == [
                degeneracy_by_definition(cat, x, n, i) for x in s.simplices[n]], (name, n, i)


def test_nerve_numbers_each_chain_by_its_last_face():
    # the n-chain c + (m,) sits at starts[n][index of c] + rank[n][m]
    for name, cat in oracle_categories():
        s = nerve(cat, 3)
        for n in range(1, 4):
            for x, chain in enumerate(s.simplices[n]):
                last_face = s.faces[(n, n)][x]
                assert s.starts[n][last_face] + s.rank[n][chain[-1]] == x, (name, n, x)


def chains_in_order(cat, n):
    """The composable n-chains of ``cat`` by brute force, in the order of
    the nerve: each (n-1)-chain in turn, extended by every morphism out
    of its last vertex in the order of ``cat.morphisms``."""
    if n == 0:
        return list(cat.objects)
    level = [()]
    for _ in range(n):
        level = [c + (m,) for c in level for m in cat.morphisms
                 if not c or cat.src[m] == cat.tgt[c[-1]]]
    return level


def spelled_cases():
    for k in (1, 2, 3):
        yield f"[{k}]", chain_poset(k)
    yield "B2", boolean_lattice()
    yield "J", walking_iso()
    for n in (2, 3):
        # every map marked, and not thin
        cat = cyclic_group(n)
        yield f"B(Z/{n})", restrict_to_weq(RelCategory(cat, cat.morphisms)).cat


@pytest.mark.parametrize("n_max", range(4))
def test_chains_are_spelled_on_first_read_in_order(n_max):
    for name, cat in spelled_cases():
        s = nerve(cat, n_max)
        # the operators are built and checked with no chain spelled
        assert s.validate_identities() == [] and "simplices" not in vars(s), name
        assert s.simplices == [chains_in_order(cat, n) for n in range(n_max + 1)], name
        assert [len(level) for level in s.simplices] == [
            s.size(n) for n in range(n_max + 1)], name


def tables_on_spelled_chains(F, source, target):
    """Reference for nerve_map_tables: its earlier formula, which read
    each chain's last morphism off the spelled chain and looked the rank
    of its image up by id."""
    where = dict(zip(target.simplices[0], target.indices[0]))
    tables = {0: [where[F.obj_map[o]] for o in source.simplices[0]]}
    for n in range(1, min(source.n_max, target.n_max) + 1):
        starts, below, rank = target.starts[n], tables[n - 1], target.rank[n]
        offset = {m: rank[h] for m, h in F.mor_map.items()}
        tables[n] = [starts[below[p]] + offset[x[-1]]
                     for p, x in zip(source.faces[(n, n)], source.simplices[n])]
    return tables


def test_induced_tables_match_the_formula_on_spelled_chains(monkeypatch):
    from pmcat.fixtures import build
    calls = []

    def recorded(F, source, target, _real=sset.nerve_map_tables):
        tables = _real(F, source, target)
        calls.append((F, source, target, tables))
        return tables
    monkeypatch.setattr(sset, "nerve_map_tables", recorded)
    b = rezk_nerve(build("B2").rc, 2, 2)
    assert not calls            # the horizontal tables are built on first read
    b.hfaces, b.hdegens
    assert len(calls) == 8      # faces 2 + 3, degeneracies 1 + 2
    for F, source, target, tables in calls:
        assert tables == tables_on_spelled_chains(F, source, target)
        assert all(target.indices[n][y] is y for n, t in tables.items() for y in t)


def test_every_table_entry_is_an_int_of_its_level():
    # one int object per simplex: levels past 256 simplices leave
    # CPython's shared small ints, so a fresh int would show there
    from pmcat.fixtures import build
    from pmcat.segal import chain_category
    a_2 = chain_category(build("B2").rc, 2)
    for name, cat in [*oracle_categories(), ("B2's A_2", a_2)]:
        s = nerve(cat, 3)
        ids = s.indices
        for (n, i), table in s.faces.items():
            assert all(ids[n - 1][y] is y for y in table), (name, n, i)
        for (n, i), table in s.degeneracies.items():
            assert all(ids[n + 1][y] is y for y in table), (name, n, i)
        assert all(ids[1][u] is u for level in s.lasts[1:] for u in level), name
    assert [len(level) for level in ids] == [16, 100, 400, 1225]


@pytest.mark.parametrize("image", ["moved", None])
def test_induced_map_refuses_a_morphism_sent_to_the_wrong_ends(image):
    cat = boolean_lattice()
    s = nerve(cat, 2)
    identity = Functor.identity(cat)
    assert nerve_map_tables(identity, s, s) == {n: list(range(s.size(n))) for n in range(3)}
    mor_map = dict(identity.mor_map)
    mor_map["1<12"] = "0<2" if image == "moved" else None
    with pytest.raises(StructuralError, match="1<12"):
        nerve_map_tables(Functor(cat, cat, identity.obj_map, mor_map), s, s)


def test_induced_map_refuses_a_typed_map_that_breaks_a_law():
    # on B(Z/2), id:* -> g1 is typed but does not preserve the identity
    cat = cyclic_group(2)
    s = nerve(cat, 2)
    F = Functor(cat, cat, {"*": "*"}, {"id:*": "g1", "g1": "g1"})
    with pytest.raises(StructuralError, match="id:\\*"):
        nerve_map_tables(F, s, s)


def test_induced_map_refuses_a_map_that_breaks_composites_as_far_as_the_nerve_shows():
    # on B(Z/3), g2 -> g1 keeps the identity but sends g1.g1 = g2 to g1,
    # not to g1.g1 = g2: the 2-chain (g1, g1) shows it, the 1-skeleton not
    cat = cyclic_group(3)
    F = Functor(cat, cat, {"*": "*"}, {"id:*": "id:*", "g1": "g1", "g2": "g1"})
    with pytest.raises(StructuralError, match=r"F\(g1\.g1\) is not F\(g1\)\.F\(g1\)"):
        nerve_map_tables(F, nerve(cat, 2), nerve(cat, 2))
    assert nerve_map_tables(F, nerve(cat, 1), nerve(cat, 1))[1] == [0, 1, 1]


def test_pi0_point_and_discrete():
    assert len(pi0(nerve(terminal_category(), 1))) == 1
    from conftest import poset_category
    disc = poset_category(["x", "y"], lambda a, b: a == b)
    assert len(pi0(nerve(disc, 1))) == 2


def test_pi0_needs_edges():
    s = nerve(terminal_category(), 0)
    with pytest.raises(TruncationError):
        pi0(s)


def table_pi0(cat):
    """pi0 read off the built face tables of the nerve of ``cat``."""
    s = nerve(cat, 1)
    return pi0(sset.TruncatedSimplicialSet(1, s.simplices, s.faces, s.degeneracies))


def pi0_cases():
    from pmcat.fixtures import FIXTURES, build
    from pmcat.hammock import zigzag_category
    from pmcat.segal import chain_category, zigzag_chain_category
    yield from oracle_categories()
    yield "B(Z/2)", cyclic_group(2)
    rc = build("B2").rc
    yield "B2's A_2", chain_category(rc, 2)
    yield "B2's B_3", zigzag_chain_category(rc, 3)
    for name in FIXTURES:
        rc = getattr(build(name), "rc", build(name))
        for a, b in product(rc.cat.objects, repeat=2):
            yield f"{name} zigzags {a} ~> {b}", zigzag_category(rc, a, b)


def test_pi0_of_a_nerve_comes_from_its_category(monkeypatch):
    real, sizes = sset._nerve_tables, set()
    for name, cat in pi0_cases():
        monkeypatch.setattr(sset, "_nerve_tables", unbuilt)
        components = pi0(nerve(cat, 1))
        monkeypatch.setattr(sset, "_nerve_tables", real)
        assert components == table_pi0(cat), name
        sizes.add(len(components))
    assert {0, 1, 2} <= sizes


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_pi0_of_random_preorders_matches_the_face_tables(seed):
    rc = random_preorder_relcat(seed, max_objects=6)
    for cat in (rc.cat, restrict_to_weq(rc).cat):
        assert pi0(nerve(cat, 1)) == table_pi0(cat)


# -- homology -------------------------------------------------------------

def sympy_nerve_homology(cat, n_max, up_to):
    """Independent oracle: build the normalized boundary matrices from
    scratch (raw chain enumeration, no library code) and hand them to
    sympy's Smith normal form."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    chains = {0: [(o,) for o in cat.objects]}
    for n in range(1, n_max + 1):
        level = []
        for c in chains[n - 1]:
            if n == 1:
                level = [(m,) for m in cat.morphisms]
                break
            for m in cat.morphisms:
                if cat.src[m] == cat.tgt[c[-1]]:
                    level.append(c + (m,))
        chains[n] = level
    nondeg = {0: chains[0]}
    for n in range(1, n_max + 1):
        nondeg[n] = [c for c in chains[n] if not any(cat.is_identity(m) for m in c)]

    def face(c, i, n):
        if n == 1:
            return (cat.tgt[c[0]],) if i == 0 else (cat.src[c[0]],)
        if i == 0:
            return c[1:]
        if i == n:
            return c[:-1]
        return c[:i - 1] + (cat.compose(c[i], c[i - 1]),) + c[i + 1:]

    def boundary(n):
        rows = {c: i for i, c in enumerate(nondeg[n - 1])}
        mat = [[0] * len(nondeg[n]) for _ in range(len(nondeg[n - 1]))]
        for j, c in enumerate(nondeg[n]):
            for i in range(n + 1):
                f = face(c, i, n)
                if f in rows:
                    mat[rows[f]][j] += (-1) ** i
        return mat

    def invariants(mat):
        if not mat or not mat[0]:
            return []
        snf = smith_normal_form(Matrix(mat))
        out = []
        for i in range(min(len(mat), len(mat[0]))):
            if snf[i, i]:
                out.append(abs(int(snf[i, i])))
        return out

    groups = []
    for i in range(up_to + 1):
        inv_i = invariants(boundary(i)) if i >= 1 else []
        inv_next = invariants(boundary(i + 1))
        rank = len(nondeg[i]) - len(inv_i) - len(inv_next)
        torsion = tuple(d for d in inv_next if d != 1)
        groups.append(AbelianGroup(rank, torsion))
    return groups


def raw_nerve_homology(cat, up_to):
    """The reference path: normalized chains of the whole nerve, with no
    preorder core."""
    dims, boundaries = normalized_boundaries(nerve(cat, up_to + 1), up_to + 1)
    return homology_of_boundaries(dims, boundaries, up_to)


def test_homology_walking_iso_is_point():
    s = nerve(walking_iso(), 4)
    assert homology(s, 2) == [AbelianGroup(1), AbelianGroup(0), AbelianGroup(0)]


def test_homology_discrete_two_objects():
    from conftest import poset_category
    disc = poset_category(["x", "y"], lambda a, b: a == b)
    assert homology(nerve(disc, 2), 0) == [AbelianGroup(2)]


def test_homology_interval():
    s = nerve(chain_poset(1), 2)
    assert homology(s, 1) == [AbelianGroup(1), AbelianGroup(0)]


def test_homology_matches_independent_oracle():
    for cat in (chain_poset(2), boolean_lattice(), walking_iso()):
        mine = homology(nerve(cat, 3), 2)
        oracle = sympy_nerve_homology(cat, 3, 2)
        assert mine == raw_nerve_homology(cat, 2) == oracle
    # classifying spaces of finite cyclic groups: torsion in odd degrees
    for n in (2, 3):
        cat = cyclic_group(n)
        mine = homology(nerve(cat, 5), 4)
        oracle = sympy_nerve_homology(cat, 5, 4)
        z_n = AbelianGroup(0, (n,))
        assert mine == oracle == [
            AbelianGroup(1), z_n, AbelianGroup(0), z_n, AbelianGroup(0)]


def raw_homology(dims, boundaries, up_to):
    """Reference for ``homology_of_boundaries``: Smith normal form of
    every boundary matrix as given, with no clearing."""
    inv = {n: smith_invariants(rows) for n, rows in boundaries.items()}
    return [AbelianGroup(dims[i] - len(inv.get(i, ())) - len(inv.get(i + 1, ())),
                         tuple(d for d in inv.get(i + 1, ()) if d != 1))
            for i in range(up_to + 1)]


def conjugated_complex(rng, top):
    """A random complex C_0 <- ... <- C_top with d.d = 0 and known
    homology: a direct sum of free generators and blocks Z --d--> Z, each
    C_n then changed by a random unimodular basis.  Returns (dims,
    boundaries as sparse rows, expected homology up to top - 1)."""
    free = [rng.randint(0, 2) for _ in range(top + 1)]
    blocks = {}  # degree n -> factors d_1 | d_2 | ... of blocks C_n -> C_{n-1}
    for n in range(1, top + 1):
        factors = [rng.choice((1, 2, 3))]
        for _ in range(rng.randint(0, 3)):
            factors.append(factors[-1] * rng.choice((1, 2, 3)))
        blocks[n] = factors[:rng.randint(0, len(factors))]
    dims = [free[n] + len(blocks.get(n, ())) + len(blocks.get(n + 1, ()))
            for n in range(top + 1)]
    # basis of C_n: free generators, then sources of blocks into n - 1,
    # then targets of blocks out of n + 1
    normal = {}
    for n in range(1, top + 1):
        mat = [[0] * dims[n] for _ in range(dims[n - 1])]
        for b, d in enumerate(blocks[n]):
            row = free[n - 1] + len(blocks.get(n - 1, ())) + b
            mat[row][free[n] + b] = d
        normal[n] = mat
    bases = []  # (U, U^-1) per degree, products of elementary operations
    for n in range(top + 1):
        m = dims[n]
        u = [[int(i == j) for j in range(m)] for i in range(m)]
        u_inv = [row[:] for row in u]
        for _ in range(2 * m if m > 1 else 0):
            i, j = rng.sample(range(m), 2)
            c = rng.choice((-2, -1, 1, 2))
            for row in u:                  # U <- U (I + c e_ij)
                row[j] += c * row[i]
            u_inv[i] = [a - c * b for a, b in zip(u_inv[i], u_inv[j])]
        bases.append((u, u_inv))

    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

    boundaries = {}
    for n in range(1, top + 1):
        mat = normal[n]
        if dims[n - 1] and dims[n]:
            mat = mul(mul(bases[n - 1][0], mat), bases[n][1])
        boundaries[n] = [{c: mat[r][c] for c in range(dims[n]) if mat[r][c]}
                         for r in range(dims[n - 1])]
    expected = [AbelianGroup(free[n], tuple(d for d in blocks.get(n + 1, ()) if d != 1))
                for n in range(top)]
    return dims, boundaries, expected


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_reduced_homology_matches_raw_on_conjugated_complexes(seed):
    rng = random.Random(seed)
    top = rng.randint(1, 4)
    dims, boundaries, expected = conjugated_complex(rng, top)
    for n in range(2, top + 1):
        for row in boundaries[n - 1]:  # d.d = 0
            image = {}
            for r, v in row.items():
                for c, v2 in boundaries[n][r].items():
                    image[c] = image.get(c, 0) + v * v2
            assert not any(image.values())
    mine = homology_of_boundaries(dims, boundaries, top - 1)
    assert mine == raw_homology(dims, boundaries, top - 1) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_reduced_homology_matches_raw_on_random_nerves(seed):
    cat = random_preorder_relcat(seed, max_objects=5).cat
    dims, boundaries = normalized_boundaries(nerve(cat, 4), 4)
    assert homology_of_boundaries(dims, boundaries, 3) == raw_homology(dims, boundaries, 3)


def test_homology_equivalence_invariance():
    # the walking isomorphism is equivalent to the point
    h_j = homology(nerve(walking_iso(), 4), 2)
    h_pt = homology(nerve(terminal_category(), 4), 2)
    assert h_j == h_pt


def test_homology_refuses_uncertified_degree():
    s = nerve(chain_poset(1), 2)
    with pytest.raises(TruncationError):
        homology(s, 2)


def test_h0_rank_equals_pi0():
    for cat in (terminal_category(), chain_poset(2), walking_iso()):
        s = nerve(cat, 2)
        assert homology(s, 0)[0].rank == len(pi0(s))


# -- preorder cores -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_core_homology_matches_raw_on_random_preorders(seed):
    rc = random_preorder_relcat(seed, max_objects=6)
    for cat in (rc.cat, restrict_to_weq(rc).cat):
        core = preorder_core(cat)
        assert core is not None and core_violations(cat, core) == []
        assert len(core.category.objects) + len(core.steps) == len(cat.objects)
        assert homology(nerve(cat, 4), 3) == raw_nerve_homology(cat, 3)


def stacked_pairs(dim):
    """The minimal finite model of S^dim: dim + 1 levels of two points,
    each point below every point of the levels above it."""
    level = {f"{i}{side}": i for i in range(dim + 1) for side in "ab"}
    return poset_category(list(level), lambda a, b: a == b or level[a] < level[b])


@pytest.mark.parametrize("dim", [1, 2])
def test_minimal_finite_spheres_keep_every_point(dim):
    cat = stacked_pairs(dim)
    core = preorder_core(cat)
    assert core.steps == () and core.category.objects == cat.objects
    sphere = [AbelianGroup(1)] + [AbelianGroup(0)] * (dim - 1) + [AbelianGroup(1)]
    assert homology(nerve(cat, dim + 1), dim) == raw_nerve_homology(cat, dim) == sphere


def test_corrupted_witness_fails_the_recheck():
    cat = boolean_lattice()
    core = preorder_core(cat)
    assert core.steps == (("1", "0", "down"), ("2", "0", "down"), ("12", "0", "down"))
    assert core_violations(cat, core) == []
    # 2 is not below 1
    wrong_w = replace(core, steps=(("1", "2", "down"),) + core.steps[1:])
    assert core_violations(cat, wrong_w) == ["step (1, 2, down): 2 is not below 1"]
    # 1 is below 12, but so is 2, which is not below 1
    beside = replace(core, steps=(("12", "1", "down"),) + core.steps[:2])
    assert core_violations(cat, beside) == ["step (12, 1, down): 2 is below 12 but not 1"]
    assert core_violations(cat, replace(core, steps=core.steps[:2])) != []


@pytest.mark.parametrize("step", [("1", "0", "down"), ("2", "1", "down"), ("9", "0", "up"),
                                  ("2", "9", "down"), ("0", "0", "down")])
def test_a_step_needs_two_distinct_remaining_objects(step):
    # after the first step 1 is gone; 9 is no object of the lattice
    cat = boolean_lattice()
    core = preorder_core(cat)
    broken = replace(core, steps=core.steps[:1] + (step,) + core.steps[1:])
    assert core_violations(cat, broken)[0] == (
        f"step ({step[0]}, {step[1]}): not two distinct remaining objects")


def test_a_wrong_search_is_refused(monkeypatch):
    # take the first candidate below or above, whether or not it is a top
    monkeypatch.setattr(sset, "_top", lambda rest, rel: (rest & -rest).bit_length() - 1
                        if rest else None)
    with pytest.raises(StructuralError, match="re-check"):
        preorder_core(boolean_lattice())


def unbuilt(cat, n_max):
    raise AssertionError("nerve tables were built")


def lazy_size_cases():
    from pmcat.fixtures import build
    from pmcat.segal import chain_category, zigzag_chain_category
    rc = build("B2").rc
    yield from ((name, cat, 4) for name, cat in oracle_categories())
    yield "B(Z/2)", cyclic_group(2), 4
    yield "B2's A_2", chain_category(rc, 2), 4
    # 440,896 2-chains, but 5,428,900 3-chains: built up to level 2 only
    yield "B2's B_3", zigzag_chain_category(rc, 3), 2


def test_nerve_sizes_are_counted_without_the_build(monkeypatch):
    real = sset._nerve_tables
    for name, cat, top in lazy_size_cases():
        for n in range(top + 1):
            monkeypatch.setattr(sset, "_nerve_tables", unbuilt)
            s = nerve(cat, n)
            counted = [s.size(m) for m in range(n + 1)]
            with pytest.raises(TruncationError):
                s.size(n + 1)
            monkeypatch.setattr(sset, "_nerve_tables", real)
            assert counted == [len(level) for level in s.simplices], (name, n)
            assert counted == [s.size(m) for m in range(n + 1)], (name, n)


def test_group_has_no_core_and_keeps_its_torsion(monkeypatch):
    cat = cyclic_group(2)
    assert preorder_core(cat) is None
    built = []

    def recorded(c, n_max, _real=sset._nerve_tables):
        built.append(c)
        return _real(c, n_max)
    monkeypatch.setattr(sset, "_nerve_tables", recorded)
    s = nerve(cat, 4)
    assert s.core is None and built == []
    z2 = AbelianGroup(0, (2,))
    assert homology(s, 3) == [AbelianGroup(1), z2, AbelianGroup(0), z2]
    # not thin: its own chains, so its own tables
    assert len(built) == 1 and built[0] is cat


def test_preorder_nerve_homology_runs_on_one_vertex(monkeypatch):
    from pmcat.fixtures import build
    from pmcat.segal import zigzag_chain_category
    b_3 = zigzag_chain_category(build("B2").rc, 3)
    vertices = []

    def counted(s, up_to, _real=sset.normalized_boundaries):
        vertices.append(s.size(0))
        return _real(s, up_to)

    def core_only(cat, n_max, _real=sset._nerve_tables):
        return unbuilt(cat, n_max) if cat is b_3 else _real(cat, n_max)
    monkeypatch.setattr(sset, "normalized_boundaries", counted)
    monkeypatch.setattr(sset, "_nerve_tables", core_only)
    assert homology(nerve(b_3, 2), 1) == [AbelianGroup(1), AbelianGroup(0)]
    assert len(b_3.objects) == 361 and vertices == [1]


# -- classification nerve ---------------------------------------------------

def count_interval_grids(k, n, weq_all):
    """Oracle: monotone (k+1) x (n+1) grids over the two-point chain,
    with vertical steps constrained to the marking."""
    cells = list(product((0, 1), repeat=(k + 1) * (n + 1)))
    count = 0
    for flat in cells:
        grid = [flat[r * (k + 1):(r + 1) * (k + 1)] for r in range(n + 1)]
        ok = all(grid[r][i] <= grid[r][i + 1] for r in range(n + 1) for i in range(k))
        if ok:
            for r in range(n):
                for i in range(k + 1):
                    if grid[r][i] > grid[r + 1][i]:
                        ok = False
                    elif not weq_all and grid[r][i] != grid[r + 1][i]:
                        ok = False
        if ok:
            count += 1
    return count


def test_rezk_nerve_interval_counts():
    b = rezk_nerve(iw(), 1, 1)
    assert b.size(0, 0) == 2
    assert b.size(1, 0) == 3
    assert b.size(0, 1) == 3
    for k in range(2):
        for n in range(2):
            assert b.size(k, n) == count_interval_grids(k, n, weq_all=True)


def test_rezk_nerve_rigid_level_zero_is_discrete():
    b = rezk_nerve(i1(), 0, 3)
    for n in range(4):
        assert b.size(0, n) == 2  # only identity columns


def test_rezk_bidegree_zero_is_object_set():
    for rc in (iw(), i1()):
        b = rezk_nerve(rc, 1, 1)
        assert b.size(0, 0) == len(rc.cat.objects)


def test_rezk_identities_hold():
    cat = chain_poset(3)
    for rc in (iw(), i1(), RelCategory(cat, ["02", "13"])):
        b = rezk_nerve(rc, 2, 2)
        assert b.validate_identities() == [] and cell_violations(b) == []


@pytest.mark.parametrize("tables, key, target, expected", [
    ("hfaces", (2, 1, 1), (1, 1), 38),
    ("hdegens", (1, 2, 0), (2, 2), 41),
    ("vfaces", (2, 2, 1), (2, 1), 48),
    ("vdegens", (1, 1, 1), (1, 2), 32),
])
def test_rezk_identities_catch_a_corrupted_entry(tables, key, target, expected):
    # the per-cell reference must fail when one operator entry is wrong;
    # the counts pin how many identities and commutations that entry
    # breaks.  validate_identities reads the functors, not the tables
    cat = boolean_lattice()
    b = rezk_nerve(RelCategory(cat, cat.morphisms), 3, 3)
    assert cell_violations(b) == []
    table = getattr(b, tables)[key]
    table[0] = (table[0] + 1) % b.size(*target)
    assert len(cell_violations(b)) == expected
    assert b.validate_identities() == []


def test_rezk_identities_catch_a_face_functor_with_swapped_objects():
    # two objects of A_1 trade images under d0: F is no functor, which
    # the functor check names and nerve_map_tables refuses
    from pmcat.fixtures import build
    b = rezk_nerve(build("B2").rc, 2, 2)
    F = b.face_functors[(1, 0)]
    x, y = F.source.objects[:2]
    assert F.obj_map[x] != F.obj_map[y]
    F.obj_map[x], F.obj_map[y] = F.obj_map[y], F.obj_map[x]
    bad = b.validate_identities()
    # 13 morphisms now miss their ends' images; identities among
    # functors are compared only once every face and degeneracy is one
    assert len(bad) == 13
    assert all(v.startswith("dh0 out of column 1: violation: source-target") for v in bad)
    with pytest.raises(StructuralError, match="not a functor"):
        nerve_map_tables(F, b.columns[1], b.columns[0])
    with pytest.raises(StructuralError, match="not a functor"):
        cell_violations(b)


def test_rezk_identities_catch_swapped_face_functors():
    # d0 and d1 out of column 1 trade places: each is still a functor,
    # but the identities among them fail, on the functors and on the cells
    cat = boolean_lattice()
    b = rezk_nerve(RelCategory(cat, cat.morphisms), 2, 2)
    faces = b.face_functors
    faces[(1, 0)], faces[(1, 1)] = faces[(1, 1)], faces[(1, 0)]
    bad = b.validate_identities()
    assert bad and bad[0].startswith("h on objects: d0 d1 != d0 d0 at dim 2")
    assert any(v.startswith("h on morphisms: ") for v in bad)
    assert cell_violations(b)


def test_identity_violations_name_every_index_in_order():
    # each identity is compared as a whole table; the messages are those
    # of a walk over every index, identity by identity
    s = nerve(chain_poset(2), 3)
    face = s.faces[(2, 1)]
    face[1] = (face[1] + 1) % s.size(1)
    degeneracy = s.degeneracies[(1, 0)]
    degeneracy[0] = (degeneracy[0] + 2) % s.size(2)
    assert s.validate_identities() == [
        "d0 d1 != d0 d0 at dim 2 index 1", "d0 d2 != d1 d0 at dim 3 index 1",
        "d1 d2 != d1 d1 at dim 3 index 3", "d1 d3 != d2 d1 at dim 3 index 3",
        "d1 d3 != d2 d1 at dim 3 index 4", "s0 s0 != s1 s0 at dim 0 index 0",
        "s0 s1 != s2 s0 at dim 1 index 0", "d0 s0 != id at dim 1 index 0",
        "d1 s0 != id at dim 1 index 0", "d1 s0 != id at dim 1 index 3",
        "d2 s0 != s0 d1 at dim 2 index 0", "d2 s0 != s0 d1 at dim 2 index 1",
        "d3 s0 != s0 d2 at dim 2 index 0", "d3 s0 != s0 d2 at dim 2 index 1",
        "d3 s0 != s0 d2 at dim 2 index 2", "d0 s1 != s0 d0 at dim 2 index 0",
        "d1 s2 != s1 d1 at dim 2 index 1",
    ]
    # a level with a simplex that no table has an entry for: its tables
    # are read past their end, not cut short.  A built nerve's size is
    # the length of its id list, so the extra simplex goes there
    s.indices[1].append(s.size(1))
    with pytest.raises(IndexError):
        s.validate_identities()


def test_rezk_horizontal_tables_send_each_grid_to_its_image():
    # every horizontal operator is nerve_map_tables of a functor between
    # chain categories; each (k, n)-grid must land on the grid that the
    # operator makes of it row by row
    cat = boolean_lattice()
    b = rezk_nerve(RelCategory(cat, cat.morphisms), 3, 3)

    def face(k, i, grid):
        objs, arrows, steps = grid

        def row(a):
            if i == 0:
                return a[1:]
            if i == k:
                return a[:-1]
            return a[:i - 1] + (cat.compose(a[i], a[i - 1]),) + a[i + 1:]
        return (tuple(o[:i] + o[i + 1:] for o in objs), tuple(map(row, arrows)),
                tuple(c[:i] + c[i + 1:] for c in steps))

    def degeneracy(k, i, grid):
        objs, arrows, steps = grid
        return (tuple(o[:i + 1] + o[i:] for o in objs),
                tuple(a[:i] + (cat.identity[o[i]],) + a[i:] for o, a in zip(objs, arrows)),
                tuple(c[:i + 1] + c[i:] for c in steps))

    assert set(b.hfaces) == {(k, n, i) for k in range(1, 4) for n in range(4)
                             for i in range(k + 1)}
    assert set(b.hdegens) == {(k, n, i) for k in range(3) for n in range(4)
                              for i in range(k + 1)}
    for ops, move, step in ((b.hfaces, face, -1), (b.hdegens, degeneracy, 1)):
        for (k, n, i), table in ops.items():
            assert [b.simplices[(k + step, n)][y] for y in table] == [
                move(k, i, grid) for grid in b.simplices[(k, n)]], (k, n, i)


def test_rezk_level_zero_matches_nerve_of_marked_subcategory():
    for rc in (iw(), i1(), RelCategory(chain_poset(3), ["02", "13"])):
        b = rezk_nerve(rc, 2, 3)
        w_nerve = nerve(restrict_to_weq(rc).cat, 3)
        for n in range(4):
            assert b.size(0, n) == w_nerve.size(n)
        # explicit operator-respecting bijection: a (0, n)-grid is the
        # column of its vertical steps
        def as_chain(grid, n):
            objs, hs, vs = grid
            return objs[0][0] if n == 0 else tuple(step[0] for step in vs)
        for n in range(4):
            imgs = [as_chain(g, n) for g in b.simplices[(0, n)]]
            assert sorted(imgs) == sorted(
                w_nerve.simplices[n]) and len(set(imgs)) == len(imgs)
        for n in range(1, 4):
            for j in range(n + 1):
                for x, g in enumerate(b.simplices[(0, n)]):
                    lhs = as_chain(b.simplices[(0, n - 1)][b.vfaces[(0, n, j)][x]], n - 1)
                    rhs = w_nerve.simplices[n - 1][
                        w_nerve.faces[(n, j)][w_nerve.simplices[n].index(as_chain(g, n))]]
                    assert lhs == rhs


def ungridded(b):
    raise AssertionError("grids were built")


def rezk_size_cases():
    from pmcat.fixtures import FIXTURES, build
    for name in FIXTURES:
        yield name, getattr(build(name), "rc", build(name))
    cat = cyclic_group(2)
    yield "B(Z/2)", RelCategory(cat, cat.morphisms)


def test_rezk_sizes_are_counted_before_the_grids_are_built():
    levels = list(product(range(4), range(4)))
    for name, rc in rezk_size_cases():
        b = rezk_nerve(rc, 3, 3)
        counted = [b.size(k, n) for k, n in levels]
        assert "simplices" not in vars(b), name
        assert counted == [len(b.simplices[level]) for level in levels], name
        assert counted == [b.size(k, n) for k, n in levels], name


def test_rezk_nerve_of_b2_holds_no_grid(monkeypatch):
    # 74 MiB when every grid was built with the tables, 29 MiB while the
    # columns' chains were spelled, 16 MiB as index tables, and now no
    # table before its first read; validate_identities runs untraced,
    # with the grids made to raise
    import tracemalloc
    from pmcat.fixtures import build
    rc = build("B2").rc
    tracemalloc.start()
    try:
        b = rezk_nerve(rc, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(sset.TruncatedBisimplicialSet, "simplices", property(ungridded))
    assert b.validate_identities() == []
    assert sum(b.size(k, n) for k in range(5) for n in range(5)) == 111_022
    assert peak < 24 * 2**20


def test_sizes_outside_the_truncation_are_refused():
    b = rezk_nerve(iw(), 1, 2)
    assert b.validate_identities() == [] and cell_violations(b) == []
    for level in ((2, 0), (0, -1), (-1, 0), (0, 3)):
        with pytest.raises(TruncationError):
            b.size(*level)
    c = nerve(chain_poset(1), 2)
    flat = sset.TruncatedSimplicialSet(c.n_max, c.simplices, c.faces, c.degeneracies)
    assert flat.validate_identities() == []
    assert [flat.size(n) for n in range(3)] == [c.size(n) for n in range(3)] == [2, 3, 4]
    for n in (-1, 3):
        for s in (c, flat):
            with pytest.raises(TruncationError):
                s.size(n)

