import doctest
import importlib
import pkgutil
import random

from hypothesis import given, settings, strategies as st

import pmcat
from pmcat.smith import smith_invariants


def sympy_invariants(columns, nrows, ncols):
    """Independent oracle: sympy's Smith normal form."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    m = [[0] * ncols for _ in range(nrows)]
    for c, col in enumerate(columns):
        for r, v in col.items():
            m[r][c] = v
    if nrows == 0 or ncols == 0:
        return []
    snf = smith_normal_form(Matrix(m))
    out = []
    for i in range(min(nrows, ncols)):
        v = abs(snf[i, i])
        if v:
            out.append(int(v))
    return sorted(out, key=lambda d: (d != 1, d))


def test_diagonal_matrix():
    assert smith_invariants([{0: 2}, {1: 4}]) == [2, 4]


def test_unit_column():
    assert smith_invariants([{0: 1, 1: 1}]) == [1]


def test_zero_matrix():
    assert smith_invariants([{}, {}]) == []


def test_classic_torsion():
    # boundary of the real projective plane's 2-cells: torsion Z/2
    cols = [{0: 2}]
    assert smith_invariants(cols) == [2]


def test_divisibility_chain():
    cols = [{0: 2, 1: 0}, {0: 0, 1: 3}]
    inv = smith_invariants(cols)
    assert len(inv) == 2
    assert inv[1] % inv[0] == 0
    assert inv[0] * inv[1] == 6


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_matches_sympy_on_random_matrices(seed):
    rng = random.Random(seed)
    nrows = rng.randint(0, 6)
    ncols = rng.randint(0, 6)
    columns = []
    for _ in range(ncols):
        col = {}
        for r in range(nrows):
            if rng.random() < 0.5:
                col[r] = rng.randint(-4, 4)
        columns.append(col)
    mine = sorted(smith_invariants(columns), key=lambda d: (d != 1, d))
    theirs = sympy_invariants(columns, nrows, ncols)
    # compare multisets of invariant factors
    assert sorted(mine) == sorted(theirs)


def test_rank_of_unimodular_block():
    cols = [{0: 1, 1: 2}, {0: 3, 1: 4}]
    inv = smith_invariants(cols)
    assert len(inv) == 2 and inv[0] == 1 and inv[1] == 2


def test_module_doctests():
    ran = set()
    for info in pkgutil.iter_modules(pmcat.__path__):
        module = importlib.import_module(f"pmcat.{info.name}")
        examples = sum(len(t.examples) for t in doctest.DocTestFinder().find(module))
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted == examples, module.__name__
        if examples:
            ran.add(info.name)
    assert {"fincat", "pmc", "smith", "sset"} <= ran


def test_lows_are_the_unit_pivot_rows():
    # boundary of a triangle: rank 2, the pivots own rows 1 and 2
    lows = set()
    cols = [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]
    assert smith_invariants(cols, lows) == [1, 1]
    assert lows == {1, 2}
    # a non-unit lowest entry is no pivot, whatever it divides
    lows = set()
    assert smith_invariants([{0: 1, 1: 2}], lows) == [1]
    assert lows == set()


def test_columns_are_not_modified():
    cols = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 0}, {1: 2}]
    before = [dict(c) for c in cols]
    smith_invariants(cols)
    assert cols == before
