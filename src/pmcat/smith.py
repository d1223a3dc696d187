"""Smith normal form over the integers.

Exact arbitrary-precision arithmetic throughout; no floating point.
The matrix is taken as sparse columns and reduced by unit lows:

- Each column, in order, is reduced against the pivot column that owns
  its lowest (largest-row) entry until that entry is new.  A pivot's
  lowest entry is +-1, so the quotient is exact over Z and every step
  is a unimodular column operation.
- A reduced column whose lowest entry is +-1 becomes the pivot of that
  row and contributes the invariant factor 1.  The pivot rows and
  columns form a unit-triangular minor, so every r x r minor of the
  pivot columns has gcd 1.
- A column whose lowest entry is not a unit stops there.  At the end
  each such column is cleared of every pivot row, from the largest down;
  the matrix is then that unimodular minor beside a block with no pivot
  rows, whose invariant factors the classic dense algorithm finds.

On the boundary and coboundary matrices of nerves every pivot is a unit,
so the dense block is empty there.  ``sset.homology_of_boundaries``
hands in the rows of each boundary, which are the columns of the
coboundary, and collects the pivot rows in ``lows``; it uses them to
clear rows of the next boundary, which is exact because those pivots
are units and the boundary squares to zero.

>>> smith_invariants([{0: 2}, {1: 4}])
[2, 4]
>>> smith_invariants([{0: 1, 1: 1}])
[1]
>>> lows = set()
>>> smith_invariants([{0: 1, 1: -1}, {0: 1, 2: -1}, {1: 1, 2: -1}], lows)
[1, 1]
>>> sorted(lows)
[1, 2]
"""


def _dense_snf(entries):
    """Classic Smith reduction of a small dict {(r, c): v}; returns the
    list of invariant factors d_1 | d_2 | ...

    Each round moves the minimum-absolute nonzero entry to the pivot and
    reduces its row and column with floor division; any nonzero
    remainder is strictly smaller than the pivot, so the minimum can
    only shrink and the loop terminates.
    """
    if not entries:
        return []
    rows = sorted({r for r, _ in entries})
    cols = sorted({c for _, c in entries})
    rmap = {r: i for i, r in enumerate(rows)}
    cmap = {c: i for i, c in enumerate(cols)}
    m, n = len(rows), len(cols)
    a = [[0] * n for _ in range(m)]
    for (r, c), v in entries.items():
        a[rmap[r]][cmap[c]] = v
    divisors = []
    top = 0
    while top < m and top < n:
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        p = a[top][top]
        changed = False
        for i in range(top + 1, m):
            if a[i][top]:
                q = a[i][top] // p
                if q:
                    for j in range(top, n):
                        a[i][j] -= q * a[top][j]
                if a[i][top]:
                    changed = True
        for j in range(top + 1, n):
            if a[top][j]:
                q = a[top][j] // p
                if q:
                    for i in range(top, m):
                        a[i][j] -= q * a[i][top]
                if a[top][j]:
                    changed = True
        if changed:
            continue
        # row and column are clear; the pivot must divide the rest
        offender = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, n):
                a[top][j] += a[offender][j]
            continue
        divisors.append(abs(p))
        top += 1
    return divisors


def _subtract(col, pivot, row):
    """Clear ``col``'s entry in ``row`` in place with the pivot column
    whose entry there is +-1."""
    f = col[row] * pivot[row]  # entry / pivot, since the pivot is a unit
    for r, v in pivot.items():
        nv = col.get(r, 0) - f * v
        if nv:
            col[r] = nv
        else:
            del col[r]


def smith_invariants(columns, lows=None):
    """Invariant factors of the integer matrix whose sparse columns are
    given as dicts {row: value}.  Zero entries may be present and are
    ignored; the columns are not modified.  Returns d_1 | d_2 | ... (all
    positive; the rank is the length of the list).  If ``lows`` is a
    set, the rows of the unit pivots are added to it."""
    pivots = {}  # row -> reduced column whose lowest entry is +-1 there
    stuck = []   # reduced columns whose lowest entry is not a unit
    for col in columns:
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        owned = False
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                if col[low] in (1, -1):
                    pivots[low] = col
                else:
                    stuck.append(col)
                break
            if not owned:
                col, owned = dict(col), True
            _subtract(col, pivot, low)
    residual = {}
    for c, col in enumerate(stuck):
        col = dict(col)
        while True:
            hits = [r for r in col if r in pivots]
            if not hits:
                break
            row = max(hits)
            _subtract(col, pivots[row], row)
        for r, v in col.items():
            residual[(r, c)] = v
    if lows is not None:
        lows.update(pivots)
    return [1] * len(pivots) + _dense_snf(residual)
