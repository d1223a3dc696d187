"""Truncated simplicial and bisimplicial sets.

Simplex sets are stored per (bi)dimension up to a hard truncation bound,
with face and degeneracy operators as index tables into the adjacent
dimensions.  A nerve's simplicial identities are checked on its tables,
a classification nerve's on the functors that induce its operators.

A nerve numbers its n-chains by their last face: the extensions of one
(n-1)-chain by a morphism sit next to each other, in the order of the
morphisms out of its last vertex, and the blocks keep the order of the
level below.  Recording where each block starts and each morphism's
rank among the morphisms out of its source, every face, degeneracy and
functor-induced map is index arithmetic on the level below; no chain is
ever looked up by value.  So a nerve is index tables only: per level
one list of ids, whose int objects every table shares, and the position
of each chain's last morphism; chains are spelled only when read.

Homology uses the normalized chain complex -- the quotient by degenerate
simplices -- with integer coefficients.  Each boundary is built once, as
sparse rows straight from the face tables; the rows are the columns of
the coboundary, which the Smith reduction takes from low degree to high
and clears degree by degree.  Because the complex is truncated at
``n_max``, homology is only trusted in degrees strictly below ``n_max``,
and the API refuses to go higher.

A nerve keeps the category it was built from.  When that category is
thin (a preorder), its homology is that of the nerve of its preorder
core: objects are removed one at a time, each x with a witness w below
x that every other remaining object below x lies under (or dually
above).  Sending x to w is a retraction r with i.r <= 1, and a natural
transformation is a homotopy of nerve maps (Quillen, *Higher algebraic
K-theory I*, 1973, section 1), so each removal keeps the homotopy type
(Stong, *Finite topological spaces*, 1966).  The steps are replayed
against the hom-sets by separate code before the core is used.  Every
other simplicial set, and the nerve of a category that is not thin,
goes through its own normalized chains, which stay the reference.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat

from ._util import UnionFind
from .fincat import StructuralError, bit_positions, check_functor, check_functor_typing
from .relcat import diagram_category, diagram_functor, ARROW
from .smith import smith_invariants


class TruncationError(ValueError):
    """An operator or degree outside the stored truncation was needed."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant
    factors > 1 (each dividing the next)."""

    rank: int
    torsion: tuple = ()

    def __str__(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"

    def to_dict(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _identity_violations(n_max, sizes, faces, degeneracies):
    """Violations of the simplicial identities among the operators of a
    truncated simplicial set given by its level sizes and index tables.

    Each identity composes its two sides as whole tables over a level and
    compares them; indices are walked only where they differ.  A table
    shorter than its level raises IndexError, as reading it would."""
    bad = []

    def level(table, n):
        # the entries of an operator table on the simplices of level n
        if len(table) < sizes[n]:
            raise IndexError(f"operator table of {len(table)} entries "
                             f"on level {n} of {sizes[n]} simplices")
        return table if len(table) == sizes[n] else table[:sizes[n]]

    def compare(left, right, message):
        if left != right:
            bad.extend(message(x) for x, (p, q) in enumerate(zip(left, right)) if p != q)

    for n in range(2, n_max + 1):
        for j in range(n + 1):
            for i in range(j):
                gi, gj1 = faces[(n - 1, i)], faces[(n - 1, j - 1)]
                compare([gi[y] for y in level(faces[(n, j)], n)],
                        [gj1[y] for y in level(faces[(n, i)], n)],
                        lambda x: f"d{i} d{j} != d{j - 1} d{i} at dim {n} index {x}")
    for n in range(0, n_max - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                s2i, s2j1 = degeneracies[(n + 1, i)], degeneracies[(n + 1, j + 1)]
                compare([s2i[y] for y in level(degeneracies[(n, j)], n)],
                        [s2j1[y] for y in level(degeneracies[(n, i)], n)],
                        lambda x: f"s{i} s{j} != s{j + 1} s{i} at dim {n} index {x}")
    for n in range(0, n_max):
        ident = list(range(sizes[n]))
        for j in range(n + 1):
            sj = level(degeneracies[(n, j)], n)
            for i in range(n + 2):
                di = faces[(n + 1, i)]
                composed = [di[y] for y in sj]
                # at n = 0 only i = j and i = j + 1 occur: level n - 1 exists below
                if i == j or i == j + 1:
                    compare(composed, ident,
                            lambda x: f"d{i} s{j} != id at dim {n} index {x}")
                elif i < j:
                    s = degeneracies[(n - 1, j - 1)]
                    compare(composed, [s[y] for y in level(faces[(n, i)], n)],
                            lambda x: f"d{i} s{j} != s{j - 1} d{i} at dim {n} index {x}")
                else:
                    s = degeneracies[(n - 1, j)]
                    compare(composed, [s[y] for y in level(faces[(n, i - 1)], n)],
                            lambda x: f"d{i} s{j} != s{j} d{i - 1} at dim {n} index {x}")
    return bad


class TruncatedSimplicialSet:
    """Simplex sets per dimension 0..n_max with operator index tables.

    ``simplices[n]`` lists canonical simplex values; ``faces[(n, i)]``
    and ``degeneracies[(n, i)]`` map the index of a simplex in dimension
    n to the index of its image.  The lists and tables are kept as
    handed in, not copied.
    """

    def __init__(self, n_max, simplices, faces, degeneracies):
        self.n_max = n_max
        self.simplices = simplices
        self.faces = faces
        self.degeneracies = degeneracies
        self._positions = {}

    def size(self, n):
        if not 0 <= n <= self.n_max:
            raise TruncationError(f"no level {n} at truncation {self.n_max}")
        return len(self.simplices[n])

    def edge_ends(self):
        """The 0-simplices, and the (d0, d1) indices of each 1-simplex."""
        return self.simplices[0], zip(self.faces[(1, 0)], self.faces[(1, 1)])

    def validate_identities(self):
        """All simplicial identities among operators defined within the
        truncation; returns a list of violation strings (empty = pass)."""
        return _identity_violations(
            self.n_max, [self.size(n) for n in range(self.n_max + 1)],
            self.faces, self.degeneracies)

    def normal_positions(self, n):
        """Per n-simplex, its position among the nondegenerate
        n-simplices in index order, or None if it is degenerate (the
        image of a degeneracy).  Built once per dimension."""
        pos = self._positions.get(n)
        if pos is None:
            pos = [0] * self.size(n)
            for i in range(n):
                for x in self.degeneracies[(n - 1, i)]:
                    pos[x] = None
            p = 0
            for x, v in enumerate(pos):
                if v is not None:
                    pos[x] = p
                    p += 1
            self._positions[n] = pos
        return pos


def pi0(s):
    """Connected components of the 0-simplices under 1-simplices.

    Returns the partition as a tuple of tuples of simplex values, each in
    index order, ordered by their first index.  The components of a
    nerve are those of its category, and no table is read or built.
    When the category is thin they are taken from the rows of its
    relation, each row an up-set holding its own object: a row joins
    every component it meets, so no morphism is visited.  Otherwise the
    ends of the 1-simplices come from ``s.edge_ends()`` into a
    union-find.
    """
    if s.n_max < 1:
        raise TruncationError("pi0 needs 1-simplices")
    rel = s.category.relation if isinstance(s, Nerve) else None
    if rel is not None:
        return _row_components(s.category.objects, rel)
    vals, edges = s.edge_ends()
    uf = UnionFind(range(len(vals)))
    for a, b in edges:
        uf.union(a, b)
    return tuple(tuple(vals[i] for i in cls) for cls in uf.classes())


def _row_components(vals, rows):
    """The components of a relation given by reflexive rows, as
    :func:`pi0` returns them: each row is merged with the components
    found so far that it meets."""
    components, seen = [], 0
    for row in rows:
        if row & seen:
            kept = []
            for c in components:
                if c & row:
                    row |= c
                else:
                    kept.append(c)
            components = kept
        components.append(row)
        seen |= row
    components.sort(key=lambda c: c & -c)
    return tuple(tuple(vals[i] for i in bit_positions(c)) for c in components)


def normalized_boundaries(s, up_to):
    """Boundary matrices of the normalized chain complex, as sparse rows.

    Returns (dims, boundaries): ``dims[n]`` is the number of
    nondegenerate n-simplices for n <= up_to, and ``boundaries[n]`` (for
    1 <= n <= up_to) has one row {column: entry} per nondegenerate
    (n-1)-simplex, columns being nondegenerate n-simplices; both are
    numbered by ``s.normal_positions``.  Degenerate faces die in the
    quotient and faces that cancel leave no entry.  On N([1]) the one
    nondegenerate 1-simplex f has boundary d0 f - d1 f = 1 - 0, so the
    row of vertex 0 holds -1 and that of vertex 1 holds +1:

    >>> from pmcat.fincat import FinCategory
    >>> s = nerve(FinCategory.build(["0", "1"], [("f", "0", "1")], {}), 1)
    >>> s.simplices
    [['0', '1'], [('id:0',), ('id:1',), ('f',)]]
    >>> s.normal_positions(1)
    [None, None, 0]
    >>> normalized_boundaries(s, 1)
    ([2, 1], {1: [{0: -1}, {0: 1}]})
    """
    if up_to > s.n_max:
        raise TruncationError(
            f"boundaries up to {up_to} need simplices beyond truncation {s.n_max}")
    positions = [s.normal_positions(n) for n in range(up_to + 1)]
    dims = [len(pos) - pos.count(None) for pos in positions]
    boundaries = {}
    for n in range(1, up_to + 1):
        here, below = positions[n], positions[n - 1]
        columns = [(x, c) for x, c in enumerate(here) if c is not None]
        rows = [{} for _ in range(dims[n - 1])]
        for i in range(n + 1):
            face, sign = s.faces[(n, i)], (1 if i % 2 == 0 else -1)
            for x, c in columns:
                r = below[face[x]]
                if r is not None:
                    row = rows[r]
                    v = row.get(c, 0) + sign
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        boundaries[n] = rows
    return dims, boundaries


def homology_of_boundaries(dims, boundaries, up_to):
    """Homology groups H_0..H_up_to of a chain complex given by sparse
    boundary rows; needs boundaries up to degree up_to + 1.

    Reduces the rows from low degree to high: a boundary's rows are its
    coboundary's columns, with the same invariant factors.  The row of
    every n-simplex that was a unit pivot in the reduction of the
    boundary out of degree n is dropped from the boundary out of degree
    n + 1 ("clearing"): that pivot makes the row, plus lower ones, the
    coboundary of a cochain, whose coboundary is zero.
    """
    ranks = {}
    torsions = {}
    pivots = {}
    for n in sorted(boundaries):
        cleared = pivots.get(n - 1, ())
        lows = pivots[n] = set()
        inv = smith_invariants([row for i, row in enumerate(boundaries[n])
                                if i not in cleared], lows)
        ranks[n] = len(inv)
        torsions[n] = tuple(d for d in inv if d != 1)
    out = []
    for i in range(up_to + 1):
        rank_d_i = ranks.get(i, 0)
        rank_d_next = ranks.get(i + 1, 0)
        free = dims[i] - rank_d_i - rank_d_next
        out.append(AbelianGroup(free, torsions.get(i + 1, ())))
    return out


def homology(s, up_to):
    """H_0 .. H_up_to of the normalized integral chain complex.

    Refuses degrees that the truncation cannot certify: needs
    ``up_to <= n_max - 1`` so every required boundary map exists.  The
    nerve of a thin category is replaced by the nerve of its
    :func:`preorder_core`, which has the same homotopy type, and its own
    tables are never read or built; every other simplicial set goes
    through its own normalized chains, which read its tables.
    """
    if up_to > s.n_max - 1:
        raise TruncationError(
            f"homology up to degree {up_to} is not certified at truncation {s.n_max}")
    core = s.core if isinstance(s, Nerve) else None
    dims, boundaries = normalized_boundaries(
        s if core is None else nerve(core.category, up_to + 1), up_to + 1)
    return homology_of_boundaries(dims, boundaries, up_to)


# -- preorder cores ---------------------------------------------------------

CORE_THEOREM = (
    "each removal of x with witness w is a retraction r: x -> w with "
    "i.r <= 1 (or >= 1), and a natural transformation is a homotopy of "
    "nerve maps (Quillen, Higher algebraic K-theory I, LNM 341, 1973, "
    "section 1); beat points: Stong, Finite topological spaces, "
    "Trans. AMS 123, 1966")


@dataclass(frozen=True)
class PreorderCore:
    """A thin category reduced to a full subcategory with the same nerve
    homotopy type, and the witnessed steps that got there.

    ``steps`` lists (x, w, direction) in removal order: with "down", w
    is below x and every other remaining z below x is below w; "up" is
    the dual.  Isomorphic objects are below each other, so each removes
    the other.
    """

    category: object              # full subcategory on the kept objects
    steps: tuple
    objects_before: int

    def to_dict(self):
        return {"objects_before": self.objects_before,
                "objects_after": len(self.category.objects),
                "witnessed_steps": len(self.steps),
                "theorem": CORE_THEOREM}


def _top(rest, rel):
    """An element w of the bit set ``rest`` with ``rest`` inside
    ``rel[w]``, or None."""
    r = rest
    while r:
        low = r & -r
        w = low.bit_length() - 1
        if not rest & ~rel[w]:
            return w
        r ^= low
    return None


def preorder_core(cat):
    """Remove objects of a thin category one at a time, each with a
    witness (see :class:`PreorderCore`), until none can be removed.

    Returns None when some hom-set has two elements.  Objects are tried
    in order, down before up, in sweeps until a sweep removes nothing.
    The steps are then replayed by :func:`core_violations`; a step that
    fails the replay raises StructuralError.
    """
    if not cat.is_thin():
        return None
    objects = cat.objects
    where = {o: i for i, o in enumerate(objects)}
    below, above = [0] * len(objects), [0] * len(objects)
    for m in cat.morphisms:
        a, b = where[cat.src[m]], where[cat.tgt[m]]
        below[b] |= 1 << a
        above[a] |= 1 << b
    alive = (1 << len(objects)) - 1
    steps = []
    removed = True
    while removed:
        removed = False
        for x, o in enumerate(objects):
            bit = 1 << x
            if not alive & bit:
                continue
            for rel, direction in ((below, "down"), (above, "up")):
                w = _top(rel[x] & alive & ~bit, rel)
                if w is not None:
                    alive &= ~bit
                    steps.append((o, objects[w], direction))
                    removed = True
                    break
    kept = [o for x, o in enumerate(objects) if alive >> x & 1]
    core = PreorderCore(cat.full_subcategory(kept), tuple(steps), len(objects))
    bad = core_violations(cat, core)
    if bad:
        raise StructuralError(f"preorder core step fails its re-check: {bad[0]}")
    return core


def core_violations(cat, core):
    """Replay the steps of ``core`` on the hom-sets of ``cat``; returns a
    list of violation strings (empty = pass)."""
    bad = [] if cat.is_thin() else ["some hom-set has two elements"]
    remaining = dict.fromkeys(cat.objects)
    for x, w, direction in core.steps:
        if x not in remaining or w not in remaining or x == w:
            bad.append(f"step ({x}, {w}): not two distinct remaining objects")
            continue
        if direction not in ("down", "up"):
            bad.append(f"step ({x}, {w}): direction {direction!r}")
            continue
        down = direction == "down"
        if not (cat.hom(w, x) if down else cat.hom(x, w)):
            bad.append(f"step ({x}, {w}, {direction}): {w} is not "
                       f"{'below' if down else 'above'} {x}")
        for m in (cat.into(x) if down else cat.out_of(x)):
            z = cat.src[m] if down else cat.tgt[m]
            if z != x and z in remaining and not (cat.hom(z, w) if down else cat.hom(w, z)):
                bad.append(f"step ({x}, {w}, {direction}): {z} is "
                           f"{'below' if down else 'above'} {x} but not {w}")
        del remaining[x]
    if tuple(remaining) != core.category.objects:
        bad.append(f"kept objects {core.category.objects} are not the "
                   f"remaining {tuple(remaining)}")
    return bad


# -- nerves -----------------------------------------------------------------

class Nerve(TruncatedSimplicialSet):
    """The nerve of a category, numbered by last face.

    Each level keeps the order of the level below, and the extensions of
    one (n-1)-chain c by a morphism m sit next to each other: the n-chain
    c + (m,) has index ``starts[n][index of c] + rank[n][m]``.  For
    n >= 2, ``rank[n][m]`` is the rank of m among the morphisms out of
    its source; level 1 is the same scheme with every start 0 and the
    rank of m its position in ``cat.morphisms``; ``lasts[n]`` gives each
    n-chain's last morphism by that position.  ``starts[0]``, ``rank[0]``
    and ``lasts[0]`` are None.  ``category`` is the category the nerve
    was built from.

    The first read of ``indices``, ``lasts``, ``faces``,
    ``degeneracies``, ``starts`` or ``rank`` builds all six.  Every entry
    of a table into level n is an int object of ``indices[n]``, the list
    0..size(n)-1.  ``simplices`` spells the chains as tuples on its first
    read; ``size``, ``core`` and :func:`pi0` build nothing.
    """

    def __init__(self, category, n_max):
        self.category = category
        self.n_max = n_max
        self._positions = {}

    @cached_property
    def _tables(self):
        return _nerve_tables(self.category, self.n_max)

    indices = property(lambda self: self._tables[0])
    lasts = property(lambda self: self._tables[1])
    faces = property(lambda self: self._tables[2])
    degeneracies = property(lambda self: self._tables[3])
    starts = property(lambda self: self._tables[4])
    rank = property(lambda self: self._tables[5])

    @cached_property
    def simplices(self):
        tails = [(m,) for m in self.category.morphisms]
        simplices = [list(self.category.objects), tails][:self.n_max + 1]
        for n in range(2, self.n_max + 1):
            prev = simplices[-1]
            simplices.append([prev[p] + tails[u]
                              for p, u in zip(self.faces[(n, n)], self.lasts[n])])
        return simplices

    def size(self, n):
        if not 0 <= n <= self.n_max:
            raise TruncationError(f"no level {n} at truncation {self.n_max}")
        if "_tables" in self.__dict__:
            return len(self.indices[n])
        return count_chains(self.category, n)

    def edge_ends(self):
        """Level 1 is ``category.morphisms`` in order, d0 the target."""
        cat = self.category
        where = {o: i for i, o in enumerate(cat.objects)}
        return cat.objects, ((where[cat.tgt[m]], where[cat.src[m]]) for m in cat.morphisms)

    @cached_property
    def core(self):
        """``preorder_core`` of the category, computed once."""
        return preorder_core(self.category)


def count_chains(cat, n):
    """Number of n-chains of morphisms of ``cat``, identities included,
    counted per end object without building them."""
    counts = dict.fromkeys(cat.objects, 1)
    for _ in range(n):
        nxt = dict.fromkeys(cat.objects, 0)
        for m in cat.morphisms:
            nxt[cat.tgt[m]] += counts[cat.src[m]]
        counts = nxt
    return sum(counts.values())


def nerve(cat, n_max):
    """The nerve: n-simplices are composable n-chains of morphisms,
    objects at n = 0, numbered as described on :class:`Nerve`.  Nothing
    is built here; the index tables are built on their first read, and
    the chains are spelled only when ``simplices`` is read.

    Every operator follows from the last face d_n(x), the chain x
    without its last morphism u.  For i < n - 1, d_i(x) is d_i(d_n x)
    extended by u, and d_(n-1)(x) is d_(n-1)(d_n x) extended by the
    composite of the last two morphisms, the only read of the
    category's composition.  s_n(x) extends x by an identity, and s_i(x) for
    i < n is s_i(d_n x) extended by u.  On N([2]) the composite g.f is
    the chain (f, g) with its middle vertex dropped:

    >>> from pmcat.fincat import FinCategory
    >>> s = nerve(FinCategory.build(["0", "1", "2"],
    ...                             [("f", "0", "1"), ("g", "1", "2"), ("h", "0", "2")],
    ...                             {("f", "g"): "h"}), 2)
    >>> s.simplices[1]
    [('id:0',), ('id:1',), ('id:2',), ('f',), ('g',), ('h',)]
    >>> s.starts[2]
    [0, 3, 5, 6, 8, 9]
    >>> s.simplices[2][7], s.simplices[1][s.faces[(2, 1)][7]]
    (('f', 'g'), ('h',))
    """
    return Nerve(cat, n_max)


def _nerve_tables(cat, n_max):
    """The six tables of :class:`Nerve`, every level at once."""
    objects, morphisms = cat.objects, cat.morphisms
    indices, lasts = [list(range(len(objects)))], [None]
    positions = list(range(len(morphisms)))
    where, position = dict(zip(objects, indices[0])), dict(zip(morphisms, positions))
    out = [cat.out_of(o) for o in objects]
    rank = {m: r for ms in out for r, m in enumerate(ms)}
    starts, ranks = [None], [None]
    faces, degeneracies = {}, {}
    if n_max >= 1:
        indices.append(positions)
        lasts.append(positions)
        starts.append([0] * len(objects))
        ranks.append(position)
        faces[(1, 0)] = [where[cat.tgt[m]] for m in morphisms]
        faces[(1, 1)] = [where[cat.src[m]] for m in morphisms]
        degeneracies[(0, 0)] = [position[cat.identity[o]] for o in objects]
    # per object: the ends and positions of the morphisms out of it
    out_ends = [[where[cat.tgt[m]] for m in ms] for ms in out]
    out_at = [[position[m] for m in ms] for ms in out]
    rank_at = [rank[m] for m in morphisms]
    id_rank = [rank[cat.identity[o]] for o in objects]
    if n_max >= 2:
        # per morphism f, the positions of the composites m.f with the
        # morphisms m out of its target, in rank order
        compose = cat.compose
        composites = [[position[compose(m, f)] for m in out[e]]
                      for f, e in zip(morphisms, faces[(1, 0)])]
    ends = faces.get((1, 0), ())          # the last vertex of each chain of the level
    for n in range(2, n_max + 1):
        # every entry below is an int object of ``prev`` or of ``here``,
        # taken by slicing or subscripting, never made afresh
        prev = indices[n - 1]
        counts = [len(out[e]) for e in ends]
        starts_at = list(accumulate(counts, initial=0))
        here = list(range(starts_at.pop()))
        starts_at = list(map(here.__getitem__, starts_at))
        level_lasts = list(chain.from_iterable(map(out_at.__getitem__, ends)))
        if n == 2:
            faces[(2, 0)] = level_lasts
            faces[(2, 1)] = list(chain.from_iterable(composites))
        else:
            # the n-chains extending one (n-1)-chain y form a block, in
            # rank order, so d_i (i < n - 1) sends them onto the block of
            # d_i(y)
            below = starts[n - 1]
            for i in range(n - 1):
                faces[(n, i)] = list(chain.from_iterable(
                    prev[b:b + k]
                    for b, k in zip(map(below.__getitem__, faces[(n - 1, i)]), counts)))
            if n == 3:
                composites = [[rank_at[h] for h in hs] for hs in composites]
            faces[(n, n - 1)] = [
                prev[b + r]
                for b, u in zip(map(below.__getitem__, faces[(n - 1, n - 1)]), lasts[n - 1])
                for r in composites[u]]
        faces[(n, n)] = list(chain.from_iterable(map(repeat, prev, counts)))
        # the degeneracies out of level n - 1 land here
        degeneracies[(n - 1, n - 1)] = [here[s + id_rank[e]] for s, e in zip(starts_at, ends)]
        if n == 2:
            ids = degeneracies[(0, 0)]
            degeneracies[(1, 0)] = [here[starts_at[ids[v]] + r]
                                    for v, r in zip(faces[(1, 1)], rank_at)]
        else:
            for i in range(n - 1):
                degeneracies[(n - 1, i)] = list(chain.from_iterable(
                    here[b:b + k] for b, k in
                    zip(map(starts_at.__getitem__, degeneracies[(n - 2, i)]), below_counts)))
        indices.append(here)
        lasts.append(level_lasts)
        starts.append(starts_at)
        ranks.append(rank)
        ends = list(chain.from_iterable(map(out_ends.__getitem__, ends)))
        below_counts = counts
    return indices, lasts, faces, degeneracies, starts, ranks


def nerve_map_tables(F, source, target):
    """Index tables, per dimension, of the simplicial map between the
    nerves ``source`` and ``target`` induced by the functor F.

    The image of an n-chain is the target's extension of the image of
    its last face by F of its last morphism.  F's typing is checked by
    ``check_functor_typing``; its laws are read off the tables as far as
    the truncation shows them, without composing again in the target:
    F keeps identities iff the tables commute with s_0 on vertices, and
    composites iff they commute with d_1 on 2-chains.  A violation
    raises StructuralError naming the morphism.
    """
    check_functor_typing(F).require("not a functor")
    morphisms = source.category.morphisms
    where = dict(zip(target.category.objects, target.indices[0]))
    tables = {0: [where[F.obj_map[o]] for o in source.category.objects]}
    top = min(source.n_max, target.n_max)
    images = list(map(F.mor_map.__getitem__, morphisms))
    for n in range(1, top + 1):
        starts, below, index = target.starts[n], tables[n - 1], target.indices[n]
        offset = list(map(target.rank[n].__getitem__, images))
        tables[n] = [index[starts[below[p]] + offset[u]]
                     for p, u in zip(source.faces[(n, n)], source.lasts[n])]
    if top >= 1:
        s0 = target.degeneracies[(0, 0)]
        for v, x in enumerate(source.degeneracies[(0, 0)]):
            if tables[1][x] != s0[tables[0][v]]:
                raise StructuralError(f"not a functor: F({morphisms[x]}) is not an identity")
    if top >= 2:
        d1 = target.faces[(2, 1)]
        composites = list(map(tables[1].__getitem__, source.faces[(2, 1)]))
        if composites != list(map(d1.__getitem__, tables[2])):
            x = next(x for x, (p, y) in enumerate(zip(composites, tables[2])) if p != d1[y])
            f, g = morphisms[source.faces[(2, 2)][x]], morphisms[source.lasts[2][x]]
            raise StructuralError(f"not a functor: F({g}.{f}) is not F({g}).F({f})")
    return tables


# -- bisimplicial sets --------------------------------------------------------

IDENTITIES_CHECKED_ON = {
    "check": "functors: the face and degeneracy functors between the chain "
             "categories A_k keep the functor laws and the simplicial identities",
    "theorem": "the nerve is a functor, N(G.F) = N(G).N(F): the identities hold on "
               "every cell, each horizontal map is simplicial, and the vertical ones "
               "hold in any nerve (Rezk, Trans. AMS 353, 2001)"}


class TruncatedBisimplicialSet:
    """The classification nerve of :func:`rezk_nerve` up to (k_max,
    n_max).  Column k is the nerve of A_k; the functors
    ``face_functors[(k, i)]``: A_k -> A_(k-1) and
    ``degeneracy_functors[(k, i)]``: A_k -> A_(k+1) induce the horizontal
    operators.  The tables ``hfaces``, ``vfaces``, ``hdegens`` and
    ``vdegens``, keyed (k, n, i), and the grids ``simplices`` are each
    built on their first read; ``size`` and ``validate_identities`` build
    no table."""

    def __init__(self, columns, face_functors, degeneracy_functors):
        self.k_max, self.n_max = len(columns) - 1, columns[0].n_max
        self.columns = columns
        self.face_functors, self.degeneracy_functors = face_functors, degeneracy_functors

    def size(self, k, n):
        if not (0 <= k <= self.k_max and 0 <= n <= self.n_max):
            raise TruncationError(f"no level ({k}, {n}) at truncation {self.k_max, self.n_max}")
        return self.columns[k].size(n)

    def _induced(self, functors, step):
        return {(k, n, i): t for (k, i), F in functors.items() for n, t in
                nerve_map_tables(F, self.columns[k], self.columns[k + step]).items()}

    def _vertical(self, tables):
        return {(k, *nj): t for k, c in enumerate(self.columns)
                for nj, t in getattr(c, tables).items()}

    hfaces = cached_property(lambda self: self._induced(self.face_functors, -1))
    hdegens = cached_property(lambda self: self._induced(self.degeneracy_functors, 1))
    vfaces = cached_property(lambda self: self._vertical("faces"))
    vdegens = cached_property(lambda self: self._vertical("degeneracies"))

    def validate_identities(self):
        """Each horizontal face and degeneracy must pass ``check_functor``;
        then the horizontal simplicial identities are compared as
        functors, on the objects and on the morphisms of the A_k.  A list
        of violations; if it is empty, every (bi)simplicial identity holds
        on every cell (:data:`IDENTITIES_CHECKED_ON`)."""
        bad = []
        for name, functors in (("dh", self.face_functors), ("sh", self.degeneracy_functors)):
            for (k, i), F in functors.items():
                report = check_functor(F)
                if not report.ok:
                    bad += [f"{name}{i} out of column {k}: {line}"
                            for line in report.describe().splitlines()]
        if bad:
            return bad            # the identities compose functors
        chains = [c.category for c in self.columns]
        for part, image in (("objects", "obj_map"), ("morphisms", "mor_map")):
            where = [{x: p for p, x in enumerate(getattr(a, part))} for a in chains]
            tables = [{(k, i): [where[k + step][getattr(F, image)[x]]
                                for x in getattr(chains[k], part)]
                       for (k, i), F in functors.items()}
                      for functors, step in ((self.face_functors, -1),
                                             (self.degeneracy_functors, 1))]
            bad += [f"h on {part}: {msg}" for msg in
                    _identity_violations(self.k_max, list(map(len, where)), *tables)]
        return bad

    @cached_property
    def simplices(self):
        simplices = {}
        for k, s in enumerate(self.columns):
            cat = s.category
            diagrams, components = cat.diagrams, cat.components
            grids = [((o,), (a,), ()) for o, a in map(diagrams.__getitem__, cat.objects)]
            simplices[(k, 0)] = grids
            # a grid is the grid of its last face with one more row: the
            # target diagram and the components of the last morphism
            rows = [((diagrams[cat.tgt[m]][0],), (diagrams[cat.tgt[m]][1],), (components[m],))
                    for m in cat.morphisms]
            for n in range(1, self.n_max + 1):
                grids = [(objs + o, arrows + a, steps + c)
                         for (objs, arrows, steps), (o, a, c) in zip(
                             map(grids.__getitem__, s.faces[(n, n)]),
                             map(rows.__getitem__, s.lasts[n]))]
                simplices[(k, n)] = grids
        return simplices


def rezk_nerve(rc, k_max=4, n_max=4):
    """The classification nerve of a relative category.

    The (k, n)-simplices are (k+1) x (n+1) grids of objects with k
    horizontal morphisms per row and n marked vertical morphisms per
    column, all squares commuting.  Levels: k = 0 is the nerve of the
    marked subcategory; n = 0 is the set of k-chains of the category.

    Column k is the nerve of the chain category A_k, which gives the
    vertical operators; the horizontal ones are induced by the functors
    A_k -> A_{k-1} (drop or compose at a vertex) and A_k -> A_{k+1}
    (repeat a vertex).  A grid is stored canonically as (object rows,
    horizontal arrow rows, vertical step rows).  Only the chain
    categories and the functors are built here.
    """
    cat = rc.cat
    chains = [diagram_category(rc, (ARROW,) * k) for k in range(k_max + 1)]

    def face(k, i):
        def objects(objs, arrows):
            # an end vertex drops its arrow; an inner one composes its two
            inner = (cat.compose(arrows[i], arrows[i - 1]),) if 0 < i < k else ()
            return objs[:i] + objs[i + 1:], arrows[:max(i - 1, 0)] + inner + arrows[i + 1:]
        return diagram_functor(chains[k], chains[k - 1], objects,
                               lambda c: c[:i] + c[i + 1:])

    def degeneracy(k, i):
        def objects(objs, arrows):
            return (objs[:i + 1] + objs[i:],
                    arrows[:i] + (cat.identity[objs[i]],) + arrows[i:])
        return diagram_functor(chains[k], chains[k + 1], objects,
                               lambda c: c[:i + 1] + c[i:])

    return TruncatedBisimplicialSet(
        [nerve(a_k, n_max) for a_k in chains],
        {(k, i): face(k, i) for k in range(1, k_max + 1) for i in range(k + 1)},
        {(k, i): degeneracy(k, i) for k in range(k_max) for i in range(k + 1)})
