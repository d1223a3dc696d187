"""Shared builders for the small categories the tests lean on."""

from pmcat.fincat import FinCategory, Functor
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
