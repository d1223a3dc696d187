"""Small shared helpers."""


class UnionFind:
    """Plain union-find over hashable items, deterministic class output."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self):
        """Partition as a tuple of tuples, each sorted, sorted by first item."""
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        out = [tuple(sorted(g)) for g in groups.values()]
        out.sort()
        return tuple(out)
