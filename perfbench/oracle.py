"""Independent expectations for generated preorder documents.

A document from ``relcat.random_preorder_relcat`` is a preorder: there is
at most one morphism a -> b, so a morphism is the pair (a, b) and every
composite is forced.  From the order relation and the marked pairs alone
this module derives the verdicts and sizes that pmcat must report,
without calling pmcat.
"""

from itertools import product


class PreorderOracle:
    """Expected answers for one preorder with a marking."""

    def __init__(self, objects, le, marked, morphism_ids):
        self.objects = list(objects)
        self.le = set(le)                    # (a, b) with a <= b, reflexive
        self.marked = set(marked)            # marked pairs, identities included
        self.morphism_ids = dict(morphism_ids)   # non-identity pair -> id
        self.unmarked_ids = {mid for pair, mid in self.morphism_ids.items()
                             if pair not in self.marked}

    @classmethod
    def from_relcat(cls, rc):
        cat = rc.cat
        pairs = {m: (cat.src[m], cat.tgt[m]) for m in cat.morphisms}
        return cls(cat.objects, pairs.values(), (pairs[m] for m in rc.weq),
                   {pairs[m]: m for m in cat.morphisms if not cat.is_identity(m)})

    def _up(self, a):
        return [b for b in self.objects if (a, b) in self.le]

    def two_of_three_witnesses(self):
        """Composable pairs with exactly two of r, s, s.r marked."""
        m = self.marked
        return sum(1 for a in self.objects for b in self._up(a) for c in self._up(b)
                   if ((a, b) in m) + ((b, c) in m) + ((a, c) in m) == 2)

    def two_of_six_witnesses(self):
        """Composable triples with s.r and t.s marked but one of r, s, t,
        t.s.r unmarked."""
        m = self.marked
        count = 0
        for a in self.objects:
            for b in self._up(a):
                for c in self._up(b):
                    if (a, c) not in m:
                        continue
                    for d in self._up(c):
                        if (b, d) in m and not {(a, b), (b, c), (c, d), (a, d)} <= m:
                            count += 1
        return count

    def two_of_six_passes(self):
        """Two-of-six as pmcat defines it: no witness, two-of-three
        holds and every isomorphism is marked."""
        isos_marked = all((a, b) in self.marked for a, b in self.le if (b, a) in self.le)
        return (self.two_of_six_witnesses() == 0 and self.two_of_three_witnesses() == 0
                and isos_marked)

    def mapping_space(self, a, b):
        """Simplex counts in dimensions 0..2 and the number of components
        of the nerve of the zigzag category a <-w- x -> y <-w- b, whose
        morphisms are pairs of marked maps x -> x', y -> y'."""
        m, le = self.marked, self.le
        zigzags = [(x, y) for x, y in product(self.objects, repeat=2)
                   if (x, a) in m and (x, y) in le and (b, y) in m]
        arrows = [(z, w) for z in zigzags for w in zigzags
                  if (z[0], w[0]) in m and (z[1], w[1]) in m]
        into = dict.fromkeys(zigzags, 0)
        out = dict.fromkeys(zigzags, 0)
        parent = {z: z for z in zigzags}

        def find(z):
            while parent[z] != z:
                parent[z] = parent[parent[z]]
                z = parent[z]
            return z

        for z, w in arrows:
            out[z] += 1
            into[w] += 1
            parent[find(z)] = find(w)
        pairs = sum(into[z] * out[z] for z in zigzags)
        components = len({find(z) for z in zigzags})
        return [len(zigzags), len(arrows), pairs], components
