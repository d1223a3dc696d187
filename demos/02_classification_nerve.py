"""The classification nerve of a relative category.

The (k, n)-simplices are grids: k-chains of morphisms stacked along n
marked vertical maps, all squares commuting.  Level k = 0 recovers the
nerve of the marked subcategory; the horizontal rows at n = 0 are the
plain k-chains.  The demo checks the simplicial identities, compares two
markings of one category, and computes exact integral homology of small
nerves.
"""

from pmcat.fixtures import build
from pmcat.relcat import restrict_to_weq
from pmcat.sset import rezk_nerve, nerve, homology

iw = build("Iw").rc
print("== classification nerve of the marked interval ==")
b = rezk_nerve(iw, 2, 2)
for n in range(3):
    row = [b.size(k, n) for k in range(3)]
    print(f"  n={n}:", row)
print("simplicial identities, checked on the face and degeneracy functors:",
      "all hold" if not b.validate_identities() else "VIOLATED")

print()
print("level k = 0 against the nerve of the marked subcategory:")
w_nerve = nerve(restrict_to_weq(iw).cat, 2)
print("  level-0 sizes:", [b.size(0, n) for n in range(3)])
print("  marked nerve: ", [w_nerve.size(n) for n in range(3)])

print()
print("== a marking-sensitive comparison ==")
i1 = build("I1").rc   # same category, only identities marked
for name, rc in (("Iw", iw), ("I1", i1)):
    bb = rezk_nerve(rc, 1, 1)
    print(f"  {name}: vertical edges at (0,1): {bb.size(0, 1)}"
          f"  (marking {'everything' if name == 'Iw' else 'identities only'})")

print()
print("== exact integral homology of small nerves ==")
j = build("J").rc     # the two-object isomorphism: equivalent to a point
h = homology(nerve(j.cat, 4), 2)
print("two-object isomorphism:", [str(g) for g in h])
two_pts = nerve(restrict_to_weq(i1).cat, 2)
print("discrete two objects:  ", [str(g) for g in homology(two_pts, 0)])
