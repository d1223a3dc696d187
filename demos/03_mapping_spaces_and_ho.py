"""Zigzag mapping spaces, the homotopy category, and saturation.

A map in the localized category is a three-arrow zigzag
A <- X -> Y <- B with marked outer maps; zigzags with fixed endpoints
form a category whose components are the homotopy-category hom-sets.
An independent word-rewriting oracle cross-checks every count, and the
saturation check compares the marking with what actually becomes
invertible.
"""

from pmcat.fixtures import build
from pmcat.sset import pi0
from pmcat.hammock import (
    zigzag_category, mapping_space, homotopy_category,
    bounded_localization_oracle, check_saturation, diagnostic_saturation,
)

print("== zigzags over the rigid interval (only identities marked) ==")
i1 = build("I1")
zc = zigzag_category(i1.rc, "0", "1")
print("zigzags 0 ~> 1 (left, mid, right):", [zc.diagrams[o][1] for o in zc.objects])
print("zigzags 1 ~> 0:", list(zigzag_category(i1.rc, "1", "0").objects) or "none")

print()
print("== mapping spaces are nerves of zigzag categories ==")
iw = build("Iw")
ms = mapping_space(iw.rc, "1", "0", 2)
print(f"Iw mapping space 1 ~> 0: {ms.size(0)} zigzags, {len(pi0(ms))} component(s)")

print()
print("== homotopy categories ==")
for name in ("I1", "Iw", "B2"):
    pms = build(name)
    ho_cat, _class_of = homotopy_category(pms)
    counts = {f"{a}->{b}": len(ho_cat.hom(a, b))
              for a in ho_cat.objects for b in ho_cat.objects}
    print(f"  {name}: hom class counts {counts}")
print("  (I1 localizes to the arrow category; Iw to the two-object")
print("   isomorphism; B2 collapses to an indiscrete groupoid)")

print()
print("== the independent word oracle agrees ==")
pms = build("Iw")
ho_cat, _class_of = homotopy_category(pms)
for a in ("0", "1"):
    for b in ("0", "1"):
        rep = bounded_localization_oracle(pms.rc, a, b, 7)
        print(f"  ({a},{b}): oracle {rep.count} (stable={rep.stable}), "
              f"homotopy category {len(ho_cat.hom(a, b))}")

print()
print("== saturation ==")
for name in ("Iw", "B2", "J"):
    print(f"  {name}:", check_saturation(build(name)).verdict)
p4 = build("P4")
rep = diagnostic_saturation(p4, 7)
print(f"  P4 (diagnostic): {rep.verdict}; unmarked but invertible: "
      f"{list(rep.unmarked_but_iso)}")
print("  inverting the two diagonals drags 01, 12, 23 along, so the")
print("  marking of P4 is not saturated")
