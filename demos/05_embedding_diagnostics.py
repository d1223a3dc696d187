"""Mapping-space embedding diagnostics.

Each object A yields a presheaf: its value at B is the zigzag mapping
space B ~> A, and marked maps act by precomposition into the zigzag
legs.  The verifier certifies that marked maps induce levelwise
component bijections and homology isomorphisms (through the algebraic
mapping cone), and that component counts agree with the hom-sets of the
localization counted by the bounded word oracle, for every document.
"""

from pmcat.fixtures import build
from pmcat.relcat import RelCategory
from pmcat.sset import pi0
from pmcat.yoneda import (
    yoneda_object, check_presheaf_action, verify_yoneda_relative, ORACLE_BOUND,
)

iw = build("Iw")
print("== the presheaf of an object ==")
y1 = yoneda_object(iw.rc, "1", 2)
for b in iw.rc.cat.objects:
    print(f"  value at {b}: {y1.values[b].size(0)} zigzags, "
          f"{len(pi0(y1.values[b]))} component(s)")
print("action table lawful:", check_presheaf_action(iw.rc, y1) == [])

print()
print("== a marked map induces equivalences of values ==")
report = verify_yoneda_relative(iw.rc, 2)
print(f"Iw: {'pass' if report.passed else 'FAIL'} "
      f"({report.checked_weqs} marked map(s), {report.checked_pairs} hom pairs)")
for note in report.notes:
    print("  note:", note)

print()
print("== across the whole fixture library ==")
from pmcat.fixtures import FIXTURES
for name in FIXTURES:
    value = build(name)
    rc = value if isinstance(value, RelCategory) else value.rc
    rep = verify_yoneda_relative(rc, 1)
    print(f"  {name:3} {'pass' if rep.passed else 'FAIL'}  "
          f"(hom comparison via word oracle, bound {ORACLE_BOUND})")
