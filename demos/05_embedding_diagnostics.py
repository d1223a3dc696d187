"""Mapping-space embedding diagnostics.

Each object A yields a presheaf: its value at B is the zigzag mapping
space B ~> A, and marked maps act by precomposition into the zigzag
legs.  The verifier builds one table of values and reads every check
off it: the action of the marked maps on each presheaf obeys the
functor laws, marked maps induce levelwise component bijections and
homology isomorphisms (through the algebraic mapping cone), and
component counts agree with the hom-sets of the localization counted by
the bounded word oracle, for every document.
"""

from pmcat.fixtures import build
from pmcat.relcat import RelCategory
from pmcat.yoneda import (
    presheaf_values, presheaf_action, check_presheaf_action, verify_yoneda_relative,
    ORACLE_BOUND,
)

iw = build("Iw")
print("== the presheaf of an object ==")
table = presheaf_values(iw.rc, 2)   # the report's table, for every pair of objects
for b in iw.rc.cat.objects:
    value = table[(b, "1")]
    print(f"  value at {b}: {value.nerve.size(0)} zigzags, "
          f"{len(value.components)} component(s)")
action = presheaf_action(iw.rc, "1", table)
print("marked maps acting:", ", ".join(action))
print("action laws:", check_presheaf_action(iw.rc, action) or "all hold")

print()
print("== a marked map induces equivalences of values ==")
report = verify_yoneda_relative(iw.rc, 2)
print(f"Iw: {'pass' if report.passed else 'FAIL'} "
      f"({report.checked_weqs} marked map(s), {report.checked_pairs} hom pairs)")
print("  action laws on every presheaf:",
      "FAIL" if any(f[1] == "action" for f in report.failures) else "all hold")
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
