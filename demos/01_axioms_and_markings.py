"""Relative categories and the weak-equivalence axioms.

Builds the fixture library, validates the category and marking laws,
shows the two-out-of-three / two-out-of-six scans at work -- including
the fixture designed to fail -- and runs the full axiom battery on the
fixtures that carry calculus data.
"""

from pmcat.fixtures import FIXTURES, build
from pmcat.relcat import validate_relative, check_two_of_three, check_two_of_six
from pmcat.pmc import verify_partial_model

print("== the fixture library ==")
for name in FIXTURES:
    value = build(name)
    rc = value.rc if hasattr(value, "rc") else value
    kind = "calculus structure" if hasattr(value, "rc") else "raw relative category"
    print(f"  {name:3} {kind}: {len(rc.cat.objects)} objects, "
          f"{len(rc.cat.morphisms)} morphisms, {len(rc.weq)} marked")

print()
print("== marking laws ==")
iw = build("Iw").rc
print("Iw marking valid:", validate_relative(iw).ok)

print()
print("== two-out-of-three versus two-out-of-six ==")
p4 = build("P4")
print("P4 (the linear order [3] with the two long diagonals marked):")
print("  two-of-three:", "pass" if check_two_of_three(p4).passed else "fail")
report = check_two_of_six(p4)
print("  two-of-six:  ", "pass" if report.passed else f"fail, witness {report.witnesses[0]}")
print("  the diagonals compose through 01, 12, 23, so the sixth map is forced")

print()
print("== the full axiom battery ==")
for name in ("pt", "I1", "Iw", "J", "B2"):
    pms = build(name)
    rep = verify_partial_model(pms)
    print(f"  {name:3}", "pass" if rep.passed else "FAIL")
    if name == "B2":
        print("      " + rep.describe().replace("\n", "\n      "))
