"""The machine-checked retraction behind the fiber-square condition.

For each k the k-chain category A_k embeds into the zigzag-chain
category B_k by filling three slots with identities.  The toolkit
constructs the retraction r: B_k -> A'_k from the calculus data
(compose the marked maps inward, factor, push out along the U-part,
pull back along the V-part) and certifies, object by object and
morphism by morphism, the zigzags of natural weak equivalences
connecting i.r and r.i with the identities.
"""

from pmcat.fixtures import build
from pmcat.segal import embedding_parts, build_retraction, verify_segal

pms = build("Iw")
rc = pms.rc

print("== the categories for k = 2 over the marked interval ==")
h, a2, b2, a_prime = embedding_parts(rc, 2)
print(f"A_2: {len(a2.objects)} chains;  B_2: {len(b2.objects)} zigzag chains")
print(f"embedding image A'_2: {len(a_prime.objects)} of {len(b2.objects)} objects")

print()
print("== the certificate ==")
r, cert = build_retraction(pms, 2)
print(cert.summary())

print()
print("== one object, row by row ==")
# pick a zigzag whose backward map is not an identity, so the
# factor-and-push rows genuinely move
sample = next(o for o in b2.objects
              if not b2.diagrams[o][1][2].startswith("id:"))
for row_name, (objs, arrows) in cert.object_rows[sample].items():
    print(f"  {row_name:22} objects {','.join(objs)}")
    print(f"  {'':22} arrows  {','.join(arrows)}")

print()
print("== the full pipeline, k in {2, 3} ==")
report = verify_segal(pms, (2, 3), 2)
print(report.describe())
