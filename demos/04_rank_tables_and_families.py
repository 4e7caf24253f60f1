"""Rank tables, the four generator families, duality and certificates.

Run with: python3 demos/04_rank_tables_and_families.py
"""

import json

from wittgrass import (GeneratorClass, bord_vanishes, class_degree, classify,
                       cyclic_sequence, duality_check, enumerate_even,
                       expected_rank, induction_report, rank_table, table_json,
                       verify_degree_transport, verify_exactness)

print("Rank tables fold the diagram basis by graded degree (shift mod 4,")
print("determinant twist), optionally keeping the mod-2 base class:")
for frame in [(2, 2), (4, 4), (4, 5), (5, 5)]:
    print(f"  {frame[0]}x{frame[1]}: {rank_table(*frame)}"
          f"  total {expected_rank(*frame)}")
print()

print("With the base support kept, the 2x2 frame splits one cell in two:")
print(f"  {rank_table(2, 2, trivial_base=False)}")
print()

print("Every even diagram falls into exactly one strip-and-blocks family,")
print("and the family alone determines the graded degree:")
for d, e in [(4, 4), (5, 5)]:
    counts = {}
    for dg in enumerate_even(d, e):
        counts[classify(dg).value] = counts.get(classify(dg).value, 0) + 1
    print(f"  {d}x{e}: {counts}")
for cls in GeneratorClass:
    print(f"  {cls.value:24s} degree in 5x5: {class_degree(cls, 5, 5)}")
print()

print("The connecting map vanishes exactly on doubly even frames:")
row = "  " + "  ".join(
    f"({d},{e}):{'0' if bord_vanishes(cyclic_sequence(d, e)) else '.'}"
    for d in (2, 3, 4) for e in (2, 3, 4))
print(row)
print()

print("Transposing diagrams is a degree-preserving bijection between a")
print("frame and its mirror:")
rep = duality_check(4, 5)
print(f"  4x5 vs 5x4: ok={rep.ok} pairs={rep.pairs_checked}")
print()

print("Per-frame certificate tying it all together (3x3 shown):")
seq = cyclic_sequence(3, 3)
cert = induction_report(seq, verify_exactness(seq, primes=(2,)),
                        verify_degree_transport(seq, trivial_base=False))
cert_small = {k: cert[k] for k in ("frame", "modules", "partition",
                                   "bord_zero", "split_short_exact",
                                   "rank_ledger", "ok")}
print(json.dumps(cert_small, indent=2))
print()

print("Machine-readable table of the 4x4 frame:")
print(json.dumps(table_json(4, 4), indent=2))
