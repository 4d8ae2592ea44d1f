"""The census: every nonorientable regular embedding of H(d,n).

Candidates come from a canonical form: after conjugating inside
Aut(H(d,n)) = S_n wr S_d, the vertex rotation and tau are pinned down and
only the parameters (sigma_0, ..., sigma_{d-1}) remain.  The classifier
counts all of them, builds only those that pass the clique filter and
the involution precheck, keeps the flag-regular nonorientable survivors,
and the resulting table has nonempty cells exactly at n=2 (d=2), n=3
and 4 (all d), and n=6 (d=1, 2).
"""

import time

from regmaps import classify, clique_submap, invariants, records_to_json, verify_theorem
from regmaps.wreath import CellStats, enumerate_sigma_candidates

# candidate spaces are small but grow quickly with d and n
for d, n in ((1, 6), (2, 3), (2, 6), (3, 6)):
    count = sum(1 for _ in enumerate_sigma_candidates(d, n))
    print(f"H({d},{n}): {count} canonical candidates")

# one cell in detail: H(2,6) has exactly two embeddings, a Petrie dual pair
print("\nclassifying H(2,6)...")
stats = CellStats()
records = classify(2, 6, stats=stats)
print(f"  candidates {stats.candidates}, clique-filtered {stats.clique_rejected},")
print(f"  involution precheck rejects {stats.precheck_rejected} (counted, never built),")
print(f"  group order over the cap {stats.cap_exceeded}, kept {stats.kept}")
for rec in records:
    inv = rec.invariants
    sigma = ", ".join(str(s.cycles()) for s in rec.sigma)
    print(f"  type {inv.type_string} genus {inv.genus} |G|={inv.group_order} sigma=({sigma})")

# each Hamming map restricts to a complete-graph map on one clique fiber
print("\nclique submaps of the H(2,6) pair:")
for rec in records:
    sub = invariants(clique_submap(rec.triple(), rec.d))
    print(f"  {rec.invariants.type_string} -> clique map {sub.type_string}, group order {sub.group_order}")

# records serialize to a stable JSON census
print("\ncensus JSON for H(2,3):")
print(records_to_json(classify(2, 3)), end="")

# and the full table reproduces the classification
print("\nrunning the full table (d <= 3, n <= 7)...")
start = time.time()
report = verify_theorem(3, 7)
print(f"done in {time.time() - start:.1f}s; all cells verified: {report.ok}")
for cell in report.cells:
    types = ", ".join(r.invariants.type_string for r in cell.records)
    print(f"  H({cell.d},{cell.n}): {cell.found} embedding(s) {types}")
