"""The H(2,6) pair built directly from 2x2 matrices over GF(9).

Three explicit matrices generate the projective group PGL(2,9) of order
720, which acts faithfully on the 10 points of the projective line
PG(1,9); the three point permutations form an involution triple whose
coset graph is H(2,6).  This gives the two genus-110/101 maps without
any search, and cross-checks the census.
"""

from regmaps import hamming, invariants, is_isomorphic, coset_graph, petrie_dual
from regmaps.perms import closure
from regmaps.pgl29 import (
    M_LAM,
    M_RHO,
    M_TAU,
    gf9_mul,
    gf9_str,
    mat_det,
    pgl_closure,
    pgl_triple,
    verify_construction,
)

# the field: the ints 0..8, x = a + 3b standing for a + b*i with i^2 = -1
i, one_plus_i = 3, 4
print("i^2 =", gf9_str(gf9_mul(i, i)), " (1+i)^2 =", gf9_str(gf9_mul(one_plus_i, one_plus_i)))
print("nonzero elements:", [gf9_str(x) for x in range(1, 9)])

# the three generating matrices and their determinants
for name, mat in (("lam", M_LAM), ("rho", M_RHO), ("tau", M_TAU)):
    print(f"det M_{name} = {gf9_str(mat_det(mat))}")

# each matrix permutes the 10 points of PG(1,9): (x : 1) is point x, (1 : 0) point 9
t = pgl_triple()
print(f"\non the {t.degree} points of PG(1,9):")
print(f"  lam = {t.lam}")
print(f"  rho = {t.rho}")
print(f"  tau = {t.tau}")

# rho and tau alone span a dihedral group of order 20 (a vertex stabilizer);
# all three span the projective group of order 720
print("|<rho, tau>| =", closure([t.rho, t.tau], cap=720).order)
print("|<lam, rho, tau>| =", pgl_closure().order)

inv = invariants(t, cap=1000)
print(f"\nmap: type {inv.type_string}, chi={inv.chi}, genus {inv.genus}, "
      f"{'orientable' if inv.orientable else 'nonorientable'}")
dual = invariants(petrie_dual(t), cap=1000)
print(f"Petrie dual: type {dual.type_string}, chi={dual.chi}, genus {dual.genus}")

# the underlying graph, recovered from cosets, is the Hamming graph H(2,6)
graph = coset_graph(t, cap=1000)
print(f"\ncoset graph: {graph.n} vertices, all of degree {graph.degree(0)}")
print("isomorphic to H(2,6):", is_isomorphic(graph, hamming(2, 6)) is not None)

# the full checklist, including the match against the census records
report = verify_construction()
print(f"\nverification: {'all checks passed' if report.ok else report.failed()}")
for name, ok, detail in report.checks:
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
