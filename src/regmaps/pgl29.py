"""The 9-element field and the projective group PGL(2,9) on the 10 points
of the projective line PG(1,9).

The point of the module is the direct construction of the two
nonorientable regular embeddings of H(2,6): three explicit matrices
generate the projective group of order 720, which acts faithfully on the
10 points of PG(1,9); the three point permutations form an admissible
triple whose coset graph is H(2,6).

Field elements are the ints 0..8, x = a + 3b standing for a + b*i with
a, b mod 3 and i^2 = -1.  A matrix is the row-major 4-tuple (m00, m01,
m10, m11).  Matrices act on row vectors, v -> vM, so the point
permutations compose like the matrices: mat_perm(A) * mat_perm(B) ==
mat_perm(mat_mul(A, B)) under the apply-left-first convention of perms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import hamming, is_isomorphic
from .maps import (
    AdmissibleTriple,
    coset_graph,
    invariants,
    petrie_dual,
    validate_admissible,
)
from .perms import GroupClosure, Perm, closure, element_order

__all__ = [
    "VerificationReport",
    "gf9_add",
    "gf9_inv",
    "gf9_mul",
    "gf9_str",
    "in_psl",
    "M_LAM",
    "M_RHO",
    "M_TAU",
    "mat_det",
    "mat_mul",
    "mat_perm",
    "pgl_closure",
    "pgl_triple",
    "verify_construction",
]

Mat = tuple[int, int, int, int]

PGL_ORDER = 720  # |PGL(2,9)| = (9^2 - 1)(9^2 - 9) / 8 bounds every closure here


def _add(x: int, y: int) -> int:
    return (x + y) % 3 + 3 * ((x // 3 + y // 3) % 3)


def _mul(x: int, y: int) -> int:
    a, b, c, d = x % 3, x // 3, y % 3, y // 3
    return (a * c - b * d) % 3 + 3 * ((a * d + b * c) % 3)


_ADD = tuple(tuple(_add(x, y) for y in range(9)) for x in range(9))
_MUL = tuple(tuple(_mul(x, y) for y in range(9)) for x in range(9))
_INV = (None,) + tuple(_MUL[x].index(1) for x in range(1, 9))
_SQUARES = frozenset(_MUL[x][x] for x in range(1, 9))
_MINUS_ONE = 2


def gf9_add(x: int, y: int) -> int:
    return _ADD[x][y]


def gf9_mul(x: int, y: int) -> int:
    return _MUL[x][y]


def gf9_inv(x: int) -> int:
    if not x:
        raise ZeroDivisionError("inversion of zero in GF(9)")
    return _INV[x]


def gf9_str(x: int) -> str:
    """``GF9(a,b)`` for a + b*i."""
    return f"GF9({x % 3},{x // 3})"


def mat_mul(p: Mat, q: Mat) -> Mat:
    a, b, c, d = p
    e, f, g, h = q
    return (
        _ADD[_MUL[a][e]][_MUL[b][g]],
        _ADD[_MUL[a][f]][_MUL[b][h]],
        _ADD[_MUL[c][e]][_MUL[d][g]],
        _ADD[_MUL[c][f]][_MUL[d][h]],
    )


def mat_det(p: Mat) -> int:
    a, b, c, d = p
    return _ADD[_MUL[a][d]][_MUL[_MINUS_ONE][_MUL[b][c]]]


def in_psl(p: Mat) -> bool:
    """Whether the image of p lies in the index-2 subgroup PSL(2,9): its
    determinant is a nonzero square (scaling by c multiplies it by c^2)."""
    return mat_det(p) in _SQUARES


# the points of PG(1,9): (x : 1) is point x for x in 0..8, (1 : 0) is point 9
_POINTS = tuple((x, 1) for x in range(9)) + ((1, 0),)


def _point(x: int, y: int) -> int:
    return _MUL[x][_INV[y]] if y else 9


def mat_perm(p: Mat) -> Perm:
    """The permutation v -> vp of the 10 points of PG(1,9)."""
    if not mat_det(p):
        raise ValueError(f"singular matrix {p}")
    a, b, c, d = p
    return Perm([
        _point(_ADD[_MUL[x][a]][_MUL[y][c]], _ADD[_MUL[x][b]][_MUL[y][d]])
        for x, y in _POINTS
    ])


# the generating matrices, with -1 written as 2 and 1+i as 4
M_LAM: Mat = (2, 1, 1, 1)
M_RHO: Mat = (0, 4, 2, 0)
M_TAU: Mat = (1, 1, 1, 2)


def pgl_triple() -> AdmissibleTriple:
    """The three generators as permutations of the 10 points of PG(1,9)
    (a faithful action), ready for the map engine."""
    return AdmissibleTriple(mat_perm(M_LAM), mat_perm(M_RHO), mat_perm(M_TAU))


def pgl_closure() -> GroupClosure:
    """The full projective group generated by the three matrices; order 720."""
    t = pgl_triple()
    return closure([t.lam, t.rho, t.tau], cap=PGL_ORDER)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, passed, _ in self.checks if not passed)


def verify_construction(classify_records=None) -> VerificationReport:
    """Check every published property of the construction in one sweep.

    ``classify_records`` may carry a precomputed census of H(2,6) to avoid
    re-running the classifier.
    """
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append((name, bool(passed), detail))

    t = pgl_triple()
    group = pgl_closure()
    check("group_order_720", group.order == 720, f"order={group.order}")
    dihedral = closure([t.rho, t.tau], cap=PGL_ORDER)
    check("rho_tau_dihedral_20", dihedral.order == 20, f"order={dihedral.order}")
    check("det_lam_is_one", mat_det(M_LAM) == 1, gf9_str(mat_det(M_LAM)))
    check("lam_in_index2_subgroup", in_psl(M_LAM), "")

    orders = (
        element_order(t.lam * t.rho),
        element_order(t.rho * t.tau),
        element_order(t.lam * t.rho * t.tau),
    )
    check("generator_word_orders_10_10_8", orders == (10, 10, 8), f"orders={orders}")

    report = validate_admissible(t, cap=PGL_ORDER)
    check("triple_validates", report.ok and report.group_order == 720,
          f"order={report.group_order}")

    inv = invariants(t, cap=PGL_ORDER)
    check("type_10_10_8", inv.type_triple == (10, 10, 8), inv.type_string)
    check("chi_minus_108", inv.chi == -108, f"chi={inv.chi}")
    check("genus_110", inv.genus == 110, f"genus={inv.genus}")
    check("nonorientable", not inv.orientable, "")
    check("faces_36", inv.faces == 36, f"F={inv.faces}")

    dual = petrie_dual(t)
    dinv = invariants(dual, cap=PGL_ORDER)
    check("dual_type_8_10_10", dinv.type_triple == (8, 10, 10), dinv.type_string)
    check("dual_chi_minus_99", dinv.chi == -99, f"chi={dinv.chi}")
    check("dual_genus_101", dinv.genus == 101, f"genus={dinv.genus}")
    check("dual_nonorientable", not dinv.orientable, "")
    check("dual_faces_45", dinv.faces == 45, f"F={dinv.faces}")

    try:
        graph = coset_graph(t, cap=PGL_ORDER)
        check("coset_graph_simple", True, "")
        check("coset_graph_36_vertices", graph.n == 36, f"n={graph.n}")
        check(
            "coset_graph_10_regular",
            all(graph.degree(v) == 10 for v in range(graph.n)),
            "",
        )
        target = hamming(2, 6)
        witness = is_isomorphic(graph, target)
        verified = witness is not None and all(
            (witness[b] in target.adj[witness[a]]) for a, b in graph.edges()
        )
        check("coset_graph_isomorphic_h26", verified, "")
    except Exception as exc:  # structured failure instead of a crash
        check("coset_graph_simple", False, str(exc))

    if classify_records is None:
        from .wreath import classify

        classify_records = classify(2, 6)
    census_types = sorted(r.invariants.type_triple for r in classify_records)
    check(
        "census_has_both_types",
        census_types == [(8, 10, 10), (10, 10, 8)],
        f"census={census_types}",
    )
    by_type = {r.invariants.type_triple: r.invariants for r in classify_records}
    check(
        "map_matches_census_record",
        by_type.get(inv.type_triple) == inv,
        "",
    )
    check(
        "dual_matches_census_record",
        by_type.get(dinv.type_triple) == dinv,
        "",
    )
    return VerificationReport(tuple(checks))
