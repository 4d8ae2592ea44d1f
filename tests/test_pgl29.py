import itertools

import pytest

from regmaps.graphs import hamming, is_isomorphic
from regmaps.maps import coset_graph, invariants, petrie_dual, validate_admissible
from regmaps.perms import closure, element_order, is_involution
from regmaps.pgl29 import (
    M_LAM,
    M_RHO,
    M_TAU,
    gf9_add,
    gf9_inv,
    gf9_mul,
    in_psl,
    mat_det,
    mat_mul,
    mat_perm,
    pgl_closure,
    pgl_triple,
    verify_construction,
)

# x = a + 3b stands for a + b*i
ELEMS = range(9)
I = 3
ONE = 1
ZERO = 0

# every check the H(2,6) construction reports, in order, with its detail
EXPECTED_CHECKS = (
    ("group_order_720", True, "order=720"),
    ("rho_tau_dihedral_20", True, "order=20"),
    ("det_lam_is_one", True, "GF9(1,0)"),
    ("lam_in_index2_subgroup", True, ""),
    ("generator_word_orders_10_10_8", True, "orders=(10, 10, 8)"),
    ("triple_validates", True, "order=720"),
    ("type_10_10_8", True, "{10,10}_8"),
    ("chi_minus_108", True, "chi=-108"),
    ("genus_110", True, "genus=110"),
    ("nonorientable", True, ""),
    ("faces_36", True, "F=36"),
    ("dual_type_8_10_10", True, "{8,10}_10"),
    ("dual_chi_minus_99", True, "chi=-99"),
    ("dual_genus_101", True, "genus=101"),
    ("dual_nonorientable", True, ""),
    ("dual_faces_45", True, "F=45"),
    ("coset_graph_simple", True, ""),
    ("coset_graph_36_vertices", True, "n=36"),
    ("coset_graph_10_regular", True, ""),
    ("coset_graph_isomorphic_h26", True, ""),
    ("census_has_both_types", True, "census=[(8, 10, 10), (10, 10, 8)]"),
    ("map_matches_census_record", True, ""),
    ("dual_matches_census_record", True, ""),
)


def scale(m, c):
    return tuple(gf9_mul(c, e) for e in m)


def invertible_matrices():
    return [m for m in itertools.product(ELEMS, repeat=4) if mat_det(m)]


def test_field_has_nine_elements():
    # addition by y and multiplication by a nonzero y permute the nine ints
    for y in ELEMS:
        assert sorted(gf9_add(x, y) for x in ELEMS) == list(ELEMS)
        if y:
            assert sorted(gf9_mul(x, y) for x in ELEMS) == list(ELEMS)


def test_field_axioms_exhaustive():
    add, mul = gf9_add, gf9_mul
    for x, y in itertools.product(ELEMS, repeat=2):
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
    for x, y, z in itertools.product(ELEMS, repeat=3):
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


def test_field_examples():
    assert gf9_mul(I, I) == 2  # i^2 = -1
    one_plus_i = 1 + I
    assert gf9_mul(one_plus_i, one_plus_i) == 2 * I  # (1+i)^2 = 2i
    assert gf9_inv(2) == 2  # 2*2 = 4 = 1 mod 3
    assert gf9_add(2, 2) == 1
    assert gf9_mul(2, 2 * I) == I


def test_multiplicative_group_order_eight():
    for x in ELEMS:
        if not x:
            continue
        acc = ONE
        for _ in range(8):
            acc = gf9_mul(acc, x)
        assert acc == ONE
        assert gf9_mul(x, gf9_inv(x)) == ONE


def test_inverting_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf9_inv(ZERO)


def test_paper_matrix_determinants():
    assert mat_det(M_LAM) == ONE
    assert mat_det(M_RHO) == 1 + I
    assert mat_det(M_TAU) == ONE


def test_mat_perm_scalar_equivalence():
    for mat in (M_LAM, M_RHO, M_TAU):
        for c in ELEMS:
            if not c:
                continue
            assert mat_perm(scale(mat, c)) == mat_perm(mat)


def test_mat_perm_is_a_homomorphism():
    mats = [M_LAM, M_RHO, M_TAU, mat_mul(M_LAM, M_RHO), mat_mul(M_RHO, M_TAU)]
    for p, q in itertools.product(mats, repeat=2):
        assert mat_perm(mat_mul(p, q)) == mat_perm(p) * mat_perm(q)


def test_mat_perm_rejects_singular_matrix():
    with pytest.raises(ValueError):
        mat_perm((1, 1, 1, 1))


def test_det_is_multiplicative():
    mats = [M_LAM, M_RHO, M_TAU, mat_mul(M_LAM, M_RHO)]
    for p, q in itertools.product(mats, repeat=2):
        assert mat_det(mat_mul(p, q)) == gf9_mul(mat_det(p), mat_det(q))


def test_gl2_and_projective_class_counts():
    # brute force over all 6561 matrices
    invertible = invertible_matrices()
    assert len(invertible) == (9**2 - 1) * (9**2 - 9) == 5760
    classes = {mat_perm(m) for m in invertible}
    assert len(classes) == 5760 // 8 == 720


def test_pgl_closure_order():
    group = pgl_closure()
    assert group.order == 720
    assert group.degree == 10
    assert pgl_triple().degree == 10


def test_rho_tau_generate_dihedral_20():
    t = pgl_triple()
    assert closure([t.rho, t.tau], cap=720).order == 20


def test_lam_lies_in_index_two_subgroup():
    members = {mat_perm(m) for m in invertible_matrices() if in_psl(m)}
    assert len(members) == 360
    assert mat_perm(M_LAM) in members
    # the square-determinant classes really are closed
    assert closure(members, cap=720).order == 360


def test_triple_generator_orders():
    t = pgl_triple()
    assert all(is_involution(g) for g in (t.lam, t.rho, t.tau))
    assert (t.lam * t.tau * t.lam * t.tau).is_identity()
    orders = (
        element_order(t.lam * t.rho),
        element_order(t.rho * t.tau),
        element_order(t.lam * t.rho * t.tau),
    )
    assert orders == (10, 10, 8)


def test_triple_invariants():
    t = pgl_triple()
    report = validate_admissible(t, cap=1000)
    assert report.ok and report.group_order == 720
    inv = invariants(t, cap=1000)
    assert inv.type_string == "{10,10}_8"
    assert (inv.vertices, inv.edges, inv.faces) == (36, 180, 36)
    assert inv.chi == -108
    assert not inv.orientable
    assert inv.genus == 110

    dual = invariants(petrie_dual(t), cap=1000)
    assert dual.type_string == "{8,10}_10"
    assert dual.faces == 45
    assert dual.chi == -99
    assert dual.genus == 101
    assert not dual.orientable


def test_coset_graph_is_h26():
    t = pgl_triple()
    graph = coset_graph(t, cap=1000)
    assert graph.n == 36
    assert all(graph.degree(v) == 10 for v in range(36))
    assert is_isomorphic(graph, hamming(2, 6)) is not None


def test_verify_construction_all_pass():
    report = verify_construction()
    assert report.ok, report.failed()
    names = [name for name, _, _ in report.checks]
    assert "group_order_720" in names
    assert "coset_graph_isomorphic_h26" in names


def test_verify_construction_checks_are_pinned():
    assert verify_construction().checks == EXPECTED_CHECKS


def test_sympy_agrees_on_the_group():
    pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    t = pgl_triple()
    lam, rho, tau = (Permutation(g.images.tolist()) for g in (t.lam, t.rho, t.tau))
    group = PermutationGroup([lam, rho, tau])
    assert group.order() == 720
    assert PermutationGroup([rho, tau]).order() == 20
    derived = group.derived_subgroup()
    assert derived.order() == 360
    assert derived.contains(lam)
