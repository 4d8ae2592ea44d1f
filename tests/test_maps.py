import pytest

from regmaps.graphs import complete, hamming, is_isomorphic
from regmaps.maps import (
    AdmissibleTriple,
    CosetGraphError,
    InvalidTripleError,
    antipodal_cycle_triple,
    clique_submap,
    coset_graph,
    format_triple,
    invariants,
    is_orientable,
    named_triple,
    nonorientability_witness,
    parse_triple,
    petrie_dual,
    validate_admissible,
)
from regmaps.perms import Perm, evaluate_word, identity
from regmaps.wreath import canonical_triple


@pytest.fixture(scope="module")
def octagon():
    return named_triple("h22-octagon")


@pytest.fixture(scope="module")
def h23_nonorientable():
    return canonical_triple((Perm([1, 0, 2]), identity(3)))


@pytest.fixture(scope="module")
def h23_orientable():
    return canonical_triple((Perm([1, 0, 2]), Perm([0, 2, 1])))


def test_octagon_validates(octagon):
    report = validate_admissible(octagon)
    assert report.ok
    assert report.group_order == 16
    assert all(ok for _, ok in report.checks)


def test_octagon_invariants(octagon):
    inv = invariants(octagon)
    assert inv.type_string == "{8,2}_8"
    assert (inv.vertices, inv.edges, inv.faces) == (4, 4, 1)
    assert inv.chi == 1
    assert not inv.orientable
    assert inv.genus == 1
    assert inv.group_order == 16


def test_octagon_coset_graph_is_4_cycle(octagon):
    graph = coset_graph(octagon)
    assert graph.n == 4
    witness = is_isomorphic(graph, hamming(2, 2))
    assert witness is not None


def test_validate_rejects_identity_generator():
    t = AdmissibleTriple(Perm([1, 0]), identity(2), Perm([1, 0]))
    report = validate_admissible(t)
    assert not report.ok
    assert dict(report.checks)["generators_are_involutions"] is False


def test_validate_reports_cap_overflow_as_failed_check():
    # lam=(0 1), tau=(2 3) commute; the triple generates a group past the cap
    t = AdmissibleTriple(
        Perm([1, 0, 2, 3, 4]), Perm([0, 2, 1, 4, 3]), Perm([0, 1, 3, 2, 4])
    )
    report = validate_admissible(t, cap=20)
    checks = dict(report.checks)
    assert checks["group_closes_within_cap"] is False
    assert report.group_order is None
    assert not report.ok


def test_euler_identity_two_routes(octagon, h23_nonorientable):
    for t in (octagon, h23_nonorientable):
        inv = invariants(t)
        assert inv.chi == inv.vertices - inv.edges + inv.faces
        p, q, order = inv.covalency, inv.valency, inv.group_order
        assert inv.chi * 4 * q * p == order * (2 * p - q * p + 2 * q)


def test_orientability(h23_nonorientable, h23_orientable):
    assert not is_orientable(h23_nonorientable)
    assert is_orientable(h23_orientable)


def test_petrie_dual_is_involution(octagon, h23_nonorientable):
    for t in (octagon, h23_nonorientable):
        assert petrie_dual(petrie_dual(t)) == t


def test_petrie_dual_swaps_covalency_and_petrie(h23_nonorientable):
    inv = invariants(h23_nonorientable)
    dual = invariants(petrie_dual(h23_nonorientable))
    assert (dual.covalency, dual.petrie) == (inv.petrie, inv.covalency)
    assert (dual.valency, dual.vertices, dual.edges, dual.group_order) == (
        inv.valency,
        inv.vertices,
        inv.edges,
        inv.group_order,
    )


def test_clique_submap_d1_is_identity_operation(h23_nonorientable):
    assert clique_submap(h23_nonorientable, 1) == h23_nonorientable


def test_clique_submap_rejects_non_hamming_input():
    # rho*tau is a 4-cycle whose square equals tau, so R^2 * tau = id
    r = Perm([1, 2, 3, 0])
    tau = Perm([2, 3, 0, 1])
    rho = r * tau
    t = AdmissibleTriple(Perm([1, 0, 3, 2]), rho, tau)
    with pytest.raises(InvalidTripleError):
        clique_submap(t, 2)


def test_witness_nonorientable_h23(h23_nonorientable):
    t = h23_nonorientable
    witness = nonorientability_witness(t, max_len=6)
    assert witness == [2, 2, 2]
    assert evaluate_word(t.L, t.R, witness) == t.tau


def test_witness_none_for_orientable(h23_orientable):
    assert nonorientability_witness(h23_orientable, max_len=8) is None


def test_witness_agrees_with_index_test(octagon, h23_nonorientable, h23_orientable):
    for t in (octagon, h23_nonorientable, h23_orientable):
        has_witness = nonorientability_witness(t, max_len=6) is not None
        assert has_witness == (not is_orientable(t))


def test_coset_graph_equals_hamming_vertex_for_vertex(h23_nonorientable):
    assert coset_graph(h23_nonorientable) == hamming(2, 3)


def test_coset_graph_detects_degenerate_edge():
    # Klein four acting on 4 points: a single vertex coset, so the edge
    # coset cannot meet two of them
    t = AdmissibleTriple(Perm([1, 0, 2, 3]), Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2]))
    with pytest.raises(CosetGraphError):
        coset_graph(t)


def test_coset_graph_detects_multi_edge():
    # the digon: two vertices joined by two edges
    t = antipodal_cycle_triple(2)
    with pytest.raises(CosetGraphError) as err:
        coset_graph(t)
    assert "multi-edge" in str(err.value)


def test_antipodal_triangle_map():
    t = antipodal_cycle_triple(3)
    inv = invariants(t)
    assert inv.type_string == "{6,2}_3"
    assert inv.group_order == 12
    assert not inv.orientable
    assert inv.genus == 1
    assert is_isomorphic(coset_graph(t), complete(3)) is not None


def test_triple_file_roundtrip(octagon):
    text = format_triple(octagon)
    assert text.splitlines()[0] == "degree 8"
    parsed = parse_triple(text)
    assert parsed == octagon


def test_triple_file_errors():
    with pytest.raises(ValueError):
        parse_triple("lambda 1 0\nrho 1 0\ntau 1 0\n")
    with pytest.raises(ValueError):
        parse_triple("degree 2\nlambda 1 0\nrho 1 0\n")
    with pytest.raises(ValueError):
        parse_triple("degree 3\nlambda 1 0\nrho 1 0 2\ntau 0 2 1\n")
    with pytest.raises(KeyError):
        named_triple("no-such-triple")
