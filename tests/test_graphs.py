import random

import pytest

from regmaps.graphs import Graph, complete, hamming, is_isomorphic


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_hamming_counts(d, n):
    g = hamming(d, n)
    assert g.n == n**d
    assert g.num_edges == d * (n - 1) * n**d // 2
    assert all(g.degree(v) == d * (n - 1) for v in range(g.n))


def test_hamming_d1_is_complete():
    assert hamming(1, 6) == complete(6)


def test_hamming_22_is_4_cycle():
    g = hamming(2, 2)
    assert g.edges() == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_hamming_vertex_limit():
    with pytest.raises(ValueError):
        hamming(8, 6)


def test_complete_counts():
    assert complete(3).num_edges == 3
    assert complete(6).num_edges == 15
    assert complete(2).edges() == ((0, 1),)


def test_isomorphic_self():
    g = hamming(2, 3)
    witness = is_isomorphic(g, g)
    assert witness is not None


def test_isomorphic_screen_rejects():
    assert is_isomorphic(hamming(2, 3), complete(9)) is None


def test_isomorphic_c6_vs_two_triangles():
    c6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert is_isomorphic(c6, triangles) is None
    assert is_isomorphic(triangles, c6) is None


def _verify_witness(g1, g2, mapping):
    assert sorted(mapping) == list(range(g1.n))
    for a in range(g1.n):
        for b in range(a + 1, g1.n):
            assert (b in g1.adj[a]) == (mapping[b] in g2.adj[mapping[a]])


def test_isomorphic_relabelled_graph():
    rng = random.Random(3)
    g = hamming(2, 4)
    relabel = list(range(g.n))
    rng.shuffle(relabel)
    shuffled = Graph(g.n, [(relabel[a], relabel[b]) for a, b in g.edges()])
    witness = is_isomorphic(g, shuffled)
    assert witness is not None
    _verify_witness(g, shuffled, witness)
    back = is_isomorphic(shuffled, g)
    assert back is not None
    _verify_witness(shuffled, g, back)


def test_isomorphic_symmetric_negative():
    # same degree sequence, different triangle structure
    k33 = Graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert is_isomorphic(k33, prism) is None
    assert is_isomorphic(prism, k33) is None
