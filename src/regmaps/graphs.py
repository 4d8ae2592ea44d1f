"""Simple graphs at desk scale: Hamming and complete constructors plus
exact isomorphism testing by backtracking.

Vertices of H(d,n) are the mixed-radix encodings of [n]^d with coordinate
0 least significant (vertex index = sum v_i * n^i).  That fixes concrete
labels for the unit vectors e_i = n^i, which the canonical-triple
machinery relies on, and makes "equal as labelled graphs" meaningful.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "Graph",
    "complete",
    "hamming",
    "is_isomorphic",
]

MAX_VERTICES = 10**6


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], labels=None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        neigh = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            neigh[a].add(b)
            neigh[b].add(a)
        self.n = n
        self.adj = tuple(frozenset(s) for s in neigh)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count must match vertex count")

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (a, b) for a in range(self.n) for b in sorted(self.adj[a]) if a < b
        )

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def hamming(d: int, n: int) -> Graph:
    """H(d,n): vertices [n]^d, adjacent iff they differ in exactly one coordinate."""
    if d < 1 or n < 2:
        raise ValueError("hamming requires d >= 1 and n >= 2")
    size = n**d
    if size > MAX_VERTICES:
        raise ValueError(f"H({d},{n}) has {size} vertices, over the limit {MAX_VERTICES}")
    edges = []
    for v in range(size):
        scale = 1
        for _ in range(d):
            digit = (v // scale) % n
            for c in range(digit + 1, n):
                edges.append((v, v + (c - digit) * scale))
            scale *= n
    return Graph(size, edges)


def complete(n: int) -> Graph:
    if n < 2:
        raise ValueError("complete requires n >= 2")
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def _signatures(g: Graph) -> list[tuple]:
    """Cheap per-vertex invariants: degree, triangle count, common-neighbour
    multiset with neighbours.  Used only to screen candidates."""
    sigs = []
    for v in range(g.n):
        nv = g.adj[v]
        tri = 0
        common = []
        for w in nv:
            k = len(nv & g.adj[w])
            tri += k
            common.append(k)
        sigs.append((len(nv), tri // 2, tuple(sorted(common))))
    return sigs


def is_isomorphic(g1: Graph, g2: Graph) -> Optional[list[int]]:
    """A vertex bijection g1 -> g2 respecting adjacency, or None.

    Invariant screen first, then backtracking with full consistency
    against every already-mapped vertex (edges to edges, non-edges to
    non-edges), in a connectivity-friendly vertex order.
    """
    if g1.n != g2.n or g1.num_edges != g2.num_edges:
        return None
    sig1, sig2 = _signatures(g1), _signatures(g2)
    if sorted(sig1) != sorted(sig2):
        return None
    n = g1.n
    if n == 0:
        return []

    candidates = [[v for v in range(n) if sig2[v] == sig1[u]] for u in range(n)]

    # process vertices so each one touches the mapped part when possible
    order: list[int] = []
    placed = [False] * n
    for seed in sorted(range(n), key=lambda u: len(candidates[u])):
        if placed[seed]:
            continue
        stack = [seed]
        placed[seed] = True
        while stack:
            u = stack.pop()
            order.append(u)
            for w in sorted(g1.adj[u]):
                if not placed[w]:
                    placed[w] = True
                    stack.append(w)

    mapping = [-1] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        u = order[idx]
        mapped = order[:idx]
        for v in candidates[u]:
            if used[v]:
                continue
            ok = True
            for w in mapped:
                if (w in g1.adj[u]) != (mapping[w] in g2.adj[v]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = v
            used[v] = True
            if extend(idx + 1):
                return True
            mapping[u] = -1
            used[v] = False
        return False

    if not extend(0):
        return None
    for a, b in g1.edges():
        if mapping[b] not in g2.adj[mapping[a]]:
            raise AssertionError("isomorphism witness failed re-verification")
    return mapping
