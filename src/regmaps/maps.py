"""Regular maps presented by involution triples.

A flag-regular map is carried by three involutions (lam, rho, tau) with
(lam*tau)^2 = 1: lam fixes the base edge and face, rho the base vertex
and face, tau the base vertex and edge.  All invariants are computed
group-theoretically from element orders and subgroup orders; the orders
of the map group and of its rotation subgroup <R, L> come from
``perms.orbit_stabilizer``, so validation, orientability and invariants
never list either group.  A census candidate is never validated here:
the census's own walk (``wreath``) proves that it would pass, and hands
its group order and orientability to ``_invariants_from``.  The
underlying graph is recovered from cosets, never read off the carrier
domain, because the group may act unfaithfully on the graph's vertices
(the 4-cycle map realized on the octagon is the standard example); only
that needs the listed group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph
from .perms import (
    CapExceeded,
    GroupClosure,
    Perm,
    closure,
    compose,
    element_order,
    identity,
    inverse,
    is_involution,
    orbit_stabilizer,
    perm_from_text,
    perm_to_text,
    power,
)

__all__ = [
    "AdmissibleTriple",
    "CosetGraphError",
    "DEFAULT_BUDGET",
    "InvalidTripleError",
    "MapInvariants",
    "ValidationReport",
    "antipodal_cycle_triple",
    "clique_submap",
    "coset_graph",
    "invariants",
    "is_orientable",
    "named_triple",
    "nonorientability_witness",
    "parse_triple",
    "format_triple",
    "petrie_dual",
    "validate_admissible",
]

DEFAULT_BUDGET = 100_000  # default cap on group order and candidate count


class InvalidTripleError(Exception):
    """The triple does not satisfy the regular-map preconditions."""


class CosetGraphError(Exception):
    """The coset incidence structure is not a simple graph."""

    def __init__(self, message: str, offenders):
        super().__init__(f"{message}: {offenders}")
        self.offenders = offenders


class AdmissibleTriple:
    """Involutions (lam, rho, tau) acting faithfully on a carrier domain.

    The group they generate is kept in two forms, each computed at most
    once: its order, as the orbit length of point 0 and the order of that
    point's stabilizer (``orbit_stabilizer``), and its listed elements
    (``group``), which only the coset graph and structural checks need.
    """

    __slots__ = ("lam", "rho", "tau", "_group", "_orbit_stabilizer")

    def __init__(self, lam: Perm, rho: Perm, tau: Perm):
        if not (lam.degree == rho.degree == tau.degree):
            raise ValueError("triple generators must share a degree")
        self.lam = lam
        self.rho = rho
        self.tau = tau
        self._group: Optional[GroupClosure] = None
        self._orbit_stabilizer: Optional[tuple[int, int]] = None

    @property
    def degree(self) -> int:
        return self.lam.degree

    @property
    def R(self) -> Perm:
        """Rotation around the base vertex: rho*tau, of order the valency."""
        return self.rho * self.tau

    @property
    def L(self) -> Perm:
        """The orientation-reversing edge involution lam*tau."""
        return self.lam * self.tau

    def group(self, cap: int = DEFAULT_BUDGET) -> GroupClosure:
        """Closure of the three generators, cached after the first success."""
        if self._group is not None:
            if self._group.order > cap:
                raise CapExceeded(cap)
            return self._group
        self._group = closure([self.lam, self.rho, self.tau], cap)
        return self._group

    def orbit_stabilizer(self, cap: int = DEFAULT_BUDGET) -> tuple[int, int]:
        """(orbit length of point 0, order of its stabilizer) in the group,
        found by Schreier's lemma without listing it; cached after the
        first success.  Raises CapExceeded exactly when ``group(cap)``
        would."""
        if self._orbit_stabilizer is None:
            self._orbit_stabilizer = orbit_stabilizer((self.lam, self.rho, self.tau), 0, cap)
        orbit, stab = self._orbit_stabilizer
        if orbit * stab > cap:
            raise CapExceeded(cap)
        return self._orbit_stabilizer

    def order(self, cap: int = DEFAULT_BUDGET) -> int:
        """Order of the group, without listing it; see orbit_stabilizer."""
        orbit, stab = self.orbit_stabilizer(cap)
        return orbit * stab

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AdmissibleTriple)
            and self.lam == other.lam
            and self.rho == other.rho
            and self.tau == other.tau
        )

    def __hash__(self):
        return hash((self.lam, self.rho, self.tau))

    def __repr__(self) -> str:
        return f"AdmissibleTriple(degree={self.degree})"


@dataclass(frozen=True)
class MapInvariants:
    """Numeric profile of a regular map: type {p,q}_r plus counts."""

    valency: int          # q = order(rho*tau)
    covalency: int        # p = order(lam*rho)
    petrie: int           # r = order(lam*rho*tau)
    vertices: int
    edges: int
    faces: int
    chi: int
    orientable: bool
    genus: int
    group_order: int

    @property
    def type_string(self) -> str:
        return f"{{{self.covalency},{self.valency}}}_{self.petrie}"

    @property
    def type_triple(self) -> tuple[int, int, int]:
        return (self.covalency, self.valency, self.petrie)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    group_order: Optional[int]
    checks: tuple[tuple[str, bool], ...]

    def failed(self) -> tuple[str, ...]:
        return tuple(name for name, passed in self.checks if not passed)


def _subgroup_order(gens: Sequence[Perm], cap: int) -> Optional[int]:
    try:
        return closure(gens, cap).order
    except CapExceeded:
        return None


def validate_admissible(t: AdmissibleTriple, cap: int = DEFAULT_BUDGET) -> ValidationReport:
    """Check the regular-map preconditions one by one.

    A cap overflow of the full group shows up as a failed check rather
    than an exception, so callers can treat "too big" uniformly with
    "structurally wrong".  The group order comes from ``t.order``, which
    lists no group; only the three stabilizers, of order at most 4, 2q
    and 2p, are closed in full.
    """
    checks: list[tuple[str, bool]] = []

    involutions_ok = all(is_involution(g) for g in (t.lam, t.rho, t.tau))
    checks.append(("generators_are_involutions", involutions_ok))
    lt = t.lam * t.tau
    checks.append(("lam_tau_squares_to_identity", (lt * lt).is_identity()))

    group_order: Optional[int] = None
    try:
        group_order = t.order(cap)
        checks.append(("group_closes_within_cap", True))
    except CapExceeded:
        checks.append(("group_closes_within_cap", False))

    edge_stab = _subgroup_order([t.lam, t.tau], cap=8)
    checks.append(("edge_stabilizer_klein_four", edge_stab == 4))

    q = element_order(t.R)
    vert_stab = _subgroup_order([t.rho, t.tau], cap=4 * q)
    checks.append(("vertex_stabilizer_dihedral_2q", vert_stab == 2 * q))

    p = element_order(t.lam * t.rho)
    face_stab = _subgroup_order([t.lam, t.rho], cap=4 * p)
    checks.append(("face_stabilizer_dihedral_2p", face_stab == 2 * p))

    divisible = (
        group_order is not None
        and group_order % 4 == 0
        and group_order % (2 * q) == 0
        and group_order % (2 * p) == 0
    )
    checks.append(("order_divisible_by_4_2q_2p", divisible))

    result = tuple(checks)
    return ValidationReport(all(ok for _, ok in result), group_order, result)


def is_orientable(t: AdmissibleTriple, cap: int = DEFAULT_BUDGET) -> bool:
    """Orientable iff <R, L> has index 2 in the full group (index 1 means
    the rotation subgroup already reverses orientation somewhere).

    Both orders come from Schreier orbit-stabilizer counts at point 0,
    so neither group is listed; <R, L> lies in the group, so its count
    cannot pass the group's order.  Raises CapExceeded when the group
    does not close within ``cap``.
    """
    order = t.order(cap)
    orbit, stab = orbit_stabilizer((t.R, t.L), 0, order)
    sub = orbit * stab
    index, rem = divmod(order, sub)
    if rem or index not in (1, 2):
        raise InvalidTripleError(f"<R,L> has index {order}/{sub}; triple is inconsistent")
    return index == 2


def invariants(t: AdmissibleTriple, cap: int = DEFAULT_BUDGET) -> MapInvariants:
    report = validate_admissible(t, cap)
    if not report.ok:
        raise InvalidTripleError(f"triple failed validation: {report.failed()}")
    return _invariants_from(t, report.group_order, is_orientable(t, cap))


def _invariants_from(t: AdmissibleTriple, order: int, orientable: bool) -> MapInvariants:
    """``invariants`` for a caller that holds the order of a valid
    triple's group and its orientability already: a passing validation
    report's order (so 4, 2q and 2p divide it), or a census candidate's,
    whose walk proves that the triple would validate."""
    q = element_order(t.R)
    p = element_order(t.lam * t.rho)
    r = element_order(t.lam * t.rho * t.tau)
    vertices = order // (2 * q)
    edges = order // 4
    faces = order // (2 * p)
    chi = vertices - edges + faces
    if orientable:
        if chi % 2:
            raise InvalidTripleError(f"orientable map with odd Euler characteristic {chi}")
        genus = (2 - chi) // 2
    else:
        genus = 2 - chi
    return MapInvariants(q, p, r, vertices, edges, faces, chi, orientable, genus, order)


def petrie_dual(t: AdmissibleTriple) -> AdmissibleTriple:
    """Same graph, faces replaced by the zig-zag walks: (lam*tau, rho, tau)."""
    return AdmissibleTriple(t.lam * t.tau, t.rho, t.tau)


def clique_submap(t: AdmissibleTriple, d: int) -> AdmissibleTriple:
    """Restrict a Hamming-canonical triple to one clique fiber.

    Replaces the vertex rotation R by R^d (the d-th power map operation)
    and returns (lam, R^d * tau, tau); the group it generates is the
    automorphism group of a regular complete-graph embedding when the
    input came from the canonical H(d,n) family.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    new_rho = power(t.R, d) * t.tau
    if not is_involution(new_rho):
        raise InvalidTripleError(
            "R^d * tau is not an involution; the input is not a canonical Hamming triple"
        )
    return AdmissibleTriple(t.lam, new_rho, t.tau)


def nonorientability_witness(t: AdmissibleTriple, max_len: int = 6) -> Optional[list[int]]:
    """Shortest, lexicographically least exponent word with
    L R^m1 L R^m2 ... L R^mk = tau, or None if none exists up to max_len.

    A returned word certifies nonorientability (it traces an
    orientation-reversing cycle); None is inconclusive.  Exponents range
    over 1..order(R)-1.  Prefixes with an already-seen product are pruned:
    any witness through the duplicate has an earlier twin through the
    first occurrence, so the minimal witness survives.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    q = element_order(t.R)
    if q == 1:
        return None
    l_arr = t.L.images
    r_img = t.R.images
    steps = []  # steps[m-1] = array of L * R^m
    acc = l_arr
    for _ in range(1, q):
        acc = r_img[acc]
        steps.append(acc)
    tau_key = t.tau.key
    ident = np.arange(t.degree, dtype=np.int64)
    visited = {ident.tobytes()}
    frontier: list[tuple[np.ndarray, tuple[int, ...]]] = [(ident, ())]
    for _ in range(max_len):
        nxt: list[tuple[np.ndarray, tuple[int, ...]]] = []
        for arr, word in frontier:
            for m in range(1, q):
                prod = steps[m - 1][arr]
                key = prod.tobytes()
                if key == tau_key:
                    return list(word) + [m]
                if key not in visited:
                    visited.add(key)
                    nxt.append((prod, word + (m,)))
        frontier = nxt
        if not frontier:
            break
    return None


def _orbit_coloring(matrix: np.ndarray, index: dict, gens: Sequence[np.ndarray]) -> np.ndarray:
    """Color group elements by their orbit under left multiplication by
    the given subgroup generators; colors are assigned in element order."""
    count = matrix.shape[0]
    colors = np.full(count, -1, dtype=np.int64)
    next_color = 0
    for start in range(count):
        if colors[start] >= 0:
            continue
        colors[start] = next_color
        stack = [start]
        while stack:
            j = stack.pop()
            g = matrix[j]
            for v in gens:
                k = index[g[v].tobytes()]
                if colors[k] < 0:
                    colors[k] = next_color
                    stack.append(k)
        next_color += 1
    return colors


def coset_graph(t: AdmissibleTriple, cap: int = DEFAULT_BUDGET) -> Graph:
    """Underlying graph from cosets: vertices are cosets of <rho,tau>,
    joined when some coset of <lam,tau> meets both.

    Raises CosetGraphError when the incidence is not a simple graph.  When
    the carrier domain itself is the vertex set (the stabilizer of point 0
    is exactly <rho,tau>), vertices keep their domain labels, so the result
    can be compared to a labelled graph for equality rather than just
    isomorphism.
    """
    group = t.group(cap)
    matrix = np.stack([g.images for g in group.elements])
    index = {g.key: i for i, g in enumerate(group.elements)}

    vertex_color = _orbit_coloring(matrix, index, [t.rho.images, t.tau.images])
    edge_color = _orbit_coloring(matrix, index, [t.lam.images, t.tau.images])
    n_vertices = int(vertex_color.max()) + 1
    n_edges = int(edge_color.max()) + 1

    ends: list[set[int]] = [set() for _ in range(n_edges)]
    for j in range(group.order):
        ends[int(edge_color[j])].add(int(vertex_color[j]))
    pair_owner: dict[tuple[int, int], int] = {}
    edges = []
    for e, vs in enumerate(ends):
        if len(vs) != 2:
            raise CosetGraphError(
                "edge coset does not meet exactly two vertex cosets",
                {"edge_coset": e, "vertex_cosets": sorted(vs)},
            )
        a, b = sorted(vs)
        if (a, b) in pair_owner:
            raise CosetGraphError(
                "two edge cosets join the same vertex pair (multi-edge)",
                {"pair": (a, b), "edge_cosets": (pair_owner[(a, b)], e)},
            )
        pair_owner[(a, b)] = e
        edges.append((a, b))

    # relabel by carrier points when the carrier is the vertex set itself
    if (
        t.degree == n_vertices
        and int(t.rho.images[0]) == 0
        and int(t.tau.images[0]) == 0
    ):
        point = np.full(n_vertices, -1, dtype=np.int64)
        for j in range(group.order):
            point[int(vertex_color[j])] = int(matrix[j, 0])
        if len(set(point.tolist())) == n_vertices:
            edges = [(int(point[a]), int(point[b])) for a, b in edges]
    return Graph(n_vertices, edges)


def antipodal_cycle_triple(m: int) -> AdmissibleTriple:
    """The m-cycle embedded in the projective plane, carried upstairs on
    the regular 2m-gon: rotation r, reflection s fixing point 0, and the
    triple (s, s*r, r^m) inside the dihedral group of order 4m."""
    if m < 2:
        raise ValueError("m must be >= 2")
    deg = 2 * m
    r = Perm([(i + 1) % deg for i in range(deg)])
    s = Perm([(-i) % deg for i in range(deg)])
    return AdmissibleTriple(s, s * r, power(r, m))


_BUILTIN_TRIPLES = {
    "h22-octagon": lambda: antipodal_cycle_triple(4),
}


def named_triple(name: str) -> AdmissibleTriple:
    try:
        factory = _BUILTIN_TRIPLES[name]
    except KeyError:
        raise KeyError(f"unknown builtin triple {name!r}") from None
    return factory()


def builtin_triple_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN_TRIPLES))


def format_triple(t: AdmissibleTriple) -> str:
    """Triple file: ``degree N`` then one line per generator."""
    return "\n".join(
        [
            f"degree {t.degree}",
            f"lambda {perm_to_text(t.lam)}",
            f"rho {perm_to_text(t.rho)}",
            f"tau {perm_to_text(t.tau)}",
        ]
    ) + "\n"


def parse_triple(text: str) -> AdmissibleTriple:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("degree"):
        raise ValueError("triple file must start with a 'degree N' line")
    try:
        degree = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("malformed degree line") from None
    gens: dict[str, Perm] = {}
    for ln in lines[1:]:
        name, _, rest = ln.partition(" ")
        if name not in ("lambda", "rho", "tau"):
            raise ValueError(f"unexpected line {ln!r}")
        if name in gens:
            raise ValueError(f"duplicate generator {name!r}")
        p = perm_from_text(rest)
        if p.degree != degree:
            raise ValueError(f"{name} has degree {p.degree}, expected {degree}")
        gens[name] = p
    missing = {"lambda", "rho", "tau"} - set(gens)
    if missing:
        raise ValueError(f"missing generator lines: {sorted(missing)}")
    return AdmissibleTriple(gens["lambda"], gens["rho"], gens["tau"])
