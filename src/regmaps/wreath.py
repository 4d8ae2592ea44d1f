"""Wreath-product actions on Hamming graphs and the nonorientable census.

The automorphism group of H(d,n) is the wreath product S_n wr S_d: a base
of d copies of S_n acting coordinatewise, extended by S_d permuting the
coordinate positions.  Every flag-regular embedding can be conjugated so
that its triple takes a canonical shape parameterized by d permutations
(sigma_0, ..., sigma_{d-1}) and an involution theta of the positions, and
a nonorientable one has theta = beta_d, so a census candidate is its
sigma tuple alone.  ``classify`` counts the tuples of that shape, counts
the ones that fail the clique filter or the involution precheck without
building them, streams the rest, keeps the candidates whose group is a
flag-regular nonorientable map on H(d,n), and emits them as census records.
Every candidate lies in Aut H(d,n), whose vertex stabilizer acts
faithfully on the base vertex's k = d(n-1) neighbours N(0), so its group
order and orientability are decided by ``perms.schreier_walk`` with N(0)
as the base: each Schreier generator is tested on those k points alone.
A completed order walk also proves the triple valid, so no candidate is
validated; a census record read back from JSON is decided the same way,
once its sigma passes the shape checks that enumerated tuples meet by
construction.  The data a cell's walks share is built once per cell.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphs import Graph, hamming, is_isomorphic
from .maps import (
    DEFAULT_BUDGET,
    AdmissibleTriple,
    MapInvariants,
    _invariants_from,
    antipodal_cycle_triple,
    invariants,
    nonorientability_witness,
)
from .perms import (
    MAX_DEGREE,
    CapExceeded,
    GroupClosure,
    Perm,
    _trusted,
    closure,
    element_order,
    evaluate_word,
    identity,
    inverse,
    is_involution,
    power,
    schreier_walk,
)

__all__ = [
    "BudgetExceeded",
    "CellResult",
    "CellStats",
    "DegreeBoundExceeded",
    "FixedCellResult",
    "MapRecord",
    "TheoremReport",
    "alpha_perm",
    "beta_perm",
    "canonical_r",
    "canonical_tau",
    "canonical_triple",
    "classify",
    "enumerate_sigma_candidates",
    "expected_count",
    "gamma_perm",
    "maps_isomorphic",
    "record_from_dict",
    "record_to_dict",
    "records_from_json",
    "records_to_json",
    "regular_vertex_subgroup",
    "tau_seed_perm",
    "triples_map_isomorphic",
    "verify_theorem",
    "wreath_to_perm",
]

DEFAULT_WITNESS_LEN = 6


class BudgetExceeded(Exception):
    """A census cell is larger than the configured search budget."""


class DegreeBoundExceeded(BudgetExceeded):
    """A census cell's degree n^d is past ``perms.MAX_DEGREE``."""


# ---------------------------------------------------------------------------
# wreath elements


def wreath_to_perm(base: Sequence[Perm], top: Perm) -> Perm:
    """The permutation of the n^d mixed-radix vertex indices induced by
    (base_0, ..., base_{d-1}) * top in S_n wr S_d, which applies base_i to
    the value in coordinate i, then moves position i to position top(i)."""
    d = len(base)
    if d != top.degree:
        raise ValueError("base length must equal the top permutation's degree")
    n = base[0].degree
    if any(b.degree != n for b in base):
        raise ValueError("base permutations must share a degree")
    if n**d > MAX_DEGREE:
        raise ValueError(f"degree {n**d} exceeds the supported bound {MAX_DEGREE}")
    # y(v) = sum_i base_i[digit_i(v)] * n^top(i), built as an outer sum
    # over the digits, least significant first, so the flat index is v
    scales = n ** np.arange(d, dtype=np.int64)
    images = np.zeros(1, dtype=np.int64)
    for i in range(d):
        term = base[i].images * scales[top(i)]
        images = (term[:, None] + images).ravel()
    # the base and top are checked permutations, so the images are one too
    return _trusted(images)


# ---------------------------------------------------------------------------
# the canonical triple family


@lru_cache(maxsize=None)
def alpha_perm(d: int) -> Perm:
    """The coordinate cycle (0 1 ... d-1)."""
    return Perm([(i + 1) % d for i in range(d)])


@lru_cache(maxsize=None)
def beta_perm(d: int) -> Perm:
    """The inversion (0)(1 d-1)(2 d-2)...; the identity when d <= 2."""
    return Perm([(-i) % d for i in range(d)])


@lru_cache(maxsize=None)
def gamma_perm(n: int) -> Perm:
    """The cycle (1 2 ... n-1) fixing 0."""
    images = [0] + [i + 1 for i in range(1, n - 1)] + ([1] if n > 1 else [])
    return Perm(images[:n] if n > 1 else [0])


@lru_cache(maxsize=None)
def tau_seed_perm(n: int) -> Perm:
    """(0)(1)(2 n-1)(3 n-2)...: the neighbour inversion fixing 0 and 1."""
    return Perm([k if k < 2 else (n + 1 - k) % n for k in range(n)])


def _check_sigma(d: int, n: int, sigma: Sequence[Perm]) -> None:
    """Raise ValueError unless sigma = (sigma_0..sigma_{d-1}) gives a canonical
    triple of H(d,n): sigma_0 transposes 0 and 1, and each other sigma_i fixes 0
    with sigma_{d-i} its inverse.  Enumerated tuples meet this by construction."""
    if d < 1 or n < 3:
        raise ValueError("requires d >= 1 and n >= 3")
    if len(sigma) != d or any(s.degree != n for s in sigma):
        raise ValueError("sigma must hold d permutations of [n]")
    if sigma[0](0) != 1 or sigma[0](1) != 0:
        raise ValueError("sigma_0 must transpose 0 and 1")
    for i in range(1, d):
        if sigma[i](0) != 0:
            raise ValueError(f"sigma_{i} must fix 0")
        if not (sigma[i] * sigma[d - i]).is_identity():
            raise ValueError(f"sigma_{i} * sigma_{d - i} must be the identity")


@lru_cache(maxsize=None)
def canonical_tau(d: int, n: int) -> Perm:
    """tau = (tau_seed, beta_n, ..., beta_n) * beta_d as a vertex permutation."""
    base = (tau_seed_perm(n),) + tuple(beta_perm(n) for _ in range(d - 1))
    return wreath_to_perm(base, beta_perm(d))


@lru_cache(maxsize=None)
def canonical_r(d: int, n: int) -> Perm:
    """R = (id, ..., id, gamma_n) * alpha_d: the base vertex rotation."""
    base = tuple(identity(n) for _ in range(d - 1)) + (gamma_perm(n),)
    return wreath_to_perm(base, alpha_perm(d))


def canonical_triple(sigma: tuple[Perm, ...]) -> AdmissibleTriple:
    """The triple (L*tau, R*tau, tau) on the n^d vertex indices, where L =
    (sigma_0, ..., sigma_{d-1}) * beta_d, d = len(sigma), n = sigma_0's degree."""
    d, n = len(sigma), sigma[0].degree
    tau = canonical_tau(d, n)
    lam = wreath_to_perm(sigma, beta_perm(d)) * tau
    rho = canonical_r(d, n) * tau
    return AdmissibleTriple(lam, rho, tau)


# ---------------------------------------------------------------------------
# candidate enumeration


def _perms_with_prefix(n: int, prefix: tuple[int, ...], involutory: bool) -> tuple[Perm, ...]:
    """Permutations of [n] whose image list starts with ``prefix``, in
    lexicographic order; with ``involutory`` only those squaring to the
    identity.  Only the tails are walked, and only the kept ones built."""
    rest = [k for k in range(n) if k not in prefix]
    out = []
    for tail in itertools.permutations(rest):
        images = prefix + tail
        if involutory and any(images[images[i]] != i for i in range(n)):
            continue
        out.append(Perm(images))
    return tuple(out)


@lru_cache(maxsize=None)
def _sigma0_choices(n: int) -> tuple[Perm, ...]:
    # the involutions with 0 -> 1, which all transpose 0 and 1
    return _perms_with_prefix(n, (1, 0), involutory=True)


@lru_cache(maxsize=None)
def _fixing0_choices(n: int, involutory: bool) -> tuple[Perm, ...]:
    return _perms_with_prefix(n, (0,), involutory)


def _fixing0_count(n: int, involutory: bool) -> int:
    """len(_fixing0_choices(n, involutory)), counted without building the
    pool: (n-1)! permutations of the points 1..n-1, of which I(n-1) square
    to the identity, where I(m) = I(m-1) + (m-1) I(m-2) and I(0) = I(1) = 1
    (the point m is fixed or swapped with one of the other m-1)."""
    if not involutory:
        return math.factorial(n - 1)
    prev, cur = 1, 1
    for m in range(2, n):
        prev, cur = cur, cur + (m - 1) * prev
    return cur


def _slots(d: int) -> tuple[tuple[int, int], ...]:
    """The orbits {i, d-i} of beta_d on positions 1..d-1, as (i, d-i) with
    i <= d-i.  Slot (i, j) takes a sigma_i fixing 0, which must be an
    involution when i == j; sigma_j is then its inverse."""
    return tuple((i, d - i) for i in range(1, d // 2 + 1))


def _candidates(d: int, sigma0s, pools) -> Iterator[tuple[Perm, ...]]:
    """Stream the sigma tuples of the given sigma_0 choices, with the
    sigma_i of slot k of ``_slots(d)`` drawn from ``pools[k]``, in
    lexicographic order; nothing is built before it is asked for.  The
    tuples meet ``_check_sigma`` by construction and are not checked."""
    slots = _slots(d)
    for sigma0 in sigma0s:
        for picks in itertools.product(*pools):
            sigma = [sigma0] * d  # the slots then cover positions 1..d-1
            for (i, j), pick in zip(slots, picks):
                sigma[i] = pick
                sigma[j] = inverse(pick)
            yield tuple(sigma)


def enumerate_sigma_candidates(d: int, n: int) -> Iterator[tuple[Perm, ...]]:
    """All sigma tuples with theta = beta_d, the only shape a
    nonorientable triple can take, in deterministic lexicographic order."""
    if d < 1 or n < 3:
        raise ValueError("requires d >= 1 and n >= 3")
    pools = [_fixing0_choices(n, i == j) for i, j in _slots(d)]
    yield from _candidates(d, _sigma0_choices(n), pools)


# ---------------------------------------------------------------------------
# census records


CENSUS_NOTES = {
    (1, 3, 6, 2, 3): "antipodal hexagon quotient; real projective plane",
    (1, 4, 4, 3, 3): "antipodal cube quotient; real projective plane",
    (1, 6, 3, 5, 5): "antipodal icosahedron quotient; real projective plane",
    (1, 6, 5, 5, 3): "antipodal great-dodecahedron quotient; N5.3",
    (2, 3, 6, 4, 4): "dual of N5.2",
    (2, 4, 4, 6, 6): "N10.1",
    (3, 3, 6, 6, 9): "N29.2",
    (3, 4, 4, 9, 9): "N82.1",
    (2, 6, 10, 10, 8): "N110.7",
    (2, 6, 8, 10, 10): "N101.8",
}

# The (1,3) record is carried on the hexagon (see MapRecord.triple), so its
# triple ignores sigma; it is fixed to tell the record apart.
K3_SIGMA = (Perm([1, 0, 2]),)


@dataclass(frozen=True)
class MapRecord:
    """A classified nonorientable regular embedding of H(d,n)."""

    d: int
    n: int
    sigma: tuple[Perm, ...]
    invariants: MapInvariants
    witness: Optional[tuple[int, ...]]
    census_note: Optional[str] = None

    def triple(self) -> AdmissibleTriple:
        """Rebuild the working triple.

        The (1,3) record is carried on the hexagon rather than the vertex
        set: the 3-cycle's map group has order 12 and its vertex-and-edge
        fixing involution acts trivially on the 3 vertices, so no faithful
        vertex-carrier triple exists.
        """
        if (self.d, self.n) == (1, 3):
            return antipodal_cycle_triple(3)
        return canonical_triple(self.sigma)


def record_to_dict(rec: MapRecord) -> dict:
    inv = rec.invariants
    return {
        "d": rec.d,
        "n": rec.n,
        "sigma": [[int(x) for x in s.images] for s in rec.sigma],
        "theta": [int(x) for x in beta_perm(rec.d).images],
        "type": {"p": inv.covalency, "q": inv.valency, "r": inv.petrie},
        "V": inv.vertices,
        "E": inv.edges,
        "F": inv.faces,
        "chi": inv.chi,
        "orientable": inv.orientable,
        "genus": inv.genus,
        "group_order": inv.group_order,
        "witness": list(rec.witness) if rec.witness is not None else None,
        "census_note": rec.census_note,
    }


def records_to_json(records: Sequence[MapRecord]) -> str:
    return json.dumps([record_to_dict(r) for r in records], indent=2) + "\n"


def _field(obj, name: str, kind, where: str = "census record"):
    """obj[name] of a parsed JSON object, an instance of ``kind`` or of
    one of a tuple of kinds (an int field refuses a bool, and type(None)
    admits null), or ValueError naming the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object: {obj!r}")
    if name not in obj:
        raise ValueError(f"{where} has no {name!r} field")
    value = obj[name]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{where} field {name!r} is {value!r}, not {expected}")
    return value


def _ints(values: list, name: str) -> list:
    """A record's array of integers, or ValueError naming its field."""
    if type(values) is not list or any(type(x) is not int for x in values):
        raise ValueError(f"census record field {name!r} is not an array of integers: {values!r}")
    return values


def record_from_dict(obj: dict) -> MapRecord:
    # every record is stored with theta = beta_d, which its triple assumes;
    # beta is built at the stored theta's degree, never at an unchecked d
    d = _field(obj, "d", int)
    theta = Perm(_ints(_field(obj, "theta", list), "theta"))
    if theta.degree != d or theta != beta_perm(theta.degree):
        raise ValueError(f"record theta {obj['theta']} is not beta_{d}")
    kind = _field(obj, "type", object)  # its own fields check that it is an object
    inv = MapInvariants(
        valency=_field(kind, "q", int, "record type"),
        covalency=_field(kind, "p", int, "record type"),
        petrie=_field(kind, "r", int, "record type"),
        vertices=_field(obj, "V", int),
        edges=_field(obj, "E", int),
        faces=_field(obj, "F", int),
        chi=_field(obj, "chi", int),
        orientable=_field(obj, "orientable", bool),
        genus=_field(obj, "genus", int),
        group_order=_field(obj, "group_order", int),
    )
    witness = _field(obj, "witness", (list, type(None)))
    rec = MapRecord(
        d=d,
        n=_field(obj, "n", int),
        sigma=tuple(Perm(_ints(s, "sigma")) for s in _field(obj, "sigma", list)),
        invariants=inv,
        witness=tuple(_ints(witness, "witness")) if witness is not None else None,
        census_note=_field(obj, "census_note", (str, type(None))),
    )
    _revalidate_record(rec)
    return rec


def records_from_json(text: str) -> list[MapRecord]:
    records = json.loads(text)
    if type(records) is not list:
        raise ValueError(f"census JSON is not an array of records: {records!r}")
    return [record_from_dict(obj) for obj in records]


def _revalidate_record(rec: MapRecord) -> None:
    """Decide a loaded record as the census decided it, or raise ValueError."""
    cell = (rec.d, rec.n)
    if cell == (1, 3) and rec.sigma != K3_SIGMA:
        raise ValueError("the (1,3) record carries a fixed sigma")
    _check_sigma(rec.d, rec.n, rec.sigma)
    t = rec.triple()
    expected_order = 2 * rec.d * (rec.n - 1) * rec.n**rec.d
    if rec.invariants.group_order != expected_order:
        raise ValueError(
            f"record group order {rec.invariants.group_order} != {expected_order}"
        )
    if cell == (1, 3):
        recomputed = invariants(t, cap=expected_order)
    elif not (_rho_tau_involutory(*cell) and is_involution(t.lam)):
        raise ValueError("record triple fails the census's involution precheck")
    else:
        # the census's order and orientability walks
        reason, recomputed = _evaluate_candidate(t, *cell, expected_order)
        if reason != "kept":
            raise ValueError(f"record triple is not a kept census map: {reason}")
    if recomputed != rec.invariants:
        raise ValueError(f"stored invariants {rec.invariants} != recomputed {recomputed}")
    note = CENSUS_NOTES.get((rec.d, rec.n) + recomputed.type_triple)
    if rec.census_note != note:
        raise ValueError(f"stored census note {rec.census_note!r} != {note!r}")
    if rec.witness is not None:
        word = evaluate_word(t.L, t.R, rec.witness)
        if word != t.tau:
            raise ValueError(f"stored witness {rec.witness} does not evaluate to tau")


# ---------------------------------------------------------------------------
# the classifier


@dataclass
class CellStats:
    """Counts of one census cell, each set by the stage its comment names.
    The five never set name checks that the walks make redundant (see
    ``_evaluate_candidate`` and ``classify``); they stay, reading 0, because
    ``perfbench/references.json`` holds every field and is compared field
    by field."""

    candidates: int = 0  # every tuple of the cell's shape, from pool sizes
    clique_rejected: int = 0  # the clique filter on sigma_0
    precheck_rejected: int = 0  # the counted involution precheck
    cap_exceeded: int = 0  # the order walk, on a generator outside <rho,tau>
    wrong_order: int = 0  # never set
    bad_stabilizer: int = 0  # never set
    not_simple: int = 0  # never set
    invalid: int = 0  # never set
    orientable: int = 0  # the walk on <R,L>, when it completes
    kept: int = 0  # the walk on <R,L>, when it finds a generator outside <R>
    deduped: int = 0  # never set


def _clique_action_fits(n: int, sigma0: Perm) -> bool:
    """Necessary condition on sigma_0 alone: the clique submap's group
    restricted to one clique's vertices is a quotient of a complete-graph
    map group, so its order must divide 2n(n-1)."""
    target = 2 * n * (n - 1)
    try:
        order = closure([gamma_perm(n), sigma0, tau_seed_perm(n)], cap=target).order
    except CapExceeded:
        return False
    return target % order == 0


@lru_cache(maxsize=None)
def _fitting_sigma0s(n: int) -> tuple[Perm, ...]:
    """The sigma_0 choices that pass the clique filter; they depend on n
    alone, so every d shares one decision."""
    return tuple(s for s in _sigma0_choices(n) if _clique_action_fits(n, s))


# With theta = beta_d, lam = L*tau has trivial top and base (sigma_0*tau_seed,
# sigma_1*beta_n, ..., sigma_{d-1}*beta_n), so lam^2 = 1 exactly when every
# base entry squares to the identity.  sigma_0*tau_seed sends 0 to 1, so lam
# is never the identity.  sigma_i and its inverse sigma_{d-i} pass or fail
# together, so the test is one per slot pick, and each pool is filtered once.


def _squares_to_one(p: Perm, q: Perm) -> bool:
    """(p*q)^2 = 1, the identity included."""
    pq = q.images[p.images]
    return bool(np.array_equal(pq[pq], np.arange(pq.size)))


@lru_cache(maxsize=None)
def _lam_involutory_sigma0s(sigma0s: tuple[Perm, ...]) -> tuple[Perm, ...]:
    return tuple(s for s in sigma0s if _squares_to_one(s, tau_seed_perm(s.degree)))


@lru_cache(maxsize=None)
def _lam_involutory_picks(n: int, involutory: bool) -> tuple[Perm, ...]:
    return tuple(s for s in _fixing0_choices(n, involutory) if _squares_to_one(s, beta_perm(n)))


def _rho_tau_involutory(d: int, n: int) -> bool:
    """The built precheck on the two generators every candidate of the
    cell shares."""
    tau = canonical_tau(d, n)
    return is_involution(canonical_r(d, n) * tau) and is_involution(tau)


@lru_cache(maxsize=None)
def _cell_walk_data(d: int, n: int):
    """What the walks of the cell's candidates share: N(0) = {a * n^i},
    the k = d(n-1) neighbours of the base vertex; the actions on N(0) of
    <rho,tau> = <R,tau> and of <R>, each as the set of its elements'
    position tuples over N(0); and the image lists of rho, tau and R.

    Raises RuntimeError unless R is transitive on N(0) and |<R,tau>| = 2k,
    the two facts, true by construction, that make the walks of
    ``_evaluate_candidate`` exact: with the first, a group holding R and
    an element that moves 0 into N(0) is transitive on the vertices of
    the connected graph, so its order is n^d times its stabilizer's.
    """
    nbrs = tuple(a * n**i for i in range(d) for a in range(1, n))
    k = len(nbrs)
    place = dict(zip(nbrs, range(k)))
    r, tau = canonical_r(d, n), canonical_tau(d, n)
    # R and tau fix the base vertex, so they permute its neighbours
    r_local, tau_local = (Perm([place[p(x)] for x in nbrs]) for p in (r, tau))
    rotations = frozenset(tuple(power(r_local, i).images.tolist()) for i in range(k))
    try:
        dihedral = closure([r_local, tau_local], cap=2 * k).elements
    except CapExceeded:
        dihedral = ()
    if len({key[0] for key in rotations}) != k or len(dihedral) != 2 * k:
        raise RuntimeError(
            f"cell ({d},{n}): R is not transitive on N(0) or |<rho,tau>| != {2 * k}"
        )
    dihedral_keys = frozenset(tuple(e.images.tolist()) for e in dihedral)
    return (nbrs, dihedral_keys, rotations, *(p.images.tolist() for p in (r * tau, tau, r)))


def _evaluate_candidate(t: AdmissibleTriple, d: int, n: int, target: int):
    """Decide the triple of a candidate of cell (d, n) that passed the
    involution precheck; its rho and tau are the cell's (``_cell_walk_data``).

    Returns (reason, invariants) where reason is "cap_exceeded",
    "orientable" or "kept", and invariants is None unless it is kept.
    No group is listed.  A completed order walk shows that the stabilizer
    G_0 of vertex 0 is <rho,tau>, dihedral of order 2k, acting faithfully
    on the k = d(n-1) neighbours N(0), on which R is transitive (the
    cell's facts).  Then only orientability can reject the candidate:

    (a) lam(0) = 1 lies in N(0), G_0 is transitive on N(0) and H(d,n) is
        connected, so the orbit of vertex 0 is all n^d vertices and
        |G| = 2k * n^d = ``target``;
    (b) the stabilizer of 0 and 1 has order 2k/k = 2 and lam swaps 0 and
        1, so the stabilizer of the pair {0,1} has order 4 and the orbit
        of the base edge is target/4 pairs: the map's graph is H(d,n);
    (c) every check of ``maps.validate_admissible`` holds: lam, rho and
        tau are involutions; L^2 = 1 by construction, so <lam,tau> is a
        Klein four-group; R acts on N(0) as a k-cycle, so q = k and
        |<rho,tau>| = 2q; <lam,rho> is generated by two distinct
        involutions, so it is dihedral of order 2p; and 4, 2q and 2p
        divide |G| by Lagrange.
    """
    nbrs, dihedral, rotations, rho, tau, r = _cell_walk_data(d, n)
    # G is vertex-transitive (lam moves 0 to 1), so a Schreier generator
    # outside <rho,tau>, of order 2k, means |G| >= 2 * n^d * 2k > target;
    # if there is none, the stabilizer is <rho,tau>
    if isinstance(schreier_walk((t.lam.images.tolist(), rho, tau), 0, nbrs, dihedral), tuple):
        return ("cap_exceeded", None)
    # <R,L> lies in G and is vertex-transitive too (L moves 0 to 1), so
    # it has index 2, the orientable case, iff its stabilizer is <R>
    if not isinstance(schreier_walk((r, t.L.images.tolist()), 0, nbrs, rotations), tuple):
        return ("orientable", None)
    return ("kept", _invariants_from(t, target, orientable=False))


def _k3_record(max_witness_len: int) -> MapRecord:
    # Only cell whose map group cannot be carried on the vertex set; see
    # MapRecord.triple.  Uniqueness is the classical complete-graph result.
    t = antipodal_cycle_triple(3)
    inv = invariants(t)
    wit = nonorientability_witness(t, max_witness_len)
    note = CENSUS_NOTES.get((1, 3) + inv.type_triple)
    return MapRecord(1, 3, K3_SIGMA, inv, tuple(wit) if wit is not None else None, note)


def classify(
    d: int,
    n: int,
    *,
    max_witness_len: int = DEFAULT_WITNESS_LEN,
    budget: int = DEFAULT_BUDGET,
    stats: Optional[CellStats] = None,
) -> list[MapRecord]:
    """All nonorientable regular embeddings of H(d,n), as census records.

    Candidates are the canonical sigma tuples with theta = beta_d.
    The degree n^d is checked against ``perms.MAX_DEGREE``, and the
    candidates, counted from the sizes of their parameter pools, against
    ``budget``, before any is built; either raises BudgetExceeded (the
    first as its subclass DegreeBoundExceeded).  The clique filter
    depends on sigma_0 alone, so it is applied to the sigma_0 choices.
    The involution precheck on lam = L*tau splits into
    one test per parameter, so it is applied to the sigma_0 choices and
    to each slot's pool, and the tuples failing it are counted, not
    built; rho and tau are shared by the cell and checked once (if they
    fail, every clique survivor fails the precheck).  Only the remaining
    tuples are built, lazily and in lexicographic order, and each is
    decided by the walks of ``_evaluate_candidate``, after the two facts
    they rest on are checked once for the cell (if either fails,
    RuntimeError is raised).

    No two kept candidates are isomorphic maps, so none is deduplicated
    (``stats.deduped`` stays 0).  An isomorphism of two candidates is an
    automorphism psi of H(d,n) conjugating one triple to the other.  All
    candidates of the cell share rho and tau, so psi commutes with R =
    rho*tau and fixes vertex 0, the only fixed point of R.  Aut H(d,n)_0
    acts faithfully on N(0), where psi commutes with the k-cycle R, so psi
    is a power R^j; both lams send 0 to 1, so R^j fixes 1 and j = 0.
    The result is sorted by (covalency, petrie length, sigma), so output
    is deterministic.
    """
    if d < 1 or n < 3:
        raise ValueError("classify requires d >= 1 and n >= 3")
    if stats is None:
        stats = CellStats()
    # n^b > MAX_DEGREE for its bit length b, so clipping d at b is exact and cheap
    if n ** min(d, MAX_DEGREE.bit_length()) > MAX_DEGREE:
        raise DegreeBoundExceeded(f"degree {n}^{d} exceeds the supported bound {MAX_DEGREE}")
    if (d, n) == (1, 3):
        stats.candidates = 1
        stats.kept = 1
        return [_k3_record(max_witness_len)]

    target = 2 * d * (n - 1) * n**d
    if target > budget:
        raise BudgetExceeded(f"group order cap {target} exceeds budget {budget}")
    slots = _slots(d)
    per_sigma0 = math.prod(_fixing0_count(n, i == j) for i, j in slots)
    stats.candidates = len(_sigma0_choices(n)) * per_sigma0
    if stats.candidates > budget:
        raise BudgetExceeded(
            f"candidate count {stats.candidates} exceeds budget {budget}"
        )

    fitting = _fitting_sigma0s(n)
    stats.clique_rejected += stats.candidates - len(fitting) * per_sigma0
    # lam^2 = 1 is one test per parameter, so the tuples failing it are
    # counted like the clique-rejected ones, from pool sizes; a cell with
    # no clique survivor never checks rho and tau or builds a pool
    sigma0s: tuple[Perm, ...] = ()
    pools: list[tuple[Perm, ...]] = []
    if fitting and _rho_tau_involutory(d, n):
        sigma0s = _lam_involutory_sigma0s(fitting)
        pools = [_lam_involutory_picks(n, i == j) for i, j in slots]
    passing = len(sigma0s) * math.prod(len(pool) for pool in pools)
    stats.precheck_rejected += len(fitting) * per_sigma0 - passing
    if passing:
        _cell_walk_data(d, n)  # the cell's facts, checked before any build

    records: list[MapRecord] = []
    for sigma in _candidates(d, sigma0s, pools):
        t = canonical_triple(sigma)
        reason, inv = _evaluate_candidate(t, d, n, target)
        if reason != "kept":
            setattr(stats, reason, getattr(stats, reason) + 1)
            continue
        wit = nonorientability_witness(t, max_witness_len)
        wit = tuple(wit) if wit is not None else None
        note = CENSUS_NOTES.get((d, n) + inv.type_triple)
        records.append(MapRecord(d, n, sigma, inv, wit, note))
    stats.kept = len(records)
    records.sort(
        key=lambda r: (
            r.invariants.covalency,
            r.invariants.petrie,
            tuple(tuple(int(x) for x in s.images) for s in r.sigma),
        )
    )
    return records


# ---------------------------------------------------------------------------
# map isomorphism


def triples_map_isomorphic(
    t1: AdmissibleTriple, t2: AdmissibleTriple, graph: Graph
) -> Optional[Perm]:
    """A vertex bijection conjugating triple 1 to triple 2 componentwise,
    or None.  Both triples must act on the graph's vertex set.

    Any conjugating map is determined by the image of the base vertex, so
    each vertex is tried as that image; the candidate map is propagated
    by generator-equivariance and then verified outright (conjugation of
    all three generators plus graph automorphism).
    """
    n_v = graph.n
    if t1.degree != n_v or t2.degree != n_v:
        raise ValueError("triples must act on the graph's vertex set")
    gens1 = [t1.lam.images, t1.rho.images, t1.tau.images]
    gens2 = [t2.lam.images, t2.rho.images, t2.tau.images]
    for w in range(n_v):
        psi = np.full(n_v, -1, dtype=np.int64)
        used = np.zeros(n_v, dtype=bool)
        psi[0] = w
        used[w] = True
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            px = int(psi[x])
            for g1, g2 in zip(gens1, gens2):
                y = int(g1[x])
                z = int(g2[px])
                if psi[y] < 0:
                    if used[z]:
                        ok = False
                        break
                    psi[y] = z
                    used[z] = True
                    stack.append(y)
                elif int(psi[y]) != z:
                    ok = False
                    break
        if not ok or bool((psi < 0).any()):
            continue
        inv_psi = np.empty(n_v, dtype=np.int64)
        inv_psi[psi] = np.arange(n_v)
        if not all(
            np.array_equal(psi[g1[inv_psi]], g2) for g1, g2 in zip(gens1, gens2)
        ):
            continue
        if all(int(psi[b]) in graph.adj[int(psi[a])] for a, b in graph.edges()):
            return Perm(psi)
    return None


def maps_isomorphic(r1: MapRecord, r2: MapRecord) -> bool:
    """Whether two records describe isomorphic maps of the same H(d,n)."""
    if (r1.d, r1.n) != (r2.d, r2.n):
        raise ValueError("records belong to different Hamming graphs")
    if r1.sigma == r2.sigma:
        return True
    if r1.invariants.type_triple != r2.invariants.type_triple:
        return False
    if (r1.d, r1.n) == (1, 3):
        # a single record exists for this cell, and it was handled above
        return False
    graph = hamming(r1.d, r1.n)
    return triples_map_isomorphic(r1.triple(), r2.triple(), graph) is not None


# ---------------------------------------------------------------------------
# structural verification helpers


def regular_vertex_subgroup(group: GroupClosure, p: int) -> Optional[GroupClosure]:
    """An elementary abelian normal p-subgroup acting regularly on the
    domain, or None.

    For the n in {3,4} census groups this recovers the normal subgroup
    that acts regularly on the vertices (its non-identity elements are
    fixed-point free, but the converse fails: these groups also contain
    fixed-point-free glide-like elements outside it, so the subgroup is
    found by searching normal closures of fixed-point-free elements of
    order p rather than by collecting all fixed-point-free elements).
    """
    degree = group.degree
    points = range(degree)
    candidates = [
        g
        for g in group.elements
        if all(g(v) != v for v in points) and element_order(g) == p
    ]
    classes: list[list[Perm]] = []
    seen: set[bytes] = set()
    for g in candidates:
        if g.key in seen:
            continue
        cls = {inverse(h) * g * h for h in group.elements}
        seen.update(c.key for c in cls)
        classes.append(sorted(cls))

    def qualifies(gens: list[Perm]) -> Optional[GroupClosure]:
        try:
            sub = closure(gens, cap=degree)
        except CapExceeded:
            return None
        if sub.order != degree:
            return None
        for g in sub.elements:
            if g.is_identity():
                continue
            if any(g(v) == v for v in points) or element_order(g) != p:
                return None
        for a in sub.elements:
            for b in sub.elements:
                if a * b != b * a:
                    return None
        keys = {e.key for e in sub.elements}
        for h in group.generators:
            hinv = inverse(h)
            if any((hinv * g * h).key not in keys for g in sub.elements):
                return None
        return sub

    for cls in classes:
        sub = qualifies(cls)
        if sub is not None:
            return sub
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            sub = qualifies(classes[i] + classes[j])
            if sub is not None:
                return sub
    return None


# ---------------------------------------------------------------------------
# the classification table


def expected_count(d: int, n: int) -> int:
    """Number of nonorientable regular embeddings of H(d,n) up to isomorphism."""
    if n == 2:
        return 1 if d == 2 else 0
    if n in (3, 4):
        return 1
    if n == 6 and d in (1, 2):
        return 2
    return 0


@dataclass(frozen=True)
class CellResult:
    d: int
    n: int
    expected: int
    records: tuple[MapRecord, ...]
    stats: CellStats
    skipped: Optional[BudgetExceeded] = None  # what classify raised

    @property
    def found(self) -> int:
        return len(self.records)

    @property
    def passed(self) -> bool:
        return self.skipped is None and self.found == self.expected


@dataclass(frozen=True)
class FixedCellResult:
    """Validation of the fixed 4-cycle map for the (d,n) = (2,2) cell."""

    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


@dataclass(frozen=True)
class TheoremReport:
    max_d: int
    max_n: int
    cells: tuple[CellResult, ...]
    fixed_22: FixedCellResult

    @property
    def complete(self) -> bool:
        return all(c.skipped is None for c in self.cells)

    @property
    def ok(self) -> bool:
        return self.complete and all(c.passed for c in self.cells) and self.fixed_22.ok


def _verify_fixed_22() -> FixedCellResult:
    from .maps import coset_graph, named_triple

    t = named_triple("h22-octagon")
    inv = invariants(t)
    checks = [
        ("group_order_16", inv.group_order == 16),
        ("type_8_2_8", inv.type_triple == (8, 2, 8)),
        ("nonorientable", not inv.orientable),
        ("genus_1", inv.genus == 1),
    ]
    try:
        graph = coset_graph(t)
        checks.append(("coset_graph_is_4_cycle", is_isomorphic(graph, hamming(2, 2)) is not None))
    except Exception:
        checks.append(("coset_graph_is_4_cycle", False))
    return FixedCellResult(tuple(checks))


def verify_theorem(
    max_d: int = 3,
    max_n: int = 7,
    *,
    budget: int = DEFAULT_BUDGET,
    max_witness_len: int = DEFAULT_WITNESS_LEN,
) -> TheoremReport:
    """Run the census over 1 <= d <= max_d, 3 <= n <= max_n and compare
    embedding counts per cell against the classification table, plus the
    fixed (2,2) construction.  Cells over budget are skipped and flagged,
    which marks the report incomplete."""
    cells = []
    for d in range(1, max_d + 1):
        for n in range(3, max_n + 1):
            stats = CellStats()
            skipped = None
            records: tuple[MapRecord, ...] = ()
            try:
                records = tuple(
                    classify(
                        d, n,
                        budget=budget,
                        max_witness_len=max_witness_len,
                        stats=stats,
                    )
                )
            except BudgetExceeded as exc:
                skipped = exc
            cells.append(CellResult(d, n, expected_count(d, n), records, stats, skipped))
    return TheoremReport(max_d, max_n, tuple(cells), _verify_fixed_22())
