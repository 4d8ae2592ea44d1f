"""The census fast paths against the slow exact paths they replace.

``classify`` decides a candidate's group order and orientability by
``perms.schreier_walk`` on the base vertex's neighbourhood, keeps every
nonorientable candidate whose order walk completes without checking it
further or deduplicating it, and counts clique-rejected and
precheck-rejected candidates from pool sizes without building them.  The
oracles here are the closure pipeline it replaced, which lists the whole
group, reads the order, the base-vertex stabilizer and the base-edge
orbit off the element matrix, and validates the triple; the
full-transversal Schreier walk ``reference_orbit_stabilizer`` that the
frame walk replaced, a search over vertex pairs for the base-edge orbit,
``maps.validate_admissible``, ``wreath.triples_map_isomorphic`` and
sympy's group order, against the walks; the involution precheck on the
built generators; and the CellStats of the pipelines that built every
candidate.  The group is listed by ``reference_closure``, the row-by-row
closure loop that the block kernel ``perms._closure_raw`` replaced.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from regmaps import wreath
from regmaps.graphs import hamming
from regmaps.maps import AdmissibleTriple, validate_admissible
from regmaps.perms import (
    CapExceeded,
    Perm,
    _closure_raw,
    closure,
    identity,
    inverse,
    is_involution,
    orbit_stabilizer,
    schreier_walk,
)
from regmaps.wreath import (
    CellStats,
    canonical_triple,
    classify,
    triples_map_isomorphic,
    wreath_to_perm,
)


def reference_closure(gen_arrays, degree, cap):
    """Breadth-first closure over right multiplication by the generators,
    one row at a time: (matrix, keyset) in discovery order, raising
    CapExceeded as soon as the element count would pass ``cap``."""
    ident = np.arange(degree, dtype=np.int64)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = np.expand_dims(ident, 0)
    while frontier.shape[0]:
        fresh = []
        for g in gen_arrays:
            block = g[frontier]
            for row in block:
                key = row.tobytes()
                if key in seen:
                    continue
                if len(seen) >= cap:
                    raise CapExceeded(cap)
                seen.add(key)
                row = row.copy()
                rows.append(row)
                fresh.append(row)
        frontier = np.stack(fresh) if fresh else np.empty((0, degree), dtype=np.int64)
    return np.stack(rows), seen


def reference_orbit_stabilizer(generators, point, cap):
    """(orbit length of ``point``, order of its stabilizer) by Schreier's
    lemma with a full-degree transversal and its inverses: every Schreier
    generator t_v * g * t_(v^g)^-1 is formed as an image array and tested
    against the stabilizer listed so far, which starts as the closure of
    the generators fixing ``point``; a non-member is added and the
    stabilizer closed again.  Raises CapExceeded exactly when the group
    has more than ``cap`` elements."""
    degree = generators[0].degree
    images = [g.images for g in generators]
    lists = [g.tolist() for g in images]
    seen = {point}
    orbit = [point]
    for v in orbit:
        for g in lists:
            if g[v] not in seen:
                if len(orbit) == cap:
                    raise CapExceeded(cap)
                seen.add(g[v])
                orbit.append(g[v])
    stab_cap = cap // len(orbit)
    stab_gens = [g.images for g in generators if g(point) == point]
    try:
        members = reference_closure(stab_gens, degree, stab_cap)[1]
    except CapExceeded:
        raise CapExceeded(cap) from None
    trans = {point: np.arange(degree, dtype=np.int64)}
    trans_inv = {}
    for v in orbit:
        for g, g_list in zip(images, lists):
            w = g_list[v]
            moved = g[trans[v]]
            if w not in trans:
                trans[w] = moved
                continue
            if w not in trans_inv:
                trans_inv[w] = np.empty(degree, dtype=np.int64)
                trans_inv[w][trans[w]] = np.arange(degree)
            schreier = trans_inv[w][moved]
            if schreier.tobytes() in members:
                continue
            # a proper overgroup has at least twice the order (Lagrange)
            if 2 * len(members) > stab_cap:
                raise CapExceeded(cap)
            stab_gens.append(schreier)
            try:
                members = reference_closure(stab_gens, degree, stab_cap)[1]
            except CapExceeded:
                raise CapExceeded(cap) from None
    return len(orbit), len(members)


def test_closure_kernel_matches_the_row_by_row_reference():
    rng = random.Random(41)
    for _ in range(60):
        degree = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(np.array(images, dtype=np.int64))
        matrix, keys = reference_closure(gens, degree, cap=5040)
        order = matrix.shape[0]
        for cap in (order, order - 1, rng.randint(1, order + 5)):
            if cap < 1:
                continue
            if cap < order:
                # both raise on meeting element cap + 1 in discovery order
                with pytest.raises(CapExceeded):
                    reference_closure(gens, degree, cap)
                with pytest.raises(CapExceeded):
                    _closure_raw(gens, degree, cap)
                continue
            fast_matrix, fast_keys = _closure_raw(gens, degree, cap)
            assert np.array_equal(fast_matrix, matrix)
            assert fast_keys == keys


# the fast pipeline keeps or rejects as orientable every candidate whose
# walk completes; the oracle then only needs it to pass validation, since
# orientability is checked against maps.is_orientable by the walk tests
VALIDATED = ("orientable", "kept")


def closure_verdict(t, d, n, target):
    """The CellStats reason of the full-closure pipeline for the triple of
    a candidate of cell (d, n), or "validated" for a candidate that passes
    every check including ``validate_admissible``."""
    if not all(is_involution(g) for g in (t.lam, t.rho, t.tau)):
        return "precheck_rejected"
    try:
        matrix, _ = reference_closure([t.lam.images, t.rho.images, t.tau.images], t.degree, target)
    except CapExceeded:
        return "cap_exceeded"
    if matrix.shape[0] != target:
        return "wrong_order"
    if t.rho(0) != 0 or t.tau(0) != 0:
        return "bad_stabilizer"
    if int(np.count_nonzero(matrix[:, 0] == 0)) != 2 * d * (n - 1):
        return "bad_stabilizer"
    if closure_edge_orbit_size(matrix) != target // 4:
        return "not_simple"
    if not validate_admissible(t, target).ok:
        return "invalid"
    return "validated"


def closure_edge_orbit_size(matrix):
    """Distinct unordered pairs {g(0), g(1)} over all listed elements g."""
    a, b = matrix[:, 0], matrix[:, 1]
    degree = matrix.shape[1]
    return int(np.unique(np.minimum(a, b) * degree + np.maximum(a, b)).size)


def pair_orbit_size(t):
    """Size of the orbit of the unordered vertex pair {0, 1} under the
    triple's group, by breadth-first search over pairs, without listing
    the group; it needs a degree x degree bool array."""
    degree = t.degree
    gens = (t.lam.images, t.rho.images, t.tau.images)
    # the pair {a, b} with a < b is coded a * degree + b
    seen = np.zeros(degree * degree, dtype=bool)
    seen[1] = True
    frontier = np.array([1], dtype=np.int64)
    while frontier.size:
        a, b = np.divmod(frontier, degree)
        images = np.concatenate(
            [np.minimum(g[a], g[b]) * degree + np.maximum(g[a], g[b]) for g in gens]
        )
        images = images[~seen[images]]
        images.sort()
        frontier = images[np.flatnonzero(np.diff(images, prepend=-1))]
        seen[frontier] = True
    return int(np.count_nonzero(seen))


# CellStats of the pipelines that built every candidate: the closure
# pipeline, which listed every candidate and filtered each on its sigma_0,
# for the cells up to (4,4), and for (5,4), whose groups are too large to
# list here, the Schreier pipeline that built every clique survivor and
# prechecked it.  Fields not named are 0.  (1,3) is left out: classify
# answers it with a fixed record, without a search.
BUILT_PIPELINE_STATS = {
    (1, 4): dict(candidates=2, orientable=1, kept=1),
    (1, 5): dict(candidates=4, clique_rejected=4),
    (1, 6): dict(candidates=10, clique_rejected=8, kept=2),
    (1, 7): dict(candidates=26, clique_rejected=26),
    (2, 3): dict(candidates=2, orientable=1, kept=1),
    (2, 4): dict(candidates=8, precheck_rejected=4, cap_exceeded=2, orientable=1, kept=1),
    (2, 5): dict(candidates=40, clique_rejected=40),
    (2, 6): dict(candidates=260, clique_rejected=208, precheck_rejected=40, cap_exceeded=10, kept=2),
    (2, 7): dict(candidates=1976, clique_rejected=1976),
    (3, 3): dict(candidates=2, cap_exceeded=1, kept=1),
    (3, 4): dict(candidates=12, precheck_rejected=4, cap_exceeded=7, kept=1),
    (3, 5): dict(candidates=96, clique_rejected=96),
    (3, 6): dict(candidates=1200, clique_rejected=960, precheck_rejected=188, cap_exceeded=52),
    (3, 7): dict(candidates=18720, clique_rejected=18720),
    (4, 3): dict(candidates=4, cap_exceeded=3, kept=1),
    (4, 4): dict(candidates=48, precheck_rejected=32, cap_exceeded=15, kept=1),
    (5, 4): dict(candidates=72, precheck_rejected=40, cap_exceeded=31, kept=1),
}
CLOSURE_CELLS = sorted(c for c in BUILT_PIPELINE_STATS if c != (5, 4))


@pytest.mark.parametrize("d,n", CLOSURE_CELLS)
def test_fast_verdicts_and_stats_match_the_closure_oracle(d, n, monkeypatch):
    fast_evaluate = wreath._evaluate_candidate
    streamed = []

    def evaluate_both(t, d, n, target, *rest):
        verdict = fast_evaluate(t, d, n, target, *rest)
        reason = "validated" if verdict[0] in VALIDATED else verdict[0]
        assert reason == closure_verdict(t, d, n, target), t.lam
        streamed.append(t.lam)
        return verdict

    monkeypatch.setattr(wreath, "_evaluate_candidate", evaluate_both)
    stats = CellStats()
    classify(d, n, stats=stats)

    expected = dataclasses.asdict(CellStats(**BUILT_PIPELINE_STATS[(d, n)]))
    assert dataclasses.asdict(stats) == expected
    # each survivor of the clique filter and the counted precheck was
    # streamed to the verdicts exactly once (lam = L*tau determines sigma)
    assert len(set(streamed)) == len(streamed) == (
        stats.candidates - stats.clique_rejected - stats.precheck_rejected
    )


def built_survivors(d, n, sigma0s):
    """The sigma tuples of the given sigma_0 choices, in lexicographic
    order, each passing every shape check."""
    slots = wreath._slots(d)
    pools = [wreath._fixing0_choices(n, i == j) for i, j in slots]
    for sigma0 in sigma0s:
        for picks in itertools.product(*pools):
            sigma = [sigma0] + [None] * (d - 1)
            for (i, j), pick in zip(slots, picks):
                sigma[i], sigma[j] = pick, inverse(pick)
            wreath._check_sigma(d, n, sigma)
            yield tuple(sigma)


# every fitting sigma_0 of n <= 9 passes the precheck, so the sigma_0 half
# of the counted predicate rejects only with the clique filter off, which
# the cases with clique_filter False get by passing every sigma_0 on
PRECHECK_CASES = [
    (d, n, True) for d, n in sorted(BUILT_PIPELINE_STATS) if d <= 3 or (d, n) in ((4, 4), (5, 4))
] + [(d, n, False) for d, n in ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (3, 5))]


@pytest.mark.parametrize("d,n,clique_filter", PRECHECK_CASES)
def test_counted_precheck_matches_the_built_precheck(d, n, clique_filter, monkeypatch):
    # every clique survivor (every tuple, with the filter off), built at
    # full degree and checked with is_involution on lam, rho and tau
    if not clique_filter:
        monkeypatch.setattr(wreath, "_fitting_sigma0s", wreath._sigma0_choices)
    sigma0s = wreath._fitting_sigma0s(n)
    survivors = list(built_survivors(d, n, sigma0s))
    passing = []
    for sigma in survivors:
        t = canonical_triple(sigma)
        if all(is_involution(g) for g in (t.lam, t.rho, t.tau)):
            passing.append(t.lam)

    fast_evaluate = wreath._evaluate_candidate
    streamed = []

    def recording_evaluate(t, *rest):
        streamed.append(t.lam)
        return fast_evaluate(t, *rest)

    monkeypatch.setattr(wreath, "_evaluate_candidate", recording_evaluate)
    stats = CellStats()
    classify(d, n, stats=stats)

    # the counted predicate streams exactly the survivors the built
    # precheck passes, in lexicographic order, and counts the rest
    assert streamed == passing
    assert stats.precheck_rejected == len(survivors) - len(passing)
    if clique_filter:
        expected = dataclasses.asdict(CellStats(**BUILT_PIPELINE_STATS[(d, n)]))
        assert dataclasses.asdict(stats) == expected


def counting_builds(monkeypatch):
    built = []
    build = wreath.canonical_triple

    def counting_build(sigma):
        built.append(sigma)
        return build(sigma)

    monkeypatch.setattr(wreath, "canonical_triple", counting_build)
    return built


def test_precheck_rejected_candidates_are_never_built(monkeypatch):
    built = counting_builds(monkeypatch)
    classify(3, 6)
    # 1,200 candidates: 960 clique-rejected and 188 precheck-rejected are
    # counted, and only the 52 cap_exceeded ones are built
    assert len(built) == 52
    built.clear()
    classify(3, 7)
    assert built == []


def test_failed_rho_tau_check_counts_every_survivor_without_building(monkeypatch):
    # rho and tau are shared by the cell, so if either is not an involution
    # every clique survivor fails the built precheck
    checked = []

    def failing_check(d, n):
        checked.append((d, n))
        return False

    monkeypatch.setattr(wreath, "_rho_tau_involutory", failing_check)
    built = counting_builds(monkeypatch)
    stats = CellStats()
    assert classify(3, 6, stats=stats) == []
    assert built == []
    expected = CellStats(candidates=1200, clique_rejected=960, precheck_rejected=240)
    assert dataclasses.asdict(stats) == dataclasses.asdict(expected)
    # cells with no clique survivor never reach the check
    classify(3, 5)
    classify(3, 7)
    assert checked == [(3, 6)]


def test_base_edge_orbit_matches_the_listed_group():
    rng = random.Random(17)
    for _ in range(40):
        degree = rng.randint(2, 6)
        gens = []
        for _ in range(3):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        group = closure(gens, cap=10_000)
        matrix = np.stack([g.images for g in group.elements])
        t = AdmissibleTriple(*gens)
        assert pair_orbit_size(t) == closure_edge_orbit_size(matrix)


# The neighbourhood walks against the generic Schreier walk with a
# full-degree transversal: on every tuple whose lam is an involution, with
# the clique filter off, the order walk must raise-or-count like
# reference_orbit_stabilizer at the flag count, and the orientability walk
# must find the index of <R,L> that the reference counts.  A completed walk is all that classify checks before
# keeping a candidate, so each one must also reach every vertex, have a
# base-edge orbit of target/4 pairs and pass validate_admissible.  (1,3)
# is left out: its map group cannot act faithfully on the 3 vertices.
WALK_CELLS = [(d, n) for d in range(1, 5) for n in (3, 4, 6) if (d, n) != (1, 3)] + [(5, 4)]


def lam_involutory_triples(d, n):
    """The triple of every tuple of cell (d, n) whose lam is an
    involution, the clique filter off."""
    sigma0s = wreath._lam_involutory_sigma0s(wreath._sigma0_choices(n))
    pools = [wreath._lam_involutory_picks(n, i == j) for i, j in wreath._slots(d)]
    for sigma in wreath._candidates(d, sigma0s, pools):
        yield canonical_triple(sigma)


@pytest.mark.parametrize("d,n", WALK_CELLS)
def test_neighbourhood_walks_match_the_generic_walk(d, n):
    target = 2 * d * (n - 1) * n**d
    checked = 0
    for t in lam_involutory_triples(d, n):
        reason, inv = wreath._evaluate_candidate(t, d, n, target)
        try:
            orbit, stab = reference_orbit_stabilizer((t.lam, t.rho, t.tau), 0, target)
        except CapExceeded:
            assert reason == "cap_exceeded", t.lam
        else:
            assert reason in VALIDATED, t.lam
            assert (orbit, stab) == (n**d, 2 * d * (n - 1)), t.lam
            assert pair_orbit_size(t) == target // 4, t.lam
            assert validate_admissible(t, target).ok, t.lam
            sub_orbit, sub_stab = reference_orbit_stabilizer((t.R, t.L), 0, target)
            assert (reason == "orientable") == (2 * sub_orbit * sub_stab == target), t.lam
            assert (inv is None) == (reason == "orientable"), t.lam
        checked += 1
    assert checked


@pytest.mark.parametrize("d,n", WALK_CELLS)
def test_no_two_completed_candidates_of_a_cell_are_isomorphic(d, n):
    # classify deduplicates nothing: its docstring proves that two distinct
    # candidates of a cell are never isomorphic maps; (3,6) and (4,6) have
    # no completed candidate, and (1,4), (1,6), (2,3), (2,4) and (2,6) two
    target = 2 * d * (n - 1) * n**d
    completed = [
        t for t in lam_involutory_triples(d, n)
        if wreath._evaluate_candidate(t, d, n, target)[0] in VALIDATED
    ]
    graph = hamming(d, n)
    for t1, t2 in itertools.combinations(completed, 2):
        assert triples_map_isomorphic(t1, t2, graph) is None, (t1.lam, t2.lam)


WREATH_CELLS = [(1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)]


def random_wreath_perm(rng, d, n, fixing0):
    """A random element of S_n wr S_d as a vertex permutation; with
    ``fixing0`` every base entry fixes 0, so the element fixes vertex 0."""
    base = [
        Perm([0] + rng.sample(range(1, n), n - 1) if fixing0 else rng.sample(range(n), n))
        for _ in range(d)
    ]
    return wreath_to_perm(base, Perm(rng.sample(range(d), d)))


def test_neighbourhood_walk_matches_the_generic_walk_on_random_wreath_groups():
    # any subgroup of Aut H(d,n): the walk on N(0), checked against the
    # closure of the generators that fix 0, completes exactly when those
    # generators already generate the whole stabilizer, and then counts the
    # orbit; orbit_stabilizer, the same walk over the whole domain, counts
    # like the reference
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(53)
    outcomes = []
    for _ in range(160):
        d, n = rng.choice(WREATH_CELLS)
        gens = [
            random_wreath_perm(rng, d, n, fixing0=rng.random() < 0.5)
            for _ in range(rng.randint(1, 3))
        ]
        nbrs = wreath._cell_walk_data(d, n)[0]
        place = {x: j for j, x in enumerate(nbrs)}
        seed = closure([g for g in gens if g(0) == 0] or [identity(n**d)], cap=10**6)
        members = frozenset(tuple(place[g(x)] for x in nbrs) for g in seed.elements)
        walk = schreier_walk([g.images.tolist() for g in gens], 0, nbrs, members)
        orbit, stab = reference_orbit_stabilizer(gens, 0, cap=10**6)
        completed = not isinstance(walk, tuple)
        assert completed == (stab == seed.order)
        if completed:
            assert walk == orbit
        else:
            # a stabilizer element outside the seed, as a permutation of N(0)
            assert sorted(walk) == list(range(len(nbrs))) and walk not in members
        assert orbit_stabilizer(gens, 0, cap=10**6) == (orbit, stab)
        if n**d <= 64:
            group = combinatorics.PermutationGroup(
                [combinatorics.Permutation(g.images.tolist()) for g in gens]
            )
            assert orbit * stab == group.order()
        outcomes.append(completed)
    assert True in outcomes and False in outcomes
