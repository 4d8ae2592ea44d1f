"""The census fast paths against the slow exact paths they replace.

``classify`` decides a candidate's group order from a vertex orbit and
Schreier generators, and counts clique-rejected candidates from pool
sizes without building them.  The oracles here are the closure pipeline
it replaced, which lists the whole group and reads the order, the
base-vertex stabilizer and the base-edge orbit off the element matrix,
and the CellStats that pipeline produced.  The group is listed by
``reference_closure``, the row-by-row closure loop that the block
kernel ``perms._closure_raw`` replaced.
"""

import dataclasses
import random

import numpy as np
import pytest

from regmaps import wreath
from regmaps.maps import AdmissibleTriple
from regmaps.perms import CapExceeded, Perm, _closure_raw, closure, is_involution
from regmaps.wreath import (
    CellStats,
    canonical_triple,
    classify,
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


# validation, orientability and invariants run on the listed group in both
# pipelines, so a candidate that passes the order and graph checks is
# compared only on having reached them
VALIDATED = ("invalid", "orientable", "kept")


def closure_verdict(params, target):
    """The CellStats reason of the full-closure pipeline, or "validated"
    for a candidate that passes on to validation."""
    d, n = params.d, params.n
    t = canonical_triple(params)
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
    return "validated"


def closure_edge_orbit_size(matrix):
    """Distinct unordered pairs {g(0), g(1)} over all listed elements g."""
    a, b = matrix[:, 0], matrix[:, 1]
    degree = matrix.shape[1]
    return int(np.unique(np.minimum(a, b) * degree + np.maximum(a, b)).size)


# CellStats of the closure pipeline, which listed every candidate and
# filtered each on its sigma_0; fields not named are 0.  (1,3) is left
# out: classify answers it with a fixed record, without a search.
CLOSURE_PIPELINE_STATS = {
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
}


@pytest.mark.parametrize("d,n", sorted(CLOSURE_PIPELINE_STATS))
def test_fast_verdicts_and_stats_match_the_closure_oracle(d, n, monkeypatch):
    fast_evaluate = wreath._evaluate_candidate
    streamed = []

    def evaluate_both(params, target, max_witness_len):
        verdict = fast_evaluate(params, target, max_witness_len)
        reason = "validated" if verdict[0] in VALIDATED else verdict[0]
        assert reason == closure_verdict(params, target), params
        streamed.append(params)
        return verdict

    monkeypatch.setattr(wreath, "_evaluate_candidate", evaluate_both)
    stats = CellStats()
    classify(d, n, stats=stats)

    expected = dataclasses.asdict(CellStats(**CLOSURE_PIPELINE_STATS[(d, n)]))
    assert dataclasses.asdict(stats) == expected
    # each clique survivor was streamed to the verdicts exactly once
    assert len(set(streamed)) == len(streamed) == stats.candidates - stats.clique_rejected


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
        assert wreath._base_edge_orbit_size(t) == closure_edge_orbit_size(matrix)
