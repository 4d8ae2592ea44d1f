"""The census fast paths against the slow exact paths they replace.

``classify`` decides a candidate's group order from a vertex orbit and
Schreier generators, and counts clique-rejected candidates from pool
sizes without building them.  The oracles here are the closure pipeline
it replaced, which lists the whole group and reads the order, the
base-vertex stabilizer and the base-edge orbit off the element matrix,
and the CellStats that pipeline produced.
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
        matrix, _ = _closure_raw([t.lam.images, t.rho.images, t.tau.images], t.degree, target)
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
