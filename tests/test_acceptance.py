"""Acceptance suite: one printed pass/fail line per criterion.

Run as ``pytest -s tests/test_acceptance.py`` to see the lines; the
assertions carry the same information either way.  The full census over
d <= 3, n <= 7 is computed once per session and shared.
"""

import time

import pytest

from regmaps.graphs import hamming, is_isomorphic
from regmaps.maps import (
    clique_submap,
    coset_graph,
    invariants,
    is_orientable,
    named_triple,
    nonorientability_witness,
    petrie_dual,
)
from regmaps.perms import Perm, element_order, evaluate_word, identity
from regmaps.pgl29 import verify_construction
from regmaps.wreath import (
    canonical_triple,
    maps_isomorphic,
    regular_vertex_subgroup,
    triples_map_isomorphic,
    verify_theorem,
)

EXPECTED_COUNTS = {
    (1, 3): 1, (1, 4): 1, (1, 5): 0, (1, 6): 2, (1, 7): 0,
    (2, 3): 1, (2, 4): 1, (2, 5): 0, (2, 6): 2, (2, 7): 0,
    (3, 3): 1, (3, 4): 1, (3, 6): 0,
}


def report(num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {description}")
    assert not failures, f"criterion {num} ({description}): {failures}"


@pytest.fixture(scope="session")
def theorem_run():
    start = time.time()
    result = verify_theorem(3, 7)
    return result, time.time() - start


@pytest.fixture(scope="session")
def census(theorem_run):
    result, _ = theorem_run
    return {(c.d, c.n): c.records for c in result.cells}


def test_criterion_1_theorem_table(theorem_run):
    result, elapsed = theorem_run
    failures = []
    counts = {(c.d, c.n): c.found for c in result.cells}
    for cell, expected in EXPECTED_COUNTS.items():
        if counts.get(cell) != expected:
            failures.append(f"cell {cell}: found {counts.get(cell)}, expected {expected}")
    if not result.complete:
        failures.append("report incomplete (budget)")
    if not result.ok:
        failures.append("report not ok")
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f}s over the 10 minute budget")
    report(1, f"verify-theorem counts over d<=3, n<=7 ({elapsed:.1f}s)", failures)


def test_criterion_2_exact_types_and_genera(census):
    expected = {
        (2, 3): ((6, 4, 4), 5, 72),
        (3, 3): ((6, 6, 9), 29, 324),
        (2, 4): ((4, 6, 6), 10, 192),
        (3, 4): ((4, 9, 9), 82, 1152),
    }
    failures = []
    for cell, (type_triple, genus, order) in expected.items():
        recs = census[cell]
        if len(recs) != 1:
            failures.append(f"{cell}: {len(recs)} records")
            continue
        inv = recs[0].invariants
        if inv.type_triple != type_triple or inv.genus != genus or inv.group_order != order:
            failures.append(
                f"{cell}: got {inv.type_triple}, genus {inv.genus}, order {inv.group_order}"
            )
    report(2, "exact types, genera and group orders for n=3,4 cells", failures)


def test_criterion_3_genus_formulas(census):
    failures = []
    for d in (2, 3):
        got = census[(d, 3)][0].invariants.genus
        want = (2 * d - 3) * 3 ** (d - 1) + 2
        if got != want:
            failures.append(f"n=3 d={d}: genus {got} != {want}")
        got = census[(d, 4)][0].invariants.genus
        want = (3 * d - 4) * 4 ** (d - 1) + 2
        if got != want:
            failures.append(f"n=4 d={d}: genus {got} != {want}")
    report(3, "closed genus formulas for n=3,4 at d=2,3", failures)


def test_criterion_4_h26_census(census):
    start = time.time()
    failures = []
    recs = census[(2, 6)]
    sigma_sets = {
        tuple(tuple(int(x) for x in s.images) for s in r.sigma) for r in recs
    }
    expected_sigmas = {
        ((1, 0, 5, 3, 4, 2), (0, 2, 1, 3, 5, 4)),  # (0 1)(2 5), (1 2)(4 5)
        ((1, 0, 2, 4, 3, 5), (0, 4, 5, 3, 1, 2)),  # (0 1)(3 4), (1 4)(2 5)
    }
    if sigma_sets != expected_sigmas:
        failures.append(f"sigma solutions {sigma_sets}")
    profile = sorted((r.invariants.type_triple, r.invariants.genus, r.invariants.group_order) for r in recs)
    if profile != [((8, 10, 10), 101, 720), ((10, 10, 8), 110, 720)]:
        failures.append(f"profiles {profile}")
    if len(recs) == 2:
        if maps_isomorphic(recs[0], recs[1]):
            failures.append("the two records are isomorphic")
        dual = petrie_dual(recs[0].triple())
        if triples_map_isomorphic(dual, recs[1].triple(), hamming(2, 6)) is None:
            failures.append("records are not Petrie duals up to isomorphism")
    elapsed = time.time() - start
    if elapsed > 120:
        failures.append(f"checks took {elapsed:.0f}s, over the 2 minute budget")
    report(4, "H(2,6): exact sigma solutions forming a Petrie dual pair", failures)


def test_criterion_5_pgl_construction(census):
    start = time.time()
    result = verify_construction(classify_records=census[(2, 6)])
    elapsed = time.time() - start
    failures = [f"check {name}" for name, ok, _ in result.checks if not ok]
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.0f}s over the 1 minute budget")
    report(5, f"projective-matrix construction of the H(2,6) pair ({elapsed:.1f}s)", failures)


def test_criterion_6_octagon_quotient():
    failures = []
    t = named_triple("h22-octagon")
    inv = invariants(t)
    if inv.type_triple != (8, 2, 8):
        failures.append(f"type {inv.type_string}")
    if inv.group_order != 16:
        failures.append(f"group order {inv.group_order}")
    if inv.orientable or inv.genus != 1:
        failures.append(f"orientable={inv.orientable} genus={inv.genus}")
    graph = coset_graph(t)
    if graph.n != 4 or is_isomorphic(graph, hamming(2, 2)) is None:
        failures.append("coset graph is not the 4-cycle")
    report(6, "the octagon-quotient map of the 4-cycle", failures)


def test_criterion_7_property_suites(census):
    failures = []
    all_records = [rec for recs in census.values() for rec in recs]

    # (a) Petrie duality is an involution swapping (p, r), fixing (q, V, E)
    for rec in all_records:
        t = rec.triple()
        dual = petrie_dual(t)
        if petrie_dual(dual) != t:
            failures.append(f"(a) {rec.d},{rec.n}: dual not involutive")
        inv, dinv = rec.invariants, invariants(dual)
        if (dinv.covalency, dinv.petrie) != (inv.petrie, inv.covalency):
            failures.append(f"(a) {rec.d},{rec.n}: (p,r) not swapped")
        if (dinv.valency, dinv.vertices, dinv.edges, dinv.group_order) != (
            inv.valency, inv.vertices, inv.edges, inv.group_order,
        ):
            failures.append(f"(a) {rec.d},{rec.n}: (q,V,E,|G|) not fixed")

    # (b) Euler characteristic: both integer routes agree
    for rec in all_records:
        inv = rec.invariants
        if inv.chi != inv.vertices - inv.edges + inv.faces:
            failures.append(f"(b) {rec.d},{rec.n}: chi != V-E+F")
        lhs = inv.chi * 4 * inv.valency * inv.covalency
        rhs = inv.group_order * (
            2 * inv.covalency - inv.valency * inv.covalency + 2 * inv.valency
        )
        if lhs != rhs:
            failures.append(f"(b) {rec.d},{rec.n}: |G| identity fails")

    # (c) witness search agrees with the subgroup-index test at max_len 6
    for rec in all_records:
        t = rec.triple()
        wit = nonorientability_witness(t, max_len=6)
        if is_orientable(t) or wit is None:
            failures.append(f"(c) {rec.d},{rec.n}: witness/index disagree")
        elif evaluate_word(t.L, t.R, wit) != t.tau:
            failures.append(f"(c) {rec.d},{rec.n}: witness does not evaluate to tau")
    orientable_triple = canonical_triple((Perm([1, 0, 2]), Perm([0, 2, 1])))
    if not is_orientable(orientable_triple) or nonorientability_witness(
        orientable_triple, max_len=6
    ) is not None:
        failures.append("(c) orientable control case disagrees")

    # (d) clique submaps of d>=3 records are nonorientable
    for rec in all_records:
        if rec.d < 3:
            continue
        sub = clique_submap(rec.triple(), rec.d)
        if is_orientable(sub):
            failures.append(f"(d) {rec.d},{rec.n}: clique submap orientable")

    # (e) an elementary abelian normal subgroup acts regularly on the
    # vertices for n in {3,4} (the (1,3) record lives on the hexagon
    # carrier, not the vertex set, so it is skipped)
    for rec in all_records:
        if rec.n not in (3, 4) or (rec.d, rec.n) == (1, 3):
            continue
        group = rec.triple().group()
        sub = regular_vertex_subgroup(group, p=3 if rec.n == 3 else 2)
        if sub is None or sub.order != rec.n**rec.d:
            failures.append(f"(e) {rec.d},{rec.n}: no regular normal subgroup")
        elif sorted(g(0) for g in sub.elements) != list(range(rec.n**rec.d)):
            failures.append(f"(e) {rec.d},{rec.n}: subgroup not vertex-regular")

    report(7, "property suites (a)-(e) over all classified maps", failures)


def test_criterion_8_word_relations(census):
    failures = []

    t23 = census[(2, 3)][0].triple()
    if evaluate_word(t23.L, t23.R, [2, 2, 2]) != t23.tau:
        failures.append("L R^2 L R^2 L R^2 != tau on H(2,3)")

    by_sigma0 = {
        tuple(int(x) for x in r.sigma[0].images): r for r in census[(2, 6)]
    }
    t26 = by_sigma0[(1, 0, 5, 3, 4, 2)].triple()  # sigma_0 = (0 1)(2 5)
    if evaluate_word(t26.L, t26.R, [4, 6, 4]) != t26.tau:
        failures.append("L R^4 L R^6 L R^4 != tau on H(2,6)")
    if element_order(t26.L * t26.R * t26.R) != 3:
        failures.append("(L R^2)^3 != id in the clique context")

    k6 = {
        tuple(int(x) for x in r.sigma[0].images): r for r in census[(1, 6)]
    }
    t16 = k6[(1, 0, 5, 3, 4, 2)].triple()  # L = (0 1)(2 5)
    if evaluate_word(t16.L, t16.R, [1, 4, 2, 2]) != t16.tau:
        failures.append("L R L R^4 L R^2 L R^2 != tau on the 6-clique")

    report(8, "orientation-reversing word relations reproduce", failures)
