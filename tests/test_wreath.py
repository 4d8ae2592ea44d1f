import itertools
import json
import random
from pathlib import Path

import pytest

from regmaps import maps, wreath
from regmaps.graphs import hamming
from regmaps.maps import AdmissibleTriple, clique_submap, invariants, petrie_dual
from regmaps.perms import (
    MAX_DEGREE,
    Perm,
    closure,
    compose,
    contains,
    identity,
    inverse,
    is_involution,
    subgroup_index,
)
from regmaps.wreath import (
    BudgetExceeded,
    CanonicalTripleParams,
    CellStats,
    MapRecord,
    alpha_perm,
    beta_perm,
    canonical_l,
    canonical_r,
    canonical_tau,
    canonical_triple,
    classify,
    enumerate_sigma_candidates,
    expected_count,
    gamma_perm,
    maps_isomorphic,
    records_from_json,
    records_to_json,
    tau_seed_perm,
    triples_map_isomorphic,
    verify_theorem,
    wreath_to_perm,
)

ROOT = Path(__file__).resolve().parent.parent


# the group law of S_n wr S_d, the spec that wreath_to_perm must respect;
# an element is a pair (base, top) of d permutations of [n] and one of [d]


def wreath_mul(a, b):
    (a_base, a_top), (b_base, b_top) = a, b
    return tuple(a_base[i] * b_base[a_top(i)] for i in range(len(a_base))), a_top * b_top


def wreath_inverse(w):
    base, top = w
    top_inv = inverse(top)
    return tuple(inverse(base[top_inv(j)]) for j in range(len(base))), top_inv


def identity_wreath(d, n):
    return tuple(identity(n) for _ in range(d)), identity(d)


def wreath_image_oracle(w, d, n, v):
    # recompute the action digit by digit, independently of wreath_to_perm
    base, top = w
    digits = [(v // n**i) % n for i in range(d)]
    out = [0] * d
    for i in range(d):
        out[top(i)] = base[i](digits[i])
    return sum(out[i] * n**i for i in range(d))


def random_wreath(rng, d, n):
    def rand_perm(k):
        images = list(range(k))
        rng.shuffle(images)
        return Perm(images)

    return tuple(rand_perm(n) for _ in range(d)), rand_perm(d)


def test_wreath_identity():
    assert wreath_to_perm(*identity_wreath(2, 3)) == identity(9)


def test_wreath_coordinate_swap():
    w = ((identity(3), identity(3)), alpha_perm(2))
    p = wreath_to_perm(*w)
    assert p(1) == 3  # e_0 goes to e_1
    assert p(3) == 1
    for v in range(9):
        assert p(v) == wreath_image_oracle(w, 2, 3, v)


def test_wreath_to_perm_is_homomorphism():
    rng = random.Random(5)
    for d, n in ((2, 3), (3, 4)):
        for _ in range(50):
            w1 = random_wreath(rng, d, n)
            w2 = random_wreath(rng, d, n)
            lhs = wreath_to_perm(*wreath_mul(w1, w2))
            rhs = compose(wreath_to_perm(*w1), wreath_to_perm(*w2))
            assert lhs == rhs


def test_wreath_to_perm_matches_digit_oracle():
    rng = random.Random(13)
    for d, n in ((1, 5), (2, 3), (3, 4), (4, 3)):
        for _ in range(25):
            w = random_wreath(rng, d, n)
            p = wreath_to_perm(*w)
            assert [p(v) for v in range(n**d)] == [
                wreath_image_oracle(w, d, n, v) for v in range(n**d)
            ]


def test_wreath_inverse():
    rng = random.Random(9)
    for _ in range(20):
        w = random_wreath(rng, 3, 4)
        product = wreath_mul(w, wreath_inverse(w))
        assert product == identity_wreath(3, 4)
        assert wreath_to_perm(*product) == identity(64)


def test_canonical_tau_small_cases():
    # d=2, n=3: base (id, (1 2)), trivial top
    assert canonical_tau(2, 3) == wreath_to_perm((identity(3), Perm([0, 2, 1])), identity(2))
    # d=2, n=4: base ((2 3), (1 3)), trivial top
    expected = wreath_to_perm((Perm([0, 1, 3, 2]), Perm([0, 3, 2, 1])), identity(2))
    assert canonical_tau(2, 4) == expected


def test_canonical_r_small_case():
    expected = wreath_to_perm((identity(4), Perm([0, 2, 3, 1])), Perm([1, 0]))
    assert canonical_r(2, 4) == expected


def test_canonical_d1_matches_complete_graph_data():
    assert canonical_tau(1, 6) == Perm([0, 1, 5, 4, 3, 2])  # (2 5)(3 4)
    assert canonical_r(1, 6) == gamma_perm(6)


def test_canonical_r_shifts_unit_vectors():
    d, n = 3, 5
    r = canonical_r(d, n)
    gamma = gamma_perm(n)
    for k in range(1, n):
        for i in range(d - 1):
            assert r(k * n**i) == k * n ** (i + 1)
        assert r(k * n ** (d - 1)) == gamma(k)


def test_params_validation():
    with pytest.raises(ValueError):
        CanonicalTripleParams(2, 3, (identity(3), identity(3)))
    with pytest.raises(ValueError):
        CanonicalTripleParams(2, 3, (Perm([1, 0, 2]), Perm([1, 0, 2])))
    with pytest.raises(ValueError):
        CanonicalTripleParams(3, 4, (Perm([1, 0, 2, 3]), gamma_perm(4), gamma_perm(4)))


def count_involutions_transposing_01(n):
    count = 0
    for images in itertools.permutations(range(n)):
        p = list(images)
        if p[0] != 1:
            continue
        if all(p[p[i]] == i for i in range(n)) and any(p[i] != i for i in range(n)):
            count += 1
    return count


def count_order_le_2_fixing_0(n):
    count = 0
    for images in itertools.permutations(range(n)):
        p = list(images)
        if p[0] == 0 and all(p[p[i]] == i for i in range(n)):
            count += 1
    return count


def test_enumerate_counts_d1():
    candidates = list(enumerate_sigma_candidates(1, 6))
    assert len(candidates) == count_involutions_transposing_01(6) == 10


def test_enumerate_counts_d2():
    assert len(list(enumerate_sigma_candidates(2, 3))) == 2
    expected = count_involutions_transposing_01(6) * count_order_le_2_fixing_0(6)
    got = list(enumerate_sigma_candidates(2, 6))
    assert len(got) == expected == 260


def test_enumerate_counts_d3():
    # sigma_1 free over permutations fixing 0, sigma_2 its inverse
    candidates = list(enumerate_sigma_candidates(3, 6))
    assert len(candidates) == 10 * 120
    sample = candidates[17]
    assert sample.sigma[2] == inverse(sample.sigma[1])


def test_enumerate_deterministic():
    first = [c.sigma for c in enumerate_sigma_candidates(2, 4)]
    second = [c.sigma for c in enumerate_sigma_candidates(2, 4)]
    assert first == second


@pytest.mark.parametrize("d,n", [(3, 6), (4, 4), (5, 3)])
def test_streamed_tuples_pass_the_checks_they_skip(d, n):
    # streamed tuples are built without __post_init__; every one of them
    # passes it when rebuilt through the checks, and they come in strictly
    # increasing lexicographic order of sigma
    keys = []
    for params in enumerate_sigma_candidates(d, n):
        assert CanonicalTripleParams(d, n, params.sigma) == params
        keys.append(tuple(tuple(int(x) for x in s.images) for s in params.sigma))
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_wreath_to_perm_keeps_the_degree_bound():
    # 17^4 = 83,521 points: refused before the image array is built
    with pytest.raises(ValueError, match="exceeds the supported bound"):
        wreath_to_perm(tuple(identity(17) for _ in range(4)), identity(4))


def test_wreath_to_perm_rejects_misshapen_elements():
    with pytest.raises(ValueError, match="base length"):
        wreath_to_perm((identity(3), identity(3)), identity(3))
    with pytest.raises(ValueError, match="share a degree"):
        wreath_to_perm((identity(3), identity(4)), identity(2))


def test_canonical_closure_order_h26():
    # sigma_0 = (0 1)(3 4), sigma_1 = (1 4)(2 5)
    params = CanonicalTripleParams(2, 6, (Perm([1, 0, 2, 4, 3, 5]), Perm([0, 4, 5, 3, 1, 2])))
    t = canonical_triple(params)
    assert t.group(cap=720).order == 720


def test_tau_in_rotation_subgroup_for_nonorientable_h23():
    params = CanonicalTripleParams(2, 3, (Perm([1, 0, 2]), identity(3)))
    t = canonical_triple(params)
    sub = closure([t.R, t.L], cap=100)
    assert contains(sub, t.tau)


def test_subgroup_index_orientable_vs_not():
    orientable = canonical_triple(
        CanonicalTripleParams(2, 3, (Perm([1, 0, 2]), Perm([0, 2, 1])))
    )
    group = orientable.group(cap=100)
    assert subgroup_index(group, [orientable.R, orientable.L]) == 2


def test_classify_23():
    records = classify(2, 3)
    assert len(records) == 1
    rec = records[0]
    assert rec.sigma[1] == identity(3)
    assert rec.invariants.type_string == "{6,4}_4"
    assert rec.invariants.genus == 5
    assert rec.invariants.group_order == 72
    assert rec.witness == (2, 2, 2)


def test_classify_24():
    records = classify(2, 4)
    assert len(records) == 1
    rec = records[0]
    assert rec.sigma == (Perm([1, 0, 2, 3]), Perm([0, 3, 2, 1]))
    assert rec.invariants.type_string == "{4,6}_6"
    assert rec.invariants.genus == 10


def test_classify_sigma_structure_for_n3_n4():
    rec33 = classify(3, 3)[0]
    assert all(s == identity(3) for s in rec33.sigma[1:])
    rec34 = classify(3, 4)[0]
    assert all(s == Perm([0, 3, 2, 1]) for s in rec34.sigma[1:])


def test_classify_group_orders_match_flag_count():
    for d, n in ((2, 3), (2, 4), (1, 6)):
        for rec in classify(d, n):
            assert rec.invariants.group_order == 2 * d * (n - 1) * n**d


def test_classify_clique_filter_is_transparent(monkeypatch):
    cells = ((2, 5), (2, 4), (1, 6))
    filtered = {cell: classify(*cell) for cell in cells}
    assert filtered[(2, 5)] == []
    # with the filter off, every sigma_0 choice is passed on
    monkeypatch.setattr(wreath, "_fitting_sigma0s", wreath._sigma0_choices)
    for cell in cells:
        assert classify(*cell) == filtered[cell]


@pytest.mark.parametrize("d,n", [(3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (3, 6)])
def test_no_other_theta_gives_a_nonorientable_map(d, n):
    # classify pins theta to beta_d; every other involutory theta fixing 0,
    # with every sigma_0 and every slot pick, gives L = (sigma) * theta,
    # whose triple is prechecked and run through the rest of the pipeline
    target = 2 * d * (n - 1) * n**d
    r, tau = canonical_r(d, n), canonical_tau(d, n)
    reasons = []
    for theta in wreath._perms_with_prefix(d, (0,), involutory=True):
        if theta == beta_perm(d):
            continue
        slots = sorted({(min(i, theta(i)), max(i, theta(i))) for i in range(1, d)})
        pools = [wreath._fixing0_choices(n, i == j) for i, j in slots]
        for sigma0 in wreath._sigma0_choices(n):
            for picks in itertools.product(*pools):
                sigma = [sigma0] + [None] * (d - 1)
                for (i, j), pick in zip(slots, picks):
                    sigma[i], sigma[j] = pick, inverse(pick)
                t = AdmissibleTriple(wreath_to_perm(sigma, theta) * tau, r * tau, tau)
                if all(is_involution(g) for g in (t.lam, t.rho, t.tau)):
                    reason, _ = wreath._evaluate_candidate(t, d, n, target)
                    reasons.append(reason)
    assert reasons and "kept" not in reasons


@pytest.mark.parametrize("d", range(1, 9))
def test_neighbourhood_facts_hold_on_every_cell(d):
    # R is transitive on the k = d(n-1) neighbours of vertex 0 and
    # |<rho,tau>| = 2k, except on (1,3), whose map group cannot act
    # faithfully on the 3 vertices and which classify answers with a
    # fixed record
    for n in range(3, 10):
        if n**d > MAX_DEGREE:
            continue
        if (d, n) == (1, 3):
            with pytest.raises(RuntimeError, match="transitive"):
                wreath._neighbourhood_keys(d, n)
            continue
        k = d * (n - 1)
        dihedral, rotations = wreath._neighbourhood_keys(d, n)
        assert len(dihedral) == 2 * k and len(rotations) == k
        assert rotations < dihedral


def test_a_failing_neighbourhood_fact_stops_classify(monkeypatch):
    d, n = 3, 6
    r = canonical_r(d, n)
    # the facts are cached per cell once they hold, and never when they fail
    wreath._neighbourhood_keys.cache_clear()
    # <R, identity> has k elements, not 2k
    with monkeypatch.context() as m:
        m.setattr(wreath, "canonical_tau", lambda d, n: identity(n**d))
        with pytest.raises(RuntimeError, match=r"\|<rho,tau>\| != 30"):
            wreath._neighbourhood_keys(d, n)
    # R^3 is not transitive on the 15 neighbours; R^3 * tau is still an
    # involution, so the cell passes the precheck and reaches the check
    monkeypatch.setattr(wreath, "canonical_r", lambda d, n: r**3)
    monkeypatch.setattr(wreath, "canonical_triple", lambda params: pytest.fail("built"))
    with pytest.raises(RuntimeError, match="not transitive"):
        classify(d, n)


def test_classify_budget():
    with pytest.raises(BudgetExceeded):
        classify(2, 6, budget=500)
    stats = CellStats()
    classify(2, 3, budget=100_000, stats=stats)
    assert stats.candidates == 2
    assert stats.orientable == 1


@pytest.mark.parametrize("n", range(3, 10))
def test_pool_counts_match_the_built_pools(n):
    for involutory in (False, True):
        built = wreath._fixing0_choices(n, involutory)
        assert wreath._fixing0_count(n, involutory) == len(built)


def test_classify_counts_rejected_candidates_without_building_them(monkeypatch):
    # clique-rejected tuples are counted from pool sizes, so a cell of
    # 88.9M candidates whose sigma_0 choices all fail is settled at once,
    # without building a single sigma_i pool
    def no_pools(n, involutory):
        raise AssertionError(f"sigma_i pool built for n={n}")

    monkeypatch.setattr(wreath, "_fixing0_choices", no_pools)
    stats = CellStats()
    assert classify(4, 8, budget=10**8, stats=stats) == []
    assert stats.candidates == stats.clique_rejected == 88_865_280
    stats = CellStats()
    assert classify(3, 8, budget=10**6, stats=stats) == []
    assert stats.candidates == stats.clique_rejected == 383_040
    stats = CellStats()
    with pytest.raises(BudgetExceeded, match="candidate count 88865280 exceeds budget 1000000"):
        classify(4, 8, budget=10**6, stats=stats)
    assert stats.candidates == 88_865_280 and stats.clique_rejected == 0


def test_clique_filter_is_decided_once_per_n(monkeypatch):
    # the filter reads only (n, sigma_0), so verify_theorem(3, 7) closes
    # one clique group per sigma_0 of n = 3..7: 1 + 2 + 4 + 10 + 26
    calls = []
    fits = wreath._clique_action_fits

    def counting_fits(n, sigma0):
        calls.append((n, sigma0))
        return fits(n, sigma0)

    wreath._fitting_sigma0s.cache_clear()
    monkeypatch.setattr(wreath, "_clique_action_fits", counting_fits)
    report = verify_theorem(3, 7)
    assert report.ok
    assert len(calls) == len(set(calls)) == 43


def test_classify_validates_no_candidate_and_its_records_revalidate(monkeypatch):
    # a completed neighbourhood walk already proves every check of
    # validate_admissible, so classify never runs it; loading the records
    # decides each rebuilt triple by the same walks, so it never runs either
    validated = []
    validate = maps.validate_admissible

    def recording_validate(t, cap=maps.DEFAULT_BUDGET):
        validated.append(t)
        return validate(t, cap)

    monkeypatch.setattr(maps, "validate_admissible", recording_validate)
    records = classify(2, 6)
    assert len(records) == 2
    assert validated == []
    assert records_from_json(records_to_json(records)) == records
    assert validated == []


def test_classify_k3_special_cell():
    records = classify(1, 3)
    assert len(records) == 1
    rec = records[0]
    assert rec.sigma == (Perm([1, 0, 2]),)
    assert rec.invariants.type_string == "{6,2}_3"
    assert rec.invariants.group_order == 12
    assert not rec.invariants.orientable
    # the hexagon carrier revalidates through the generic engine
    assert invariants(rec.triple()) == rec.invariants


def test_clique_submap_matches_d1_census():
    # each Hamming record restricts to a complete-graph map already in the census
    d1_types = {
        n: {r.invariants.type_triple for r in classify(1, n)} for n in (3, 4, 6)
    }
    for d, n in ((2, 3), (3, 3), (2, 4), (3, 4), (2, 6)):
        for rec in classify(d, n):
            sub = clique_submap(rec.triple(), d)
            sub_inv = invariants(sub)
            assert sub_inv.group_order == 2 * n * (n - 1)
            assert sub_inv.type_triple in d1_types[n]


def test_clique_submap_spec_cases_h26():
    recs = {r.invariants.type_triple: r for r in classify(2, 6)}
    great_dodecahedron = invariants(clique_submap(recs[(10, 10, 8)].triple(), 2))
    assert great_dodecahedron.covalency == 5
    assert not great_dodecahedron.orientable
    assert great_dodecahedron.group_order == 60
    icosahedral = invariants(clique_submap(recs[(8, 10, 10)].triple(), 2))
    assert icosahedral.covalency == 3
    assert not icosahedral.orientable


def test_maps_isomorphic_reflexive_and_distinct():
    recs = classify(2, 6)
    assert maps_isomorphic(recs[0], recs[0])
    assert not maps_isomorphic(recs[0], recs[1])
    with pytest.raises(ValueError):
        maps_isomorphic(recs[0], classify(2, 3)[0])


def test_conjugate_triples_are_found_isomorphic():
    rec = classify(2, 3)[0]
    t1 = rec.triple()
    graph = hamming(2, 3)
    rng = random.Random(23)
    for _ in range(5):
        images = list(range(9))
        rng.shuffle(images)
        g = Perm(images)
        # conjugating by an arbitrary vertex bijection keeps the search honest:
        # only genuine graph automorphisms can witness the isomorphism
        ginv = inverse(g)
        t2_gens = [ginv * x * g for x in (t1.lam, t1.rho, t1.tau)]
        from regmaps.maps import AdmissibleTriple

        t2 = AdmissibleTriple(*t2_gens)
        witness = triples_map_isomorphic(t1, t2, graph)
        is_graph_aut = all(
            g(b) in graph.adj[g(a)] for a, b in graph.edges()
        )
        assert (witness is not None) == is_graph_aut


def test_conjugate_by_graph_automorphism_is_always_found():
    from regmaps.maps import AdmissibleTriple

    rec = classify(2, 4)[0]
    t1 = rec.triple()
    graph = hamming(2, 4)
    rng = random.Random(31)
    for _ in range(5):
        g = wreath_to_perm(*random_wreath(rng, 2, 4))
        ginv = inverse(g)
        t2 = AdmissibleTriple(*(ginv * x * g for x in (t1.lam, t1.rho, t1.tau)))
        assert triples_map_isomorphic(t1, t2, graph) is not None


def test_coset_graph_equals_hamming_for_canonical_records():
    from regmaps.maps import coset_graph

    for d, n in ((1, 4), (1, 6), (2, 3), (2, 4), (3, 3)):
        for rec in classify(d, n):
            assert coset_graph(rec.triple()) == hamming(d, n)


def test_petrie_pair_h26():
    recs = classify(2, 6)
    graph = hamming(2, 6)
    dual = petrie_dual(recs[0].triple())
    assert triples_map_isomorphic(dual, recs[1].triple(), graph) is not None


def test_records_json_roundtrip():
    records = classify(2, 3) + classify(1, 4)
    text = records_to_json(records)
    loaded = records_from_json(text)
    assert loaded == records
    assert records_to_json(loaded) == text


def test_records_json_revalidates():
    text = records_to_json(classify(2, 3))
    payload = json.loads(text)
    payload[0]["genus"] = 6
    with pytest.raises(ValueError):
        records_from_json(json.dumps(payload))


def test_records_json_rejects_a_tampered_census_note():
    [obj, _] = json.loads(records_to_json(classify(2, 6)))
    for note in ("N1.1", None):
        with pytest.raises(ValueError, match="census note"):
            records_from_json(json.dumps([{**obj, "census_note": note}]))


def test_a_record_missing_a_field_is_rejected_by_name():
    [obj] = json.loads(records_to_json(classify(2, 3)))
    for name in ("theta", "d", "sigma", "type", "genus", "group_order"):
        with pytest.raises(ValueError, match=f"no '{name}' field"):
            records_from_json(json.dumps([{k: v for k, v in obj.items() if k != name}]))
    kind = {k: v for k, v in obj["type"].items() if k != "r"}
    with pytest.raises(ValueError, match="record type has no 'r' field"):
        records_from_json(json.dumps([{**obj, "type": kind}]))
    # a field of the wrong JSON type is refused by name too; an int is
    # never a bool, so "orientable": 0 cannot load and be saved again as 0
    wrong = [
        ("theta", None), ("n", "4"), ("n", None), ("d", True), ("sigma", None),
        ("sigma", [None]), ("sigma", [[1, 0, 2.5], [0, 1, 2]]), ("witness", "12"),
        ("witness", {}), ("witness", ["1"]), ("orientable", 0), ("V", 1.0),
        ("census_note", 3),
    ]
    for name, value in wrong:
        with pytest.raises(ValueError, match=f"field '{name}'"):
            records_from_json(json.dumps([{**obj, name: value}]))
    with pytest.raises(ValueError, match="record type field 'q'"):
        records_from_json(json.dumps([{**obj, "type": {**obj["type"], "q": "4"}}]))


def test_a_record_that_is_not_an_object_is_rejected():
    for record in (5, [1, 2], "d"):
        with pytest.raises(ValueError, match="not a JSON object"):
            records_from_json(json.dumps([record]))
    # nor is a census that is not an array of records
    for text in ("3", "null", '{"a": 1}', '"d"'):
        with pytest.raises(ValueError, match="census JSON is not an array"):
            records_from_json(text)
    [obj] = json.loads(records_to_json(classify(2, 3)))
    with pytest.raises(ValueError, match="record type is not a JSON object"):
        records_from_json(json.dumps([{**obj, "type": 4}]))


def test_k3_record_with_other_parameters_is_rejected():
    # the (1,3) triple is the fixed hexagon, so revalidation alone cannot
    # tell a tampered sigma or theta; maps_isomorphic would then call the
    # tampered record different from the real one
    [obj] = json.loads(records_to_json(classify(1, 3)))
    assert records_from_json(json.dumps([obj])) == classify(1, 3)
    for sigma in ([[0, 2, 1]], [[1, 0, 2], [1, 0, 2]]):
        with pytest.raises(ValueError, match=r"\(1,3\) record"):
            records_from_json(json.dumps([{**obj, "sigma": sigma}]))
    with pytest.raises(ValueError, match="theta"):
        records_from_json(json.dumps([{**obj, "theta": [0, 1]}]))


@pytest.mark.parametrize("d,n,theta", [(3, 3, [0, 1, 2]), (4, 4, [0, 2, 1, 3])])
def test_record_with_another_theta_is_rejected(d, n, theta):
    # every record is stored with theta = beta_d; another involution fixing
    # 0 is refused by name, before any triple is built from it, and so is
    # a d that the stored theta does not have, without building beta_d
    fixture = ROOT / "perfbench" / "fixtures" / "census_reload.json"
    [obj] = [o for o in json.loads(fixture.read_text()) if (o["d"], o["n"]) == (d, n)]
    assert len(records_from_json(json.dumps([obj]))) == 1
    for tampered in ({**obj, "theta": theta}, {**obj, "d": 10**9}):
        with pytest.raises(ValueError, match="theta"):
            records_from_json(json.dumps([tampered]))


def test_revalidating_a_record_lists_no_group(monkeypatch):
    # the census's walks decide the record on the base vertex's neighbours,
    # so no stabilizer of the map is closed, let alone its group
    fixture = ROOT / "perfbench" / "fixtures" / "census_reload.json"
    payload = [obj for obj in json.loads(fixture.read_text()) if (obj["d"], obj["n"]) == (4, 4)]
    caps = []

    def recording_closure(generators, cap):
        caps.append(cap)
        return closure(generators, cap)

    monkeypatch.setattr(maps, "closure", recording_closure)
    [rec] = records_from_json(json.dumps(payload))
    assert rec.invariants.group_order == 6144
    assert caps == []


@pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (2, 6)])
def test_a_record_the_census_would_not_keep_is_rejected(d, n):
    # a kept record's sigma swapped for that of any other candidate of the
    # cell: lam not an involution, a group past the flag count, or an
    # orientable map; each is refused by the census's own decision
    kept = {rec.sigma for rec in classify(d, n)}
    [obj, *_] = json.loads(records_to_json(classify(d, n)))
    refused = 0
    for params in enumerate_sigma_candidates(d, n):
        if params.sigma in kept:
            continue
        sigma = [s.images.tolist() for s in params.sigma]
        with pytest.raises(ValueError, match="precheck|not a kept census map"):
            records_from_json(json.dumps([{**obj, "sigma": sigma}]))
        refused += 1
    assert refused


def test_a_cell_past_the_degree_bound_is_skipped_before_any_work(monkeypatch):
    # the degree n^d is checked before the candidates are counted
    monkeypatch.setattr(wreath, "MAX_DEGREE", 10)
    with monkeypatch.context() as m:
        m.setattr(wreath, "_sigma0_choices", lambda n: pytest.fail("candidates counted"))
        with pytest.raises(BudgetExceeded, match=r"degree 4\^2 exceeds the supported bound 10"):
            classify(2, 4)
        # a huge d is refused without computing n^d
        with pytest.raises(BudgetExceeded, match=r"degree 3\^1000000000 exceeds"):
            classify(10**9, 3)
    report = verify_theorem(2, 4)
    assert [(c.d, c.n) for c in report.cells if c.skipped] == [(2, 4)]
    assert not report.complete


def test_expected_count_table():
    assert expected_count(2, 2) == 1
    assert expected_count(3, 2) == 0
    assert expected_count(5, 3) == 1
    assert expected_count(1, 6) == 2
    assert expected_count(3, 6) == 0
    assert expected_count(2, 7) == 0


def test_verify_theorem_small():
    report = verify_theorem(2, 4)
    assert report.ok
    assert report.complete
    assert {(c.d, c.n): c.found for c in report.cells} == {
        (1, 3): 1,
        (1, 4): 1,
        (2, 3): 1,
        (2, 4): 1,
    }


def test_verify_theorem_budget_flags_incomplete():
    report = verify_theorem(2, 4, budget=50)
    assert not report.complete
    assert not report.ok
    skipped = [c for c in report.cells if c.skipped]
    assert skipped


def test_regular_vertex_subgroup_for_n34():
    # an elementary abelian normal subgroup of order n^d acts regularly on
    # the vertices; note the group also has fixed-point-free elements
    # outside it, so the subgroup is more than "everything without a fixed
    # vertex"
    from regmaps.wreath import regular_vertex_subgroup

    for d, n in ((2, 3), (2, 4), (3, 3)):
        rec = classify(d, n)[0]
        group = rec.triple().group()
        sub = regular_vertex_subgroup(group, p=3 if n == 3 else 2)
        assert sub is not None
        assert sub.order == n**d
        assert sorted(g(0) for g in sub.elements) == list(range(n**d))
