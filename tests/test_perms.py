import math
import random

import numpy as np
import pytest

from regmaps import perms
from regmaps.perms import (
    CapExceeded,
    Perm,
    closure,
    compose,
    contains,
    element_order,
    evaluate_word,
    identity,
    inverse,
    is_involution,
    orbit_stabilizer,
    perm_from_text,
    perm_to_text,
    power,
    subgroup_index,
)


def brute_compose(p, q):
    # independent oracle: apply p pointwise, then q pointwise
    return [q(p(i)) for i in range(p.degree)]


GAMMA6 = Perm([0, 2, 3, 4, 5, 1])  # the cycle (1 2 3 4 5) on 6 points


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])
    with pytest.raises(ValueError):
        Perm([0, 2])
    with pytest.raises(ValueError):
        Perm([-1, 0])
    with pytest.raises(ValueError):
        Perm([])


@pytest.mark.parametrize("images", [[0, 1.7, 2], [True, False], ["1", "0"]])
def test_perm_refuses_non_integer_images(images):
    # a cast would make the first the identity and the others a transposition
    with pytest.raises(ValueError, match="images must be integers"):
        Perm(images)


def test_compose_identity():
    p = Perm([2, 0, 1])
    assert compose(identity(3), p) == p
    assert compose(p, identity(3)) == p


def test_compose_s3_hand_table():
    p = Perm([1, 0, 2])  # (0 1)
    q = Perm([0, 2, 1])  # (1 2)
    result = compose(p, q)
    assert list(result.images) == brute_compose(p, q) == [2, 0, 1]
    assert result.cycles() == ((0, 2, 1),)


def test_compose_with_inverse_is_identity():
    assert compose(GAMMA6, inverse(GAMMA6)) == identity(6)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse():
    assert inverse(identity(5)) == identity(5)
    five_cycle = Perm([1, 2, 3, 4, 0])
    assert inverse(five_cycle) == Perm([4, 0, 1, 2, 3])
    invol = Perm([1, 0, 5, 3, 4, 2])
    assert inverse(invol) == invol


def test_power():
    assert power(GAMMA6, 0) == identity(6)
    assert power(GAMMA6, 5) == identity(6)
    assert power(GAMMA6, -1) == inverse(GAMMA6)
    assert power(GAMMA6, 7) == compose(GAMMA6, GAMMA6)


def test_derived_perms_pass_the_checks_and_are_frozen():
    invol = Perm([1, 0, 5, 3, 4, 2])
    derived = [
        compose(GAMMA6, invol),
        inverse(GAMMA6),
        power(GAMMA6, 0),
        power(GAMMA6, -3),
        *closure([GAMMA6, invol], cap=720),
    ]
    for p in derived:
        assert Perm(p.images) == p
        with pytest.raises(ValueError):
            p.images[0] = p.images[1]


def test_element_order():
    assert element_order(identity(4)) == 1
    assert element_order(GAMMA6) == 5
    assert element_order(Perm([1, 0, 3, 4, 2])) == 6  # (0 1)(2 3 4)


def test_element_order_matches_cyclic_closure():
    rng = random.Random(7)
    for _ in range(20):
        images = list(range(7))
        rng.shuffle(images)
        p = Perm(images)
        assert element_order(p) == closure([p], cap=5040).order


def test_is_involution():
    assert is_involution(Perm([1, 0, 5, 3, 4, 2]))  # (0 1)(2 5)
    assert not is_involution(identity(4))
    assert not is_involution(GAMMA6)


def test_closure_s4_order():
    gens = [Perm([1, 0, 2, 3]), Perm([0, 2, 1, 3]), Perm([0, 1, 3, 2])]
    group = closure(gens, cap=100)
    assert group.order == math.factorial(4)
    for g in gens:
        assert g in group


def test_closure_identity_only():
    assert closure([identity(5)], cap=10).order == 1


def test_closure_cap_exceeded():
    gens = [Perm([1, 0, 2, 3]), Perm([0, 2, 1, 3]), Perm([0, 1, 3, 2])]
    with pytest.raises(CapExceeded):
        closure(gens, cap=23)


def test_closure_canonical_order():
    gens = [Perm([1, 0, 2, 3]), Perm([0, 2, 1, 3])]
    a = closure(gens, cap=100)
    b = closure(list(reversed(gens)), cap=100)
    assert a.elements == b.elements  # generator order must not matter
    assert a.elements[0] == identity(4)
    listed = [tuple(g.images.tolist()) for g in a.elements]
    assert listed == sorted(listed)


def _assert_group_axioms_exhaustive(group):
    arrays = np.stack([g.images for g in group.elements])
    keys = {g.key for g in group.elements}
    for g in group.elements:
        assert inverse(g) in group
        block = g.images[arrays]  # all products h * g at once
        for row in block:
            assert row.tobytes() in keys


def test_group_axioms_small_groups():
    s4 = closure([Perm([1, 2, 3, 0]), Perm([1, 0, 2, 3])], cap=100)
    _assert_group_axioms_exhaustive(s4)
    rot = Perm([(i + 1) % 8 for i in range(8)])
    flip = Perm([(-i) % 8 for i in range(8)])
    d16 = closure([rot, flip], cap=100)
    assert d16.order == 16
    _assert_group_axioms_exhaustive(d16)


def test_group_axioms_s6_exhaustive():
    s6 = closure([Perm([1, 2, 3, 4, 5, 0]), Perm([1, 0, 2, 3, 4, 5])], cap=1000)
    assert s6.order == 720
    _assert_group_axioms_exhaustive(s6)


def test_contains():
    swap = Perm([1, 0])
    assert contains(closure([swap], cap=10), swap)
    three_cycle = closure([Perm([1, 2, 0])], cap=10)
    assert not contains(three_cycle, Perm([1, 0, 2]))
    with pytest.raises(ValueError):
        contains(three_cycle, Perm([1, 0]))


def test_subgroup_index_trivial():
    gens = [Perm([1, 2, 3, 0]), Perm([1, 0, 2, 3])]
    group = closure(gens, cap=100)
    assert subgroup_index(group, gens) == 1


def test_subgroup_index_lagrange():
    group = closure([Perm([1, 2, 3, 0]), Perm([1, 0, 2, 3])], cap=100)
    rng = random.Random(11)
    pool = list(group.elements)
    for _ in range(15):
        sub_gens = rng.sample(pool, rng.randint(1, 3))
        sub = closure(sub_gens, cap=group.order)
        assert subgroup_index(group, sub_gens) * sub.order == group.order


def test_subgroup_index_rejects_outsiders():
    group = closure([Perm([1, 2, 0])], cap=10)
    with pytest.raises(ValueError):
        subgroup_index(group, [Perm([1, 0, 2])])


def test_evaluate_word_empty():
    l = Perm([1, 0, 2])
    r = Perm([0, 2, 1])
    assert evaluate_word(l, r, []) == identity(3)


def test_evaluate_word_matches_direct_product():
    l = Perm([1, 0, 5, 3, 4, 2])
    word = [1, 4, 2]
    direct = l * GAMMA6 * l * power(GAMMA6, 4) * l * power(GAMMA6, 2)
    assert evaluate_word(l, GAMMA6, word) == direct


def test_perm_text_roundtrip():
    p = Perm([1, 0, 2, 3])
    assert perm_to_text(p) == "1 0 2 3"
    assert perm_from_text("1 0 2 3") == p


def _random_perm(rng, degree):
    images = list(range(degree))
    rng.shuffle(images)
    return Perm(images)


# S_4 from (1 2), which fixes 0, and the 4-cycle: at cap 8 the seed <(1 2)>
# already has cap // |orbit| = 2 elements and a Schreier generator lies
# outside it, so the group must overflow
SEED_AT_CAP = ([Perm([0, 2, 1, 3]), Perm([1, 2, 3, 0])], 0, 8)


def _random_generator_sets():
    """100 seeded (generators, point, cap) cases of degree at most 6;
    some generators fix the point and seed the stabilizer.  The last
    case is SEED_AT_CAP."""
    rng = random.Random(29)
    for _ in range(100):
        degree = rng.randint(1, 6)
        gens = [_random_perm(rng, degree) for _ in range(rng.randint(1, 3))]
        point = rng.randrange(degree)
        cap = rng.choice([1, 3, 8, 24, 120, 720])
        yield gens, point, cap
    yield SEED_AT_CAP


def test_orbit_stabilizer_agrees_with_closure():
    for gens, point, cap in _random_generator_sets():
        try:
            group = closure(gens, cap)
        except CapExceeded:
            with pytest.raises(CapExceeded):
                orbit_stabilizer(gens, point, cap)
            continue
        orbit, stab = orbit_stabilizer(gens, point, cap)
        assert orbit * stab == group.order
        assert orbit == len({g(point) for g in group.elements})
        assert stab == sum(1 for g in group.elements if g(point) == point)


def test_orbit_stabilizer_agrees_with_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for gens, point, _ in _random_generator_sets():
        orbit, stab = orbit_stabilizer(gens, point, cap=720)
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(g.images.tolist()) for g in gens]
        )
        assert orbit * stab == group.order()
        assert orbit == len(group.orbit(point))


def test_orbit_stabilizer_raises_without_closing_past_a_full_seed(monkeypatch):
    calls = []
    close = perms._closure_raw

    def counting_close(gen_arrays, degree, cap):
        calls.append(cap)
        return close(gen_arrays, degree, cap)

    monkeypatch.setattr(perms, "_closure_raw", counting_close)
    with pytest.raises(CapExceeded):
        orbit_stabilizer(*SEED_AT_CAP)
    assert calls == [2]  # the seed alone, at cap 8 // |orbit| = 2
