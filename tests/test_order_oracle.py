"""The order-only map checks against the listed-group verdicts they replace.

``validate_admissible``, ``is_orientable`` and ``invariants`` read the
order of the map group and of its rotation subgroup <R, L> off Schreier
orbit-stabilizer counts and list neither group.  The oracle lists both
with ``closure``: the report of ``validate_admissible`` with the group
order taken from the listed group, and the index of <R, L> from
``subgroup_index``.
"""

import random

import pytest

from regmaps.maps import (
    AdmissibleTriple,
    InvalidTripleError,
    is_orientable,
    named_triple,
    petrie_dual,
    validate_admissible,
)
from regmaps.perms import CapExceeded, Perm, closure, identity, subgroup_index
from regmaps.pgl29 import pgl_triple
from regmaps.wreath import CanonicalTripleParams, canonical_triple, classify

CENSUS_CELLS = [(d, n) for d in (1, 2, 3) for n in range(3, 8)] + [(4, 3), (4, 4)]


def fresh(t):
    """The same generators, with nothing computed yet."""
    return AdmissibleTriple(t.lam, t.rho, t.tau)


def listed_report(t, cap):
    """validate_admissible's report, with the group order read off the
    listed group instead of a Schreier count."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AdmissibleTriple, "order", lambda self, cap: self.group(cap).order)
        return validate_admissible(fresh(t), cap)


def listed_orientability(t, cap):
    """True/False for index 2/1 of <R, L> in the listed group, the
    exception type otherwise."""
    try:
        index = subgroup_index(closure([t.lam, t.rho, t.tau], cap), [t.R, t.L])
    except CapExceeded:
        return CapExceeded
    return index == 2 if index in (1, 2) else InvalidTripleError


def order_only_orientability(t, cap):
    try:
        return is_orientable(fresh(t), cap)
    except (CapExceeded, InvalidTripleError) as exc:
        return type(exc)


def assert_order_only_matches_listed(t, cap):
    report = validate_admissible(fresh(t), cap)
    assert report == listed_report(t, cap)
    assert order_only_orientability(t, cap) == listed_orientability(t, cap)
    if report.group_order is None:
        with pytest.raises(CapExceeded):
            closure([t.lam, t.rho, t.tau], cap)
        return
    # one below the order, both paths overflow, a cached count included
    cached = fresh(t)
    cached.orbit_stabilizer(cap)
    below = report.group_order - 1
    if below >= 1:
        for triple in (fresh(t), cached):
            checks = dict(validate_admissible(triple, below).checks)
            assert checks["group_closes_within_cap"] is False
        assert validate_admissible(fresh(t), below) == listed_report(t, below)
        with pytest.raises(CapExceeded):
            closure([t.lam, t.rho, t.tau], below)


def h23(sigma1):
    return canonical_triple(
        CanonicalTripleParams(2, 3, (Perm([1, 0, 2]), sigma1))
    )


@pytest.mark.parametrize(
    "t",
    [
        named_triple("h22-octagon"),
        h23(identity(3)),
        h23(Perm([0, 2, 1])),
        pgl_triple(),
        petrie_dual(pgl_triple()),
    ],
    ids=["octagon", "h23-nonorientable", "h23-orientable", "pgl29", "pgl29-petrie-dual"],
)
def test_order_only_checks_match_the_listed_group_on_fixtures(t):
    report = validate_admissible(fresh(t))
    assert report.ok
    assert_order_only_matches_listed(t, report.group_order)
    assert_order_only_matches_listed(t, 100_000)


@pytest.mark.parametrize("d,n", CENSUS_CELLS)
def test_order_only_checks_match_the_listed_group_on_census_records(d, n):
    for rec in classify(d, n):
        assert_order_only_matches_listed(rec.triple(), rec.invariants.group_order)


def random_generator(rng, degree):
    """Mostly an involution (or the identity); now and then any
    permutation, so that <R, L> can have an index other than 1 or 2."""
    points = list(range(degree))
    rng.shuffle(points)
    if rng.random() < 0.2:
        return Perm(points)
    images = list(range(degree))
    for a, b in zip(points[0::2], points[1::2]):
        if rng.random() < 0.7:
            images[a], images[b] = b, a
    return Perm(images)


def test_order_only_checks_match_the_listed_group_on_random_triples():
    rng = random.Random(4)
    outcomes = set()
    for _ in range(120):
        degree = rng.randint(2, 8)
        t = AdmissibleTriple(*(random_generator(rng, degree) for _ in range(3)))
        cap = rng.choice([24, 720, 2_000])
        assert_order_only_matches_listed(t, cap)
        outcomes.add(order_only_orientability(t, cap))
    assert outcomes == {True, False, CapExceeded, InvalidTripleError}
