"""Property-based checks of the permutation laws and the triple file format.

The examples are drawn by hypothesis over random degrees and images, so
the laws are checked away from the hand-picked cases of test_perms.py.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from regmaps.maps import AdmissibleTriple, format_triple, parse_triple
from regmaps.perms import Perm, compose, identity, inverse, power

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def perm_tuples(draw, count, max_degree=9):
    """``count`` random permutations sharing one random degree."""
    degree = draw(st.integers(1, max_degree))
    return tuple(Perm(draw(st.permutations(range(degree)))) for _ in range(count))


@SETTINGS
@given(perm_tuples(3))
def test_compose_is_associative(perms):
    p, q, r = perms
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@SETTINGS
@given(perm_tuples(1))
def test_inverse_composes_to_the_identity(perms):
    [p] = perms
    ident = identity(p.degree)
    assert compose(p, inverse(p)) == compose(inverse(p), p) == ident
    assert inverse(inverse(p)) == p


@SETTINGS
@given(perm_tuples(1), st.integers(-30, 30), st.integers(-30, 30))
def test_power_adds_exponents(perms, a, b):
    [p] = perms
    assert power(p, a + b) == power(p, a) * power(p, b)
    assert power(p, -a) == inverse(power(p, a))


@SETTINGS
@given(perm_tuples(3, max_degree=12))
def test_triple_file_round_trips(perms):
    t = AdmissibleTriple(*perms)
    text = format_triple(t)
    parsed = parse_triple(text)
    assert parsed == t
    assert format_triple(parsed) == text
