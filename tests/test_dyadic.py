"""Exact dyadic distances: construction, order, rational agreement."""

import random
from fractions import Fraction

import pytest

from dfao.dyadic import ZERO, DyadicDistance, pow2inv


def test_zero_is_zero():
    assert ZERO.is_transparent
    assert ZERO.exponent is None
    assert ZERO.as_fraction() == 0
    assert str(ZERO) == "0"


def test_pow2inv_values():
    for e in range(0, 11):
        v = pow2inv(e)
        assert not v.is_transparent
        assert v.exponent == e
        assert v.as_fraction() == Fraction(1, 2**e)
    assert str(pow2inv(0)) == "1"
    assert str(pow2inv(3)) == "1/8"


def test_equality_and_hash():
    assert pow2inv(3) == pow2inv(3)
    assert pow2inv(3) != pow2inv(4)
    assert ZERO != pow2inv(2**40)
    assert len({ZERO, pow2inv(1), pow2inv(1), ZERO}) == 2


def test_order_zero_smallest():
    assert ZERO < pow2inv(2**40)
    assert ZERO < pow2inv(0)
    assert not ZERO < ZERO
    assert ZERO <= ZERO


def test_order_matches_fractions_up_to_64():
    values = [ZERO] + [pow2inv(e) for e in range(0, 65)]
    for a in values:
        for b in values:
            assert (a < b) == (a.as_fraction() < b.as_fraction())
            assert (a <= b) == (a.as_fraction() <= b.as_fraction())
            assert (a == b) == (a.as_fraction() == b.as_fraction())


def test_sorting_and_extremes():
    rng = random.Random(7)
    values = [ZERO] + [pow2inv(e) for e in range(0, 20)]
    shuffled = values[:]
    rng.shuffle(shuffled)
    ordered = sorted(shuffled)
    assert ordered == [ZERO] + [pow2inv(e) for e in range(19, -1, -1)]
    assert ordered[0] == ZERO
    assert ordered[-1] == pow2inv(0)
    assert max(shuffled) == pow2inv(0)
    assert min(shuffled) == ZERO


def test_exponent_bounds():
    with pytest.raises(ValueError):
        DyadicDistance(-1)
    assert DyadicDistance(2**40).exponent == 2**40
