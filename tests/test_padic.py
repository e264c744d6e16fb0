import random
from fractions import Fraction

import pytest

from arithmeticoid.padic import PadicError, PadicScalar


def test_from_fraction_valuation_and_unit():
    x = PadicScalar.from_fraction(Fraction(7, 25), 5, 10)
    assert x.val == -2
    assert x.unit == 7
    y = PadicScalar.from_fraction(Fraction(50), 5, 6)
    assert y.val == 2 and y.unit == 2


def test_from_fraction_inverts_denominator():
    x = PadicScalar.from_fraction(Fraction(1, 3), 5, 8)
    assert (x.unit * 3) % 5 ** 8 == 1


def test_mul_and_inverse_cancel():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        num = rng.randint(1, 400)
        den = rng.randint(1, 400)
        x = PadicScalar.from_fraction(Fraction(num, den), p, 12)
        if x.is_zero():
            continue
        one = x * x.inverse()
        assert one.val == 0 and one.unit == 1


def test_addition_tracks_cancellation():
    p = 3
    a = PadicScalar.from_fraction(Fraction(1 + 3 ** 5), p, 8)
    b = PadicScalar.from_fraction(Fraction(-1), p, 8)
    s = a + b  # units cancel through 3^5
    assert s.val == 5
    assert s.abs_precision == 8  # absolute precision is inherited, not invented


def test_addition_of_exact_cancellation_returns_zero():
    p = 5
    a = PadicScalar.from_fraction(Fraction(7), p, 6)
    s = a - a
    assert s.is_zero()
    assert s.val >= 6


def test_pow_matches_repeated_multiplication():
    x = PadicScalar.from_fraction(Fraction(4, 5), 3, 10)
    by_mul = x
    for _ in range(4):
        by_mul = by_mul * x
    assert (x ** 5).agrees_with(by_mul)
    assert (x ** 5).val == by_mul.val


def test_negative_pow_uses_inverse():
    x = PadicScalar.from_fraction(Fraction(10), 5, 9)
    y = x ** -2
    assert y.val == -2
    assert (y * x * x).unit == 1


def test_agreement_respects_requested_precision():
    p = 2
    a = PadicScalar.from_fraction(Fraction(5), p, 10)
    b = PadicScalar.from_fraction(Fraction(5 + 2 ** 6), p, 10)
    assert a.agrees_with(b, 6)
    assert not a.agrees_with(b, 7)


def test_mixed_primes_rejected():
    a = PadicScalar.from_fraction(Fraction(1), 2, 4)
    b = PadicScalar.from_fraction(Fraction(1), 3, 4)
    with pytest.raises(PadicError):
        a + b


def test_fraction_round_trip_to_representative():
    x = PadicScalar.from_fraction(Fraction(9, 2), 3, 8)
    # representative reduces to the same residue
    y = PadicScalar.from_fraction(Fraction(x.unit) * Fraction(3) ** x.val, 3, 8)
    assert x.agrees_with(y)
