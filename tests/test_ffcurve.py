import math
import random
from fractions import Fraction

import pytest

from arithmeticoid.ffcurve import (
    CurveError,
    LocalPointArch,
    LocalPointNonArch,
    arch_act,
    curve_log_abs,
    frobenius_point,
    local_distance,
    local_point,
    standard_point,
)
from arithmeticoid.numfield import NumberField, archimedean_place, places_over

F = Fraction
Q = NumberField()
QI = NumberField(1)


def v_of(field, p, idx=0):
    return places_over(field, p)[idx]


# ---------------------------------------------------------------- frobenius law

def test_frobenius_example_p5():
    y = standard_point(v_of(Q, 5))
    assert frobenius_point(y, 1).e == 5  # |5|_{K_{phi y}} = 5^{-5}


def test_frobenius_identity_and_inverse():
    y = standard_point(v_of(Q, 7))
    assert frobenius_point(y, 0) == y
    assert frobenius_point(frobenius_point(y, 1), -1) == y


def test_frobenius_relation_exact_all_small_primes():
    from sympy import primerange

    for p in primerange(2, 51):
        y = standard_point(v_of(Q, int(p)))
        for m in range(-6, 7):
            fy = frobenius_point(y, m)
            # |p|_y = |p|_{phi y}^{1/p} termwise on exponents: e_{m+1} = p * e_m
            assert frobenius_point(fy, 1).e == int(p) * fy.e


# ---------------------------------------------------------------- standard points

def test_standard_points():
    assert standard_point(v_of(Q, 5)).e == 1
    assert standard_point(v_of(QI, 5)).e == 1  # split: f = 1
    assert standard_point(v_of(QI, 3)).e == 2  # inert: f = 2
    assert standard_point(v_of(QI, 2)).e == 2  # ramified: e_v f_v = 2
    arch = standard_point(archimedean_place(Q))
    assert isinstance(arch, LocalPointArch) and arch.s == 1.0


def test_beltrami_values():
    assert standard_point(v_of(Q, 3)).e == 1
    assert frobenius_point(standard_point(v_of(Q, 3))).e == 3
    assert LocalPointArch(1.0).s == 1


def test_calibration_recovers_artin_value():
    # alpha_v * log|x|_{K_y} must be the Artin value at every point, ramified included
    from arithmeticoid.numfield import ord as ord_at

    x = QI.element(1, 1)  # 1 + i
    v = v_of(QI, 2)
    o = ord_at(x, v)
    for m in range(-3, 4):
        y = frobenius_point(standard_point(v), m)
        alpha = F(v.e * v.f) / y.e
        assert alpha * curve_log_abs(o, v.e, y.e) == -v.f * o


# ---------------------------------------------------------------- archimedean curve

def test_arch_act():
    y = LocalPointArch(1.0)
    assert arch_act(F(2), y).s == 2
    assert arch_act(F(1), y) == y
    rng = random.Random(20)
    for _ in range(50):
        r, t = F(rng.randint(1, 50), rng.randint(1, 50)), F(rng.randint(1, 50), rng.randint(1, 50))
        assert arch_act(r, arch_act(t, y)) == arch_act(r * t, y)


def test_arch_scale_is_an_exact_fraction():
    for raw, want in [(2.5, F(5, 2)), (0.1, F(0.1)), (3, F(3)), (F(1, 3), F(1, 3))]:
        s = LocalPointArch(raw).s
        assert type(s) is Fraction and s == want
    assert LocalPointArch(0.5) == LocalPointArch(F(1, 2))
    assert LocalPointArch(1.0) == standard_point(archimedean_place(Q))


def test_point_validation():
    for bad in (0.0, -F(1, 2), math.inf, math.nan, F(2 ** 1100), F(1, 2 ** 1100)):
        with pytest.raises(CurveError):
            LocalPointArch(bad)
    with pytest.raises(CurveError, match="422-digit n and 1-digit d"):
        LocalPointArch(F(2 ** 1400))
    with pytest.raises(CurveError):
        LocalPointNonArch(v_of(Q, 5), F(-1))
    with pytest.raises(CurveError):
        LocalPointNonArch(archimedean_place(Q), F(1))


def test_local_point_holds_an_exact_exponent():
    v = v_of(Q, 3)
    assert local_point(v, e=2) == LocalPointNonArch(v, F(2))
    assert type(local_point(v, e=2).e) is Fraction
    assert local_point(v, e=F(3, 2)).e == F(3, 2)
    for bad in (0, F(-1, 2)):
        with pytest.raises(CurveError):
            local_point(v, e=bad)


# ---------------------------------------------------------------- metric

def test_local_distance_examples():
    y = standard_point(v_of(Q, 3))
    assert local_distance(y, y) == 0.0
    assert local_distance(y, frobenius_point(y)) == pytest.approx(math.log(3), abs=1e-15)


def test_local_distance_axioms():
    rng = random.Random(21)
    v = v_of(Q, 5)
    pts = [LocalPointNonArch(v, F(rng.randint(1, 40), rng.randint(1, 40))) for _ in range(60)]
    pts += [LocalPointArch(rng.uniform(0.01, 10)) for _ in range(0)]
    for _ in range(1000):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        dab, dba = local_distance(a, b), local_distance(b, a)
        assert dab == dba >= 0
        assert (dab == 0) == (a.e == b.e)
        assert dab <= local_distance(a, c) + local_distance(c, b) + 1e-12


def test_local_distance_place_mismatch():
    with pytest.raises(CurveError):
        local_distance(standard_point(v_of(Q, 3)), standard_point(v_of(Q, 5)))
    with pytest.raises(CurveError):
        local_distance(standard_point(v_of(Q, 3)), LocalPointArch(1.0))
