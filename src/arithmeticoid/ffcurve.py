"""Closed classical points of local curves of untilts, plus the archimedean curve.

A non-archimedean point is the data |p|_{K_y} = p^(-e) for an exact rational
Beltrami exponent e > 0, optionally backed by a concrete Hahn representative a
with e = valuation(a). The archimedean curve is R^{>0}: the point s, an exact
positive Fraction, stands for the untilt (C, |.|^s). Frobenius multiplies e by
p resp. acts trivially at the archimedean place; both layers stay exactly
consistent.

Calibration: the standard point at a finite place v carries e = e_v * f_v (the
local degree), so that the normalized value alpha_v * log|x|_{K_y} recovers the
Artin absolute value of x at every point of the curve, ramified places
included. At unramified places this is the familiar e = f_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .numfield import Place, _log_fraction

if TYPE_CHECKING:  # tilt loads only where a concrete layer is moved
    from .tilt import HahnSeries


class CurveError(ValueError):
    """Domain violation on a curve of untilts."""


@dataclass(frozen=True)
class LocalPointNonArch:
    """A closed point of the curve over the tilt at a finite place."""

    place: Place
    e: Fraction  # |p|_{K_y} = p^(-e), e > 0
    concrete: HahnSeries | None = None

    def __post_init__(self):
        if self.place.is_archimedean:
            raise CurveError("non-archimedean point needs a finite place")
        if self.e <= 0:
            raise CurveError(f"Beltrami exponent must be positive, got {self.e}")
        if self.concrete is not None:
            va = self.concrete.valuation()
            if va is None or va <= 0:
                raise CurveError("concrete representative needs positive valuation")
            if va != self.e:
                raise CurveError(
                    f"calibration broken: valuation {va} != Beltrami exponent {self.e}"
                )


@dataclass(frozen=True)
class LocalPointArch:
    """The untilt (C, |.|^s) of the archimedean curve R^{>0}.

    s is stored as an exact Fraction; a float converts exactly.  It must round
    to a positive finite float, so that heights can evaluate s * log|x|.
    """

    s: Fraction

    def __post_init__(self):
        s = self.s
        if isinstance(s, float) and not math.isfinite(s):
            raise CurveError(f"archimedean parameter must be finite, got {s}")
        s = Fraction(s)
        if s <= 0:
            raise CurveError(f"archimedean parameter must be positive, got {s}")
        arch_float(s.numerator, s.denominator)
        object.__setattr__(self, "s", s)


def arch_float(num: int, den: int) -> float:
    """The archimedean scale num/den > 0 as the correctly rounded float.

    CurveError when it rounds to 0 or past the largest float; the message gives
    digit counts, since str() of an int past 4,300 digits raises.
    """
    try:
        s = num / den
    except OverflowError:
        s = math.inf
    if not 0.0 < s < math.inf:
        raise CurveError(f"archimedean scale n/d with {_digits(num)}-digit n and "
                         f"{_digits(den)}-digit d leaves the float range")
    return s


def _digits(n: int) -> int:
    d = int(n.bit_length() * 0.30102999566398120) + 1  # log10(2)
    return d - 1 if d > 1 and 10 ** (d - 1) > n else d


LocalPoint = LocalPointNonArch | LocalPointArch


def local_point(place: Place, e=None, concrete: HahnSeries | None = None) -> LocalPointNonArch:
    """Build a point from an exponent, a concrete representative, or both."""
    if concrete is not None:
        va = concrete.valuation()
        if va is None or va <= 0:
            raise CurveError("concrete representative needs positive valuation")
        if e is not None and Fraction(e) != va:
            raise CurveError("exponent disagrees with the concrete representative")
        return LocalPointNonArch(place, va, concrete)
    if e is None:
        raise CurveError("need an exponent or a concrete representative")
    return LocalPointNonArch(place, Fraction(e))


def standard_point(v: Place) -> LocalPoint:
    """e = e_v * f_v at finite v (Artin calibration); s = 1 at the archimedean place."""
    if v.is_archimedean:
        return LocalPointArch(Fraction(1))
    return LocalPointNonArch(v, Fraction(v.e * v.f))


def frobenius_point(y: LocalPointNonArch, m: int = 1) -> LocalPointNonArch:
    """phi^m: e -> p^m e, so |p|_y = |p|_{phi y}^{1/p} exactly; concrete layer follows."""
    p = y.place.prime
    e = y.e * Fraction(p) ** m
    concrete = y.concrete
    if concrete is not None:
        from .tilt import frobenius, inverse_frobenius

        step = frobenius if m >= 0 else inverse_frobenius
        for _ in range(abs(m)):
            concrete = step(concrete)
    return LocalPointNonArch(y.place, e, concrete)


def arch_act(z_modulus: Fraction, y: LocalPointArch) -> LocalPointArch:
    """s -> |z| * s, exactly."""
    if not z_modulus > 0:
        raise CurveError("archimedean action needs |z| > 0")
    return LocalPointArch(z_modulus * y.s)


def local_distance(y1: LocalPoint, y2: LocalPoint) -> float:
    """|log e1 - log e2| resp. |log s1 - log s2|; Frobenius translates by log p."""
    if isinstance(y1, LocalPointArch) != isinstance(y2, LocalPointArch):
        raise CurveError("distance needs points of the same place")
    if isinstance(y1, LocalPointArch):
        return abs(math.log(float(y1.s)) - math.log(float(y2.s)))
    if y1.place != y2.place:
        raise CurveError("distance needs points of the same place")
    return abs(_log_fraction(y1.e / y2.e))


def curve_log_abs(x_ord: int, ev: int, e: Fraction) -> Fraction:
    """Exact coefficient c in log|x|_{K_y} = c * log p, for ord_v(x) = x_ord.

    The valuation of K_y restricted to the local field is pinned by
    |p|_{K_y} = p^(-e) and ord_v(p) = e_v, giving c = -(e / e_v) * ord_v(x).
    """
    return -(e / ev) * x_ord
