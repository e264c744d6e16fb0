"""Closed classical points of local curves of untilts, plus the archimedean curve.

A non-archimedean point is the data |p|_{K_y} = p^(-e) for an exact rational
Beltrami exponent e > 0, optionally backed by a concrete Hahn representative a
with e = valuation(a). The archimedean curve is R^{>0}: the point s stands for
the untilt (C, |.|^s). Frobenius multiplies e by p resp. acts trivially at the
archimedean place; both layers stay exactly consistent.

Calibration: the standard point at a finite place v carries e = e_v * f_v (the
local degree), so that the normalized value alpha_v * log|x|_{K_y} recovers the
Artin absolute value of x at every point of the curve, ramified places
included. At unramified places this is the familiar e = f_v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .numfield import NumberField, Place, _log_fraction, archimedean_place, places_over
from .tilt import (
    HahnSeries,
    TiltError,
    artin_hasse,
    evaluate_series,
    frobenius as hahn_frobenius,
    hahn_eq,
    inverse_frobenius,
    lubin_tate_act,
)


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
    """The untilt (C, |.|^s) of the archimedean curve R^{>0}."""

    s: float

    def __post_init__(self):
        if not self.s > 0:
            raise CurveError(f"archimedean parameter must be positive, got {self.s}")


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
        return LocalPointArch(1.0)
    return LocalPointNonArch(v, Fraction(v.e * v.f))


def frobenius_point(y: LocalPointNonArch, m: int = 1) -> LocalPointNonArch:
    """phi^m: e -> p^m e, so |p|_y = |p|_{phi y}^{1/p} exactly; concrete layer follows."""
    p = y.place.prime
    e = y.e * Fraction(p) ** m
    concrete = y.concrete
    if concrete is not None:
        step = hahn_frobenius if m >= 0 else inverse_frobenius
        for _ in range(abs(m)):
            concrete = step(concrete)
    return LocalPointNonArch(y.place, e, concrete)


def beltrami(y: LocalPoint):
    """The exact exponent e (finite, |p|_{K_y} = p^(-e)) or the real s (archimedean)."""
    if isinstance(y, LocalPointArch):
        return y.s
    return y.e


def arch_act(z_modulus: float, y: LocalPointArch) -> LocalPointArch:
    if not z_modulus > 0:
        raise CurveError("archimedean action needs |z| > 0")
    return LocalPointArch(z_modulus * y.s)


def local_distance(y1: LocalPoint, y2: LocalPoint) -> float:
    """|log e1 - log e2| resp. |log s1 - log s2|; Frobenius translates by log p."""
    if isinstance(y1, LocalPointArch) != isinstance(y2, LocalPointArch):
        raise CurveError("distance needs points of the same place")
    if isinstance(y1, LocalPointArch):
        return abs(math.log(y1.s) - math.log(y2.s))
    if y1.place != y2.place:
        raise CurveError("distance needs points of the same place")
    return abs(_log_fraction(y1.e / y2.e))


def curve_log_abs(x_ord: int, ev: int, e: Fraction) -> Fraction:
    """Exact coefficient c in log|x|_{K_y} = c * log p, for ord_v(x) = x_ord.

    The valuation of K_y restricted to the local field is pinned by
    |p|_{K_y} = p^(-e) and ord_v(p) = e_v, giving c = -(e / e_v) * ord_v(x).
    """
    return -(e / ev) * x_ord


def canonical_representative(a: HahnSeries) -> HahnSeries:
    """Normalize the class of a under the unit action at working precision.

    Scales by the prime-field unit making the lowest nonzero polynomial
    coordinate of the leading coefficient equal to 1 (leading coefficients not
    in the prime field cannot always be brought to 1; this is the k-permitting
    compromise).
    """
    if a.is_zero():
        raise CurveError("zero series does not represent a point")
    _, c = a.leading()
    low = next(x for x in c if x)
    u = pow(low, -1, a.p)
    if u == 1:
        return a
    return lubin_tate_act(u, a)


def same_point_class(a: HahnSeries, b: HahnSeries) -> bool:
    """Equality of point classes decided by canonicalized truncations."""
    if a.valuation() != b.valuation():
        return False
    return hahn_eq(canonical_representative(a), canonical_representative(b))


def switch_description(a: HahnSeries) -> HahnSeries:
    """The multiplicative-side representative AH(a) of the additive datum a.

    AH(a) lies in 1 + m and valuation(AH(a) - 1) = valuation(a), so the
    Beltrami data of the point survives the switch.
    """
    va = a.valuation()
    if va is None or va <= 0:
        raise CurveError("switch_description needs valuation(a) > 0")
    degree = min(64, int(math.ceil(float(a.cap / va))) + 1)
    ah = artin_hasse(a.p, max(degree, 1), 2)
    return evaluate_series(ah, a)


def correspondence_fiber(field: NumberField, p: int, moved) -> set:
    """Toy fiber of the product of local curves over the base rational curve.

    `moved` maps base points (over the rational place at p) to base points. One
    output tuple per choice of the place carrying the motion, each tuple holding
    one point per place v | p with exponents scaled by the local degree, so the
    fiber has at most [L:Q] elements and the identity motion gives the identity
    fiber.
    """
    if field.degree > 2:
        raise CurveError("unsupported field degree")
    base_place = Place(NumberField(), p, 1, 1, 0)
    base = standard_point(base_place)
    vs = places_over(field, p)

    def lift(v: Place, pt: LocalPointNonArch) -> LocalPointNonArch:
        return LocalPointNonArch(v, Fraction(v.e * v.f) * pt.e)

    out = set()
    for mover in vs:
        assignment = tuple(
            lift(v, moved(base) if v == mover else base) for v in vs
        )
        out.add(assignment)
    return out
