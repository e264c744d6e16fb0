"""Minimal p-adic scalars as (valuation, unit) pairs with tracked relative precision.

Enough arithmetic for series reversion: multiplication and inversion are exact
on valuations; addition aligns absolute precision and re-normalizes, so
cancellation honestly costs digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numfield import _int_valuation, power


class PadicError(ValueError):
    pass


@dataclass(frozen=True)
class PadicScalar:
    """x = p^val * unit with unit a residue mod p^prec (prec relative digits).

    The zero scalar is unit = 0; its val records a lower bound O(p^val).
    """

    p: int
    val: int
    unit: int
    prec: int

    def __post_init__(self):
        if self.prec < 1:
            raise PadicError("precision exhausted")

    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def abs_precision(self) -> int:
        return self.val + self.prec

    @classmethod
    def from_fraction(cls, x, p: int, prec: int) -> "PadicScalar":
        x = Fraction(x)
        if x == 0:
            return cls(p, prec, 0, prec)
        vn = _int_valuation(x.numerator, p)
        vd = _int_valuation(x.denominator, p)
        num = x.numerator // p ** vn
        den = x.denominator // p ** vd
        mod = p ** prec
        return cls(p, vn - vd, num * pow(den, -1, mod) % mod, prec)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        _check(self, other)
        if self.is_zero() or other.is_zero():
            prec = min(self.prec, other.prec)
            return PadicScalar(self.p, self.val + other.val, 0, prec)
        prec = min(self.prec, other.prec)
        mod = self.p ** prec
        return PadicScalar(self.p, self.val + other.val,
                           (self.unit * other.unit) % mod, prec)

    def inverse(self) -> "PadicScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of p-adic zero")
        mod = self.p ** self.prec
        return PadicScalar(self.p, -self.val, pow(self.unit, -1, mod), self.prec)

    def __neg__(self) -> "PadicScalar":
        if self.is_zero():
            return self
        mod = self.p ** self.prec
        return PadicScalar(self.p, self.val, (-self.unit) % mod, self.prec)

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        _check(self, other)
        if self.is_zero():
            return _cap_abs(other, min(self.abs_precision, other.abs_precision))
        if other.is_zero():
            return _cap_abs(self, min(self.abs_precision, other.abs_precision))
        abs_prec = min(self.abs_precision, other.abs_precision)
        v0 = min(self.val, other.val)
        digits = abs_prec - v0
        if digits < 1:
            raise PadicError("addition lost all precision")
        mod = self.p ** digits
        total = (self.unit * self.p ** (self.val - v0)
                 + other.unit * self.p ** (other.val - v0)) % mod
        if total == 0:
            return PadicScalar(self.p, abs_prec, 0, 1)
        shift = _int_valuation(total, self.p)
        unit = total // self.p ** shift
        prec = abs_prec - (v0 + shift)
        return PadicScalar(self.p, v0 + shift, unit % self.p ** prec, prec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __pow__(self, n: int) -> "PadicScalar":
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, PadicScalar.__mul__, PadicScalar(self.p, 0, 1, self.prec))

    def truncated(self, abs_prec: int) -> "PadicScalar":
        """Forget digits beyond the given absolute precision."""
        return _cap_abs(self, abs_prec)

    def agrees_with(self, other: "PadicScalar", abs_prec: int | None = None) -> bool:
        """Digit agreement through the common (or requested) absolute precision."""
        _check(self, other)
        cap = min(self.abs_precision, other.abs_precision)
        if abs_prec is not None:
            cap = min(cap, abs_prec)
        d = self - other
        return d.is_zero() or d.val >= cap


def _check(a: PadicScalar, b: PadicScalar):
    if a.p != b.p:
        raise PadicError("mixed primes")


def _cap_abs(x: PadicScalar, abs_prec: int) -> PadicScalar:
    if x.is_zero():
        return PadicScalar(x.p, min(x.val, abs_prec), 0, x.prec)
    prec = abs_prec - x.val
    if prec < 1:
        return PadicScalar(x.p, abs_prec, 0, 1)  # indistinguishable from 0
    return PadicScalar(x.p, x.val, x.unit % x.p ** prec, prec)
