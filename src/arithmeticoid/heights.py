"""Deformation-dependent heights, degrees, and the monoid bookkeeping behind them.

The height of a projective point against an arithmeticoid y is a sum of local
terms.  At a finite place the term is alpha_v * log|x|_{K_y}; both factors move
with the local Beltrami exponent but their product collapses to the rigid
Artin value -f_v * ord_v(x) * log p, which we keep as an exact Fraction
coefficient of log p.  At the archimedean place the raw pairing s * log|x| is
used without dividing the normalization back out, so archimedean deformations
are visible to the height (this is what makes the stabilized height a strict
improvement for suitable samples).  With s = 1 the raw pairing equals the
normalized one and the classical product-formula invariance holds on the nose.

The rigid finite part gives the stabilized height a closed form.  An element
a of L* moves only the archimedean ruler, s -> |N(a)| * s, so the orbit point
a.y scores fin + |N(a)| * s * L, where fin and L = max(0, log|N z|) come from
the one base report at y.  The sup keeps the first element in sample order
that scores strictly above the running best, exactly as a walk over the
orbit would.

Also here: arithmetic degrees of ideloids, the divisor monoids (integral,
perfected, realified) with Frobenius pullback, inversion of the modular
j-expansion to recover a Tate parameter p-adically, and the norm comparison
of Teichmueller lifts against two local points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations_with_replacement

from .numfield import (
    FieldElement,
    NumberField,
    Place,
    _int_valuation,
    _log_fraction,
    archimedean_place,
    divisor_support,
    place_key,
    primerange,
)
from .ffcurve import LocalPointArch, LocalPointNonArch, arch_float, curve_log_abs
from .adelic import AdelicError, Arithmeticoid
from .padic import PadicScalar

J_DATA_RESOURCE = "data/j_qexp.txt"


class HeightError(ValueError):
    pass


# ---------------------------------------------------------------------------
# projective points

@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates over the field; at least one must be nonzero."""

    field: NumberField
    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise HeightError("projective point needs coordinates")
        for x in self.coords:
            if x.field != self.field:
                raise HeightError("coordinate from a different field")
        if all(x.is_zero() for x in self.coords):
            raise HeightError("all coordinates vanish")

    def scale(self, lam: FieldElement) -> "ProjectivePoint":
        if lam.is_zero():
            raise HeightError("scaling by zero")
        return ProjectivePoint(self.field, tuple(x * lam for x in self.coords))

    def __str__(self) -> str:
        return "(" + " : ".join(str(x) for x in self.coords) + ")"


def projective_point(field: NumberField, *coords) -> ProjectivePoint:
    elts = tuple(x if isinstance(x, FieldElement) else field.element(Fraction(x))
                 for x in coords)
    return ProjectivePoint(field, elts)


# ---------------------------------------------------------------------------
# height reports

@dataclass(frozen=True)
class FiniteTerm:
    """One finite place's share: contribution = alpha * log_scale * log(prime)."""

    place: Place
    alpha: Fraction      # normalization coordinate at the place
    log_scale: Fraction  # log|x|_{K_y} = log_scale * log(prime), best coordinate

    @property
    def coefficient(self) -> Fraction:
        return self.alpha * self.log_scale

    @property
    def value(self) -> float:
        return float(self.coefficient) * math.log(self.place.prime)


@dataclass(frozen=True)
class ArchTerm:
    s: float  # the carrier's exact scale, rounded for display and summing
    log_abs: float  # best coordinate's log|x| at the standard metric

    @property
    def value(self) -> float:
        # raw pairing; equals alpha * log|x| only when s = 1
        return self.s * self.log_abs


@dataclass(frozen=True)
class HeightReport:
    label: str
    finite: tuple          # FiniteTerm entries, canonical place order
    archimedean: ArchTerm

    @property
    def total(self) -> float:
        return sum(t.value for t in self.finite) + self.archimedean.value

    def finite_coefficient(self, p: int) -> Fraction:
        """Exact coefficient of log p summed over the places above p."""
        return sum((t.coefficient for t in self.finite if t.place.prime == p),
                   Fraction(0))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "finite": [
                {
                    "place": str(t.place),
                    "alpha": str(t.alpha),
                    "log_scale": str(t.log_scale),
                    "value": t.value,
                }
                for t in self.finite
            ],
            "archimedean": {"s": self.archimedean.s,
                            "log_abs": self.archimedean.log_abs,
                            "value": self.archimedean.value},
            "total": self.total,
        }


def height(y: Arithmeticoid, point: ProjectivePoint) -> HeightReport:
    """Per-place best coordinate, summed; finite parts exact, archimedean raw.

    Places where every coordinate is a unit contribute 0 and are omitted from
    the report.  Zero coordinates are skipped (their local size is -infinity).
    """
    if y.field != point.field:
        raise HeightError("point and arithmeticoid fields differ")
    nonzero = [x for x in point.coords if not x.is_zero()]
    support = {}
    for x in nonzero:
        for v, o in divisor_support(x):
            support.setdefault(v, {})[id(x)] = o
    terms = []
    for v in sorted(support, key=place_key):
        pt = y.component(v)
        alpha = Fraction(v.local_degree) / pt.e
        best = max(curve_log_abs(Fraction(support[v].get(id(x), 0)), v.e, pt.e)
                   for x in nonzero)
        terms.append(FiniteTerm(v, alpha, best))
    arch = y.component(archimedean_place(y.field))
    log_abs = max(_log_fraction(abs(x.norm())) for x in nonzero)
    return HeightReport(
        label=f"h_{y.label or 'y'}{point}",
        finite=tuple(terms),
        archimedean=ArchTerm(float(arch.s), log_abs),
    )


def scalar_height(y: Arithmeticoid, z: FieldElement) -> HeightReport:
    """Height of (1 : z); the constant coordinate clamps every local term at 0."""
    return height(y, ProjectivePoint(y.field, (y.field.one(), z)))


def stabilized_height(y: Arithmeticoid, z: FieldElement, sample=None) -> float:
    """sup over the sampled L*-orbit of y; 1 is always adjoined, so this
    dominates the plain height and is reported as a lower bound for the sup."""
    return stabilized_height_report(y, z, sample)[0]


def stabilized_height_report(y: Arithmeticoid, z: FieldElement, sample=None):
    """(value, witness) version; witness None means the orbit point y itself.

    Closed form, no orbit is built: a.y scores fin + s_a * L, with fin (the
    finite sum, f_v * max(0, -ord_v z) at every carrier) and L (log_abs) read
    off the one report scalar_height(y, z), and s_a the float of the exact
    scale |N(a)| * s that `lstar_act` gives a.y: one correctly rounded int
    division, as `float` of that Fraction is.  These are the floats, added in
    the order, that scalar_height(lstar_act(a, y), z).total adds.  A witness
    must beat the best value strictly, so ties go to the first element in
    sample order and trivial actors, which score the base, never win.  An
    element that moves s out of the float range raises CurveError, as
    `lstar_act` does.
    """
    if sample is None:
        sample = default_sample(y.field)
    base = scalar_height(y, z)
    fin = sum(t.value for t in base.finite)
    log_abs = base.archimedean.log_abs
    s = y.component(archimedean_place(y.field)).s
    sn, sd = s.numerator, s.denominator
    best, witness = base.total, None
    for a in sample:
        if a.is_zero():
            raise HeightError("sample elements must be nonzero")
        if a.field != y.field:
            raise AdelicError("element and arithmeticoid fields differ")
        n = abs(a.norm())
        t = fin + arch_float(n.numerator * sn, n.denominator * sd) * log_abs
        if t > best:
            best, witness = t, a
    return best, witness


def default_sample(field: NumberField, max_factors: int = 3, prime_bound: int = 50):
    """-1 and all products of up to max_factors factors p or 1/p, p <= prime_bound."""
    gens = []
    for p in primerange(2, prime_bound + 1):
        gens.append(Fraction(p))
        gens.append(Fraction(1, p))
    seen = {Fraction(1), Fraction(-1)}
    for k in range(1, max_factors + 1):
        for combo in combinations_with_replacement(gens, k):
            prod = Fraction(1)
            for g in combo:
                prod *= g
            seen.add(prod)
            seen.add(-prod)
    return [field.element(q) for q in sorted(seen, key=lambda q: (q.denominator, q))]


# ---------------------------------------------------------------------------
# ideloids and arithmetic degree

@dataclass(frozen=True)
class Ideloid:
    """Finitely supported idele-class datum: exact orders at finite places plus
    a real log-modulus at the archimedean one."""

    field: NumberField
    entries: tuple = ()      # ((Place, Fraction order, unit tag), ...)
    arch_log: float = 0.0

    def __post_init__(self):
        for v, o, _tag in self.entries:
            if v.field != self.field or v.is_archimedean:
                raise HeightError("ideloid entries live at finite places of the field")
            if o == 0:
                raise HeightError("ideloid entries must have nonzero order")


def make_ideloid(field: NumberField, orders: dict | None = None,
                 arch_log: float = 0.0) -> Ideloid:
    entries = tuple(sorted(
        ((v, Fraction(o), "1") for v, o in (orders or {}).items() if o != 0),
        key=lambda t: place_key(t[0])))
    return Ideloid(field, entries, arch_log)


def ideloid_from_element(x: FieldElement) -> Ideloid:
    return make_ideloid(x.field, dict(divisor_support(x)),
                        _log_fraction(abs(x.norm())))


def ideloid_mul(a: Ideloid, b: Ideloid) -> Ideloid:
    if a.field != b.field:
        raise HeightError("ideloid fields differ")
    orders = {v: o for v, o, _ in a.entries}
    for v, o, _ in b.entries:
        orders[v] = orders.get(v, Fraction(0)) + o
    return make_ideloid(a.field, orders, a.arch_log + b.arch_log)


@dataclass(frozen=True)
class DegreeReport:
    finite: tuple        # ((prime, Fraction coefficient of log p), ...)
    archimedean: float

    @property
    def total(self) -> float:
        return (sum(float(c) * math.log(p) for p, c in self.finite)
                + self.archimedean)


def arithmetic_degree(y: Arithmeticoid, ideal: Ideloid) -> DegreeReport:
    """Sum of alpha_v * log|x_v| over the support.  The finite part collapses
    to -f_v * order * log p, so the degree descends along the L* action."""
    if y.field != ideal.field:
        raise HeightError("ideloid and arithmeticoid fields differ")
    by_prime = {}
    for v, o, _tag in ideal.entries:
        pt = y.component(v)
        alpha = Fraction(v.local_degree) / pt.e
        coeff = alpha * curve_log_abs(o, v.e, pt.e)
        by_prime[v.prime] = by_prime.get(v.prime, Fraction(0)) + coeff
    finite = tuple((p, c) for p, c in sorted(by_prime.items()) if c != 0)
    return DegreeReport(finite, ideal.arch_log)


# ---------------------------------------------------------------------------
# divisor monoids

MODES = ("integer", "perfection", "real")


@dataclass(frozen=True)
class Frobenioid:
    """Descriptor for the divisor monoid over the field in one of three value
    regimes: integral exponents, p-power-divided exponents, real exponents."""

    field: NumberField
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise HeightError(f"unknown monoid mode {self.mode!r}")

    def element(self, exponents: dict) -> "FrobenioidElement":
        entries = []
        for v, c in exponents.items():
            if v.field != self.field or v.is_archimedean:
                raise HeightError("exponents live at finite places of the field")
            c = self._check_value(v, c)
            if c != 0:
                entries.append((v, c))
        entries.sort(key=lambda t: place_key(t[0]))
        return FrobenioidElement(self, tuple(entries))

    def _check_value(self, v: Place, c):
        if self.mode == "real":
            c = float(c)
            if c < 0:
                raise HeightError("negative exponent")
            return c
        c = Fraction(c)
        if c < 0:
            raise HeightError("negative exponent")
        if self.mode == "integer" and c.denominator != 1:
            raise HeightError("integral monoid requires integer exponents")
        # perfection: denominators are powers of the residue prime
        if c.denominator != v.prime ** _int_valuation(c.denominator, v.prime):
            raise HeightError(f"perfection at {v} only divides by powers of {v.prime}")
        return c


@dataclass(frozen=True)
class FrobenioidElement:
    monoid: Frobenioid
    entries: tuple  # ((Place, exponent), ...) nonzero, canonical order

    def exponent(self, v: Place):
        return dict(self.entries).get(v, Fraction(0) if self.monoid.mode != "real" else 0.0)

    def is_identity(self) -> bool:
        return not self.entries


def frobenioid_of(field: NumberField) -> Frobenioid:
    return Frobenioid(field, "integer")


def frobenioid_of_arithmeticoid(y: Arithmeticoid) -> Frobenioid:
    # deformation erases no divisors but perfects the exponent lattice
    return Frobenioid(y.field, "perfection")


def perfection(m: Frobenioid) -> Frobenioid:
    if m.mode == "real":
        raise HeightError("realified monoid has no further perfection")
    return Frobenioid(m.field, "perfection")


def realify(m: Frobenioid) -> Frobenioid:
    return Frobenioid(m.field, "real")


def monoid_map(elt: FrobenioidElement, target: Frobenioid) -> FrobenioidElement:
    """Push exponents along integer -> perfection -> real; injective on entries."""
    if target.field != elt.monoid.field:
        raise HeightError("monoid fields differ")
    order = {m: i for i, m in enumerate(MODES)}
    if order[target.mode] < order[elt.monoid.mode]:
        raise HeightError("no map back toward the integral monoid")
    return target.element(dict(elt.entries))


def frobenioid_add(a: FrobenioidElement, b: FrobenioidElement) -> FrobenioidElement:
    if a.monoid != b.monoid:
        raise HeightError("cannot add across monoids")
    exps = dict(a.entries)
    for v, c in b.entries:
        exps[v] = exps.get(v, 0) + c
    return a.monoid.element(exps)


def frobenius_pullback(elt: FrobenioidElement, m: int = 1) -> FrobenioidElement:
    """Divide each exponent by p^m (p the residue prime of its place)."""
    if m < 0:
        raise HeightError("pullback exponent must be >= 0")
    exps = {}
    for v, c in elt.entries:
        if elt.monoid.mode == "real":
            exps[v] = c / v.prime ** m
        else:
            exps[v] = Fraction(c, v.prime ** m)
    return elt.monoid.element(exps)


def principal_divisor(x: FieldElement) -> tuple:
    """Signed divisor of x in the group completion: +1 at a simple zero."""
    if x.is_zero():
        raise HeightError("0 has no divisor")
    return tuple(divisor_support(x))


# ---------------------------------------------------------------------------
# the modular j-expansion and its inversion

def load_j_coefficients(path=None) -> dict:
    """Parse 'n c_n' lines; '#' starts a comment.  Defaults to the shipped table."""
    if path is None:
        text = (resources.files("arithmeticoid") / J_DATA_RESOURCE).read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        n_str, c_str = line.split()
        out[int(n_str)] = int(c_str)
    if out.get(-1) != 1:
        raise HeightError("coefficient table must start with the simple pole")
    return out


def tate_j_value(q: PadicScalar, coeffs: dict) -> PadicScalar:
    """Evaluate the expansion at a parameter of positive valuation."""
    if q.val <= 0:
        raise HeightError("expansion needs |q| < 1, so positive valuation")
    total = q.inverse()
    total = total + PadicScalar.from_fraction(coeffs.get(0, 744), q.p, q.prec)
    n = 1
    while n * q.val <= q.abs_precision:
        c = coeffs.get(n)
        if c is None:
            raise HeightError(
                f"coefficient table too short: need c_{n} at this precision")
        total = total + PadicScalar.from_fraction(c, q.p, q.prec) * q ** n
        n += 1
    return total


def invert_j_series(p: int, j_value, precision: int, coeff_path=None) -> PadicScalar:
    """Solve j(q) = j for q with v_p(q) = -v_p(j) > 0.

    Fixed point of q -> 1/(j - c_0 - sum_{n>=1} c_n q^n), contracting because
    the correction terms sit at strictly positive valuation.  Requires
    v_p(j) < 0; an integral j lies outside the regime this expansion inverts.
    """
    if precision < 1:
        raise HeightError("precision must be >= 1")
    coeffs = load_j_coefficients(coeff_path)
    rel = precision + 4
    j = PadicScalar.from_fraction(Fraction(j_value), p, rel)
    if j.is_zero() or j.val >= 0:
        raise HeightError("j must have negative valuation (pole of the expansion)")
    k = -j.val
    c0 = PadicScalar.from_fraction(coeffs.get(0, 744), p, rel)
    q = j.inverse()
    for _ in range(64):
        tail = None
        n = 1
        while n * k <= q.abs_precision:
            c = coeffs.get(n)
            if c is None:
                raise HeightError(
                    f"coefficient table too short: need c_{n} at this precision")
            term = PadicScalar.from_fraction(c, p, rel) * q ** n
            tail = term if tail is None else tail + term
            n += 1
        d = j - c0 if tail is None else j - c0 - tail
        q_next = d.inverse()
        if q_next.agrees_with(q, k + precision):
            # claim only the digits the fixed point has actually verified
            return q_next.truncated(k + precision)
        q = q_next
    raise HeightError("series inversion did not stabilize")


# ---------------------------------------------------------------------------
# Teichmueller lift comparison

@dataclass(frozen=True)
class LiftComparison:
    """Norms of one multiplicative lift against two local points: the lift of a
    value of valuation t has size p^{-e*t} at a point of Beltrami exponent e."""

    prime: int
    exponents: tuple  # (Fraction, Fraction): norm_i = p^{-exponents[i]}

    @property
    def norms(self) -> tuple:
        return tuple(float(self.prime) ** float(-c) for c in self.exponents)

    @property
    def equal(self) -> bool:
        return self.exponents[0] == self.exponents[1]


def compare_teichmueller_lifts(x_valuation, y1: LocalPointNonArch,
                               y2: LocalPointNonArch) -> LiftComparison:
    if isinstance(y1, LocalPointArch) or isinstance(y2, LocalPointArch):
        raise HeightError("lift comparison is a finite-place construction")
    if y1.place != y2.place:
        raise HeightError("the two points must sit over the same place")
    t = Fraction(x_valuation)
    return LiftComparison(y1.place.prime, (y1.e * t, y2.e * t))
