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
perfected, realified) with Frobenius pullback, and inversion of the modular
j-expansion to recover a Tate parameter p-adically.  A degree is a numfield
`LogForm`; a principal ideloid keeps its exact modulus |N(x)|, so whether its
degree vanishes is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import combinations_with_replacement
from operator import mul
from pathlib import Path

from .numfield import (
    FieldElement,
    LogForm,
    NumberField,
    Place,
    _int_valuation,
    _log_fraction,
    archimedean_place,
    divisor_support,
    isprime,
    log_form,
    log_term,
    place_key,
    primerange,
)
from .ffcurve import arch_float, curve_log_abs
from .adelic import AdelicError, Arithmeticoid, normalization_coordinate
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

    def __str__(self) -> str:
        return "(" + " : ".join(str(x) for x in self.coords) + ")"


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
        return log_term(self.coefficient, self.place.prime)


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
    coords = normalization_coordinate(y)
    terms = []
    for v in sorted(support, key=place_key):
        e = y.component(v).e
        best = max(curve_log_abs(Fraction(support[v].get(id(x), 0)), v.e, e)
                   for x in nonzero)
        terms.append(FiniteTerm(v, coords.at(v), best))
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


def stabilized_height_report(y: Arithmeticoid, z: FieldElement, sample):
    """(sup of the height of (1 : z) over a.y for a in sample, witness a);
    witness None means the orbit point y itself.

    Closed form, no orbit is built: a.y scores fin + s_a * L, with fin (the
    finite sum, f_v * max(0, -ord_v z) at every carrier) and L (log_abs) read
    off the one report scalar_height(y, z), and s_a the float of the exact
    scale |N(a)| * s that `lstar_act` gives a.y: one correctly rounded
    division of ints, as `float` of that Fraction is, so the norm's unreduced
    numerator and denominator give the same float.  These are the floats,
    added in the order, that scalar_height(lstar_act(a, y), z).total adds.  A witness
    must beat the best value strictly, so ties go to the first element in
    sample order and trivial actors, which score the base, never win.  An
    element that moves s out of the float range raises CurveError, as
    `lstar_act` does.
    """
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
        n, dn = a.norm_ints()
        t = fin + arch_float(abs(n) * sn, dn * sd) * log_abs
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
    entries: tuple = ()      # ((Place, Fraction order), ...)
    arch_log: float = 0.0
    modulus: Fraction | None = None  # the exact |N(x)| of a principal ideloid

    def __post_init__(self):
        for v, o in self.entries:
            if v.field != self.field or v.is_archimedean:
                raise HeightError("ideloid entries live at finite places of the field")
            if o == 0:
                raise HeightError("ideloid entries must have nonzero order")


def make_ideloid(field: NumberField, orders: dict | None = None,
                 arch_log: float = 0.0, modulus: Fraction | None = None) -> Ideloid:
    entries = tuple(sorted(
        ((v, Fraction(o)) for v, o in (orders or {}).items() if o != 0),
        key=lambda t: place_key(t[0])))
    return Ideloid(field, entries, arch_log, modulus)


def ideloid_from_element(x: FieldElement) -> Ideloid:
    modulus = abs(x.norm())
    return make_ideloid(x.field, dict(divisor_support(x)), _log_fraction(modulus), modulus)


@dataclass(frozen=True)
class DegreeReport:
    form: LogForm        # the finite part; its modulus is |N(x)| when principal, else 1
    archimedean: float
    principal: bool

    @property
    def finite(self) -> tuple:  # ((prime, nonzero Fraction coefficient of log p), ...)
        return tuple((p, c) for p, c in self.form.coefficients.items() if c != 0)

    @property
    def total(self) -> float:
        return self.form.finite_value() + self.archimedean

    @property
    def vanishes(self) -> bool | None:
        """Whether a principal ideloid's degree is 0, decided exactly; None otherwise."""
        return self.form.exact if self.principal else None


def arithmetic_degree(y: Arithmeticoid, ideal: Ideloid) -> DegreeReport:
    """Sum of alpha_v * log|x_v| over the support, plus the archimedean log.
    alpha_v * log|.|_{K_y} is the Artin value at every point of the curve, so
    the finite part is -f_v * order * log p whatever y is: the degree descends
    along the L* action."""
    if y.field != ideal.field:
        raise HeightError("ideloid and arithmeticoid fields differ")
    form = log_form(ideal.entries, ideal.modulus or Fraction(1))
    return DegreeReport(form, ideal.arch_log, ideal.modulus is not None)


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


# ---------------------------------------------------------------------------
# the modular j-expansion and its inversion

def load_j_coefficients(path=None) -> dict:
    """Parse 'n c_n' lines; '#' starts a comment.  Defaults to the shipped table."""
    source = resources.files("arithmeticoid") / J_DATA_RESOURCE if path is None else Path(path)
    out = {}
    for line in source.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        n_str, c_str = line.split()
        out[int(n_str)] = int(c_str)
    if out.get(-1) != 1:
        raise HeightError("coefficient table must start with the simple pole")
    return out


def _horner(coeffs: dict, x: PadicScalar, abs_prec: int) -> PadicScalar:
    """Sum of coeffs[n] * x^n over 0 <= n < abs_prec / v(x), v(x) > 0, to
    absolute precision abs_prec: one Horner pass over the integers mod p^abs_prec.
    Every later term is 0 mod p^abs_prec, as the coefficients are integers."""
    top = (abs_prec - 1) // x.val
    missing = next((n for n in range(top + 1) if n not in coeffs), None)
    if missing is not None:
        raise HeightError(
            f"coefficient table too short: need the degree-{missing} term at this precision")
    mod = x.p ** abs_prec
    digits = x.unit * x.p ** x.val
    total = 0
    for n in range(top, -1, -1):
        total = (total * digits + coeffs[n]) % mod
    return PadicScalar.from_fraction(total, x.p, abs_prec).truncated(abs_prec)


@lru_cache
def _reversion(top: int) -> dict:
    """r_0 .. r_top, as far as the shipped table reaches, with q = sum r_n u^n
    the inverse of u = 1/j(q) = q/h(q), h = q*j(q) = 1 + 744q + ....  Lagrange
    inversion gives r_n = [q^(n-1)] h^n / n, an integer as h's coefficients are."""
    c = load_j_coefficients()
    h = [c[n - 1] for n in range(min(top, len(c)))]
    r = {0: 0}
    power = [1] + [0] * (len(h) - 1)  # h^(n-1), through degree len(h) - 1
    for n in range(1, len(h) + 1):
        power = [sum(map(mul, power[:m + 1], h[m::-1])) for m in range(len(h))]
        r[n] = power[n - 1] // n
    return r


def tate_j_value(q: PadicScalar, coeffs: dict) -> PadicScalar:
    """Evaluate the expansion at a parameter of positive valuation v.  The 1/q
    term keeps abs_precision - 2v digits, so the tail is summed to that many."""
    if q.val <= 0:
        raise HeightError("expansion needs |q| < 1, so positive valuation")
    return q.inverse() + _horner(coeffs, q, max(1, q.abs_precision - 2 * q.val))


def invert_j_series(p: int, j_value, precision: int) -> PadicScalar:
    """Solve j(q) = j for q with v_p(q) = -v_p(j) > 0.

    q = sum r_n u^n at u = 1/j (`_reversion`), and v_p(u) = k > 0, so the
    terms of degree n >= (k + precision) / k sit at valuation >= k + precision:
    one Horner pass gives q to absolute precision k + precision, certified by
    valuation alone.  Requires v_p(j) < 0; an integral j lies outside the
    regime this expansion inverts.
    """
    if precision < 1:
        raise HeightError("precision must be >= 1")
    if not isprime(p):
        raise HeightError(f"p = {p} is not a prime")
    j = Fraction(j_value)
    if j.denominator % p:
        raise HeightError("j must have negative valuation (pole of the expansion)")
    u = PadicScalar.from_fraction(1 / j, p, precision)
    return _horner(_reversion((precision - 1) // u.val + 1), u, u.val + precision)
