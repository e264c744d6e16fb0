"""The adelic space of arithmeticoids: one local curve point per place of the field.

An arithmeticoid is stored sparsely: a finite map of deviations from the
standard point, plus a lazy global Frobenius shift (the shift multiplies every
finite Beltrami exponent by p^shift and is materialized per place on demand).
On top of the space: the L*-action, a metric with the exact index of the
first place where two carriers differ, normalization coordinates, the period
map and its exact pairing with the product-formula hyperplane, and the toy
mutation of Tate parameters.  Every coordinate is exact: Fraction
Beltrami exponents at finite places and a Fraction scale s at the archimedean
one, so the L*-action composes exactly and equal carriers sit at distance 0.

The canonical place order (archimedean first, then finite by prime and
conjugate index) lives in numfield; `canonical_place_list`, `place_index` and
`divisor_support` are re-exported from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .numfield import (
    FieldElement,
    LogForm,
    NumberField,
    Place,
    archimedean_place,
    canonical_place_list,
    divisor_support,
    place_index,
    place_key,
)
from .ffcurve import (
    LocalPoint,
    LocalPointArch,
    arch_act,
    curve_log_abs,
    frobenius_point,
    local_distance,
    standard_point,
)

DISTANCE_PREFIX = 60  # indices always summed; tail error < 2^-60
DISTANCE_LIMIT = 1074  # 2.0 ** -n == 0.0 for every later index n


class AdelicError(ValueError):
    """Domain violation in the adelic space."""


# ---------------------------------------------------------------------------
# arithmeticoids

@dataclass(frozen=True)
class Arithmeticoid:
    """A point of the adelic space: sparse deviations over the standard point.

    deviations holds only places whose local point differs from standard; the
    global Frobenius is kept as the lazy exponent frobenius_shift applied to
    every finite place on top of the stored data.
    """

    field: NumberField
    deviations: tuple = ()  # ((Place, LocalPoint), ...) canonically sorted
    frobenius_shift: int = 0
    label: str = ""

    def __post_init__(self):
        for v, pt in self.deviations:
            if v.field != self.field:
                raise AdelicError("deviation place from a different field")
            if v.is_archimedean != isinstance(pt, LocalPointArch):
                raise AdelicError("deviation point kind does not match its place")

    def component(self, v: Place) -> LocalPoint:
        """Materialize the local point at v, applying the lazy Frobenius shift."""
        for w, pt in self.deviations:
            if w == v:
                break
        else:
            pt = standard_point(v)
        if v.is_archimedean:
            return pt  # phi_infinity is the identity
        if self.frobenius_shift:
            pt = frobenius_point(pt, self.frobenius_shift)
        return pt

    def support(self) -> list[Place]:
        return [v for v, _ in self.deviations]


def make_arithmeticoid(field: NumberField, deviations: dict | None = None,
                       frobenius_shift: int = 0, label: str = "") -> Arithmeticoid:
    """Normalize and prune: stored deviations must differ from the standard point."""
    entries = [(v, pt) for v, pt in (deviations or {}).items() if pt != standard_point(v)]
    entries.sort(key=lambda kv: place_key(kv[0]))
    return Arithmeticoid(field, tuple(entries), frobenius_shift, label)


def standard_arithmeticoid(field: NumberField, label: str = "y0") -> Arithmeticoid:
    return Arithmeticoid(field, (), 0, label)


def deform(y: Arithmeticoid, v: Place, pt: LocalPoint, label: str | None = None) -> Arithmeticoid:
    """Replace the local component at v (pre-shift data), pruning standard points."""
    entries = dict(y.deviations)
    entries[v] = pt
    return make_arithmeticoid(y.field, entries, y.frobenius_shift,
                              label if label is not None else y.label)


# ---------------------------------------------------------------------------
# actions

def global_frobenius(y: Arithmeticoid, m: int = 1) -> Arithmeticoid:
    """phi^m at every finite place at once; archimedean components unchanged."""
    if m == 0:
        return y
    label = f"phi^{m}({y.label})" if y.label else ""
    return replace(y, frobenius_shift=y.frobenius_shift + m, label=label)


def lstar_act(x: FieldElement, y: Arithmeticoid) -> Arithmeticoid:
    """x acts by Frobenius^{ord_v(x)} at finite places and |x|_v at the archimedean one."""
    if x.field != y.field:
        raise AdelicError("element and arithmeticoid fields differ")
    if x.is_zero():
        raise AdelicError("L* action needs x != 0")
    entries = dict(y.deviations)
    for v, o in divisor_support(x):
        entries[v] = frobenius_point(entries.get(v, standard_point(v)), o)
    arch = archimedean_place(y.field)
    modulus = abs(x.norm())  # Artin |x|_v at the (complex or real) place
    if modulus != 1:
        entries[arch] = arch_act(modulus, entries.get(arch, standard_point(arch)))
    label = f"{x}.{y.label}" if y.label else ""
    return make_arithmeticoid(y.field, entries, y.frobenius_shift, label)


def stabilizer_check(x: FieldElement, y: Arithmeticoid) -> bool:
    """True iff x acts trivially: every ord vanishes and the archimedean modulus is 1.

    Decided exactly: the ord profile comes from the norm's prime support and the
    modulus is the exact rational |N(x)|.
    """
    if x.is_zero():
        raise AdelicError("stabilizer check needs x != 0")
    if abs(x.norm()) != 1:
        return False
    return not divisor_support(x)


# ---------------------------------------------------------------------------
# metric

def distance(y1: Arithmeticoid, y2: Arithmeticoid) -> float:
    """sum_n 2^-n d_n/(1+d_n) over the canonical enumeration.

    Deterministic truncation: the first DISTANCE_PREFIX indices are always
    summed, plus every index carrying an explicit deviation of either argument;
    the omitted tail is bounded by 2^-DISTANCE_PREFIX.  Indices are looked up
    among the first DISTANCE_LIMIT = 1074 places only: 2.0 ** -n is 0.0 in
    double precision for n >= 1075, so a deviation further out adds exactly 0.0.

    A finite place outside both supports holds the standard point under each
    lazy shift, so d_n = log(p ** |m1 - m2|) for the Frobenius shifts m1, m2:
    the float that `local_distance` gives there, and 0 when the shifts agree.
    Only support places materialize local points.
    """
    if y1.field != y2.field:
        raise AdelicError("distance needs a common field")
    places = canonical_place_list(y1.field, DISTANCE_LIMIT)
    last = place_key(places[-1])
    support = {v for v in y1.support() + y2.support() if place_key(v) <= last}
    shift = abs(y1.frobenius_shift - y2.frobenius_shift)
    indices = {place_index(v) for v in support}
    if shift:
        indices.update(range(1, DISTANCE_PREFIX + 1))
    total = 0.0
    for n in sorted(indices):
        v = places[n - 1]
        if v in support:
            d = local_distance(y1.component(v), y2.component(v))
        elif v.is_archimedean:
            continue  # s = 1 on both sides
        else:
            d = math.log(v.prime ** shift)
        if d:
            total += 2.0 ** (-n) * d / (1.0 + d)
    return total


def first_difference(y1: Arithmeticoid, y2: Arithmeticoid) -> int | None:
    """The 1-based canonical index of the first place where the materialized
    exponents differ (e at a finite place, s at the archimedean one), or None.
    Each d_n of `distance` is 0 before it and positive at it, so the exact
    distance is 0 exactly when this is None, whatever the float sum reads."""
    if y1.field != y2.field:
        raise AdelicError("first_difference needs a common field")
    places = sorted(set(y1.support()) | set(y2.support()), key=place_key)
    if y1.frobenius_shift != y2.frobenius_shift:
        # unequal shifts part every finite place outside both supports, and one
        # of those lies among the first len(places) + 2
        places = canonical_place_list(y1.field, len(places) + 2)
    for v in places:
        a, b = y1.component(v), y2.component(v)
        if (a.s != b.s) if v.is_archimedean else (a.e != b.e):
            return place_index(v)
    return None


# ---------------------------------------------------------------------------
# normalization coordinates and the period map

@dataclass(frozen=True)
class NormalizationCoordinate:
    """Per-place exponents restoring the standard absolute values.

    alpha_v = (e_v f_v) / e at a finite place with Beltrami exponent e (= 1 at
    the standard point) and 1/s at the archimedean place, all exact Fractions.
    The lazy Frobenius shift gives p^-shift at every finite place; overrides
    list, in canonical place order, exactly the places whose alpha differs
    from that.
    """

    field: NumberField
    shift: int
    arch: Fraction
    overrides: tuple  # ((Place, Fraction), ...)

    def at(self, v: Place):
        if v.is_archimedean:
            return self.arch
        return dict(self.overrides).get(v, Fraction(v.prime) ** (-self.shift))


def normalization_coordinate(y: Arithmeticoid) -> NormalizationCoordinate:
    """The canonical coordinates of y: a deviation whose Beltrami exponent is
    standard (it differs only in its concrete Hahn layer) has alpha = p^-shift
    and is left out of the overrides."""
    overrides = []
    arch = Fraction(1)
    for v, pt in y.deviations:
        if v.is_archimedean:
            arch = 1 / pt.s
        elif pt.e != v.local_degree:
            e = pt.e * Fraction(v.prime) ** y.frobenius_shift
            overrides.append((v, v.local_degree / e))
    return NormalizationCoordinate(y.field, y.frobenius_shift, arch, tuple(overrides))


@dataclass(frozen=True)
class HyperplanePoint:
    """Projective class of a normalization-coordinate vector.

    Value equality of the canonical coordinates is projective equality.  Two
    vectors with shifts m1, m2 that agree up to a scalar lambda agree in
    particular at the infinitely many finite places outside both supports,
    where p^-m1 = lambda * p^-m2 for every such prime p; that forces m1 = m2
    and lambda = 1.
    """

    coords: NormalizationCoordinate


def period_map(y: Arithmeticoid) -> HyperplanePoint:
    """The projective class of the alpha-vector; all-ones exactly at the standard point."""
    return HyperplanePoint(normalization_coordinate(y))


def hyperplane_pairing(y: Arithmeticoid, x: FieldElement) -> LogForm:
    """Pair x in L* with the period data alpha = normalization_coordinate(y).

    At a finite place alpha_v multiplies log|x|_{K_y} = c log p, the value at
    y's local point; at the archimedean place alpha = 1/s multiplies
    s log|N(x)|.  The result is a numfield `LogForm` with modulus |N(x)|, 0
    exactly when alpha restores the Artin value -f_v ord_v(x) at every place.
    """
    if x.is_zero():
        raise AdelicError("hyperplane pairing needs x != 0")
    coords = normalization_coordinate(y)
    finite: dict[int, Fraction] = {}
    for v, o in divisor_support(x):
        c = coords.at(v) * curve_log_abs(o, v.e, y.component(v).e)
        finite[v.prime] = finite.get(v.prime, Fraction(0)) + c
    return LogForm(finite, abs(x.norm()))


# ---------------------------------------------------------------------------
# toy mutation of Tate parameters

@dataclass(frozen=True)
class TateSymbol:
    """A formal Tate parameter carrying only its size: log|q| < 0 when admissible."""

    name: str
    log_abs: float


@dataclass(frozen=True)
class MutationEntry:
    name: str
    inverted: bool
    log_abs_before: float
    log_abs_after: float


def mutate_tate_parameters(params, independent_count: int) -> tuple[MutationEntry, ...]:
    """sigma(q_j) = q_j^{-1} on the first `independent_count` symbols.

    A Tate parameter has 0 < |q| < 1: log|q| is finite and negative.
    """
    params = list(params)
    r = independent_count
    if not 0 <= r <= len(params):
        raise AdelicError(f"independent_count {r} out of range 0..{len(params)}")
    for q in params:
        if not -math.inf < q.log_abs < 0:
            raise AdelicError(f"{q.name} has log|q| = {q.log_abs}: a Tate parameter "
                              f"needs 0 < |q| < 1")
    return tuple(MutationEntry(q.name, j < r, q.log_abs, -q.log_abs if j < r else q.log_abs)
                 for j, q in enumerate(params))
