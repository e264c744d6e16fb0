import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithmeticoid import adelic
from arithmeticoid.adelic import (
    DISTANCE_LIMIT,
    DISTANCE_PREFIX,
    AdelicError,
    HyperplanePoint,
    NormalizationCoordinate,
    TateSymbol,
    canonical_place_list,
    deform,
    distance,
    divisor_support,
    first_difference,
    global_frobenius,
    hyperplane_pairing,
    lstar_act,
    make_arithmeticoid,
    mutate_tate_parameters,
    normalization_coordinate,
    period_map,
    place_index,
    stabilizer_check,
    standard_arithmeticoid,
)
from arithmeticoid.ffcurve import LocalPointArch, LocalPointNonArch, local_distance, local_point
from arithmeticoid.numfield import (
    FieldError,
    NumberField,
    Place,
    archimedean_place,
    place_from_json,
    place_key,
    places_over,
    roots_of_unity,
)
from arithmeticoid.tilt import lubin_tate_act, monomial

F = Fraction
Q = NumberField()
QI = NumberField(1)
Q3 = NumberField(3)


def v_of(field, p, idx=0):
    return places_over(field, p)[idx]


# ---------------------------------------------------------------- enumeration

def test_canonical_enumeration_starts_at_arch():
    ps = canonical_place_list(Q, 5)
    assert ps[0].is_archimedean
    assert [v.prime for v in ps[1:]] == [2, 3, 5, 7]
    for n, v in enumerate(ps, start=1):
        assert place_index(v) == n


def test_canonical_enumeration_split_pairs():
    ps = canonical_place_list(QI, 8)
    labels = [(v.prime, v.conjugate_index) for v in ps[1:]]
    assert labels == [(2, 0), (3, 0), (5, 0), (5, 1), (7, 0), (11, 0), (13, 0)]
    for n, v in enumerate(ps, start=1):
        assert place_index(v) == n


@pytest.mark.parametrize("d", [None, 1, 2, 3, 5])
def test_canonical_enumeration_is_the_sort_key_order(d):
    from sympy import primerange

    K = NumberField(d)
    ps = canonical_place_list(K, 1074)
    # oracle: walk the primes afresh, outside the cached enumeration
    expected = [archimedean_place(K)]
    for p in primerange(2, ps[-1].prime + 1):
        expected.extend(places_over(K, int(p)))
    assert ps == expected[:1074]
    assert sorted(random.Random(1074).sample(ps, len(ps)), key=place_key) == ps
    for n, v in enumerate(ps, start=1):
        assert place_index(v) == n


def test_distance_sees_exactly_the_first_1074_places():
    y0 = standard_arithmeticoid(Q)
    ps = canonical_place_list(Q, 1075)
    # d/(1+d) > 1/2 rounds 2^-1074 * d/(1+d) up to the least subnormal; one place later it is 0
    assert distance(y0, deform(y0, ps[1073], local_point(ps[1073], e=100))) == 2.0 ** -1074
    assert distance(y0, deform(y0, ps[1074], local_point(ps[1074], e=100))) == 0.0
    far = places_over(Q, 1000000007)[0]
    assert distance(y0, deform(y0, far, local_point(far, e=100))) == 0.0


def test_place_index_rejects_non_places():
    for bogus in (Place(Q, 4), Place(Q, 1), Place(QI, 5, 1, 1, 2), Place(QI, 2, 1, 1, 0)):
        with pytest.raises(FieldError):
            place_index(bogus)


# ---------------------------------------------------------------- frobenius

def test_global_frobenius_lazy_materialization():
    y = standard_arithmeticoid(Q)
    fy = global_frobenius(y, 1)
    for p in (2, 3, 5, 47):
        assert fy.component(v_of(Q, p)).e == p
    arch = archimedean_place(Q)
    assert fy.component(arch).s == 1.0  # phi_infinity = identity


def test_global_frobenius_identity_and_inverse():
    y = standard_arithmeticoid(Q)
    assert global_frobenius(y, 0) is y
    assert global_frobenius(global_frobenius(y, 1), -1).frobenius_shift == 0
    rt = global_frobenius(global_frobenius(y, 1), -1)
    assert rt.component(v_of(Q, 3)).e == 1


# ---------------------------------------------------------------- L* action

def test_lstar_act_example_twelve():
    y = standard_arithmeticoid(Q)
    ay = lstar_act(Q.element(12), y)
    assert ay.component(v_of(Q, 2)).e == 4
    assert ay.component(v_of(Q, 3)).e == 3
    assert ay.component(v_of(Q, 5)).e == 1
    assert ay.component(archimedean_place(Q)).s == 12


def test_lstar_act_inverse_five():
    y = standard_arithmeticoid(Q)
    ay = lstar_act(Q.element(F(1, 5)), y)
    assert ay.component(v_of(Q, 5)).e == F(1, 5)
    assert ay.component(archimedean_place(Q)).s == F(1, 5)


def _element(rng, field):
    while True:
        b = F(rng.randint(-40, 40), rng.randint(1, 40)) if field.d else 0
        x = field.element(F(rng.randint(-40, 40), rng.randint(1, 40)), b)
        if not x.is_zero():
            return x


@pytest.mark.parametrize("d", [None, 1, 3])
@pytest.mark.parametrize("scale", [None, F(7, 3)])
def test_lstar_act_composes_exactly(d, scale):
    """x1.(x2.y) and (x1 x2).y are one carrier, at distance exactly 0."""
    rng = random.Random(0xC0 + (d or 0))
    K = NumberField(d)
    y = standard_arithmeticoid(K, label="")
    if scale is not None:
        y = deform(y, archimedean_place(K), LocalPointArch(scale))
    for _ in range(300):
        x1, x2 = _element(rng, K), _element(rng, K)
        a, b = lstar_act(x1, lstar_act(x2, y)), lstar_act(x1 * x2, y)
        assert a == b, (x1, x2)
        assert distance(a, b) == 0.0, (x1, x2)


def test_lstar_act_root_of_unity_is_identity():
    y = standard_arithmeticoid(QI)
    for z in roots_of_unity(QI):
        assert lstar_act(z, y).deviations == ()


def test_lstar_commutes_with_global_frobenius():
    rng = random.Random(31)
    y = standard_arithmeticoid(Q)
    for _ in range(30):
        x = Q.element(F(rng.randint(1, 60), rng.randint(1, 60)))
        if x.is_zero():
            continue
        a = lstar_act(x, global_frobenius(y, 1))
        b = global_frobenius(lstar_act(x, y), 1)
        assert a.deviations == b.deviations and a.frobenius_shift == b.frobenius_shift


def test_divisor_support_catches_hidden_units():
    # norm 1 but not a root of unity: (1+2i)/(2+i) has order at both places over 5
    x = QI.element(1, 2) / QI.element(2, 1)
    assert abs(x.norm()) == 1
    supp = divisor_support(x)
    assert sorted(o for _, o in supp) == [-1, 1]
    assert all(v.prime == 5 for v, _ in supp)


# ---------------------------------------------------------------- stabilizer

def test_stabilizer_examples():
    yq = standard_arithmeticoid(Q)
    yi = standard_arithmeticoid(QI)
    assert stabilizer_check(QI.omega(), yi)  # i
    assert stabilizer_check(Q.element(-1), yq)
    assert not stabilizer_check(Q.element(2), yq)
    assert not stabilizer_check(QI.element(2, 1), yi)
    assert not stabilizer_check(x=QI.element(1, 2) / QI.element(2, 1), y=yi)


def _scan_trivial(field, bound):
    y = standard_arithmeticoid(field)
    out = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            x = field.element(a, b)
            if stabilizer_check(x, y):
                out.append((a, b))
    return sorted(out)


def test_stabilizer_scan_gaussian():
    got = _scan_trivial(QI, 3)
    want = sorted([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert got == want


def test_stabilizer_scan_eisenstein():
    got = _scan_trivial(Q3, 3)
    want = sorted([(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)])
    assert got == want


def test_stabilizer_matches_structural_equality():
    rng = random.Random(32)
    y = standard_arithmeticoid(QI)
    for _ in range(40):
        x = QI.element(rng.randint(-4, 4), rng.randint(-4, 4))
        if x.is_zero():
            continue
        acted = lstar_act(x, y)
        structural = acted.deviations == y.deviations and acted.frobenius_shift == y.frobenius_shift
        assert stabilizer_check(x, y) == structural


# ---------------------------------------------------------------- unit action

def test_unit_action_on_a_concrete_layer_moves_no_coordinate():
    # [u] changes the Hahn representative, never its exponent: the carrier keeps
    # its normalization coordinate, its period and its distance to every point
    rng = random.Random(33)
    y0 = standard_arithmeticoid(Q)
    for p, exp in ((3, F(1, 2)), (5, F(2, 3))):
        v = v_of(Q, p)
        a = monomial(p, exp, cap=F(10))
        for shift in (0, 1):
            y = global_frobenius(deform(y0, v, local_point(v, concrete=a)), shift)
            for _ in range(5):
                u = rng.randint(2, 40)
                if u % p == 0:
                    u += 1
                acted = global_frobenius(
                    deform(y0, v, local_point(v, concrete=lubin_tate_act(u, a))), shift)
                assert acted.component(v).concrete != y.component(v).concrete
                assert acted.component(v).e == y.component(v).e
                assert normalization_coordinate(acted) == normalization_coordinate(y)
                assert period_map(acted) == period_map(y)
                assert distance(acted, y) == 0.0


# ---------------------------------------------------------------- metric

def test_distance_identity_and_frobenius_displacement():
    y = standard_arithmeticoid(Q)
    assert distance(y, y) == 0.0
    d = distance(y, global_frobenius(y, 1))
    assert 0 < d < 1  # bounded by sum 2^-n


def random_arithmeticoid(rng, field):
    y = standard_arithmeticoid(field)
    for _ in range(rng.randint(0, 3)):
        p = rng.choice([2, 3, 5, 7, 11])
        vs = places_over(field, p)
        v = rng.choice(vs)
        e = F(rng.randint(1, 24), rng.randint(1, 8))
        y = deform(y, v, LocalPointNonArch(v, e))
    if rng.random() < 0.4:
        arch = archimedean_place(field)
        y = deform(y, arch, LocalPointArch(rng.uniform(0.2, 5.0)))
    if rng.random() < 0.3:
        y = global_frobenius(y, rng.randint(-2, 2))
    return y


def test_distance_axioms_random_triples():
    rng = random.Random(34)
    pts = [random_arithmeticoid(rng, Q) for _ in range(40)]
    for _ in range(300):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0.0
        assert distance(a, b) <= distance(a, c) + distance(c, b) + 1e-12


def distance_oracle(y1, y2):
    """The distance as a walk that materializes both local points at every
    summed place, support or not."""
    if y1.field != y2.field:
        raise AdelicError("distance needs a common field")
    places = canonical_place_list(y1.field, DISTANCE_LIMIT)
    last = place_key(places[-1])
    indices = set(range(1, DISTANCE_PREFIX + 1))
    indices.update(place_index(v) for v in y1.support() + y2.support()
                   if place_key(v) <= last)
    total = 0.0
    for n in sorted(indices):
        v = places[n - 1]
        d = local_distance(y1.component(v), y2.component(v))
        if d:
            total += 2.0 ** (-n) * d / (1.0 + d)
    return total


def oracle_carrier(rng, field, shift):
    """0-2 finite deviations among the first places, past the summed prefix
    and past DISTANCE_LIMIT (about a third of those over primes below 12 with
    a concrete Hahn layer), an archimedean scale half the time, and the given
    Frobenius shift."""
    places = canonical_place_list(field, DISTANCE_LIMIT + 8)
    finite = places[1:12] + [places[70], places[400], places[DISTANCE_LIMIT + 3]]
    deviations = {}
    for v in rng.sample(finite, rng.randint(0, 2)):
        e = F(rng.randint(1, 8), rng.randint(1, 8))
        if v.prime < 12 and rng.random() < 1 / 3:
            deviations[v] = local_point(v, concrete=monomial(v.prime, e, cap=F(10)))
        else:
            deviations[v] = local_point(v, e=e)
    if rng.random() < 0.5:
        deviations[archimedean_place(field)] = LocalPointArch(math.exp(rng.uniform(-1, 1)))
    return make_arithmeticoid(field, deviations, frobenius_shift=shift)


@pytest.mark.parametrize("d", [None, 1, 3, 5])
def test_distance_matches_the_materializing_walk(d):
    rng = random.Random(0xD15 + (d or 0))
    K = NumberField(d)
    pts = [standard_arithmeticoid(K)]
    pts += [oracle_carrier(rng, K, shift) for shift in range(-5, 6) for _ in range(2)]
    for a in pts:
        for b in pts:
            assert distance(a, b) == distance_oracle(a, b), (a, b)


def test_distance_builds_points_only_at_support_places(monkeypatch):
    seen = []
    frobenius_point = adelic.frobenius_point

    def counted(pt, m=1):
        seen.append(pt.place)
        return frobenius_point(pt, m)

    monkeypatch.setattr(adelic, "frobenius_point", counted)
    y0 = standard_arithmeticoid(QI)
    v5, v13 = v_of(QI, 5, 1), v_of(QI, 13)
    a = deform(global_frobenius(y0, 3), v5, local_point(v5, e=F(7, 2)))
    b = deform(global_frobenius(y0, -2), v13, local_point(v13, e=F(1, 3)))
    assert distance(a, b) > 0
    assert seen and set(seen) <= {v5, v13}
    seen.clear()
    assert distance(global_frobenius(y0, 4), y0) > 0
    assert seen == []


# ---------------------------------------------------------------- first difference

NEAR_ONE = F(10 ** 18 + 1, 10 ** 18)


def test_first_difference_names_the_places_the_float_distance_loses():
    y0 = standard_arithmeticoid(Q)
    v5, v9001, v10007 = v_of(Q, 5), v_of(Q, 9001), v_of(Q, 10007)
    cases = [
        (deform(y0, v9001, local_point(v9001, e=2)), 1119),  # past index 1,074
        (deform(y0, v5, local_point(v5, e=NEAR_ONE)), 4),     # log e cancels
        (deform(y0, archimedean_place(Q), LocalPointArch(F(10 ** 20 + 1, 10 ** 20))), 1),
        (deform(y0, v10007, local_point(v10007, e=2)), 1231),
    ]
    for y, n in cases:
        assert distance(y0, y) == 0.0
        assert first_difference(y0, y) == first_difference(y, y0) == n
    assert first_difference(y0, y0) is None


def test_first_difference_reads_the_materialized_exponent():
    y0 = standard_arithmeticoid(Q)
    v2 = v_of(Q, 2)
    # e = 1/2 at v2 under one Frobenius twist is 1 again: v3 is the first difference
    y = global_frobenius(deform(y0, v2, local_point(v2, e=F(1, 2))), 1)
    assert first_difference(y0, y) == 3
    assert first_difference(y0, global_frobenius(y0, -1)) == 2
    # a concrete layer with the standard exponent moves nothing
    layer = deform(y0, v2, local_point(v2, concrete=monomial(2, F(1), cap=F(10))))
    assert layer != y0 and first_difference(y0, layer) is None


def test_first_difference_stops_at_the_enumeration_bound():
    y0 = standard_arithmeticoid(Q)
    far = v_of(Q, 1000003)
    with pytest.raises(FieldError):
        first_difference(y0, deform(y0, far, local_point(far, e=2)))


FAR_PRIMES = (2, 3, 5, 13, 1009, 9001, 10007)


def _deviation(draw, field):
    """A place near or far, and an exponent within 10^-18 of standard or a power
    of p off it (so a Frobenius shift can make it standard again)."""
    v = draw(st.sampled_from(places_over(field, draw(st.sampled_from(FAR_PRIMES)))))
    factor = draw(st.sampled_from(
        [NEAR_ONE, 1 / NEAR_ONE, F(v.prime), F(1, v.prime), F(1, v.prime ** 2), F(3, 2)]))
    return v, local_point(v, e=v.local_degree * factor)


@st.composite
def _carriers(draw, field):
    """Up to three deviations, an archimedean scale and a shift up to 100."""
    deviations = dict(_deviation(draw, field) for _ in range(draw(st.integers(0, 3))))
    if draw(st.booleans()):
        deviations[archimedean_place(field)] = LocalPointArch(
            draw(st.sampled_from([F(10 ** 20 + 1, 10 ** 20), F(1, 2), F(3)])))
    shift = draw(st.sampled_from([0, 0, 1, -1, 2, 100, -100]))
    return make_arithmeticoid(field, deviations, frobenius_shift=shift)


@st.composite
def _carrier_pairs(draw):
    """Two carriers over one of four fields: independent, equal, or one
    deformed at a single further place."""
    field = draw(st.sampled_from([Q, QI, Q3, NumberField(5)]))
    y1 = draw(_carriers(field))
    kind = draw(st.sampled_from(["independent", "equal", "deformed"]))
    if kind == "equal":
        return y1, y1
    if kind == "deformed":
        return y1, deform(y1, *_deviation(draw, field))
    return y1, draw(_carriers(field))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_carrier_pairs())
def test_first_difference_is_none_exactly_when_the_period_maps_agree(pair):
    y1, y2 = pair
    n = first_difference(y1, y2)
    assert (n is None) == (period_map(y1) == period_map(y2))
    assert n == first_difference(y2, y1)
    if n is not None:  # a walk over every place up to n agrees
        *before, at = canonical_place_list(y1.field, n)
        assert all(_exponent(y1, v) == _exponent(y2, v) for v in before)
        assert _exponent(y1, at) != _exponent(y2, at)


def _exponent(y, v):
    pt = y.component(v)
    return pt.s if v.is_archimedean else pt.e


# ---------------------------------------------------------------- normalization

def test_normalization_standard_all_ones():
    y = standard_arithmeticoid(QI)
    alpha = normalization_coordinate(y)
    assert alpha.arch == 1.0
    for p in (2, 3, 5, 7):
        for v in places_over(QI, p):
            assert alpha.at(v) == 1


def test_normalization_after_frobenius():
    from sympy import primerange

    y = global_frobenius(standard_arithmeticoid(Q), 1)
    alpha = normalization_coordinate(y)
    for p in primerange(2, 51):
        assert alpha.at(v_of(Q, int(p))) == F(1, int(p))


def test_normalization_after_lstar():
    n = 12
    y = lstar_act(Q.element(n), standard_arithmeticoid(Q))
    alpha = normalization_coordinate(y)
    assert alpha.at(v_of(Q, 2)) == F(1, 4)  # p^-ord_p(12)
    assert alpha.at(v_of(Q, 3)) == F(1, 3)
    assert alpha.at(v_of(Q, 5)) == 1
    assert alpha.arch == F(1, 12)


# ---------------------------------------------------------------- period map

def test_period_map_standard_is_all_ones():
    y = standard_arithmeticoid(Q)
    explicit = HyperplanePoint(NormalizationCoordinate(Q, 0, 1.0, ()))
    assert period_map(y) == explicit


def test_period_map_moves_under_frobenius():
    y = standard_arithmeticoid(Q)
    assert period_map(y) != period_map(global_frobenius(y, 1))


def test_period_map_equal_iff_same_alpha():
    y = standard_arithmeticoid(Q)
    v5 = v_of(Q, 5)
    y1 = deform(y, v5, LocalPointNonArch(v5, F(5)))
    y2 = deform(y, v5, LocalPointNonArch(v5, F(5)))
    assert period_map(y1) == period_map(y2)
    y3 = deform(y, v5, LocalPointNonArch(v5, F(7)))
    assert period_map(y1) != period_map(y3)


def gauge_eq(self, other) -> bool:
    """The gauge-based projective equality HyperplanePoint used to define, kept
    as an oracle: divide both vectors by their gauge (the first non-1
    coordinate in canonical place order) and then compare, exactly at finite
    places and to 1e-12 at the archimedean one."""

    def _gauge(c):
        if c.arch != 1.0:
            return c.arch
        if c.shift == 0:
            return min(c.overrides, key=lambda t: place_key(t[0]), default=(None, Fraction(1)))[1]
        # shift rule: every finite coordinate differs from 1; the first finite
        # place in canonical order carries the gauge
        return c.at(canonical_place_list(c.field, 2)[1])

    a, b = self.coords, other.coords
    if a.field != b.field or a.shift != b.shift:
        return False
    ga, gb = _gauge(self.coords), _gauge(other.coords)
    if not math.isclose(a.arch / float(ga), b.arch / float(gb), rel_tol=0, abs_tol=1e-12):
        return False
    places = {v for v, _ in a.overrides} | {v for v, _ in b.overrides}
    for v in sorted(places, key=place_key):
        xa, xb = a.at(v), b.at(v)
        if isinstance(ga, Fraction) and isinstance(gb, Fraction):
            if xa / ga != xb / gb:
                return False
        elif not math.isclose(float(xa) / float(ga), float(xb) / float(gb),
                              rel_tol=0, abs_tol=1e-12):
            return False
    # scalar consistency on the unlisted places: p^-shift / gauge must match
    return math.isclose(float(ga), float(gb), rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("field", [Q, QI])
def test_period_map_equality_matches_the_gauge_oracle(field):
    rng = random.Random(0x6A06E + (field.d or 0))
    arch = archimedean_place(field)
    finite = [v for v in canonical_place_list(field, 6) if not v.is_archimedean]
    scales = [None, F(1, 3), F(2, 5), F(7, 3), 2.5, 0.1]
    carriers = []
    for shift in range(-3, 4):
        y0 = global_frobenius(standard_arithmeticoid(field, label=""), shift)
        v = finite[1]
        # a concrete layer whose exponent is standard: the alpha-vector of y0
        concrete = deform(y0, v, local_point(v, concrete=monomial(v.prime, F(v.local_degree),
                                                                  cap=F(10))))
        assert concrete.deviations and period_map(concrete) == period_map(y0)
        carriers += [y0, concrete]
        for _ in range(6):
            y = y0
            for w in rng.sample(finite, rng.randint(0, 2)):
                y = deform(y, w, local_point(w, e=F(rng.randint(1, 6), rng.randint(1, 6))))
            scale = rng.choice(scales)
            if scale is not None:
                y = deform(y, arch, LocalPointArch(scale))
            x1, x2 = _element(rng, field), _element(rng, field)
            carriers += [y, lstar_act(x1, lstar_act(x2, y)), lstar_act(x1 * x2, y)]
    points = [period_map(y) for y in carriers]
    agree = {True: 0, False: 0}
    for a in points:
        for b in points:
            assert (a == b) == gauge_eq(a, b), (a, b)
            agree[a == b] += 1
    assert agree[True] > len(points) and agree[False]


def test_hyperplane_membership_exact():
    rng = random.Random(35)
    for field in (Q, QI):
        y = global_frobenius(standard_arithmeticoid(field), 1)
        v = places_over(field, 3)[0]
        y = deform(y, v, LocalPointNonArch(v, F(22, 7)))
        for _ in range(20):
            x = field.element(
                F(rng.randint(-30, 30), rng.randint(1, 30)),
                F(rng.randint(-30, 30), rng.randint(1, 30)) if field.d else 0,
            )
            if x.is_zero():
                continue
            rep = hyperplane_pairing(y, x)
            assert rep.exact  # finite parts cancel exactly
            assert rep.residual < 1e-9


# ---------------------------------------------------------------- mutation

def test_mutation_single_parameter():
    (entry,) = mutate_tate_parameters([TateSymbol("q1", math.log(0.5))], 1)
    assert entry.inverted
    assert entry.log_abs_after == pytest.approx(math.log(2))


def test_mutation_identity():
    (entry,) = mutate_tate_parameters([TateSymbol("q1", -1.0)], 0)
    assert not entry.inverted
    assert entry.log_abs_after == -1.0


def test_mutation_partial():
    qs = [TateSymbol(f"q{j}", -0.3 * j) for j in (1, 2, 3)]
    entries = mutate_tate_parameters(qs, 2)
    assert [e.log_abs_after for e in entries] == [-q.log_abs for q in qs[:2]] + [qs[2].log_abs]
    assert [e.inverted for e in entries] == [True, True, False]


def test_mutation_validation():
    with pytest.raises(AdelicError):
        mutate_tate_parameters([TateSymbol("q", -1.0)], 2)
    with pytest.raises(AdelicError):
        mutate_tate_parameters([TateSymbol("q", 0.5)], 1)
    for log_abs in (-math.inf, math.nan, float("-1e400")):  # |q| = 0 is no Tate parameter
        with pytest.raises(AdelicError, match="q7 has log"):
            mutate_tate_parameters([TateSymbol("q1", -1.0), TateSymbol("q7", log_abs)], 1)


# ---------------------------------------------------------------- serialization

def test_json_rejects_places_that_do_not_exist():
    v = v_of(QI, 5, 1)
    assert place_from_json(QI, v.to_json()) == v
    for place in ({"prime": 4, "e": 1, "f": 1, "conjugate_index": 0},
                  {"prime": 1, "e": 1, "f": 1, "conjugate_index": 0},
                  {"prime": 5, "e": 1, "f": 1, "conjugate_index": 2},
                  {"prime": 5, "e": 2, "f": 1, "conjugate_index": 0}):
        with pytest.raises(FieldError):
            place_from_json(QI, place)
