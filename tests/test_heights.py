import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from arithmeticoid import adelic, heights
from arithmeticoid.numfield import (
    NumberField,
    archimedean_place,
    canonical_place_list,
    places_over,
    roots_of_unity,
)
from arithmeticoid.ffcurve import (
    CurveError,
    LocalPointArch,
    frobenius_point,
    local_point,
    standard_point,
)
from arithmeticoid.adelic import (
    AdelicError,
    deform,
    global_frobenius,
    lstar_act,
    make_arithmeticoid,
    stabilizer_check,
    standard_arithmeticoid,
)
from arithmeticoid.heights import (
    Frobenioid,
    HeightError,
    Ideloid,
    ProjectivePoint,
    arithmetic_degree,
    default_sample,
    frobenius_pullback,
    height,
    ideloid_from_element,
    invert_j_series,
    load_j_coefficients,
    make_ideloid,
    scalar_height,
    stabilized_height_report,
    tate_j_value,
)
from arithmeticoid.padic import PadicScalar
from arithmeticoid.tilt import monomial

Q = NumberField.parse("Q")
QI = NumberField.parse("Q(sqrt(-1))")


# ---------------------------------------------------------------------------
# oracles

def _poly_mul_trunc(a: list, b: list, n: int) -> list:
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0 or i >= n:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += ai * bj
    return out


def j_expansion_coefficients(n_max: int) -> tuple:
    """Exact integers c_n with j(q) = sum c_n q^n over n >= -1, computed from
    the weight-4 Eisenstein series cubed over the discriminant product."""
    from sympy import divisor_sigma

    n = n_max + 2  # track q^0 .. q^{n-1} of q*j
    e4 = [1] + [240 * int(divisor_sigma(k, 3)) for k in range(1, n)]
    num = _poly_mul_trunc(_poly_mul_trunc(e4, e4, n), e4, n)
    den = [1] + [0] * (n - 1)
    for k in range(1, n):
        factor = [0] * n
        for i in range(0, 25):
            if i * k >= n:
                break
            factor[i * k] = (-1) ** i * math.comb(24, i)
        den = _poly_mul_trunc(den, factor, n)
    inv = [1] + [0] * (n - 1)
    for m in range(1, n):
        inv[m] = -sum(den[i] * inv[m - i] for i in range(1, m + 1))
    series = _poly_mul_trunc(num, inv, n)
    return tuple((k - 1, series[k]) for k in range(n))


def write_j_data(path, n_max: int = 64):
    """Regenerate the shipped table src/arithmeticoid/data/j_qexp.txt."""
    lines = [
        "# q-expansion of the modular j-invariant: j(q) = sum over n >= -1 of c_n q^n.",
        "# Computed exactly as E4(q)^3 / Delta(q) with E4 = 1 + 240 sum sigma_3(k) q^k",
        "# and Delta = q prod (1 - q^k)^24; regenerate with",
        "# write_j_data in tests/test_heights.py.  Lines are 'n c_n'.",
    ]
    for k, c in j_expansion_coefficients(n_max):
        lines.append(f"{k} {c}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def fixed_point_inversion(p, j_value, precision, coeffs):
    """The j-series inverted as a fixed point of q -> 1/(j - c_0 - sum c_n q^n),
    contracting because the correction terms sit at positive valuation."""
    rel = precision + 4
    j = PadicScalar.from_fraction(Fraction(j_value), p, rel)
    if j.is_zero() or j.val >= 0:
        raise HeightError("j must have negative valuation (pole of the expansion)")
    k = -j.val
    c0 = PadicScalar.from_fraction(coeffs[0], p, rel)
    q = j.inverse()
    for _ in range(64):
        tail = None
        n = 1
        while n * k <= q.abs_precision:
            term = PadicScalar.from_fraction(coeffs[n], p, rel) * q ** n
            tail = term if tail is None else tail + term
            n += 1
        d = j - c0 if tail is None else j - c0 - tail
        q_next = d.inverse()
        if q_next.agrees_with(q, k + precision):
            return q_next.truncated(k + precision)
        q = q_next
    raise AssertionError("series inversion did not stabilize")


def loop_j_value(q, coeffs):
    """The expansion summed term by term: 1/q + c_0 + sum c_n q^n, n*v(q) <= abs precision."""
    total = q.inverse() + PadicScalar.from_fraction(coeffs[0], q.p, q.prec)
    n = 1
    while n * q.val <= q.abs_precision:
        total = total + PadicScalar.from_fraction(coeffs[n], q.p, q.prec) * q ** n
        n += 1
    return total


def orbit_report_oracle(y, z, sample):
    """The stabilized report as a walk over the orbit: act by every sample
    element that moves y and measure the height at each orbit point."""
    best, witness = scalar_height(y, z).total, None
    for a in sample:
        if a.is_zero():
            raise HeightError("sample elements must be nonzero")
        if stabilizer_check(a, y):
            continue
        t = scalar_height(lstar_act(a, y), z).total
        if t > best:
            best, witness = t, a
    return best, witness


def weil_height_q(z: Fraction) -> float:
    """Classical height of (1 : z) over the rationals."""
    return math.log(max(abs(z.numerator), abs(z.denominator)))


def _gauss_divmod(a, b):
    # rounded division in Z[i]; a, b are (re, im) integer pairs
    ar, ai = a
    br, bi = b
    n = br * br + bi * bi
    qr = round(Fraction(ar * br + ai * bi, n))
    qi = round(Fraction(ai * br - ar * bi, n))
    rr = ar - (qr * br - qi * bi)
    ri = ai - (qr * bi + qi * br)
    return (qr, qi), (rr, ri)


def _gauss_gcd(a, b):
    while b != (0, 0):
        _, r = _gauss_divmod(a, b)
        a, b = b, r
    return a


def weil_height_qi(x) -> float:
    """Height of (1 : x) over Q(i) via coprime Gaussian numerator/denominator.

    Works in the 1, i basis: x = (a + b*i)/c, removes the Gaussian gcd, then
    takes log of the larger complex norm.
    """
    c = math.lcm(x.a.denominator, x.b.denominator)
    w = (int(x.a * c), int(x.b * c))
    g = _gauss_gcd(w, (c, 0))
    (wr, wi), _ = _gauss_divmod(w, g)
    (cr, ci), _ = _gauss_divmod((c, 0), g)
    return math.log(max(wr * wr + wi * wi, cr * cr + ci * ci))


def random_rational(rng, bound=200):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    if num == 0:
        num = 1
    return Fraction(num, den)


def rational_point(*coords) -> ProjectivePoint:
    return ProjectivePoint(Q, tuple(Q.element(Fraction(q)) for q in coords))


def random_qi_element(rng, bound=20):
    while True:
        a = Fraction(rng.randint(-bound, bound), rng.randint(1, 6))
        b = Fraction(rng.randint(-bound, bound), rng.randint(1, 6))
        if a != 0 or b != 0:
            return QI.element(a, b)


# ---------------------------------------------------------------------------
# heights at the standard point

def test_height_of_five_and_its_inverse():
    y0 = standard_arithmeticoid(Q)
    five = Q.element(Fraction(5))
    r5 = scalar_height(y0, five)
    r15 = scalar_height(y0, five.inverse())
    assert abs(r5.total - math.log(5)) < 1e-12
    assert abs(r15.total - math.log(5)) < 1e-12
    assert r5.finite_coefficient(5) == 0
    assert r15.finite_coefficient(5) == 1
    assert r15.archimedean.value == 0.0


def test_height_matches_weil_oracle_over_q():
    y0 = standard_arithmeticoid(Q)
    rng = random.Random(23)
    for _ in range(300):
        z = random_rational(rng)
        got = scalar_height(y0, Q.element(z)).total
        assert abs(got - weil_height_q(z)) < 1e-9


def test_height_matches_weil_oracle_over_qi():
    y0 = standard_arithmeticoid(QI)
    rng = random.Random(29)
    for _ in range(150):
        x = random_qi_element(rng)
        got = scalar_height(y0, x).total
        assert abs(got - weil_height_qi(x)) < 1e-9


def test_zero_coordinates_are_ignored():
    y0 = standard_arithmeticoid(Q)
    z = Fraction(22, 7)
    with_zero = rational_point(0, 1, z)
    without = rational_point(1, z)
    assert abs(height(y0, with_zero).total - height(y0, without).total) < 1e-15


def test_degenerate_points_rejected():
    with pytest.raises(HeightError):
        rational_point(0, 0)
    with pytest.raises(HeightError):
        ProjectivePoint(Q, ())
    y0 = standard_arithmeticoid(Q)
    with pytest.raises(HeightError):
        height(y0, ProjectivePoint(QI, (QI.one(), QI.omega())))


# ---------------------------------------------------------------------------
# projective invariance and deformation response

def test_projective_scaling_invariance_at_arch_standard_points():
    rng = random.Random(31)
    y0 = standard_arithmeticoid(Q)
    carriers = [y0, global_frobenius(y0, 2),
                deform(y0, places_over(Q, 3)[0],
                       frobenius_point(standard_point(places_over(Q, 3)[0]), 1))]
    for _ in range(200):
        y = rng.choice(carriers)
        coords = [random_rational(rng, 60) for _ in range(rng.randint(2, 4))]
        point = rational_point(*coords)
        lam = Q.element(random_rational(rng, 60))
        a = height(y, point).total
        b = height(y, ProjectivePoint(point.field, tuple(x * lam for x in point.coords))).total
        assert abs(a - b) < 1e-9


def test_projective_scaling_invariance_over_qi():
    rng = random.Random(37)
    y0 = standard_arithmeticoid(QI)
    for _ in range(60):
        point = ProjectivePoint(QI, (random_qi_element(rng), random_qi_element(rng)))
        lam = random_qi_element(rng)
        scaled = ProjectivePoint(point.field, tuple(x * lam for x in point.coords))
        assert abs(height(y0, point).total - height(y0, scaled).total) < 1e-9


def test_finite_parts_are_frobenius_rigid():
    # alpha contracts exactly as fast as the local size grows
    y0 = standard_arithmeticoid(Q)
    rng = random.Random(41)
    for _ in range(40):
        z = Q.element(random_rational(rng))
        base = scalar_height(y0, z)
        for m in (-2, 1, 3):
            moved = scalar_height(global_frobenius(y0, m), z)
            for p in (2, 3, 5, 7, 11, 13):
                assert moved.finite_coefficient(p) == base.finite_coefficient(p)
            assert abs(moved.total - base.total) < 1e-12


def test_archimedean_deformation_moves_the_height():
    y0 = standard_arithmeticoid(Q)
    five = Q.element(Fraction(5))
    moved = lstar_act(five, y0)
    assert moved.component(archimedean_place(Q)) == LocalPointArch(5)
    r = scalar_height(moved, five)
    assert abs(r.total - 5 * math.log(5)) < 1e-12
    assert r.total > scalar_height(y0, five).total


# ---------------------------------------------------------------------------
# stabilized heights

def test_stabilized_height_dominates_and_has_strict_witness():
    y0 = standard_arithmeticoid(Q)
    sample = [Q.element(Fraction(n)) for n in (-1, 2, 3, 5)]
    sample += [Q.element(Fraction(1, n)) for n in (2, 5)]
    for z in (Fraction(2), Fraction(3), Fraction(5), Fraction(7),
              Fraction(1, 2), Fraction(1)):
        ze = Q.element(z)
        assert stabilized_height_report(y0, ze, sample)[0] >= scalar_height(y0, ze).total - 1e-12
    five = Q.element(Fraction(5))
    assert stabilized_height_report(y0, five, sample)[0] > scalar_height(y0, five).total + 1


def test_stabilized_height_report_names_a_witness():
    y0 = standard_arithmeticoid(Q)
    five = Q.element(Fraction(5))
    val, witness = stabilized_height_report(y0, five, [Q.element(Fraction(5))])
    assert witness is not None
    assert abs(val - 5 * math.log(5)) < 1e-12


def test_trivial_sample_leaves_height_unchanged():
    y0 = standard_arithmeticoid(Q)
    z = Q.element(Fraction(7, 3))
    sample = [Q.element(Fraction(1)), Q.element(Fraction(-1))]
    assert stabilized_height_report(y0, z, sample) == (scalar_height(y0, z).total, None)


def test_default_sample_contents():
    sample = default_sample(Q, max_factors=2, prime_bound=7)
    values = {x.a for x in sample}
    assert Fraction(1) in values and Fraction(-1) in values
    assert Fraction(5) in values and Fraction(1, 5) in values
    assert Fraction(35) in values and Fraction(5, 7) in values
    assert Fraction(8) not in values  # needs three factors
    assert all(v != 0 for v in values)


def test_sample_rejects_zero():
    y0 = standard_arithmeticoid(Q)
    with pytest.raises(HeightError):
        stabilized_height_report(y0, Q.element(Fraction(2)), [Q.zero()])


def test_stabilized_report_is_the_orbit_max_on_the_acceptance_sample():
    y0 = standard_arithmeticoid(Q)
    v5 = places_over(Q, 5)[0]
    sample = default_sample(Q, 2, 13)
    for y in (y0, deform(y0, v5, local_point(v5, e=Fraction(3, 2))), global_frobenius(y0, 1)):
        for z in (Fraction(5), Fraction(7, 12), Fraction(-45, 4)):
            ze = Q.element(z)
            value, witness = stabilized_height_report(y, ze, sample)
            # oracle: the orbit maximum over every sample element, trivial actors included
            orbit = [scalar_height(lstar_act(a, y), ze).total for a in sample]
            assert value == max([scalar_height(y, ze).total] + orbit)
            if witness is not None:
                assert scalar_height(lstar_act(witness, y), ze).total == value
    with_zero = sample[:3] + [Q.zero()]
    with pytest.raises(HeightError):
        stabilized_height_report(y0, Q.element(Fraction(5)), with_zero)


ORACLE_FIELDS = (Q, QI, NumberField(3), NumberField(5))


def oracle_carrier(rng, field, shift):
    """0-2 finite deviations (about a third with a concrete Hahn layer), an
    archimedean scale half the time, and the given Frobenius shift."""
    finite = [v for v in canonical_place_list(field, 10) if not v.is_archimedean]
    deviations = {}
    for v in rng.sample(finite, rng.randint(0, 2)):
        e = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        if rng.random() < 1 / 3:
            deviations[v] = local_point(v, concrete=monomial(v.prime, e, cap=Fraction(10)))
        else:
            deviations[v] = local_point(v, e=e)
    if rng.random() < 0.5:
        deviations[archimedean_place(field)] = LocalPointArch(math.exp(rng.uniform(-1, 1)))
    return make_arithmeticoid(field, deviations, frobenius_shift=shift)


def oracle_values(rng, field):
    """Elements with |N z| below 1, at 1 (torsion or not) and above 1."""
    def element():
        b = 0 if field.d is None else Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return field.element(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), b)

    buckets = {-1: [], 0: [], 1: []}
    while min(len(b) for b in buckets.values()) < 2:
        x = element()
        if x.is_zero():
            continue
        n = abs(x.norm())
        buckets[(n > 1) - (n < 1)].append(x)
        buckets[0].append(x / x.conjugate())
    return buckets[-1][:2] + buckets[0][:2] + buckets[1][:2]


def oracle_sample(field):
    """A small default sample plus torsion, norm-1 non-torsion and non-rational actors."""
    sample = default_sample(field, 1, 7) + list(roots_of_unity(field))
    if field.d is not None:
        for a, b in ((1, 1), (2, 1), (-3, 2), (Fraction(1, 2), 3)):
            x = field.element(a, b)
            sample += [x, x.inverse(), x / x.conjugate()]
    return sample


def test_stabilized_report_matches_the_orbit_walk():
    rng = random.Random(0x5AB)
    cases = 0
    for field in ORACLE_FIELDS:
        base_sample = oracle_sample(field)
        for shift in range(-5, 6):
            y = oracle_carrier(rng, field, shift)
            for z in oracle_values(rng, field):
                sample = rng.sample(base_sample, len(base_sample))
                assert stabilized_height_report(y, z, sample) == \
                    orbit_report_oracle(y, z, sample), (y, z)
                cases += 1
    assert cases == 4 * 11 * 6


def test_stabilized_report_matches_the_orbit_walk_on_the_default_sample():
    y0 = standard_arithmeticoid(Q)
    five = Q.element(5)
    sample = default_sample(Q)
    assert len(sample) == 9982
    value, witness = stabilized_height_report(y0, five, sample)
    assert (value, witness) == orbit_report_oracle(y0, five, sample)
    assert witness == Q.element(-103823)


def test_stabilized_report_builds_no_orbit(monkeypatch):
    calls = {"lstar_act": 0, "stabilizer_check": 0, "scalar_height": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("lstar_act", "stabilizer_check"):
        wrapper = counted(name, getattr(adelic, name))
        monkeypatch.setattr(adelic, name, wrapper)
        monkeypatch.setattr(heights, name, wrapper, raising=False)
    monkeypatch.setattr(heights, "scalar_height",
                        counted("scalar_height", heights.scalar_height))
    y = deform(global_frobenius(standard_arithmeticoid(QI), 2),
               archimedean_place(QI), LocalPointArch(0.5))
    sample = default_sample(QI, 2, 13)[:100]
    assert len(sample) == 100
    value, witness = stabilized_height_report(y, QI.element(5, 2), sample)
    assert witness is not None
    assert calls == {"lstar_act": 0, "stabilizer_check": 0, "scalar_height": 1}


def test_stabilized_report_error_paths():
    y0 = standard_arithmeticoid(Q)
    five = Q.element(5)
    for report in (stabilized_height_report, orbit_report_oracle):
        with pytest.raises(HeightError):
            report(y0, five, [Q.element(2), Q.zero()])
        with pytest.raises(AdelicError):
            report(y0, five, [Q.element(2), QI.element(2, 1)])
        with pytest.raises(CurveError):
            report(y0, five, [Q.element(2), Q.element(Fraction(1, 10 ** 400))])
        # |N(a)| past the float range: s * log|z| has no float to add
        with pytest.raises(CurveError):
            report(y0, five, [Q.element(2), Q.element(2 ** 1400)])
    # a foreign-field root of unity raises too; the orbit walk skipped it as trivial
    with pytest.raises(AdelicError):
        stabilized_height_report(y0, five, [QI.omega()])
    assert orbit_report_oracle(y0, five, [QI.omega()]) == (scalar_height(y0, five).total, None)
    # the closed form factors nothing, so an actor past the factoring budget is fine
    big = Q.element(10 ** 120 + 7)
    assert stabilized_height_report(y0, five, [big]) == (float(big.a) * math.log(5), big)


# ---------------------------------------------------------------------------
# ideloids and degrees

def test_degree_of_principal_ideloid_vanishes():
    rng = random.Random(43)
    for field, maker in ((Q, lambda: Q.element(random_rational(rng))),
                         (QI, lambda: random_qi_element(rng))):
        y0 = standard_arithmeticoid(field)
        for _ in range(60):
            rep = arithmetic_degree(y0, ideloid_from_element(maker()))
            assert abs(rep.total) < 1e-9
            assert rep.principal and rep.vanishes is True


def test_degree_is_a_homomorphism():
    rng = random.Random(47)
    y = global_frobenius(standard_arithmeticoid(Q), 1)
    for _ in range(100):
        x, w = Q.element(random_rational(rng)), Q.element(random_rational(rng))
        a, b = (arithmetic_degree(y, ideloid_from_element(t)) for t in (x, w))
        product = arithmetic_degree(y, ideloid_from_element(x * w))
        assert abs(product.total - (a.total + b.total)) < 1e-9
        assert product.vanishes is True  # a product of principal ideloids is principal
        finite = dict(a.finite)
        for p, c in b.finite:
            finite[p] = finite.get(p, 0) + c
        assert dict(product.finite) == {p: c for p, c in finite.items() if c != 0}


def test_degree_descends_along_lstar():
    rng = random.Random(53)
    y = global_frobenius(standard_arithmeticoid(Q), 2)
    base = make_ideloid(Q, {places_over(Q, 2)[0]: Fraction(3),
                            places_over(Q, 7)[0]: Fraction(-1)}, arch_log=0.25)
    d0 = arithmetic_degree(y, base).total
    for _ in range(100):
        x = ideloid_from_element(Q.element(random_rational(rng)))
        orders = dict(base.entries)
        for v, o in x.entries:
            orders[v] = orders.get(v, 0) + o
        scaled = make_ideloid(Q, orders, base.arch_log + x.arch_log)
        assert abs(arithmetic_degree(y, scaled).total - d0) < 1e-9


def test_degree_finite_part_is_exact():
    y0 = standard_arithmeticoid(Q)
    ideal = make_ideloid(Q, {places_over(Q, 5)[0]: Fraction(2)})
    rep = arithmetic_degree(y0, ideal)
    assert rep.finite == ((5, Fraction(-2)),)
    assert abs(rep.total + 2 * math.log(5)) < 1e-12
    assert not rep.principal and rep.vanishes is None


def test_degree_verdict_reads_the_exact_modulus():
    # the float log of 1 + 10^-12 passes any 1e-9 tolerance; the form does not
    near_one = Fraction(10 ** 12 + 1, 10 ** 12)
    rep = arithmetic_degree(standard_arithmeticoid(Q),
                            make_ideloid(Q, arch_log=math.log(near_one), modulus=near_one))
    assert abs(rep.total) < 1e-9 and rep.vanishes is False


def test_principal_ideloid_keeps_its_exact_modulus():
    rng = random.Random(49)
    for field, maker in ((Q, lambda: Q.element(random_rational(rng))),
                         (QI, lambda: random_qi_element(rng))):
        for _ in range(20):
            x = maker()
            ideal = ideloid_from_element(x)
            assert ideal.modulus == abs(x.norm())
            # the ideal norm of (x): prod_v p^(f_v ord_v(x)) = |N(x)|
            norm = Fraction(1)
            for v, o in ideal.entries:
                norm *= Fraction(v.prime) ** int(v.f * o)
            assert norm == ideal.modulus
    assert make_ideloid(Q, {places_over(Q, 5)[0]: 2}).modulus is None


def test_ideloid_validation():
    with pytest.raises(HeightError):
        Ideloid(Q, ((archimedean_place(Q), Fraction(1)),))
    with pytest.raises(HeightError):
        Ideloid(Q, ((places_over(Q, 3)[0], Fraction(0)),))


# ---------------------------------------------------------------------------
# divisor monoids

def test_integral_monoid_rejects_fractional_exponents():
    frob = Frobenioid(Q, "integer")
    v5 = places_over(Q, 5)[0]
    with pytest.raises(HeightError):
        frob.element({v5: Fraction(1, 5)})
    with pytest.raises(HeightError):
        frob.element({v5: -1})


def test_perfection_divides_only_by_the_residue_prime():
    pf = Frobenioid(Q, "perfection")
    v5 = places_over(Q, 5)[0]
    assert pf.element({v5: Fraction(1, 5)}).entries[0][1] == Fraction(1, 5)
    assert pf.element({v5: Fraction(3, 25)}).entries[0][1] == Fraction(3, 25)
    with pytest.raises(HeightError):
        pf.element({v5: Fraction(1, 3)})


def test_frobenius_pullback_produces_p_power_denominators():
    pf = Frobenioid(Q, "perfection")
    v2 = places_over(Q, 2)[0]
    one_zero = pf.element({v2: 1})
    pulled = frobenius_pullback(one_zero, 1)
    assert pulled.entries == ((v2, Fraction(1, 2)),)
    with pytest.raises(HeightError):
        frobenius_pullback(Frobenioid(Q, "integer").element({v2: 1}), 1)


def test_real_monoid_takes_float_exponents():
    real = Frobenioid(Q, "real")
    v3 = places_over(Q, 3)[0]
    elt = real.element({v3: Fraction(1, 7)})
    assert elt.entries == ((v3, 1 / 7),) and isinstance(elt.entries[0][1], float)
    assert frobenius_pullback(real.element({v3: 2}), 2).entries == ((v3, 2 / 9),)
    with pytest.raises(HeightError):
        real.element({v3: -0.5})


def test_monoid_elements_are_canonical():
    pf = Frobenioid(Q, "perfection")
    v2, v3, v5 = (places_over(Q, p)[0] for p in (2, 3, 5))
    a = pf.element({v5: 1, v3: 0, v2: Fraction(1, 2)})
    assert a.entries == ((v2, Fraction(1, 2)), (v5, Fraction(1)))
    assert a == pf.element({v2: Fraction(1, 2), v5: 1})
    with pytest.raises(HeightError):
        Frobenioid(Q, "rational")
    with pytest.raises(HeightError):
        pf.element({archimedean_place(Q): 1})
    with pytest.raises(HeightError):
        pf.element({places_over(QI, 5)[0]: 1})


# ---------------------------------------------------------------------------
# j-expansion inversion

def test_shipped_coefficient_table_matches_generator(tmp_path):
    table = load_j_coefficients()
    assert tuple(sorted(table.items())) == j_expansion_coefficients(64)
    write_j_data(tmp_path / "j_qexp.txt")
    shipped = resources.files("arithmeticoid") / "data" / "j_qexp.txt"
    assert (tmp_path / "j_qexp.txt").read_text() == shipped.read_text()


def test_first_coefficients_are_the_classical_ones():
    table = load_j_coefficients()
    assert table[-1] == 1
    assert table[0] == 744
    assert table[1] == 196884
    assert table[2] == 21493760
    assert table[3] == 864299970


def test_inversion_round_trip():
    table = load_j_coefficients()
    rng = random.Random(61)
    for p in (2, 3, 5):
        for k in (1, 2, 3, 4):
            for _ in range(5):
                unit = rng.randint(1, p ** 6)
                if unit % p == 0:
                    unit += 1
                j = Fraction(unit, p ** k)
                q = invert_j_series(p, j, 16)
                assert q.val == k
                assert q.abs_precision == k + 16
                back = tate_j_value(q, table)
                target = PadicScalar.from_fraction(j, p, 20)
                assert back.val == -k
                # error in q enters through 1/q, costing 2k absolute digits
                assert back.agrees_with(target, 16 - k)


def test_inversion_rejects_integral_j():
    with pytest.raises(HeightError):
        invert_j_series(5, Fraction(1728), 8)
    with pytest.raises(HeightError):
        invert_j_series(5, Fraction(0), 8)
    with pytest.raises(HeightError):
        invert_j_series(5, Fraction(7, 3), 8)  # v_5 = 0
    with pytest.raises(HeightError, match="precision"):
        invert_j_series(5, Fraction(1, 5), 0)


@pytest.mark.parametrize("p", [0, 1, 4, 6, -3])
def test_inversion_rejects_a_composite_or_unit_p(p):
    with pytest.raises(HeightError, match=f"p = {p} is not a prime"):
        invert_j_series(p, Fraction(1, 2), 4)


def test_inversion_equals_the_fixed_point_oracle():
    table = load_j_coefficients()
    rng = random.Random(0x7A7E)
    inversions = evaluations = 0
    for p in (2, 3, 5, 7, 11, 13, 101):
        for k in (1, 2, 3, 4, 5, 7):
            for precision in (1, 2, 3, 4, 8, 16, 20, 32):
                for offset in (0, 744, -744, Fraction(1, 3)):
                    unit = rng.choice((1, -1)) * (rng.randrange(p ** 3) * p + rng.randrange(1, p))
                    j = Fraction(unit, p ** k) + offset
                    inversions += 1
                    try:
                        expected = fixed_point_inversion(p, j, precision, table)
                    except HeightError:  # v_3(j) >= 0: the offset 1/3 cancelled the pole
                        assert (p, k, offset) == (3, 1, Fraction(1, 3))
                        with pytest.raises(HeightError):
                            invert_j_series(p, j, precision)
                        continue
                    q = invert_j_series(p, j, precision)
                    assert q == expected, (p, j, precision)
                    for x in (q, q.truncated(q.abs_precision - 1), q.truncated(k + 1)):
                        if not x.is_zero():
                            assert tate_j_value(x, table) == loop_j_value(x, table)
                            evaluations += 1
    assert (inversions, evaluations) == (1344, 3849)


def test_first_reversion_coefficients_are_the_classical_ones():
    # u = 1/j = q/h(q), h = q*j(q); substitute q = u + 744u^2 + ... into it
    h = [c for _, c in sorted(load_j_coefficients().items())][:5]
    r = [0, 1, 744, 750420, 872769632]
    inv_h = [1] + [0] * 4
    for m in range(1, 5):
        inv_h[m] = -sum(h[i] * inv_h[m - i] for i in range(1, m + 1))
    u_of_q = [0] + inv_h[:4]  # q/h(q) through q^4
    composed, power = [0] * 5, [1] + [0] * 4
    for coefficient in u_of_q:
        composed = [a + coefficient * b for a, b in zip(composed, power)]
        power = _poly_mul_trunc(power, r, 5)
    assert composed == [0, 1, 0, 0, 0]


def test_lagrange_reversion_gives_the_classical_coefficients():
    assert heights._reversion(4) == {0: 0, 1: 1, 2: 744, 3: 750420, 4: 872769632}


def test_inversion_reaches_the_table_ceiling():
    j = Fraction(3, 2)
    q = invert_j_series(2, j, 66)
    assert (q.val, q.prec) == (1, 66)
    back = tate_j_value(q, load_j_coefficients())
    assert back.abs_precision == 65
    assert back.agrees_with(PadicScalar.from_fraction(j, 2, 70), 65)


def test_short_table_raises():
    with pytest.raises(HeightError, match="coefficient table too short"):
        invert_j_series(2, Fraction(3, 2), 67)
    q = invert_j_series(2, Fraction(3, 2), 30)
    with pytest.raises(HeightError, match="coefficient table too short"):
        tate_j_value(q, dict(j_expansion_coefficients(2)))


def test_table_must_have_the_pole(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 744\n1 196884\n")
    with pytest.raises(HeightError, match="simple pole"):
        load_j_coefficients(path)


def test_forward_evaluation_rejects_nonpositive_valuation():
    table = load_j_coefficients()
    q = PadicScalar.from_fraction(Fraction(3), 5, 8)  # valuation 0
    with pytest.raises(HeightError):
        tate_j_value(q, table)


# ---------------------------------------------------------------------------
# report formats

def test_json_report_round_trips_totals():
    y = lstar_act(Q.element(Fraction(3)), standard_arithmeticoid(Q))
    r = scalar_height(y, Q.element(Fraction(10, 3)))
    data = r.to_json()
    assert abs(data["total"] - r.total) < 1e-15
    assert data["archimedean"]["s"] == 3.0
