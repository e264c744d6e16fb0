"""Acceptance gate: one test per shipped guarantee, tolerances stated inline.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every numeric claim is checked against an oracle computed inside
this file (exact integer/Fraction arithmetic, exhaustive searches, or the
defining series), never against the implementation's own intermediate output.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction

from arithmeticoid.numfield import (
    NumberField,
    archimedean_place,
    places_over,
    places_up_to,
    product_formula_check,
    roots_of_unity,
)
from arithmeticoid.ffcurve import LocalPointArch, local_point
from arithmeticoid.adelic import (
    canonical_place_list,
    deform,
    distance,
    global_frobenius,
    hyperplane_pairing,
    make_arithmeticoid,
    normalization_coordinate,
    period_map,
    stabilizer_check,
    standard_arithmeticoid,
    HyperplanePoint,
    NormalizationCoordinate,
)
from arithmeticoid.heights import (
    default_sample,
    invert_j_series,
    load_j_coefficients,
    scalar_height,
    stabilized_height_report,
    tate_j_value,
)
from arithmeticoid.padic import PadicScalar
from arithmeticoid import tilt
from arithmeticoid import szpiro as sz

Q = NumberField(None)
Y0 = standard_arithmeticoid(Q)

LOG5 = math.log(5.0)
PI = math.pi


def _report(label: str, detail: str) -> None:
    print(f"PASS  {label}: {detail}")


# ---------------------------------------------------------------------------
# shared random generators (seeded, so the gate is reproducible bit for bit)

def _random_rational(rng: random.Random) -> Fraction:
    num = rng.choice((-1, 1)) * rng.randint(1, 999)
    return Fraction(num, rng.randint(1, 999))


def _random_cover_elt(rng: sz.SplitMix64) -> sz.UnivCoverElt:
    kind = rng.randrange(3)
    winding = rng.randrange(5) - 2
    if kind == 0:
        th = rng.uniform(0.0, 2.0 * PI)
        m = ((math.cos(th), -math.sin(th)), (math.sin(th), math.cos(th)))
    elif kind == 1:
        t = rng.uniform(-3.0, 3.0)
        m = ((1.0, t), (0.0, 1.0))
    else:
        s = math.exp(rng.uniform(-1.2, 1.2))
        t = rng.uniform(-2.0, 2.0)
        m = ((s, t), (0.0, 1.0 / s))
    return sz.lift(m, winding)


def _random_sl2_mod(rng: random.Random, ell: int) -> tuple:
    # rejection sampling: det == 1 hits with probability ~ 1/ell
    while True:
        a, b, c, d = (rng.randrange(ell) for _ in range(4))
        if (a * d - b * c) % ell == 1:
            return ((a, b), (c, d))


def _has_common_eigenvector(mats, ell: int) -> bool:
    """Exhaustive scan of every nonzero vector of F_ell^2, no projective tricks."""
    for x in range(ell):
        for y in range(ell):
            if x == 0 and y == 0:
                continue
            if all(((m[0][0] * x + m[0][1] * y) * y
                    - (m[1][0] * x + m[1][1] * y) * x) % ell == 0
                   for m in mats):
                return True
    return False


# ---------------------------------------------------------------------------
# 1. heights of 5 and 1/5 over the rationals

def test_criterion_01_height_of_five_both_ways():
    t0 = time.perf_counter()
    h5 = scalar_height(Y0, Q.element(5))
    h15 = scalar_height(Y0, Q.element(Fraction(1, 5)))
    # finite parts are exact Fractions: 1/5 pays exactly 1 * log 5 at the
    # place over 5, while 5 itself pays only through the archimedean term
    assert all(t.coefficient == 0 for t in h5.finite)
    assert h15.finite_coefficient(5) == Fraction(1)
    assert all(t.coefficient == 0 for t in h15.finite if t.place.prime != 5)
    assert h15.archimedean.value == 0.0
    assert abs(h5.total - LOG5) < 1e-12
    assert abs(h15.total - LOG5) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("criterion 01",
            f"h(5)={h5.total:.15f}, h(1/5)={h15.total:.15f}, "
            f"|both - log 5| < 1e-12, finite parts exact, {elapsed * 1e3:.1f} ms")


# ---------------------------------------------------------------------------
# 2. product formula on random elements of Q and Q(i)

def test_criterion_02_product_formula_random_elements():
    rng = random.Random(0xACCE02)
    worst = 0.0
    def vanishes(rep) -> bool:
        # total coefficient of log p: places over p plus the norm's share
        primes = set(rep.finite_exponent_sums) | set(rep.norm_exponents)
        return all(rep.finite_exponent_sums.get(p, Fraction(0))
                   + rep.norm_exponents.get(p, Fraction(0)) == 0
                   for p in primes)

    for _ in range(500):
        rep = product_formula_check(Q.element(_random_rational(rng)))
        assert rep.exact and vanishes(rep)
        worst = max(worst, abs(rep.residual))
    Qi = NumberField(1)
    for _ in range(500):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if a == 0 and b == 0:
            a = 1
        rep = product_formula_check(Qi.element(a, b))
        assert rep.exact and vanishes(rep)
        worst = max(worst, abs(rep.residual))
    assert worst < 1e-9
    _report("criterion 02",
            f"500 elements of Q and 500 of Q(i), exponent sums all exactly 0, "
            f"max archimedean residual {worst:.3e} < 1e-9")


# ---------------------------------------------------------------------------
# 3. Frobenius rescales stored exponents exactly

def test_criterion_03_frobenius_exact_on_exponents():
    checked = 0
    for v in places_up_to(Q, 50):
        if v.is_archimedean:
            continue
        p = v.prime
        es = {m: global_frobenius(Y0, m).component(v).e for m in range(-6, 7)}
        for m in range(-6, 7):
            assert es[m] == Fraction(p) ** m          # exact Fraction, never float
        for m in range(-6, 6):
            # e -> p e is |p|_{K_y} = |p|_{K_{phi y}}^{1/p} on stored exponents
            assert es[m + 1] == p * es[m]
            checked += 1
        alpha = normalization_coordinate(global_frobenius(Y0, 1)).at(v)
        assert alpha == Fraction(1, p)
    _report("criterion 03",
            f"{checked} consecutive-twist identities exact for all p <= 50, "
            f"m in [-6, 6]; normalization coordinate after one twist = 1/p exactly")


# ---------------------------------------------------------------------------
# 4. stabilizer scans recover exactly the roots of unity

def test_criterion_04_stabilizer_scan_is_torsion():
    for d, expected_count in ((1, 4), (3, 6)):
        K = NumberField(d)
        y = standard_arithmeticoid(K)
        found = set()
        for a in range(-5, 6):
            for b in range(-5, 6):
                if a == 0 and b == 0:
                    continue
                if stabilizer_check(K.element(a, b), y):
                    found.add((a, b))
        torsion = {(int(u.a), int(u.b)) for u in roots_of_unity(K)}
        assert found == torsion
        assert len(found) == expected_count
    _report("criterion 04",
            "integral scan |a|,|b| <= 5: Q(i) stabilizer = {±1, ±i} (4 elements), "
            "Q(sqrt(-3)) stabilizer = the six roots of unity, nothing else")


# ---------------------------------------------------------------------------
# 5. stabilized height dominates the plain height, strictly somewhere

def test_criterion_05_stabilized_height_dominates():
    rng = random.Random(0xACCE05)
    sample = default_sample(Q, 2, 13)
    v5 = places_over(Q, 5)[0]
    carriers = [
        Y0,
        deform(Y0, v5, local_point(v5, e=Fraction(3, 2))),
        global_frobenius(Y0, 1),
    ]
    pairs = 0
    for _ in range(30):
        z = Q.element(_random_rational(rng))
        for y in carriers:
            st, _ = stabilized_height_report(y, z, sample)
            h = scalar_height(y, z).total
            assert st >= h - 1e-12
            pairs += 1
    z5 = Q.element(5)
    base = scalar_height(Y0, z5).total
    value, witness = stabilized_height_report(Y0, z5, sample)
    assert witness is not None
    assert value > base + 0.5                       # strict gap, not a tie
    _report("criterion 05",
            f"domination held on {pairs} (carrier, z) pairs; strict witness "
            f"x={witness} lifts h(5) from {base:.6f} to {value:.6f}")


# ---------------------------------------------------------------------------
# 6. period map: all-ones at the standard point, moves under Frobenius,
#    and the pairing with L* vanishes exactly on finite parts

def test_criterion_06_period_map_and_pairing():
    hp = period_map(Y0)
    all_ones = HyperplanePoint(NormalizationCoordinate(Q, 0, 1.0, ()))
    assert hp == all_ones
    for v in canonical_place_list(Q, 20):
        c = hp.coords.at(v)
        assert c == 1.0 if v.is_archimedean else c == Fraction(1)
    assert period_map(global_frobenius(Y0, 1)) != hp

    rng = random.Random(0xACCE06)
    v5 = places_over(Q, 5)[0]
    carriers = [Y0, deform(Y0, v5, local_point(v5, e=Fraction(5, 3))),
                global_frobenius(Y0, 1),
                # a Frobenius shift and a deviation at once
                deform(global_frobenius(Y0, 1), v5, local_point(v5, e=Fraction(5, 3)))]
    worst = 0.0
    checked = 0
    for _ in range(60):
        x = Q.element(_random_rational(rng))
        for y in carriers:
            rep = hyperplane_pairing(y, x)
            assert rep.exact                         # finite parts cancel exactly
            worst = max(worst, abs(rep.residual))
            checked += 1
    Qi = NumberField(1)
    yi = standard_arithmeticoid(Qi)
    for _ in range(40):
        a, b = rng.randint(-30, 30), rng.randint(-30, 30)
        if a == 0 and b == 0:
            b = 1
        rep = hyperplane_pairing(yi, Qi.element(a, b))
        assert rep.exact
        worst = max(worst, abs(rep.residual))
        checked += 1
    assert worst < 1e-9
    _report("criterion 06",
            f"standard class is all-ones, moves under one Frobenius twist; "
            f"pairing exact on finite parts for {checked} samples, "
            f"max residual {worst:.3e}")


# ---------------------------------------------------------------------------
# 7. Artin-Hasse: p-integral coefficients and the isometry |AH(a) - 1| = |a|

def test_criterion_07_artin_hasse_integrality_and_isometry():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        series = tilt.artin_hasse(p, 60, 12)
        # independent oracle: exp(sum_{p^j <= n} T^{p^j}/p^j) satisfies
        # n c_n = sum_{p^j <= n} c_{n - p^j}, c_0 = 1, over exact Fractions
        exact = [Fraction(1)]
        for n in range(1, 61):
            acc = Fraction(0)
            pj = 1
            while pj <= n:
                acc += exact[n - pj]
                pj *= p
            exact.append(acc / n)
        mod = p ** 12
        for n, c in enumerate(exact):
            assert c.denominator % p != 0            # p-integral through degree 60
            assert series.coefficient(n) == (
                c.numerator * pow(c.denominator, -1, mod)) % mod

    rng = random.Random(0xACCE07)
    checked = 0
    for i in range(100):
        p = (2, 3, 5)[i % 3]
        k = 1 + i % 3
        series = tilt.artin_hasse(p, 60, 12)
        fld = tilt.coeff_field(p, k)
        terms = {}
        lead = Fraction(1 + rng.randint(0, 40), rng.randint(1, 6))
        e = lead
        for _ in range(1 + rng.randrange(4)):
            terms.setdefault(e, tuple(rng.randrange(p) for _ in range(k)))
            e += Fraction(1 + rng.randint(0, 12), rng.randint(1, 6))
        terms[lead] = fld.from_int(1 + rng.randrange(p - 1)) if p > 2 \
            else fld.from_int(1)
        a = tilt.hahn(p, terms, k=k)
        b = tilt.evaluate_series(series, a)
        b_minus_1 = tilt.hahn_add(b, tilt.hahn(p, {Fraction(0): -1}, k=k))
        assert b_minus_1.valuation() == a.valuation()    # exact Fractions
        assert b_minus_1.leading() == a.leading()        # AH(T) = 1 + T + ...
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 07",
            f"coefficients p-integral and residue-exact through degree 60 for "
            f"p in {{2,3,5}}; |AH(a)-1| = |a| on {checked} random series; "
            f"{elapsed:.2f} s < 10 s")


# ---------------------------------------------------------------------------
# 8. Witt sum/product laws against the ghost-component oracle

def _eval_terms(terms, xs, ys):
    vals = list(xs) + list(ys)
    total = 0
    for coeff, exps in terms:
        prod = coeff
        for v, e in zip(vals, exps):
            if e:
                prod *= v ** e
        total += prod
    return total


def _ghost(p: int, vec, n: int) -> int:
    return sum(p ** i * vec[i] ** (p ** (n - i)) for i in range(n + 1))


def test_criterion_08_witt_laws_match_ghost_oracle():
    rng = random.Random(0xACCE08)
    for _ in range(200):
        p = rng.choice((2, 3))
        N = rng.randint(1, 3)
        xs = [rng.randint(-9, 9) for _ in range(N)]
        ys = [rng.randint(-9, 9) for _ in range(N)]
        sums, prods = tilt.witt_universal(p, N)
        S = [_eval_terms(sums[n], xs, ys) for n in range(N)]
        P = [_eval_terms(prods[n], xs, ys) for n in range(N)]
        for n in range(N):
            gx, gy = _ghost(p, xs, n), _ghost(p, ys, n)
            assert _ghost(p, S, n) == gx + gy        # exact integers throughout
            assert _ghost(p, P, n) == gx * gy

    # bridge to the shipped witt_add/witt_mul: constant-coefficient vectors
    # reduce the same universal polynomials mod p
    for _ in range(40):
        p = rng.choice((2, 3))
        N = rng.randint(1, 3)
        xs = [rng.randrange(p) for _ in range(N)]
        ys = [rng.randrange(p) for _ in range(N)]
        wx = tilt.WittExpansion(p, tuple(
            tilt.hahn(p, {Fraction(0): c}, k=1) for c in xs))
        wy = tilt.WittExpansion(p, tuple(
            tilt.hahn(p, {Fraction(0): c}, k=1) for c in ys))
        sums, prods = tilt.witt_universal(p, N)
        for out, terms in ((tilt.witt_add(wx, wy), sums),
                           (tilt.witt_mul(wx, wy), prods)):
            for n in range(N):
                want = _eval_terms(terms[n], xs, ys) % p
                assert out.components[n] == tilt.hahn(
                    p, {Fraction(0): want}, k=1)
    _report("criterion 08",
            "ghost additivity and multiplicativity exact on 200 random integer "
            "pairs (N <= 3, p in {2,3}); witt_add/witt_mul agree with the "
            "reduced universal polynomials on 40 constant vectors")


# ---------------------------------------------------------------------------
# 9. translation heights on the universal cover

def test_criterion_09_cover_heights_and_subadditivity():
    t0 = time.perf_counter()
    assert sz.height_q(sz.identity_lift(), 64).value == 0.0
    for m in range(-10, 11):
        hv = sz.height_q(sz.phi_infinity(m), 64)
        assert abs(hv.value - PI * m) < 1e-6

    rng = sz.SplitMix64(0xACCE09)
    worst_slack = math.inf
    for _ in range(1000):
        e1, e2 = _random_cover_elt(rng), _random_cover_elt(rng)
        h1 = sz.height_q(e1, 256)
        h2 = sz.height_q(e2, 256)
        h12 = sz.height_q(sz.compose(e1, e2), 256)
        slack = h1.value + h2.value - h12.value \
            + h1.error + h2.error + h12.error + 1e-9
        assert slack >= 0.0
        worst_slack = min(worst_slack, slack)

    passed = 0
    for i in range(100):
        datum = sz.monodromy_generate(i % 3, 1 + i % 5, seed=1000 + i)
        rep = sz.corollary312_check(datum, (5, 7)[i % 2], grid=512,
                                    seed=1000 + i)
        assert rep.passed
        passed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion 09",
            f"h(identity) = 0 exactly, h(phi^m) = pi m to 1e-6 for |m| <= 10; "
            f"subadditivity held on 1000 pairs (min slack {worst_slack:.2e}); "
            f"{passed} random monodromy checks passed; {elapsed:.1f} s < 60 s")


# ---------------------------------------------------------------------------
# 10. Schottky parameter scaling law and theta exponents

def test_criterion_10_schottky_scaling_and_theta_exponents():
    rng = random.Random(0xACCE10)
    alphas = [j * j for j in range(1, 11)] + [0.5, 2.0 / 3.0]
    worst = 0.0
    for _ in range(100):
        tau = complex(rng.uniform(-0.49, 0.49), rng.uniform(0.15, 2.5))
        alpha = rng.choice(alphas)
        drift = abs(sz.schottky(alpha * tau) - sz.schottky(tau) ** alpha)
        worst = max(worst, drift)
    assert worst < 1e-10

    worst_theta = 0.0
    for im in (0.3, 0.7, 1.0, 1.6, 2.2):
        tau = complex(0.21, im)
        tv = sz.theta_values(tau, 5)
        assert len(tv) == 2
        # exponents are exactly 1/10 and 4/10 of 2 pi i tau
        for got, num in zip(tv, (1, 4)):
            want = cmath.exp(2j * PI * tau * Fraction(num, 10))
            worst_theta = max(worst_theta, abs(got - want))
        worst_theta = max(worst_theta, abs(tv[1] - tv[0] ** 4))
    assert worst_theta < 1e-12
    _report("criterion 10",
            f"|q(alpha tau) - q(tau)^alpha| <= {worst:.2e} < 1e-10 on 100 "
            f"samples; theta exponents for ell=5 match {{1/10, 4/10}} of "
            f"2 pi i tau to {worst_theta:.2e}")


# ---------------------------------------------------------------------------
# 11. the deformation distance is a metric

def test_criterion_11_distance_is_a_metric():
    rng = random.Random(0xACCE11)
    finite = [v for v in canonical_place_list(Q, 7) if not v.is_archimedean]
    arch = archimedean_place(Q)
    carriers = [Y0, global_frobenius(Y0, 1)]
    while len(carriers) < 48:
        deviations = {}
        for v in rng.sample(finite, rng.randint(0, 2)):
            deviations[v] = local_point(
                v, e=Fraction(1 + rng.randrange(8), 1 + rng.randrange(8)))
        if rng.random() < 0.5:
            deviations[arch] = LocalPointArch(math.exp(rng.uniform(-1.0, 1.0)))
        carriers.append(make_arithmeticoid(
            Q, deviations, frobenius_shift=rng.randrange(2)))
    for _ in range(1000):
        a, b, c = (rng.choice(carriers) for _ in range(3))
        dab, dba = distance(a, b), distance(b, a)
        assert distance(a, a) == 0.0
        assert abs(dab - dba) <= 1e-12
        assert distance(a, c) <= dab + distance(b, c) + 1e-12
    moved = distance(Y0, global_frobenius(Y0, 1))
    assert moved > 0.0
    _report("criterion 11",
            f"identity, symmetry, triangle held on 1000 random triples from 48 "
            f"carriers; d(y0, phi y0) = {moved:.6f} > 0")


# ---------------------------------------------------------------------------
# 12. mod-ell irreducibility against the exhaustive eigenvector search

def test_criterion_12_irreducibility_matches_exhaustive_search():
    rng = random.Random(0xACCE12)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        ell = rng.choice((5, 7, 11))
        mats = (_random_sl2_mod(rng, ell), _random_sl2_mod(rng, ell))
        got = sz.irreducible(mats, ell)
        assert got == (not _has_common_eigenvector(mats, ell))
        verdicts[got] += 1
    # the scan must see both outcomes somewhere; force one reducible pair
    upper = (((1, 1), (0, 1)), ((2, 3), (0, 3)))  # shared eigenvector (1, 0)
    assert not sz.irreducible(upper, 5)
    assert _has_common_eigenvector(upper, 5)
    _report("criterion 12",
            f"200 random pairs over F_5, F_7, F_11 all matched the exhaustive "
            f"common-eigenvector search ({verdicts[True]} irreducible, "
            f"{verdicts[False]} reducible)")


# ---------------------------------------------------------------------------
# 13. Tate parameter round trip at working precision

def test_criterion_13_tate_parameter_round_trip():
    rng = random.Random(0xACCE13)
    coeffs = load_j_coefficients()
    checked = 0
    for p in (2, 3, 5):
        for k in range(1, 5):
            for sign in (1, -1):
                unit = rng.randint(1, 400) * p + rng.randint(1, p - 1)
                j = Fraction(sign * unit, p ** k)
                q = invert_j_series(p, j, 16)
                assert q.val == k                    # v_p(q) = -v_p(j) exactly
                back = tate_j_value(q, coeffs)
                target = PadicScalar.from_fraction(j, p, 20)
                # the inversion works at relative precision 16; the pole eats
                # k digits, so the round trip certifies 16 - k of them
                assert back.agrees_with(target, 16 - k)
                checked += 1
    _report("criterion 13",
            f"{checked} round trips j -> q -> j for p in {{2,3,5}}, "
            f"v_p(j) in {{-1..-4}}: v_p(q) exact, agreement to 16 - k digits")
