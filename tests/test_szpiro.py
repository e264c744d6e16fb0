import cmath
import math
import random
from fractions import Fraction

import pytest

from arithmeticoid.szpiro import (
    MonodromyDatum,
    SplitMix64,
    SzpiroError,
    ThetaLink,
    UnivCoverElt,
    compose,
    corollary312_check,
    evaluate,
    height_q,
    identity_lift,
    irreducible,
    lift,
    log_theta_lattice,
    monodromy_generate,
    phi_infinity,
    reduce_mod,
    schottky,
    theta_values,
)

TWO_PI = 2 * math.pi


def rotation(theta: float) -> tuple:
    return ((math.cos(theta), -math.sin(theta)),
            (math.sin(theta), math.cos(theta)))


def random_cover_elt(rng) -> UnivCoverElt:
    kind = rng.randrange(3)
    if kind == 0:
        m = rotation(rng.uniform(0, TWO_PI))
    elif kind == 1:
        t = rng.uniform(-2, 2)
        m = ((1.0, t), (0.0, 1.0))
    else:
        t = rng.uniform(0.2, 3.0)
        m = ((t, 0.0), (0.0, 1.0 / t))
    return lift(m, rng.randrange(-2, 3) if hasattr(rng, "randrange") else 0)


# ---------------------------------------------------------------------------
# RNG anchor

def test_splitmix_matches_published_vector():
    rng = SplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF


def test_splitmix_is_deterministic():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]


# ---------------------------------------------------------------------------
# lifts and evaluation

def test_lift_examples():
    assert identity_lift().lift0 == 0.0
    assert abs(lift(((-1, 0), (0, -1))).lift0 - math.pi) < 1e-15
    assert abs(lift(((1, 0), (0, 1)), winding=1).lift0 - TWO_PI) < 1e-15


def test_lift_rejects_bad_determinants():
    with pytest.raises(SzpiroError):
        lift(((2, 0), (0, 1)))
    with pytest.raises(SzpiroError):
        lift(((1.0, 0.1), (0.0, 1.1)))


def test_lift0_angle_congruence_is_enforced():
    with pytest.raises(SzpiroError):
        UnivCoverElt(((1, 0), (0, 1)), 1.0)


def test_identity_evaluates_to_x():
    e = identity_lift()
    rng = random.Random(5)
    for _ in range(100):
        x = rng.uniform(-20, 20)
        assert abs(evaluate(e, x) - x) < 1e-12


def test_z_translates_by_pi():
    z = lift(((-1, 0), (0, -1)))
    rng = random.Random(7)
    for _ in range(100):
        x = rng.uniform(-20, 20)
        assert abs(evaluate(z, x) - (x + math.pi)) < 1e-12


def test_rotation_translates_by_theta():
    rng = random.Random(11)
    for _ in range(50):
        theta = rng.uniform(0, TWO_PI - 1e-6)
        e = lift(rotation(theta))
        x = rng.uniform(-10, 10)
        assert abs(evaluate(e, x) - (x + theta)) < 1e-9


def test_monotone_and_equivariant():
    rng = random.Random(13)
    for _ in range(50):
        e = random_cover_elt(rng)
        xs = sorted(rng.uniform(-8, 8) for _ in range(40))
        vals = [evaluate(e, x) for x in xs]
        assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))
        x = rng.uniform(-8, 8)
        assert abs(evaluate(e, x + math.pi) - evaluate(e, x) - math.pi) < 1e-9
        assert abs(evaluate(e, x + TWO_PI) - evaluate(e, x) - TWO_PI) < 1e-9


# ---------------------------------------------------------------------------
# composition

def test_compose_with_identity():
    rng = random.Random(17)
    for _ in range(20):
        e = random_cover_elt(rng)
        c = compose(e, identity_lift())
        assert c.matrix == e.matrix
        assert abs(c.lift0 - e.lift0) < 1e-12


def test_z_squared_is_phi_infinity():
    z = lift(((-1, 0), (0, -1)))
    zz = compose(z, z)
    assert zz.matrix == ((1, 0), (0, 1))
    assert abs(zz.lift0 - TWO_PI) < 1e-12


def test_phi_infinity_is_central():
    rng = random.Random(19)
    for _ in range(50):
        e = random_cover_elt(rng)
        left = compose(e, phi_infinity())
        right = compose(phi_infinity(), e)
        assert abs(left.lift0 - right.lift0) < 1e-9
        assert abs(left.lift0 - (e.lift0 + TWO_PI)) < 1e-9


def test_many_compositions_preserve_the_invariant():
    # construction re-validates the angle congruence every time
    rng = random.Random(23)
    for _ in range(10000):
        compose(random_cover_elt(rng), random_cover_elt(rng))


def test_composition_is_associative_to_tolerance():
    rng = random.Random(29)
    for _ in range(200):
        e1, e2, e3 = (random_cover_elt(rng) for _ in range(3))
        a = compose(compose(e1, e2), e3)
        b = compose(e1, compose(e2, e3))
        assert abs(a.lift0 - b.lift0) < 1e-9


# ---------------------------------------------------------------------------
# heights

def test_lifts_past_the_float_range_keep_their_directions():
    # A^800 has entries near 2^1111, past what float() converts; the angles
    # depend only on directions, read here from exact int ratios
    half = _int_mat_pow(((2, 1), (1, 1)), 400)
    (a, b), (c, d) = m = _int_mat_pow(half, 2)
    assert a.bit_length() > 1100
    e = lift(m)
    assert abs(e.lift0 - math.atan(c / a)) < 1e-15
    square = compose(lift(half), lift(half))
    assert square.matrix == m and abs(square.lift0 - e.lift0) < 1e-12
    for x in (0.0, 0.5, 2.0, 3.0):
        cx, sx = Fraction(math.cos(x)), Fraction(math.sin(x))
        slope = float((c * cx + d * sx) / (a * cx + b * sx))
        assert abs(math.sin(evaluate(e, x) - math.atan(slope))) < 1e-12, x
    h = height_q(e, 256)
    assert math.isfinite(h.value) and math.isfinite(h.error)


def test_height_of_identity_is_zero():
    h = height_q(identity_lift())
    assert h.value == 0.0
    assert h.error < 1e-9


def test_height_of_central_powers():
    for m in range(-10, 11):
        h = height_q(phi_infinity(m), grid=64)
        assert abs(h.value - math.pi * m) < 1e-6


def test_height_of_z_and_rotations():
    assert abs(height_q(lift(((-1, 0), (0, -1)))).value - math.pi / 2) < 1e-6
    rng = random.Random(31)
    for _ in range(10):
        theta = rng.uniform(0, TWO_PI - 0.1)
        assert abs(height_q(lift(rotation(theta))).value - theta / 2) < 1e-6


def test_height_shifts_by_pi_under_central_translation():
    rng = random.Random(37)
    for _ in range(20):
        e = random_cover_elt(rng)
        h0 = height_q(e, grid=512)
        for m in (-3, 1, 4):
            hm = height_q(compose(e, phi_infinity(m)), grid=512)
            assert abs(hm.value - h0.value - math.pi * m) <= h0.error + hm.error + 1e-9
    # a winding of w is the central translate by phi_infinity^w: it adds pi * w
    for matrix in (((1, 1), (0, 1)), ((1, -4), (0, 1))):
        h0 = height_q(lift(matrix), grid=256)
        for w in (2, -1):
            hw = height_q(lift(matrix, winding=w), grid=256)
            assert abs(hw.value - h0.value - math.pi * w) <= h0.error + hw.error + 1e-9


def test_subadditivity_on_random_pairs():
    rng = random.Random(41)
    for _ in range(1000):
        e1 = random_cover_elt(rng)
        e2 = random_cover_elt(rng)
        h1 = height_q(e1, grid=256)
        h2 = height_q(e2, grid=256)
        h12 = height_q(compose(e1, e2), grid=256)
        assert h12.value <= h1.value + h2.value + h1.error + h2.error + h12.error + 1e-9


def test_height_grid_floor():
    with pytest.raises(SzpiroError):
        height_q(identity_lift(), grid=32)


# ---------------------------------------------------------------------------
# Schottky parameters and theta links

def test_schottky_at_tau_i():
    q = schottky(1j)
    assert abs(q - math.exp(-TWO_PI)) < 1e-15
    assert abs(schottky(4j) - q ** 4) < 1e-15


def test_a_far_real_part_keeps_its_phase():
    # both are whole numbers, so q's period 1 takes them to 0; theta's period
    # 2 ell = 10 takes 1e12 to 0 and the float 1e308 to 6
    for re_tau, re_reduced in ((1e12, 0.0), (1e308, 6.0)):
        tau = complex(re_tau, 0.5)
        assert schottky(tau) == schottky(0.5j)
        assert theta_values(tau, 5) == theta_values(complex(re_reduced, 0.5), 5)


def test_schottky_scaling_law():
    rng = random.Random(43)
    alphas = [j * j for j in range(1, 11)] + [0.5, 2 / 3]
    for _ in range(100):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
        alpha = rng.choice(alphas)
        assert abs(schottky(alpha * tau) - schottky(tau) ** alpha) < 1e-10


def test_schottky_requires_upper_half_plane():
    with pytest.raises(SzpiroError):
        schottky(1.0 + 0j)
    with pytest.raises(SzpiroError):
        schottky(-1j)


def test_theta_values_exponents_for_ell_five():
    tau = 0.3 + 0.9j
    vals = theta_values(tau, 5)
    assert len(vals) == 2
    assert abs(vals[0] - cmath.exp(2j * math.pi * tau / 10)) < 1e-15
    assert abs(vals[1] - cmath.exp(2j * math.pi * tau * 4 / 10)) < 1e-15


def test_theta_values_decrease_in_modulus():
    vals = theta_values(0.1 + 1.1j, 11)
    mods = [abs(v) for v in vals]
    assert all(a > b for a, b in zip(mods, mods[1:]))


def test_theta_link_matrices():
    link = ThetaLink(0.2 + 0.7j, 7)
    assert link.ell_star == 3
    for j, m in enumerate(link.matrices, start=1):
        assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0] - 1) < 1e-12
        tau = link.tau
        moebius = (m[0][0] * tau + m[0][1]) / (m[1][0] * tau + m[1][1])
        assert abs(moebius - j * j * tau) < 1e-12


def test_theta_link_validation():
    with pytest.raises(SzpiroError):
        ThetaLink(0.5 - 1j, 5)
    with pytest.raises(SzpiroError):
        ThetaLink(1j, 4)
    with pytest.raises(SzpiroError):
        theta_values(1j, 9)


# ---------------------------------------------------------------------------
# monodromy

def oracle_common_eigenvector(mats, ell):
    """Exhaustive search over all nonzero vectors of F_ell^2."""
    for x in range(ell):
        for y in range(ell):
            if x == 0 and y == 0:
                continue
            if all((m[0][0] * x + m[0][1] * y) * y % ell
                   == (m[1][0] * x + m[1][1] * y) * x % ell for m in mats):
                return True
    return False


def test_relation_holds_for_100_seeds():
    for seed in range(100):
        datum = monodromy_generate(seed % 3, 1 + seed % 5, seed)
        total = ((1, 0), (0, 1))
        for a, b in datum.handles:
            inv_a = ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))
            inv_b = ((b[1][1], -b[0][1]), (-b[1][0], b[0][0]))
            for m in (a, b, inv_a, inv_b):
                total = ((total[0][0] * m[0][0] + total[0][1] * m[1][0],
                          total[0][0] * m[0][1] + total[0][1] * m[1][1]),
                         (total[1][0] * m[0][0] + total[1][1] * m[1][0],
                          total[1][0] * m[0][1] + total[1][1] * m[1][1]))
        for g in datum.punctures:
            total = ((total[0][0] * g[0][0] + total[0][1] * g[1][0],
                      total[0][0] * g[0][1] + total[0][1] * g[1][1]),
                     (total[1][0] * g[0][0] + total[1][1] * g[1][0],
                      total[1][0] * g[0][1] + total[1][1] * g[1][1]))
        assert total == ((1, 0), (0, 1))


def test_generation_is_deterministic():
    a = monodromy_generate(2, 3, seed=99)
    b = monodromy_generate(2, 3, seed=99)
    assert a == b


def test_random_generators_respect_the_entry_bound():
    # every generator but the last puncture is a random word with |entries| <= 40
    for seed in range(60):
        datum = monodromy_generate(seed % 3, 1 + seed % 4, seed)
        words = [m for pair in datum.handles for m in pair] + list(datum.punctures[:-1])
        for m in words:
            assert max(abs(v) for row in m for v in row) <= 40
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_monodromy_generate_validation():
    with pytest.raises(SzpiroError):
        monodromy_generate(1, 0, seed=1)
    with pytest.raises(SzpiroError):
        monodromy_generate(-1, 2, seed=1)


def test_datum_validation():
    with pytest.raises(SzpiroError):
        MonodromyDatum(0, (), ())
    with pytest.raises(SzpiroError):
        MonodromyDatum(0, (), (((1, 1), (0, 1)),))  # relation fails
    with pytest.raises(SzpiroError):
        MonodromyDatum(1, (), (((1, 0), (0, 1)),))  # genus mismatch


def test_reduce_mod_ranges():
    datum = monodromy_generate(1, 2, seed=3)
    mats = reduce_mod(datum, 7)
    assert len(mats) == 4
    for m in mats:
        assert all(0 <= v < 7 for row in m for v in row)


def test_upper_triangular_pair_is_reducible():
    mats = [((1, 1), (0, 1)), ((1, 3), (0, 1))]
    assert not irreducible(mats, 5)


def test_standard_generating_pair_is_irreducible():
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    assert irreducible(mats, 5)


def test_irreducibility_matches_exhaustive_oracle():
    rng = random.Random(47)
    for _ in range(200):
        ell = rng.choice([5, 7, 11])
        datum = monodromy_generate(rng.randrange(2), 2, seed=rng.randrange(10 ** 6))
        mats = reduce_mod(datum, ell)[-2:]
        assert irreducible(mats, ell) == (not oracle_common_eigenvector(mats, ell))
    with pytest.raises(SzpiroError):
        irreducible([((1, 0), (0, 1))], 6)


# ---------------------------------------------------------------------------
# the geometric chain

def test_cor312_trivial_datum():
    datum = MonodromyDatum(0, (), (((1, 0), (0, 1)),))
    report = corollary312_check(datum, 5, grid=256)
    assert report.passed
    assert abs(report.mid) < 1e-9
    assert abs(report.rhs) < 1e-9


def test_cor312_single_parabolic_puncture():
    datum = MonodromyDatum(0, (), (((1, 1), (0, 1)), ((1, -1), (0, 1))))
    report = corollary312_check(datum, 5, grid=512)
    assert report.passed
    assert report.mid >= report.rhs - report.tolerance


def test_cor312_random_data_all_pass():
    rng = random.Random(53)
    for _ in range(30):
        genus = rng.randrange(3)
        punctures = 1 + rng.randrange(5)
        ell = rng.choice([5, 7])
        datum = monodromy_generate(genus, punctures, seed=rng.randrange(10 ** 6))
        report = corollary312_check(datum, ell, grid=512, seed=1)
        assert report.passed


def _int_mat_pow(m, n):
    out = ((1, 0), (0, 1))
    for _ in range(n):
        out = ((out[0][0] * m[0][0] + out[0][1] * m[1][0],
                out[0][0] * m[0][1] + out[0][1] * m[1][1]),
               (out[1][0] * m[0][0] + out[1][1] * m[1][0],
                out[1][0] * m[0][1] + out[1][1] * m[1][1]))
    return out


def test_cor312_mid_and_rhs_match_the_lift_oracle():
    # mid sums the heights of the lifts of gamma^(j^2), puncture by puncture;
    # rhs is the height of their ordered product
    rng = random.Random(59)
    for _ in range(8):
        ell = rng.choice([5, 7])
        datum = monodromy_generate(rng.randrange(2), 1 + rng.randrange(3),
                                   seed=rng.randrange(10 ** 6))
        lifts = [lift(_int_mat_pow(gamma, j * j))
                 for gamma in datum.punctures for j in range(1, (ell - 1) // 2 + 1)]
        heights = [height_q(e, 256) for e in lifts]
        product = identity_lift()
        for e in lifts:
            product = compose(product, e)
        rh = height_q(product, 256)
        report = corollary312_check(datum, ell, grid=256, seed=4)
        assert report.mid == sum(h.value for h in heights)
        assert report.rhs == rh.value
        assert report.tolerance == sum(h.error for h in heights) + rh.error + 1e-9
        assert report.seed == 4


def test_cor312_verdict_reads_mid_against_rhs():
    rng = random.Random(61)
    for _ in range(20):
        datum = monodromy_generate(rng.randrange(3), 1 + rng.randrange(4),
                                   seed=rng.randrange(10 ** 6))
        report = corollary312_check(datum, 5, grid=256)
        assert report.passed is (report.mid >= report.rhs - report.tolerance)


def test_cor312_rejects_bad_ell():
    datum = MonodromyDatum(0, (), (((1, 0), (0, 1)),))
    for ell in (2, 3, 4, 9):
        with pytest.raises(SzpiroError):
            corollary312_check(datum, ell)


# ---------------------------------------------------------------------------
# log-theta lattice

def test_lattice_shape_and_fibers():
    grid = log_theta_lattice(range(3), range(-2, 3), ell=5, seed=2)
    assert len(grid) == 15
    for n in range(3):
        fiber = [grid[(n, m)] for m in range(-2, 3)]
        assert len(fiber) == 5
        mats = {tuple(e.matrix for e in site.elements) for site in fiber}
        assert len(mats) == 1  # the projection forgets m
        h0 = height_q(fiber[2].elements[0], grid=256)
        for site in fiber:
            h = height_q(site.elements[0], grid=256)
            dm = site.m - fiber[2].m
            assert abs(h.value - h0.value - math.pi * dm) <= h0.error + h.error + 1e-9
    assert grid[(1, -2)].label == "theta_1,-2"


def test_lattice_is_seed_deterministic():
    a = log_theta_lattice(range(2), range(2), ell=5, seed=9)
    b = log_theta_lattice(range(2), range(2), ell=5, seed=9)
    assert a == b
