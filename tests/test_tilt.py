import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from arithmeticoid.tilt import (
    DEFAULT_K,
    TiltError,
    WittExpansion,
    ZpSeries,
    artin_hasse,
    coeff_field,
    evaluate_series,
    frobenius,
    hahn,
    hahn_add,
    hahn_inv,
    hahn_mul,
    hahn_neg,
    hahn_one,
    hahn_pow,
    hahn_zero,
    lubin_tate_act,
    lubin_tate_digits,
    monomial,
    primitive_element,
    teichmueller_lift,
    witt_add,
    witt_int,
    witt_mul,
    witt_neg,
    witt_one,
    witt_universal,
)

F = Fraction
DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------- oracles

def hahn_eq(x, y) -> bool:
    """Equality of all terms below the common precision cap."""
    assert (x.p, x.k) == (y.p, y.k), "mixed coefficient fields"
    cap = min(x.cap, y.cap)
    return (tuple((e, c) for e, c in x.terms if e < cap)
            == tuple((e, c) for e, c in y.terms if e < cap))


def oracle_artin_hasse(p, max_degree):
    """Independent derivation: AH(T) = prod_{p not | n} (1 - T^n)^(-mu(n)/n)."""
    from sympy import mobius

    D = max_degree
    out = [F(0)] * (D + 1)
    out[0] = F(1)
    for n in range(1, D + 1):
        if n % p == 0:
            continue
        alpha = F(-int(mobius(n)), n)
        # (1 - T^n)^alpha = sum_j binom(alpha, j) (-1)^j T^{nj}
        factor = [F(0)] * (D + 1)
        j, binom = 0, F(1)
        while n * j <= D:
            factor[n * j] = binom * (-1) ** j
            binom = binom * (alpha - j) / (j + 1)
            j += 1
        nxt = [F(0)] * (D + 1)
        for i, a in enumerate(out):
            if a:
                for jj in range(0, D + 1 - i, n):
                    if factor[jj]:
                        nxt[i + jj] += a * factor[jj]
        out = nxt
    return out


def fraction_artin_hasse(p, max_degree, precision):
    """Dwork's recurrence n c_n = sum_{p^i <= n} c_{n - p^i} on exact Fractions,
    each c_n then reduced as numerator·denominator⁻¹ mod p^precision."""
    out = [F(1)]
    for n in range(1, max_degree + 1):
        acc, q = F(0), 1
        while q <= n:
            acc += out[n - q]
            q *= p
        out.append(acc / n)
    mod = p ** precision
    reduced = []
    for n, c in enumerate(out):
        if c.denominator % p == 0:
            raise TiltError(f"Artin-Hasse coefficient of T^{n} is not {p}-integral")
        reduced.append(c.numerator * pow(c.denominator, -1, mod) % mod)
    return tuple(reduced)


def oracle_ghost(p, vec):
    """Ghost components of an integer Witt vector, exact."""
    return [
        sum(p ** i * vec[i] ** (p ** (n - i)) for i in range(n + 1))
        for n in range(len(vec))
    ]


def evaluate_series_oracle(s, a):
    """sum (c_n mod p) a^n by repeated hahn_mul on Fraction exponents and
    coefficient tuples."""
    if s.p != a.p:
        raise TiltError("series and argument primes differ")
    fld = a.field
    if a.is_zero():
        return hahn(a.p, {F(0): s.coeffs[0]}, a.cap, a.k)
    va = a.valuation()
    if va <= 0:
        raise TiltError("evaluate_series needs valuation(a) > 0")
    cap = min(a.cap, (s.max_degree + 1) * va)
    # a^n has cap >= cap for every n, so one fold at cap drops exactly what
    # folding after each term would
    acc = {F(0): s.coeffs[0]}
    a_n = hahn_one(a.p, cap, a.k)
    for n in range(1, s.max_degree + 1):
        a_n = hahn_mul(a_n, a)
        if a_n.is_zero():
            break
        c = fld.from_int(s.coeffs[n])
        if c != fld.zero:
            for e, x in a_n.terms:
                acc[e] = fld.add(acc.get(e, fld.zero), fld.mul(x, c))
    return hahn(a.p, acc, cap, a.k)


def hahn_inv_oracle(x):
    """Geometric-series inverse off the leading term by repeated hahn_mul and
    hahn_add, truncated at the cap."""
    if x.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    fld = x.field
    a, c = x.leading()
    cinv = fld.inv(c)
    # x = c t^a (1 + u), val(u) > 0
    rel_cap = x.cap - a
    u_terms = {e - a: fld.mul(cc, cinv) for e, cc in x.terms[1:]}
    u = hahn(x.p, u_terms, rel_cap, x.k)
    geo = hahn_one(x.p, rel_cap, x.k)
    if not u.is_zero():
        term = hahn_one(x.p, rel_cap, x.k)
        step = hahn_neg(u)
        vu = u.valuation()
        n = 1
        while n * vu < rel_cap:
            term = hahn_mul(term, step)
            if term.is_zero():
                break
            geo = hahn_add(geo, term)
            n += 1
    out = {e - a: fld.mul(cc, cinv) for e, cc in geo.terms}
    return hahn(x.p, out, x.cap - 2 * a, x.k)


def lubin_tate_act_oracle(u, a):
    """[u](a) = (1+a)^u - 1 on Fraction exponents: 1 + a^(p^i), refolded at the
    cap, raised to each base-p digit of u by binary hahn_pow, and the
    factors multiplied by hahn_mul."""
    p = a.p
    if a.is_zero():
        return a
    va = a.valuation()
    if va <= 0:
        raise TiltError("lubin_tate_act needs valuation(a) > 0")
    precision = lubin_tate_digits(p, va, a.cap)
    mod = p ** precision
    u = F(u)
    if u.denominator % p == 0:
        raise TiltError(f"u = {u} is not {p}-integral")
    digits_src = u.numerator * pow(u.denominator, -1, mod) % mod
    cap = a.cap
    one = hahn_one(p, cap, a.k)
    base = hahn_add(one, hahn(p, dict(a.terms), cap, a.k))  # 1 + a at working cap
    out = one
    for _ in range(precision):
        digits_src, d = divmod(digits_src, p)
        if d:
            out = hahn_mul(out, hahn_pow(base, d))
        base = frobenius(base)
        base = hahn(p, dict(base.terms), cap, a.k)  # refold under the working cap
    return hahn_add(out, hahn_neg(one))


def fermat_inverse(fld, a):
    """a^(p^k - 2), which is 1/a in F_{p^k} by Fermat's little theorem."""
    return fld.pow(a, fld.p ** fld.k - 2)


def frobenius_inverse(x):
    """t^e -> t^(e/p) with c -> c^(p^(k-1)), since c^(p^k) = c in F_{p^k}."""
    fld = x.field
    return hahn(x.p, {e / x.p: fld.pow(c, x.p ** (x.k - 1)) for e, c in x.terms},
                x.cap / x.p, x.k)


def eval_terms_int(terms, xs, ys):
    """Evaluate a universal term list on integers, exactly over Z."""
    vals = list(xs) + list(ys)
    total = 0
    for coeff, exps in terms:
        m = coeff
        for v, e in zip(vals, exps):
            if e:
                m *= v ** e
        total += m
    return total


def random_series(rng, p, k=DEFAULT_K, cap=F(8), nterms=3, lo=F(0)):
    fld = coeff_field(p, k)
    terms = {}
    for _ in range(nterms):
        e = lo + F(rng.randint(0, 24), rng.choice([1, 2, 3, 4]))
        c = tuple(rng.randrange(p) for _ in range(k))
        if c != fld.zero:
            terms[e] = c
    return hahn(p, terms, cap, k)


def random_positive_series(rng, p, **kw):
    while True:
        x = random_series(rng, p, lo=F(1, 3), **kw)
        if not x.is_zero() and x.valuation() > 0:
            return x


# ---------------------------------------------------------------- coefficient field

def test_coeff_field_is_a_field():
    rng = random.Random(1)
    for p, k in [(2, 12), (3, 12), (5, 4), (2, 1)]:
        fld = coeff_field(p, k)
        for _ in range(40):
            a = tuple(rng.randrange(p) for _ in range(k))
            b = tuple(rng.randrange(p) for _ in range(k))
            assert fld.mul(a, b) == fld.mul(b, a)
            if a != fld.zero:
                assert fld.mul(a, fld.inv(a)) == fld.one
            assert fld.pow(fld.pow(a, p ** (k - 1)), p) == a  # x -> x^p is a bijection


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coeff_inverse_matches_the_fermat_oracle_on_every_element(p):
    for k in (1, 2, 3):
        fld = coeff_field(p, k)
        for a in itertools.product(range(p), repeat=k):
            if any(a):
                assert fld.inv(a) == fermat_inverse(fld, a), (k, a)
        with pytest.raises(ZeroDivisionError):
            fld.inv(fld.zero)


@pytest.mark.parametrize("p,k", [(997, 12), (4294967311, 2)])
def test_coeff_inverse_matches_the_fermat_oracle_at_a_large_field(p, k):
    rng = random.Random(12)
    fld = coeff_field(p, k)
    for _ in range(10):
        a = tuple(rng.randrange(1, p) for _ in range(k))
        assert fld.inv(a) == fermat_inverse(fld, a), a


def test_coeff_field_modulus_deterministic():
    assert coeff_field(2, 12).modulus == coeff_field(2, 12).modulus
    f = coeff_field(3, 4).modulus
    assert len(f) == 5 and f[-1] == 1


def test_coeff_field_modulus_is_irreducible_for_a_prime_degree_past_11():
    # the gcd test must see every prime factor of k: x^13 - x splits over F_13
    assert coeff_field(13, 13).modulus == [1, 12] + [0] * 11 + [1]  # x^13 - x + 1
    for p, k in [(13, 13), (2, 13), (3, 17), (2, 19)]:
        fld = coeff_field(p, k)
        for c in range(p):
            a = fld._pad([-c % p, 1])  # x - c
            assert fld.mul(a, fld.inv(a)) == fld.one, (p, k, c)


# ---------------------------------------------------------------- hahn arithmetic

def test_monomial_product():
    x = monomial(3, F(1, 2))
    y = monomial(3, F(1, 3))
    assert hahn_mul(x, y).valuation() == F(5, 6)


def test_geometric_inverse():
    p = 2
    one_plus_t = hahn(p, {F(0): 1, F(1): 1}, cap=F(6))
    inv = hahn_inv(one_plus_t)
    # 1 - t + t^2 - ... = 1 + t + t^2 + ... in char 2
    assert [e for e, _ in inv.terms] == [F(n) for n in range(6)]
    assert hahn_eq(hahn_mul(one_plus_t, inv), hahn_one(p, F(6)))


def test_additive_cancellation():
    p = 5
    x = hahn(p, {F(1, 2): 2, F(2): 3})
    y = hahn(p, {F(1, 2): 3})  # 2 + 3 = 0 mod 5
    s = hahn_add(x, y)
    assert [e for e, _ in s.terms] == [F(2)]


def test_inverse_random():
    rng = random.Random(2)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        x = random_series(rng, p, nterms=4)
        if x.is_zero():
            continue
        prod = hahn_mul(x, hahn_inv(x))
        one = hahn_one(p, prod.cap)
        assert hahn_eq(prod, one)


def test_negative_power_inverts_the_positive_power():
    rng = random.Random(3)
    for _ in range(12):
        p = rng.choice([2, 3, 5, 7])
        x = random_series(rng, p, k=rng.choice([1, 2, 3]), nterms=3, lo=F(-2))
        if x.is_zero():
            continue
        for n in (1, 2, 3):
            prod = hahn_mul(hahn_pow(x, -n), hahn_pow(x, n))
            assert hahn_eq(prod, hahn_one(p, prod.cap, x.k))


def test_cap_truncation_drops_terms():
    x = hahn(2, {F(1): 1, F(9): 1}, cap=F(4))
    assert [e for e, _ in x.terms] == [F(1)]


# ---------------------------------------------------------------- frobenius

def test_frobenius_monomial():
    x = monomial(3, F(1, 2))
    assert frobenius(x).valuation() == F(3, 2)


def test_frobenius_roundtrip_and_valuation():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        x = random_series(rng, p)
        assert hahn_eq(frobenius_inverse(frobenius(x)), x)
        if not x.is_zero():
            assert frobenius(x).valuation() == p * x.valuation()


def test_frobenius_is_field_automorphism():
    rng = random.Random(4)
    for _ in range(50):
        p = rng.choice([2, 3])
        x, y = random_series(rng, p), random_series(rng, p)
        assert hahn_eq(frobenius(hahn_add(x, y)), hahn_add(frobenius(x), frobenius(y)))
        assert hahn_eq(frobenius(hahn_mul(x, y)), hahn_mul(frobenius(x), frobenius(y)))


# ---------------------------------------------------------------- artin-hasse

def test_artin_hasse_low_coefficients():
    for p in (2, 3, 5):
        ah = artin_hasse(p, 8, 10)
        assert ah.coefficient(0) == 1
        assert ah.coefficient(1) == 1
    ah3 = artin_hasse(3, 8, 10)
    assert ah3.coefficient(2) == pow(2, -1, 3 ** 10)  # 1/2 as a 3-adic residue


def test_artin_hasse_matches_mobius_product_oracle():
    # criterion 07 checks the library against Dwork's recurrence, which the
    # library itself uses; this product formula is the independent check
    for p in (2, 3, 5, 7):
        ah = artin_hasse(p, 60, 12)
        oracle = oracle_artin_hasse(p, 60)
        mod = p ** 12
        for n, c in enumerate(oracle):
            assert c.denominator % p != 0
            assert ah.coefficient(n) == c.numerator * pow(c.denominator, -1, mod) % mod


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 997)), st.integers(1, 200), st.integers(1, 64))
@example(997, 2000, 64)  # the CLI corner: --p 997 --degree 2000 --padic-precision 64
def test_artin_hasse_matches_the_fraction_oracle(p, max_degree, precision):
    assert artin_hasse(p, max_degree, precision).coeffs == \
        fraction_artin_hasse(p, max_degree, precision)


def test_artin_hasse_p_integral_to_degree_60():
    for p in (2, 3, 5):
        artin_hasse(p, 60, 4)  # raises TiltError on any non-integral coefficient


# ---------------------------------------------------------------- evaluation

def test_evaluate_at_zero_is_one():
    ah = artin_hasse(2, 16, 8)
    z = hahn_zero(2)
    assert hahn_eq(evaluate_series(ah, z), hahn_one(2))


def test_evaluate_radius_invariant_examples():
    ah = artin_hasse(3, 16, 8)
    t = monomial(3, F(1), cap=F(8))
    r = evaluate_series(ah, t)
    one = hahn_one(3, r.cap)
    assert hahn_add(r, hahn_neg(one)).valuation() == F(1)


def test_evaluate_matches_truncated_composition_oracle():
    p = 2
    exact = oracle_artin_hasse(p, 7)
    a = monomial(p, F(1, 2), cap=F(4))
    got = evaluate_series(artin_hasse(p, 7, 6), a)
    fld = a.field
    expect = {}
    for n, c in enumerate(exact):
        cm = c.numerator * pow(c.denominator, -1, p) % p
        e = F(n, 2)
        if cm and e < got.cap:
            expect[e] = fld.from_int(cm)
    assert hahn_eq(got, hahn(p, expect, got.cap))


def test_evaluate_radius_invariant_random():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3])
        ah = artin_hasse(p, 24, 6)
        a = random_positive_series(rng, p, cap=F(6), nterms=2)
        r = evaluate_series(ah, a)
        diff = hahn_add(r, hahn_neg(hahn_one(p, r.cap)))
        assert diff.valuation() == a.valuation()


@st.composite
def series_and_argument(draw):
    """A ZpSeries of degree D <= 60 and a series of 1-4 terms at positive
    exponents over denominators <= 6, over F_{p^k}."""
    p = draw(st.sampled_from([2, 3, 5, 7, 997]))
    k = draw(st.sampled_from([1, 2, 3, 12]))
    D = draw(st.integers(1, 60))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=D + 1, max_size=D + 1))
    exponent = st.builds(F, st.integers(1, 24), st.integers(1, 6))
    exps = draw(st.lists(exponent, min_size=1, max_size=4, unique=True))
    terms = {e: tuple(draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)))
             for e in exps}
    cap = draw(st.builds(F, st.integers(1, 48), st.integers(1, 6)))
    return ZpSeries(p, 1, D, tuple(coeffs)), hahn(p, terms, cap, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(series_and_argument())
def test_evaluate_matches_the_hahn_mul_oracle(args):
    s, a = args
    got, want = evaluate_series(s, a), evaluate_series_oracle(s, a)
    assert got.terms == want.terms and got.cap == want.cap


# Series with every coefficient p - 1, each of whose slots nears its bound.
# Past p = 2^32 one product passes 2^64, so a fixed 64-bit slot would carry.
# In a^2 at t^(11/4), four products fill the middle slot of 12 to
# 4·12·(p-1)^2; at p = 5 the running sum reaches 264 of (D+1)·(p-1)^2 = 416.
BIG_P = 4294967311  # the least prime past 2^32
FULL_SLOTS = [(BIG_P, 1, 7, (F(1), F(3, 2), F(7, 3))),
              (BIG_P, 2, 7, (F(1), F(3, 2), F(7, 3))),
              (997, 12, 2, (F(1), F(5, 4), F(3, 2), F(7, 4))),
              (5, 1, 25, (F(1), F(2), F(3), F(5)))]


@pytest.mark.parametrize("p,k,D,exps", FULL_SLOTS)
def test_evaluate_matches_the_oracle_where_a_slot_is_nearly_full(p, k, D, exps):
    a = hahn(p, {e: (p - 1,) * k for e in exps}, k=k)
    s = ZpSeries(p, 1, D, (p - 1,) * (D + 1))
    got, want = evaluate_series(s, a), evaluate_series_oracle(s, a)
    assert got.terms == want.terms and got.cap == want.cap


@st.composite
def invertible_series(draw):
    """A series of 1-5 terms over F_{p^k}: exponents over denominators <= 6,
    the leading one negative, zero or fractional, and a cap over a
    denominator <= 6 at most 6 past the lead."""
    p = draw(st.sampled_from([2, 3, 5, 7, 997]))
    k = draw(st.sampled_from([1, 2, 3, 12]))
    coeff = st.lists(st.integers(0, p - 1), min_size=k, max_size=k).map(tuple)
    lead = draw(st.just(F(0)) | st.builds(F, st.integers(-12, 12), st.integers(1, 6)))
    den = draw(st.integers(1, 6))
    floor = lead.numerator * den // lead.denominator
    cap = F(draw(st.integers(floor + 1, floor + 6 * den)), den)
    span = cap - lead
    offset = st.integers(1, 6).flatmap(
        lambda d: st.builds(F, st.integers(1, max(1, math.ceil(span * d) - 1)), st.just(d)))
    exps = draw(st.lists(offset.filter(lambda o: o < span).map(lambda o: lead + o),
                         max_size=4, unique=True))
    c = draw(coeff.filter(any))
    return hahn(p, {lead: c, **{e: draw(coeff) for e in exps}}, cap, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invertible_series())
def test_inverse_matches_the_geometric_series_oracle(x):
    got, want = hahn_inv(x), hahn_inv_oracle(x)
    assert got.terms == want.terms and got.cap == want.cap


# Series with every coefficient (p - 1, ..., p - 1).  Then every coefficient
# of -u is -1, and at p = BIG_P one product (p-1)^2 passes 2^64, so a fixed
# 64-bit slot carries; at k = 1 the first two fill |u|·k·(p-1)^2.  With a
# lead of p - 1 as an int instead, -u is (p - 1, ..., p - 1) at t^(1/2), and
# the middle slot of the sum for t^1, (-u)^2, reaches the bound k·(p-1)^2.
@pytest.mark.parametrize("p,k", [(BIG_P, 1), (BIG_P, 2), (997, 12)])
@pytest.mark.parametrize("exps,int_lead", [((F(0), F(1)), False),
                                           ((F(-1, 2), F(1, 3), F(2)), False),
                                           ((F(1), F(2), F(3), F(4), F(5)), False),
                                           ((F(0), F(1, 2)), True)])
def test_inverse_matches_the_oracle_where_a_slot_nears_its_bound(p, k, exps, int_lead):
    terms = {e: (p - 1,) * k for e in exps}
    if int_lead:
        terms[exps[0]] = p - 1
    x = hahn(p, terms, F(9), k)
    got, want = hahn_inv(x), hahn_inv_oracle(x)
    assert got.terms == want.terms and got.cap == want.cap


def test_evaluate_rejects_nonpositive_valuation():
    ah = artin_hasse(2, 8, 4)
    with pytest.raises(TiltError):
        evaluate_series(ah, hahn_one(2))


# ---------------------------------------------------------------- lubin-tate

def test_lubin_tate_identity():
    a = monomial(3, F(1, 2), cap=F(9))
    assert hahn_eq(lubin_tate_act(1, a), a)


def test_lubin_tate_doubling_char_2():
    # (1+t)^2 - 1 = t^2 + 2t = t^2
    t = monomial(2, F(1), cap=F(8))
    assert hahn_eq(lubin_tate_act(2, t), monomial(2, F(2), cap=F(8)))


def test_lubin_tate_valuation_preserved():
    rng = random.Random(6)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        a = random_positive_series(rng, p, cap=F(6), nterms=2)
        u = rng.randint(1, 200)
        if u % p == 0:
            u += 1
        assert lubin_tate_act(u, a).valuation() == a.valuation()


def test_lubin_tate_monoid_action():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3])
        a = random_positive_series(rng, p, cap=F(5), nterms=2)
        u1 = rng.randint(1, 60)
        u2 = rng.randint(1, 60)
        if u1 % p == 0:
            u1 += 1
        if u2 % p == 0:
            u2 += 1
        lhs = lubin_tate_act(u1, lubin_tate_act(u2, a))
        rhs = lubin_tate_act(u1 * u2, a)
        assert hahn_eq(lhs, rhs)


def test_lubin_tate_rational_unit():
    # u = 3/5 is a 2-adic unit; action must invert the action of 5/3
    a = monomial(2, F(1), cap=F(6))
    x = lubin_tate_act(F(3, 5), lubin_tate_act(F(5, 3), a))
    assert hahn_eq(x, a)


def test_lubin_tate_rejects_non_integral():
    a = monomial(2, F(1), cap=F(6))
    with pytest.raises(TiltError):
        lubin_tate_act(F(1, 2), a)


def test_lubin_tate_matches_repeated_multiplication():
    # [u](a) = (1+a)^u - 1, multiplied out one factor at a time
    rng = random.Random(8)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        a = random_positive_series(rng, p, cap=F(5), nterms=2)
        u = rng.randint(1, 12)
        one = hahn_one(p, a.cap)
        power = one
        for _ in range(u):
            power = hahn_mul(power, hahn_add(one, a))
        assert hahn_eq(lubin_tate_act(u, a), hahn_add(power, hahn_neg(one)))


def test_lubin_tate_keeps_the_series_cap():
    rng = random.Random(9)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        cap = F(rng.randint(2, 9), rng.choice([1, 2]))
        a = random_positive_series(rng, p, cap=cap, nterms=2)
        u = rng.randint(1, 50)
        if u % p == 0:
            u += 1
        assert lubin_tate_act(u, a).cap == a.cap


@st.composite
def lubin_tate_args(draw):
    """u an int, negative or not, or a rational with a denominator prime to p,
    and a series of 1-4 terms over F_{p^k}, k <= 4, below the cap 64, 33/2 or
    100/7, at exponents over denominators <= 6 no lower than cap/32 (the
    oracle's binary powers grow with the exponents below the cap)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 997]))
    k = draw(st.integers(1, 4))
    cap = draw(st.sampled_from([F(64), F(33, 2), F(100, 7)]))
    coeff = st.lists(st.integers(0, p - 1), min_size=k, max_size=k).map(tuple)
    exponent = st.integers(1, 6).flatmap(lambda den: st.builds(
        F, st.integers(math.ceil(cap * den / 32), math.ceil(cap * den) - 1), st.just(den)))
    terms = draw(st.dictionaries(exponent, coeff.filter(any), min_size=1, max_size=4))
    den = st.integers(1, 40).filter(lambda d: d % p)
    u = draw(st.integers(-300, 300) | st.builds(F, st.integers(-300, 300), den))
    return u, hahn(p, terms, cap, k)


# Powers b^j of a digit's b = a^(p^i) fall wholly past the cap: b^2 = t^80
# at p = 3, and b^128 at p = 997 from t^(1/2).  At p = 2, a^4 keeps only its
# lead t^62 below the cap, and a^8 would lie wholly past it, but the digits
# stop before it.  u = -1 puts every digit at p - 1.  With every coefficient
# p - 1, slots near their bound min(|x|, |y|)·k·(p-1)^2: in b^2 at t^17 past
# 2^32, where one product passes 2^64, and in the running product at p = 5.
@example((2, monomial(3, F(40))))
@example((-1, hahn(2, {F(31, 2): 1, F(40): 1})))
@example((-1, hahn(997, {F(1, 2): (1, 996), F(7, 2): (5, 0)}, k=2)))
@example((-1, monomial(997, F(1), cap=F(64), k=4)))
@example((-1, hahn(BIG_P, {F(8): (BIG_P - 1,) * 2, F(9): (BIG_P - 1,) * 2}, k=2)))
@example((-1, hahn(5, {e: (4,) * 4 for e in (F(1), F(3, 2), F(2), F(5, 2))}, k=4)))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lubin_tate_args())
def test_lubin_tate_matches_the_binary_power_oracle(args):
    u, a = args
    got, want = lubin_tate_act(u, a), lubin_tate_act_oracle(u, a)
    assert got.terms == want.terms and got.cap == want.cap


def test_lubin_tate_zero_and_unit_valuation():
    zero = hahn_zero(3)
    assert lubin_tate_act(2, zero).is_zero()
    with pytest.raises(TiltError):
        lubin_tate_act(2, hahn_one(3))


# ---------------------------------------------------------------- witt vectors

def test_universal_sum_polynomials_frozen():
    sums, prods = witt_universal(2, 2)
    # variables ordered x0, x1, y0, y1
    assert dict((e, c) for c, e in sums[0]) == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
    assert dict((e, c) for c, e in sums[1]) == {
        (0, 1, 0, 0): 1,
        (0, 0, 0, 1): 1,
        (1, 0, 1, 0): -1,
    }
    assert dict((e, c) for c, e in prods[0]) == {(1, 0, 1, 0): 1}


def test_witt_universal_matches_frozen_term_lists():
    """tests/data/witt_universal.json holds the term lists of the symbolic
    (sympy) solve for p in {2, 3, 5, 7} x N in {1, 2, 3} and (113, 2), in
    sympy's Poly.terms() order: exponent tuples descending."""
    for case in json.loads((DATA / "witt_universal.json").read_text()):
        sums, prods = witt_universal(case["p"], case["N"])
        for got, want in ((sums, case["sums"]), (prods, case["prods"])):
            want = [[(c, tuple(e)) for c, e in terms] for terms in want]
            assert got == want, (case["p"], case["N"])


def test_universal_polynomials_satisfy_ghost_identity():
    rng = random.Random(8)
    for p in (2, 3, 5):
        for N in (1, 2, 3):
            sums, prods = witt_universal(p, N)
            for _ in range(20):
                xs = [rng.randint(-9, 9) for _ in range(N)]
                ys = [rng.randint(-9, 9) for _ in range(N)]
                s = [eval_terms_int(sums[n], xs, ys) for n in range(N)]
                m = [eval_terms_int(prods[n], xs, ys) for n in range(N)]
                gx, gy = oracle_ghost(p, xs), oracle_ghost(p, ys)
                assert oracle_ghost(p, s) == [a + b for a, b in zip(gx, gy)]
                assert oracle_ghost(p, m) == [a * b for a, b in zip(gx, gy)]


def _const_witt(p, ints, cap=F(4), k=4):
    comps = tuple(hahn(p, {F(0): c % p}, cap, k) for c in ints)
    return WittExpansion(p, comps)


def _const_of(w):
    return [dict(c.terms).get(0, (0,))[0] for c in w.components]


def test_witt_arithmetic_matches_ghost_oracle_mod_p():
    # char-p evaluation must agree with the integer solution reduced mod p
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice([2, 3])
        N = rng.choice([1, 2, 3])
        xs = [rng.randrange(p) for _ in range(N)]
        ys = [rng.randrange(p) for _ in range(N)]
        sums, prods = witt_universal(p, N)
        want_s = [eval_terms_int(sums[n], xs, ys) % p for n in range(N)]
        want_m = [eval_terms_int(prods[n], xs, ys) % p for n in range(N)]
        got_s = _const_of(witt_add(_const_witt(p, xs), _const_witt(p, ys)))
        got_m = _const_of(witt_mul(_const_witt(p, xs), _const_witt(p, ys)))
        assert got_s == want_s
        assert got_m == want_m


def test_witt_neg_is_additive_inverse():
    rng = random.Random(10)
    for _ in range(50):
        p = rng.choice([2, 3])
        N = rng.choice([2, 3])
        xs = [rng.randrange(p) for _ in range(N)]
        w = _const_witt(p, xs)
        s = witt_add(w, witt_neg(w))
        assert _const_of(s) == [0] * N


def test_teichmueller_multiplicative():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([2, 3])
        a = random_series(rng, p, k=4, cap=F(6), nterms=2)
        b = random_series(rng, p, k=4, cap=F(6), nterms=2)
        if (a.valuation() or 0) < 0 or (b.valuation() or 0) < 0:
            continue
        lhs = witt_mul(teichmueller_lift(a, 3), teichmueller_lift(b, 3))
        rhs = teichmueller_lift(hahn_mul(a, b), 3)
        assert all(hahn_eq(u, v) for u, v in zip(lhs.components, rhs.components))


def test_teichmueller_sum_first_component():
    # first Witt coordinate of [a] + [b] is a + b (S_0 = X_0 + Y_0)
    a = monomial(3, F(1, 2), cap=F(4), k=4)
    b = monomial(3, F(1, 3), cap=F(4), k=4)
    s = witt_add(teichmueller_lift(a, 2), teichmueller_lift(b, 2))
    assert hahn_eq(s.components[0], hahn_add(a, b))


def test_primitive_element_shape():
    for p in (2, 3):
        a = monomial(p, F(1, 2), cap=F(4), k=4)
        xi = primitive_element(a, 3)
        back = witt_add(xi, witt_int(p, p, 3, F(4), 4))
        ta = teichmueller_lift(a, 3)
        assert all(hahn_eq(u, v) for u, v in zip(back.components, ta.components))


def test_witt_one_is_identity():
    w = witt_one(3, 3, cap=F(4), k=4)
    x = _const_witt(3, [2, 1, 0])
    prod = witt_mul(w, x)
    assert _const_of(prod) == _const_of(x)


def test_witt_length_cap():
    a = monomial(2, F(1), cap=F(4), k=4)
    with pytest.raises(TiltError):
        teichmueller_lift(a, 4)


def test_non_prime_p_and_oversized_witt_degree_rejected():
    for p in (0, 1, 4, -3):
        for call in (lambda: artin_hasse(p, 5, 4), lambda: monomial(p, F(1)),
                     lambda: witt_universal(p, 2)):
            with pytest.raises(TiltError, match=f"p = {p}"):
                call()
    with pytest.raises(TiltError, match="p = 11"):
        witt_universal(11, 3)
    # the largest expansions still accepted at lengths 3 and 2
    assert len(witt_universal(7, 3)[0]) == 3
    assert len(witt_universal(113, 2)[0]) == 2


def _lift(p, N):
    return teichmueller_lift(monomial(p, F(1), cap=F(4), k=2), N)


@pytest.mark.parametrize("call,error,message", [
    (lambda: hahn_add(monomial(2, F(1)), monomial(3, F(1))), TiltError, "mixed coefficient fields"),
    (lambda: hahn_mul(monomial(2, F(1), k=2), monomial(2, F(1), k=3)), TiltError,
     "mixed coefficient fields"),
    (lambda: evaluate_series(artin_hasse(2, 8, 4), monomial(3, F(1))), TiltError,
     "series and argument primes differ"),
    (lambda: witt_add(_lift(2, 2), _lift(3, 2)), TiltError, "mixed primes in Witt arithmetic"),
    (lambda: witt_mul(_lift(2, 2), _lift(2, 3)), TiltError, "mixed Witt lengths"),
    (lambda: hahn_zero(2).leading(), TiltError, "zero series has no leading term"),
    (lambda: hahn_inv(hahn_zero(2)), ZeroDivisionError, "inverse of the zero series"),
    (lambda: coeff_field(2, 0), TiltError, "bad coefficient field degree k=0"),
    (lambda: artin_hasse(2, 0, 4), TiltError, "max_degree must be >= 1"),
    (lambda: witt_universal(2, 4), TiltError, "Witt length 4 > 3 unsupported"),
    # witt_universal refuses the length for every Witt operation
    (lambda: witt_add(*[WittExpansion(2, (hahn_zero(2),) * 4)] * 2), TiltError,
     "Witt length 4 > 3 unsupported"),
], ids=["add-fields", "mul-fields", "eval-primes", "witt-primes", "witt-lengths",
        "zero-leading", "zero-inverse", "field-degree", "ah-degree", "witt-universal-length",
        "witt-op-length"])
def test_library_contracts_name_the_violation(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_teichmueller_rejects_negative_valuation():
    a = monomial(2, F(-1), cap=F(4), k=4)
    with pytest.raises(TiltError):
        teichmueller_lift(a, 2)
