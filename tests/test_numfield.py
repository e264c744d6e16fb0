import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arithmeticoid import numfield
from arithmeticoid.numfield import (
    FieldElement,
    FieldError,
    InfiniteOrder,
    NumberField,
    archimedean_place,
    ord,
    places_over,
    places_up_to,
    product_formula_check,
    roots_of_unity,
    splitting_type,
    standard_abs,
)

Q = NumberField()
QI = NumberField(1)
Q3 = NumberField(3)


# ---------------------------------------------------------------- oracles

def oracle_splitting(field, p):
    """Brute-force roots of the minimal polynomial of omega mod p."""
    t, n = field.omega_trace, field.omega_norm
    roots = [r for r in range(p) if (r * r - t * r + n) % p == 0]
    if len(roots) == 2:
        return "split"
    if len(roots) == 0:
        return "inert"
    # single root: ramified iff it is a double root, which for a quadratic it is
    return "ramified"


def oracle_norm(x):
    z = x.as_complex()
    return abs(z) ** 2 if x.field.d is not None else z.real


def random_element(rng, field, span=30):
    while True:
        a = Fraction(rng.randint(-span, span), rng.randint(1, span))
        b = Fraction(rng.randint(-span, span), rng.randint(1, span)) if field.d else Fraction(0)
        x = FieldElement(field, a, b)
        if not x.is_zero():
            return x


# ---------------------------------------------------------------- parsing

def test_parse_field_strings():
    assert NumberField.parse("Q") == Q
    assert NumberField.parse("Q(sqrt(-1))") == QI
    assert NumberField.parse("Q(sqrt(-163))").d == 163
    with pytest.raises(FieldError):
        NumberField.parse("Q(sqrt(-4))")  # not squarefree
    with pytest.raises(FieldError):
        NumberField.parse("Q(sqrt(2))")


def test_parse_elements():
    assert FieldElement.parse(Q, "5/3") == Q.element(Fraction(5, 3))
    x = FieldElement.parse(QI, "2, -1/2")
    assert (x.a, x.b) == (Fraction(2), Fraction(-1, 2))


def test_integral_basis_choice():
    assert not QI.half_basis and QI.discriminant == -4
    assert Q3.half_basis and Q3.discriminant == -3
    # omega = (1+sqrt(-3))/2 satisfies t^2 - t + 1
    w = Q3.omega()
    assert (w * w - w + Q3.one()).is_zero()


# ---------------------------------------------------------------- places

def test_places_up_to_rationals():
    vs = places_up_to(Q, 10)
    assert vs[0].is_archimedean
    assert [v.prime for v in vs[1:]] == [2, 3, 5, 7]


def test_gaussian_splitting_examples():
    (v2,) = places_over(QI, 2)
    assert (v2.e, v2.f) == (2, 1)
    v5s = places_over(QI, 5)
    assert len(v5s) == 2 and all((v.e, v.f) == (1, 1) for v in v5s)


def test_eisenstein_seven_splits():
    assert splitting_type(Q3, 7) == "split"
    assert oracle_splitting(Q3, 7) == "split"


def test_splitting_matches_bruteforce_oracle():
    for field in (QI, Q3, NumberField(5), NumberField(7), NumberField(163)):
        for p in numfield.primerange(2, 60):
            assert splitting_type(field, int(p)) == oracle_splitting(field, int(p)), (field, p)


def test_local_degrees_sum_to_field_degree():
    for field in (Q, QI, Q3, NumberField(5)):
        for p in numfield.primerange(2, 60):
            assert sum(v.e * v.f for v in places_over(field, int(p))) == field.degree


# ---------------------------------------------------------------- ord

def test_ord_examples():
    v5 = places_over(Q, 5)[0]
    assert ord(Q.element(5), v5) == 1
    assert ord(Q.element(Fraction(1, 5)), v5) == -1
    (v2,) = places_over(QI, 2)
    assert ord(QI.element(1, 1), v2) == 1  # (1+i)^2 = 2i


def test_ord_split_places_distinguish_conjugates():
    va, vb = places_over(QI, 5)
    x = QI.element(2, 1)  # norm 5
    vals = sorted([ord(x, va), ord(x, vb)])
    assert vals == [0, 1]
    xb = x.conjugate()
    assert ord(xb, va) == ord(x, vb) and ord(xb, vb) == ord(x, va)


def test_ord_additive_on_random_pairs():
    rng = random.Random(501)
    fields = [Q, QI, Q3]
    for _ in range(500):
        field = rng.choice(fields)
        x, y = random_element(rng, field), random_element(rng, field)
        for p in (2, 3, 5, 7):
            for v in places_over(field, p):
                assert ord(x * y, v) == ord(x, v) + ord(y, v)


def test_ord_matches_norm_valuation():
    # sum of f_v * ord_v over v | p equals ord_p of the norm
    rng = random.Random(502)
    for _ in range(200):
        field = rng.choice([QI, Q3, NumberField(5)])
        x = random_element(rng, field)
        n = x.norm()
        for p in (2, 3, 5, 7, 11, 13):
            np = 0
            num, den = n.numerator, n.denominator
            while num % p == 0:
                num //= p
                np += 1
            while den % p == 0:
                den //= p
                np -= 1
            assert sum(v.f * ord(x, v) for v in places_over(field, p)) == np


def test_ord_errors():
    v5 = places_over(Q, 5)[0]
    with pytest.raises(InfiniteOrder):
        ord(Q.zero(), v5)
    with pytest.raises(FieldError):
        ord(Q.element(5), archimedean_place(Q))


# ---------------------------------------------------------------- standard_abs

def test_standard_abs_examples():
    v5 = places_over(Q, 5)[0]
    r = standard_abs(Q.element(5), v5)
    assert r.coeff == -1 and r.prime == 5  # |5|_5 = 1/5
    arch = standard_abs(Q.element(5), archimedean_place(Q))
    assert arch.value == pytest.approx(math.log(5), abs=1e-15)
    two = standard_abs(QI.element(1, 1), archimedean_place(QI))
    assert two.value == pytest.approx(math.log(2), abs=1e-15)  # |N(1+i)| = 2


def test_norm_matches_complex_oracle():
    rng = random.Random(503)
    for _ in range(200):
        field = rng.choice([QI, Q3, NumberField(7)])
        x = random_element(rng, field)
        assert float(x.norm()) == pytest.approx(oracle_norm(x), rel=1e-9)


# ---------------------------------------------------------------- product formula

def test_product_formula_examples():
    rep = product_formula_check(Q.element(5))
    assert rep.exact and rep.residual < 1e-12
    rep = product_formula_check(Q.element(Fraction(6, 35)))
    assert rep.exact and rep.residual < 1e-12
    rep = product_formula_check(QI.element(2, 1))
    assert rep.exact and rep.residual < 1e-12


def test_product_formula_random():
    rng = random.Random(504)
    for _ in range(150):
        field = rng.choice([Q, QI, Q3, NumberField(5)])
        rep = product_formula_check(random_element(rng, field))
        assert rep.exact
        assert rep.residual < 1e-9


# ---------------------------------------------------------------- roots of unity

def test_roots_of_unity_listing():
    assert {str(x) for x in roots_of_unity(Q)} == {"1", "-1"}
    assert len(roots_of_unity(QI)) == 4
    assert len(roots_of_unity(Q3)) == 6
    assert len(roots_of_unity(NumberField(5))) == 2


def test_roots_of_unity_kernel_property():
    # every listed root: ord 0 everywhere, archimedean modulus 1
    for field in (Q, QI, Q3):
        for z in roots_of_unity(field):
            assert abs(z.norm()) == 1
            for p in (2, 3, 5, 7, 11):
                for v in places_over(field, p):
                    assert ord(z, v) == 0
    # sampled non-roots fail
    rng = random.Random(505)
    for _ in range(100):
        field = rng.choice([Q, QI, Q3])
        x = random_element(rng, field)
        if any(x == z for z in roots_of_unity(field)):
            continue
        flat = abs(x.norm()) == 1 and all(
            ord(x, v) == 0 for p in (2, 3, 5, 7, 11, 13) for v in places_over(field, p)
        )
        if flat:
            # norm-1 elements of an imaginary quadratic are roots of unity; must not happen
            assert False, f"unexpected unit {x}"


def test_power_identities():
    i = QI.omega()
    assert (i ** 4).is_one()
    assert (i ** -1) == -i
    w = Q3.omega()
    assert (w ** 6).is_one() and not (w ** 3).is_one()


def test_power_is_repeated_multiplication_within_the_squaring_budget():
    from functools import reduce

    from arithmeticoid.cohomology import _res_mul
    from arithmeticoid.numfield import power
    from arithmeticoid.padic import PadicScalar
    from arithmeticoid.szpiro import IDENTITY_2x2, _mat_mul

    def residue_mul(a, b):
        return _res_mul(a, b, Q3.omega_trace, Q3.omega_norm, 7 ** 4)

    cases = [
        (QI.element(Fraction(2, 3), -1), FieldElement.__mul__, QI.one()),
        (PadicScalar.from_fraction(Fraction(10, 3), 5, 8), PadicScalar.__mul__,
         PadicScalar(5, 0, 1, 8)),
        ((3, 5), residue_mul, (1, 0)),
        (((2, 1), (1, 1)), _mat_mul, IDENTITY_2x2),
        (((0, -1), (1, 3)), _mat_mul, IDENTITY_2x2),
    ]
    for x, mul, one in cases:
        for k in range(71):
            calls = []

            def counted(a, b):
                calls.append(1)
                return mul(a, b)

            assert power(x, k, counted, one) == reduce(mul, [x] * k, one), (x, k)
            assert len(calls) <= 2 * k.bit_length(), (x, k)
    with pytest.raises(ValueError):
        power(QI.one(), -1, FieldElement.__mul__, QI.one())


def test_divisor_support_has_one_home():
    from arithmeticoid import adelic, heights, numfield

    assert adelic.divisor_support is numfield.divisor_support
    assert heights.divisor_support is numfield.divisor_support


def test_no_module_imports_sympy():
    import ast
    from pathlib import Path

    import arithmeticoid

    def imports_sympy(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "sympy" for a in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"

    offenders = []
    for path in sorted(Path(arithmeticoid.__file__).parent.glob("*.py")):
        # ast.walk also reaches imports inside functions
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if imports_sympy(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_carrier_modules_call_no_isclose():
    """Carrier coordinates are exact, so their equality needs no tolerance."""
    import ast
    from pathlib import Path

    import arithmeticoid

    offenders = []
    for name in ("adelic.py", "ffcurve.py", "heights.py"):
        path = Path(arithmeticoid.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "isclose" in (getattr(func, "attr", None),
                                                              getattr(func, "id", None)):
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def test_cli_import_leaves_sympy_unloaded():
    code = ("import sys, arithmeticoid.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'sympy', 'mpmath'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------- number theory vs sympy

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
              5394826801, 232250619601, 9746347772161]
# strong pseudoprimes to the first 4, 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461,
                       numfield._MR_BOUND]
STRONG_LUCAS_PSEUDOPRIMES = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309]
PRIME_SQUARES = [p * p for p in (1009, 65537, 1000003, 10 ** 12 + 39, 10 ** 13 + 37)]
# within factorint's budget: every prime factor is below 10^8 or its square is n
ADVERSARIAL = [0, 1, 2, 3, 4, 997, 1009, 997 * 997, 1009 * 1013, 977024578892552268,
               (10 ** 12 + 39) ** 3, 1000003 ** 5 * 7, 2 ** 89 - 1, *CARMICHAEL,
               *STRONG_PSEUDOPRIMES[:2], *STRONG_LUCAS_PSEUDOPRIMES, *PRIME_SQUARES]


def _around_mr_bound():
    """Primes and composites on both sides of the Miller-Rabin bound."""
    from sympy import nextprime, prevprime

    b = numfield._MR_BOUND
    below, above = prevprime(b), nextprime(b)
    return [below, b - 1, b + 1, above, below * above, nextprime(10 ** 30) * nextprime(10 ** 31)]


@SETTINGS
@given(st.integers(-10, 10 ** 30))
def test_isprime_matches_sympy(n):
    from sympy import isprime as sympy_isprime

    assert numfield.isprime(n) == sympy_isprime(n)


def test_isprime_on_adversarial_inputs_and_both_sides_of_the_miller_rabin_bound():
    from sympy import isprime as sympy_isprime

    for n in [*ADVERSARIAL, *STRONG_PSEUDOPRIMES, *_around_mr_bound()]:
        assert numfield.isprime(n) == sympy_isprime(n), n
    assert not numfield.isprime(numfield._MR_BOUND)  # fools all 13 Miller-Rabin bases


def _free_of_trial_primes(n):
    """The least m >= n that no prime below 1000 divides."""
    while any(n % p == 0 for p in numfield._TRIAL_PRIMES):
        n += 1
    return n


@SETTINGS
@given(st.one_of(st.integers(10 ** 3, 10 ** 40).map(_free_of_trial_primes),
                 st.sampled_from(STRONG_LUCAS_PSEUDOPRIMES)))
@example(1093 ** 2)  # a square passes base 2 here, and has no Selfridge D
@example((10 ** 13 + 37) ** 2)
def test_strong_lucas_test_matches_sympy(n):
    from sympy.ntheory.primetest import is_strong_lucas_prp

    assert numfield._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n)


def _check_factorint(n):
    from sympy import factorint as sympy_factorint

    got = numfield.factorint(n)
    assert got == sympy_factorint(n), n
    assert list(got) == sorted(got), n


@SETTINGS
@given(st.one_of(st.integers(-10 ** 15, 10 ** 15),
                 st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4).map(math.prod)))
def test_factorint_matches_sympy_in_ascending_order(n):
    _check_factorint(n)


def test_factorint_on_adversarial_inputs():
    # the first four lie next to the bound and have no two factors above 10^8
    for n in [*ADVERSARIAL, *_around_mr_bound()[:4]]:
        _check_factorint(n)
    # sympy lists 88009829 before 71162257 here
    assert list(numfield.factorint(977024578892552268)) == [2, 3, 13, 71162257, 88009829]


def test_factorint_gives_up_at_its_budget():
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match=f"FACTOR_BUDGET = {numfield.FACTOR_BUDGET}"):
        numfield.factorint(10 ** 120 + 7)
    assert time.perf_counter() - t0 < 1.0
    # two primes near 10^13: rho needs about 3 * 10^6 steps, past the budget
    n = (10 ** 13 + 37) * (10 ** 13 + 51)
    with pytest.raises(FieldError, match=f"cannot factor {n}"):
        numfield.factorint(n)


@SETTINGS
@given(st.integers(0, 10 ** 7), st.integers(0, 3000))
@example(0, 3000)
@example(2, 1)
def test_primerange_matches_sympy(a, length):
    from sympy import primerange as sympy_primerange

    assert numfield.primerange(a, a + length) == list(sympy_primerange(a, a + length))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(numfield.primerange(2, 3000)))
@example(2)
@example(257)   # 2^8 + 1
@example(769)   # 3 * 2^8 + 1
@example(2689)  # 21 * 2^7 + 1
def test_sqrt_mod_matches_sympy_at_every_residue(p):
    from sympy.ntheory.residue_ntheory import sqrt_mod as sympy_sqrt_mod

    for a in range(p):
        assert numfield.sqrt_mod(a, p) == sympy_sqrt_mod(a, p), (a, p)


def test_split_roots_at_a_large_prime():
    # 998244353 = 119 * 2^23 + 1: Tonelli-Shanks runs through all 23 levels
    p = 998244353
    assert splitting_type(QI, p) == "split"
    r0, r1 = numfield._split_roots(QI, p)
    assert r0 < r1 and (r0 * r0 + 1) % p == 0 and (r1 * r1 + 1) % p == 0
