"""Independent oracles for the benchmark: plain integer and Fraction arithmetic.

Nothing here imports arithmeticoid. Each function recomputes, by a different
route than the library, a value that a benchmark op must reproduce.
"""

from __future__ import annotations

import math
from fractions import Fraction


def trial_factor(n: int) -> dict:
    """{prime: exponent} of |n| by trial division; {} for |n| = 1."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no factorization")
    out: dict = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def merge_factorizations(*facs: dict) -> dict:
    out: dict = {}
    for fac in facs:
        for p, m in fac.items():
            out[p] = out.get(p, 0) + m
    return out


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def quadratic_norm(a: Fraction, b: Fraction, d: int | None) -> Fraction:
    """N(a + b*omega) for Q (d None) or Q(sqrt(-d)); omega as in the integral basis."""
    if d is None:
        return a
    if d % 4 == 3:
        # omega = (1 + sqrt(-d))/2: omega^2 = omega - (1 + d)/4
        return a * a + a * b + b * b * ((1 + d) // 4)
    return a * a + b * b * d


def norm_exponents(a: Fraction, b: Fraction, d: int | None) -> dict:
    """{prime: ord_p |N(x)|} from trial division of the norm's numerator and denominator."""
    nrm = abs(quadratic_norm(a, b, d))
    out = dict(trial_factor(nrm.numerator))
    for p, m in trial_factor(nrm.denominator).items():
        out[p] = out.get(p, 0) - m
    return out


def weil_height(q: Fraction) -> float:
    """h(1 : a/b) = log max(|a|, |b|) over Q for a/b in lowest terms."""
    return math.log(max(abs(q.numerator), abs(q.denominator)))


def artin_hasse_residues(p: int, max_degree: int, precision: int) -> tuple:
    """Coefficients of exp(sum T^{p^j}/p^j) mod p^precision via n c_n = sum_j c_{n-p^j}."""
    exact = [Fraction(1)]
    for n in range(1, max_degree + 1):
        acc = Fraction(0)
        pj = 1
        while pj <= n:
            acc += exact[n - pj]
            pj *= p
        exact.append(acc / n)
    mod = p ** precision
    return tuple(c.numerator * pow(c.denominator, -1, mod) % mod for c in exact)


def fpk_mul(a: tuple, b: tuple, modulus: list, p: int) -> tuple:
    """Product in F_p[x]/(modulus) of little-endian coefficient tuples (modulus monic)."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            for j in range(k + 1):
                prod[top - k + j] = (prod[top - k + j] - c * modulus[j]) % p
    return tuple(prod[:k]) + (0,) * max(0, k - len(prod))


def scale_coeff(c: tuple, u: int, p: int) -> tuple:
    return tuple(x * u % p for x in c)


def series_product(x_terms: tuple, y_terms: tuple, cap: Fraction, p: int) -> tuple:
    """Terms of x*y below cap for coefficient tuples of length 1 (the field F_p)."""
    acc: dict = {}
    for ex, (cx,) in x_terms:
        for ey, (cy,) in y_terms:
            e = ex + ey
            if e < cap:
                acc[e] = (acc.get(e, 0) + cx * cy) % p
    return tuple(sorted((e, (c,)) for e, c in acc.items() if c))


def series_sum(x_terms: tuple, y_terms: tuple, cap: Fraction, p: int) -> tuple:
    """Terms of x+y below cap for coefficient tuples of length 1 (the field F_p)."""
    acc: dict = {}
    for e, (c,) in x_terms + y_terms:
        if e < cap:
            acc[e] = (acc.get(e, 0) + c) % p
    return tuple(sorted((e, (c,)) for e, c in acc.items() if c))


def _teichmueller(x: int, p: int, n: int) -> int:
    """The Teichmueller representative of x mod p, reduced mod p^n."""
    return pow(x, p ** (n - 1), p ** n)


def witt_to_int(digits, p: int) -> int:
    """W_N(F_p) = Z/p^N: (x_0, .., x_{N-1}) -> sum p^i [x_i], the ghost identification."""
    n = len(digits)
    return sum(p ** i * _teichmueller(x, p, n) for i, x in enumerate(digits)) % p ** n


def int_to_witt(c: int, p: int, n: int) -> tuple:
    """Inverse of witt_to_int: peel Teichmueller digits off c mod p^n."""
    digits = []
    c %= p ** n
    for m in range(n, 0, -1):
        x = c % p
        digits.append(x)
        c = ((c - _teichmueller(x, p, m)) // p) % p ** (m - 1) if m > 1 else 0
    return tuple(digits)


def mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _adjugate(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def surface_relation_holds(handles, punctures) -> bool:
    """prod [a_j, b_j] * prod gamma_s == 1 in SL2(Z)."""
    total = ((1, 0), (0, 1))
    for a, b in handles:
        comm = mat_mul(mat_mul(a, b), mat_mul(_adjugate(a), _adjugate(b)))
        total = mat_mul(total, comm)
    for g in punctures:
        total = mat_mul(total, g)
    return total == ((1, 0), (0, 1))


def irreducible_mod(mats, ell: int) -> bool:
    """No line of F_ell^2 is fixed by every matrix (exhaustive over P^1(F_ell))."""
    mats = [tuple(tuple(v % ell for v in row) for row in m) for m in mats]
    if not mats:
        return False
    for x, y in [(1, t) for t in range(ell)] + [(0, 1)]:
        fixed = True
        for (a, b), (c, d) in mats:
            # (x, y) is an eigenvector iff the image is proportional: det = 0
            if ((a * x + b * y) * y - (c * x + d * y) * x) % ell:
                fixed = False
                break
        if fixed:
            return False
    return True
