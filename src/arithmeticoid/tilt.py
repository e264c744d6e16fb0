"""Characteristic-p perfectoid model: Hahn series over F_{p^k} with rational exponents.

Elements are finite sorted exponent-to-coefficient maps below an exact rational
precision cap. The coefficient field is F_{p^k} (default k = 12) realized as
polynomial residues mod a deterministically chosen irreducible, so x -> x^p
is a bijection of F_{p^k}. On top of the series field: the Artin-Hasse
exponential, the Lubin-Tate unit action on 1 + m, Teichmueller lifts, and Witt
vectors of length <= 3 via universal sum/product polynomials solved once over
the integers by the ghost recursion.

`artin_hasse` runs Dwork's recurrence on integer residues mod
p^(precision + v_p(D!)), D the degree, not on Fractions: its coefficients are
p-integral, each division by p^k in the recurrence costs at most k digits, and
along any chain of indices <= D those costs add up to at most v_p(D!).

`evaluate_series` and `hahn_inv` run on one packed integer kernel
(`_packing`): exponents are ints over one common denominator, and each
F_{p^k} coefficient is one int of k W-bit slots, reduced once per output
exponent.  Each call chooses W from the largest sum a slot can hold, so no
slot carries into the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .numfield import isprime, power

DEFAULT_K = 12
DEFAULT_CAP = Fraction(64)


class TiltError(ValueError):
    """Domain violation in the characteristic-p model."""


def check_prime(p: int) -> None:
    """Reject a residue characteristic p that is not a prime."""
    if not isprime(p):
        raise TiltError(f"p must be a prime, got p = {p}")


# ---------------------------------------------------------------------------
# coefficient field F_{p^k}

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_reduce(out, f, p):
    """Reduce the residue list out mod the monic f in place, cut to deg f entries."""
    k = len(f) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * f[j]) % p
    del out[k:]
    return out


def _poly_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(_poly_reduce(out, f, p))


def _poly_gcd(a, b, p):
    """(g, t): g = gcd(a, b) over F_p, monic unless b = 0, and t·b ≡ g (mod a)."""
    a, b = list(a), list(b)
    s, t = [], [1]  # extended Euclid: s·b ≡ a and t·b ≡ b (mod the first a)
    while b:
        inv = pow(b[-1], -1, p)
        b = [(c * inv) % p for c in b]
        t = [(c * inv) % p for c in t]
        while len(a) >= len(b):
            c = a[-1]
            if c:
                shift = len(a) - len(b)
                for j in range(len(b)):
                    a[shift + j] = (a[shift + j] - c * b[j]) % p
                s += [0] * (shift + len(t) - len(s))
                for j in range(len(t)):
                    s[shift + j] = (s[shift + j] - c * t[j]) % p
            a.pop()
            _poly_trim(a)
            if not a:
                break
        a, b, s, t = b, a, t, _poly_trim(s)
    return a, s


def _is_irreducible(f, p):
    k = len(f) - 1
    x = [0, 1]
    mulmod = partial(_poly_mulmod, f=f, p=p)
    x_red = mulmod([1], x)  # x reduced mod f (differs for k = 1)
    if power(x, p ** k, mulmod, [1]) != x_red:
        return False
    for q in (d for d in range(2, k + 1) if k % d == 0 and isprime(d)):
        h = power(x, p ** (k // q), mulmod, [1])
        diff = list(h)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g, _ = _poly_gcd(f, _poly_trim(diff), p)
        if len(g) - 1 > 0:
            return False
    return True


@lru_cache(maxsize=None)
def coeff_field(p: int, k: int = DEFAULT_K) -> "CoeffField":
    return CoeffField(p, k)


class CoeffField:
    """F_{p^k} as residues mod the first irreducible monic of degree k.

    Elements are coefficient tuples of length k (little-endian); the modulus is
    found by scanning constant-first, so the choice is deterministic.
    """

    def __init__(self, p: int, k: int):
        check_prime(p)
        if k < 1:
            raise TiltError(f"bad coefficient field degree k={k}")
        self.p = p
        self.k = k
        self.modulus = self._find_modulus()
        self.zero = (0,) * k
        self.one = tuple([1] + [0] * (k - 1))

    def _find_modulus(self):
        p, k = self.p, self.k
        c = 0
        while True:
            digits, n = [], c
            for _ in range(k):
                n, r = divmod(n, p)
                digits.append(r)
            f = digits + [1]
            if _is_irreducible(f, p):
                return f
            c += 1
            if c > p ** k:
                raise TiltError("no irreducible modulus found")  # unreachable

    def _pad(self, a):
        return tuple(list(a) + [0] * (self.k - len(a)))

    def from_int(self, c: int):
        return self._pad([c % self.p])

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return self._pad(_poly_mulmod(_poly_trim(list(a)), _poly_trim(list(b)), self.modulus, self.p))

    def pow(self, a, e: int):
        mulmod = partial(_poly_mulmod, f=self.modulus, p=self.p)
        return self._pad(power(_poly_trim(list(a)), e, mulmod, [1]))

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0 in F_{p^k}")
        # the modulus is irreducible, so gcd(modulus, a) = 1 = t·a mod modulus
        _, t = _poly_gcd(self.modulus, _poly_trim(list(a)), self.p)
        return self._pad(t)


# ---------------------------------------------------------------------------
# Hahn series

@dataclass(frozen=True)
class HahnSeries:
    """Finite-support series sum c_e t^e, exponents rational and below cap."""

    p: int
    k: int
    terms: tuple  # ((Fraction exponent, coeff tuple), ...) strictly increasing
    cap: Fraction

    @property
    def field(self) -> CoeffField:
        return coeff_field(self.p, self.k)

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Fraction | None:
        """Least exponent, or None for the (truncation-)zero series."""
        return self.terms[0][0] if self.terms else None

    def leading(self):
        if not self.terms:
            raise TiltError("zero series has no leading term")
        return self.terms[0]


def _check_compatible(x: HahnSeries, y: HahnSeries):
    if x.p != y.p or x.k != y.k:
        raise TiltError("mixed coefficient fields")


def hahn(p: int, terms: dict, cap=DEFAULT_CAP, k: int = DEFAULT_K) -> HahnSeries:
    """Normalize a {exponent: coeff} map: drop zeros and over-cap terms, sort."""
    fld = coeff_field(p, k)
    cap = Fraction(cap)
    norm = []
    for e, c in terms.items():
        e = Fraction(e)
        if isinstance(c, int):
            c = fld.from_int(c)
        if c != fld.zero and e < cap:
            norm.append((e, tuple(c)))
    norm.sort(key=lambda t: t[0])
    return HahnSeries(p, k, tuple(norm), cap)


def hahn_zero(p: int, cap=DEFAULT_CAP, k: int = DEFAULT_K) -> HahnSeries:
    return hahn(p, {}, cap, k)


def hahn_one(p: int, cap=DEFAULT_CAP, k: int = DEFAULT_K) -> HahnSeries:
    return hahn(p, {Fraction(0): 1}, cap, k)


def monomial(p: int, exponent, coeff=1, cap=DEFAULT_CAP, k: int = DEFAULT_K) -> HahnSeries:
    return hahn(p, {Fraction(exponent): coeff}, cap, k)


def hahn_add(x: HahnSeries, y: HahnSeries) -> HahnSeries:
    _check_compatible(x, y)
    fld = x.field
    cap = min(x.cap, y.cap)
    acc = dict(x.terms)
    for e, c in y.terms:
        acc[e] = fld.add(acc.get(e, fld.zero), c)
    return hahn(x.p, acc, cap, x.k)


def hahn_neg(x: HahnSeries) -> HahnSeries:
    fld = x.field
    return HahnSeries(x.p, x.k, tuple((e, fld.neg(c)) for e, c in x.terms), x.cap)


def hahn_scale(x: HahnSeries, c) -> HahnSeries:
    fld = x.field
    if isinstance(c, int):
        c = fld.from_int(c)
    return hahn(x.p, {e: fld.mul(a, c) for e, a in x.terms}, x.cap, x.k)


def _val_or_cap(x: HahnSeries) -> Fraction:
    v = x.valuation()
    return v if v is not None else x.cap


def hahn_mul(x: HahnSeries, y: HahnSeries) -> HahnSeries:
    _check_compatible(x, y)
    fld = x.field
    cap = min(x.cap + _val_or_cap(y), y.cap + _val_or_cap(x))
    acc: dict = {}
    for ex, cx in x.terms:
        for ey, cy in y.terms:
            e = ex + ey
            if e >= cap:
                continue
            c = fld.mul(cx, cy)
            prev = acc.get(e)
            acc[e] = fld.add(prev, c) if prev is not None else c
    return hahn(x.p, acc, cap, x.k)


def hahn_pow(x: HahnSeries, n: int) -> HahnSeries:
    if n < 0:
        return hahn_pow(hahn_inv(x), -n)
    if n == 0:
        return hahn_one(x.p, x.cap, x.k)
    out, base = None, x
    while True:
        if n & 1:
            out = base if out is None else hahn_mul(out, base)
        n >>= 1
        if not n:
            return out
        base = hahn_mul(base, base)


def _packing(fld: CoeffField, cap: Fraction, exponents, bound: int):
    """The packed integer kernel of one series computation over F_{p^k}.

    Kronecker substitution (von zur Gathen & Gerhard, Modern Computer Algebra,
    §8.4): each exponent becomes an int over L, the lcm of the denominators of
    cap and of exponents, and top = cap·L.  Each coefficient becomes one int
    with its k residues in W-bit slots, W the least width with 2^W > bound, so
    the product of two coefficients is one int multiply and a sum of products
    carries from no slot into the next as long as no slot passes bound.
    Returns (L, top, pack, reduce): pack maps residues to that int, and reduce
    maps such a sum back to k residues, every slot mod p and then one fold by
    the monic modulus.
    """
    p, f = fld.p, fld.modulus
    L = math.lcm(cap.denominator, *(e.denominator for e in exponents))
    top = cap.numerator * (L // cap.denominator)
    W = bound.bit_length()
    mask = (1 << W) - 1
    shifts = range(0, W * (2 * fld.k - 1), W)

    def pack(c):
        return sum(x << w for x, w in zip(c, shifts))

    def reduce(v):
        return _poly_reduce([(v >> w & mask) % p for w in shifts], f, p)

    return L, top, pack, reduce


def hahn_inv(x: HahnSeries) -> HahnSeries:
    """1/x below cap(x) − 2·valuation(x), by power-series division.

    Write x = c·t^a·(1 + u) with val(u) > 0.  Then 1/x = c^{-1}·t^{-a}·Σ g_e t^e
    with g_0 = 1 and g_e = −Σ_d u_d·g_{e−d} over u's exponents d (Knuth,
    TAOCP vol. 2, §4.7).  The e below cap(x) − a are the sums of u's
    exponents; each is visited once, in increasing order, so M of them cost
    M·|u| packed products.  A slot of one such sum is at most |u|·k·(p−1)²,
    and of the final product by c^{-1} at most k·(p−1)², so W is the least
    width with 2^W > max(1, |u|)·k·(p−1)².
    """
    if x.is_zero():
        raise ZeroDivisionError("inverse of the zero series")
    p, k = x.p, x.k
    fld = x.field
    a, c = x.leading()
    L, top, pack, reduce = _packing(fld, x.cap, [e for e, _ in x.terms],
                                    max(1, len(x.terms) - 1) * k * (p - 1) ** 2)
    lead = a.numerator * (L // a.denominator)
    top -= lead
    cinv = pack(fld.inv(c))
    # −u, at exponents over L relative to the lead, increasing
    step = [(e.numerator * (L // e.denominator) - lead, pack(reduce(pack(fld.neg(cc)) * cinv)))
            for e, cc in x.terms[1:]]
    exps = frontier = {0}
    while frontier:
        frontier = {e + d for e in frontier for d, _ in step if e + d < top} - exps
        exps |= frontier
    g = {0: 1}  # the nonzero g_e, packed and reduced
    for e in sorted(exps)[1:]:
        v = 0
        for d, s in step:
            if d > e:
                break
            prev = g.get(e - d)
            if prev:
                v += s * prev
        r = reduce(v)
        if any(r):
            g[e] = pack(r)
    # g and c^{-1} are nonzero, so every product is: no term drops out
    return HahnSeries(p, k, tuple((Fraction(e - lead, L), tuple(reduce(v * cinv)))
                                  for e, v in g.items()), x.cap - 2 * a)


def frobenius(x: HahnSeries) -> HahnSeries:
    fld = x.field
    return HahnSeries(
        x.p, x.k,
        tuple((e * x.p, fld.pow(c, x.p)) for e, c in x.terms),
        x.cap * x.p,
    )


# ---------------------------------------------------------------------------
# Artin-Hasse exponential as a Z_p coefficient series

@dataclass(frozen=True)
class ZpSeries:
    """sum c_n T^n with c_n held as residues mod p^precision."""

    p: int
    precision: int
    max_degree: int
    coeffs: tuple  # c_0 .. c_max_degree, ints in [0, p^precision)

    def coefficient(self, n: int) -> int:
        return self.coeffs[n]


def artin_hasse(p: int, max_degree: int, coeff_precision: int) -> ZpSeries:
    """AH(T) = exp(sum T^{p^i}/p^i) through T^D, D = max_degree, its coefficients
    verified p-integral and reduced mod p^precision.

    T d/dT turns the exponential into Dwork's recurrence
    n c_n = sum_{p^i <= n} c_{n - p^i}, with c_0 = 1, and Dwork's lemma makes
    every c_n p-integral.  The recurrence runs on residues mod
    W = p^(precision + v_p(D!)): for n = p^k·m with p ∤ m, the sum is divided
    by p^k exactly and multiplied by m^{-1} mod W.  A division by p^k leaves a
    residue right to k fewer digits than the sum, and c_n reaches back to c_0
    through a chain of distinct indices <= D, which lose at most
    sum_{n <= D} v_p(n) = v_p(D!) digits in all.  So every residue is right
    mod p^precision, and a sum that p^k does not divide raises TiltError.
    """
    check_prime(p)
    if max_degree < 1:
        raise TiltError("max_degree must be >= 1")
    lost, q = 0, p  # v_p(D!) by Legendre's formula
    while q <= max_degree:
        lost += max_degree // q
        q *= p
    mod = p ** coeff_precision
    work = mod * p ** lost
    out = [1]
    for n in range(1, max_degree + 1):
        acc, q = 0, 1
        while q <= n:
            acc += out[n - q]
            q *= p
        m, pk = n, 1
        while m % p == 0:
            m //= p
            pk *= p
        if acc % pk:
            raise TiltError(f"Artin-Hasse coefficient of T^{n} is not {p}-integral")
        out.append(acc // pk * pow(m, -1, work) % work)
    return ZpSeries(p, coeff_precision, max_degree, tuple(c % mod for c in out))


def evaluate_series(s: ZpSeries, a: HahnSeries) -> HahnSeries:
    """sum (c_n mod p) a^n below min(cap(a), (D+1)·valuation(a)), D = max_degree;
    needs valuation(a) > 0 for convergence of the truncation.

    The power loop runs on the packed kernel of `_packing`.  a^(n-1)·a sums
    the products per output exponent unreduced and reduces each sum once.  A
    slot of such a sum is at most |a|·k·(p−1)², and a slot of the running sum
    of c_n·a^n at most (D+1)·(p−1)², so W is the least width with
    2^W > max(|a|·k·(p−1)², (D+1)·(p−1)²).
    """
    if s.p != a.p:
        raise TiltError("series and argument primes differ")
    p, k = a.p, a.k
    if a.is_zero():
        return hahn(p, {Fraction(0): s.coeffs[0]}, a.cap, k)
    va = a.valuation()
    if va <= 0:
        raise TiltError("evaluate_series needs valuation(a) > 0")
    D = s.max_degree
    cap = min(a.cap, (D + 1) * va)
    # every exponent of a^n is a multiple of 1/L; terms at or past the cap
    # only feed terms past it, since every exponent of a is positive
    L, top, pack, reduce = _packing(a.field, cap, [e for e, _ in a.terms],
                                    max(len(a.terms) * k, D + 1) * (p - 1) ** 2)
    base = [(e.numerator * (L // e.denominator), pack(c)) for e, c in a.terms]
    base = [(e, c) for e, c in base if e < top]
    acc = {0: s.coeffs[0] % p}  # packed, reduced only at the end
    a_n = [(0, 1)]
    for n in range(1, D + 1):
        sums: dict = {}
        for e1, x in a_n:
            for e2, y in base:
                e = e1 + e2
                if e >= top:
                    break
                sums[e] = sums.get(e, 0) + x * y
        a_n = []
        for e, v in sums.items():
            c = reduce(v)
            if any(c):
                a_n.append((e, pack(c)))
        if not a_n:
            break
        c = s.coeffs[n] % p
        if c:
            for e, x in a_n:
                acc[e] = acc.get(e, 0) + x * c
    return hahn(p, {Fraction(e, L): tuple(reduce(v)) for e, v in acc.items()}, cap, k)


def lubin_tate_digits(p: int, valuation: Fraction, cap: Fraction) -> int:
    """The base-p digits of u that [u](a) reads at valuation(a) > 0: the fewest,
    at least one, that put the truncation error at p^digits·valuation(a) >= cap."""
    digits = 1
    while p ** digits * valuation < cap:
        digits += 1
    return digits


def lubin_tate_act(u, a: HahnSeries) -> HahnSeries:
    """[u](a) = (1+a)^u - 1 for p-integral u, via base-p digits of u.

    (1+a)^{p^i} is the i-fold Frobenius of 1+a, so the action is an exact finite
    product of small powers over the fewest digits that put the truncation
    error, at valuation p^precision * valuation(a), past the cap. Units act
    invertibly and preserve valuation (leading term u*a); non-unit integers
    are still honest endomorphisms, only u with p in the denominator is
    rejected.
    """
    p = a.p
    if a.is_zero():
        return a
    va = a.valuation()
    if va <= 0:
        raise TiltError("lubin_tate_act needs valuation(a) > 0")
    precision = lubin_tate_digits(p, va, a.cap)
    mod = p ** precision
    u = Fraction(u)
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


# ---------------------------------------------------------------------------
# Witt vectors of length <= 3

MAX_WITT_LENGTH = 3
# Largest expansion degree p^(N-1) that witt_universal accepts.  The integer
# solve is not what limits it: on a 2-vCPU VM, (7, 3) at degree 49 takes
# 0.02 s, (113, 2) 0.014 s and (11, 3) at degree 121 0.3 s.  Evaluating the
# polynomials on Hahn series is: S_2 has 468 terms at p = 7 but 2,672 at
# p = 11, where witt_add on two Teichmueller lifts of two-term series takes
# 2.1 s against 0.18 s, and `tilt witt-check` 2.2 s against 0.9 s.
MAX_WITT_DEGREE = 120


@dataclass(frozen=True)
class WittExpansion:
    """Witt vector (x_0, ..., x_{N-1}) of Hahn-series components, N <= 3."""

    p: int
    components: tuple  # of HahnSeries

    @property
    def length(self) -> int:
        return len(self.components)


def _int_poly_mul(a: dict, b: dict) -> dict:
    """Product of integer polynomials held as {exponent tuple: int}."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def witt_universal(p: int, N: int):
    """Integer sum/product polynomials S_n, P_n solved from ghost components.

    With the ghost components w_n(Z) = sum_{i<=n} p^i Z_i^(p^(n-i)), the ghost
    recursion S_n = (w_n(X) + w_n(Y) - sum_{i<n} p^i S_i^(p^(n-i))) / p^n is
    an exact integer division, and likewise P_n from w_n(X) * w_n(Y).

    Returns (sums, prods): each a list of N term-lists [(coeff, exponents)] in
    the 2N variables x_0..x_{N-1}, y_0..y_{N-1}, exponent tuples descending.
    """
    check_prime(p)
    if N > MAX_WITT_LENGTH:
        raise TiltError(f"Witt length {N} > {MAX_WITT_LENGTH} unsupported")
    if p ** (N - 1) > MAX_WITT_DEGREE:
        raise TiltError(f"Witt length {N} at p = {p} needs expansion degree "
                        f"{p ** (N - 1)} > {MAX_WITT_DEGREE}")
    one = {(0,) * (2 * N): 1}

    def ghost(offset, n):  # variables offset .. offset + n
        return {tuple(p ** (n - i) if j == offset + i else 0 for j in range(2 * N)): p ** i
                for i in range(n + 1)}

    def solve(target, lower, n):
        acc = dict(target)
        for i, q in enumerate(lower):
            for e, c in power(q, p ** (n - i), _int_poly_mul, one).items():
                acc[e] = acc.get(e, 0) - p ** i * c
        return {e: c // p ** n for e, c in acc.items() if c}

    sums, prods = [], []
    for n in range(N):
        gx, gy = ghost(0, n), ghost(N, n)
        sums.append(solve({**gx, **gy}, sums, n))  # disjoint monomials
        prods.append(solve(_int_poly_mul(gx, gy), prods, n))

    def term_list(q):
        return [(c, e) for e, c in sorted(q.items(), reverse=True)]

    return [term_list(q) for q in sums], [term_list(q) for q in prods]


def _check_witt_pair(x: WittExpansion, y: WittExpansion):
    if x.p != y.p:
        raise TiltError("mixed primes in Witt arithmetic")
    if x.length != y.length:
        raise TiltError("mixed Witt lengths")
    if x.length > MAX_WITT_LENGTH:
        raise TiltError(f"Witt length {x.length} > {MAX_WITT_LENGTH} unsupported")


def _eval_witt_poly(terms, xs, ys, p, k, cap):
    """Evaluate an integer polynomial term list on Hahn components in char p."""
    vals = list(xs) + list(ys)
    power_cache: dict = {}

    def var_pow(i, e):
        key = (i, e)
        if key not in power_cache:
            power_cache[key] = hahn_pow(vals[i], e)
        return power_cache[key]

    acc = hahn_zero(p, cap, k)
    for coeff, exps in terms:
        c = coeff % p
        if not c:
            continue
        term = None  # S_n and P_n have no constant monomial
        for i, e in enumerate(exps):
            if e:
                factor = var_pow(i, e)
                term = factor if term is None else hahn_mul(term, factor)
        acc = hahn_add(acc, hahn_scale(term, c))
    return hahn(p, dict(acc.terms), cap, k)


def _common_cap(x: WittExpansion, y: WittExpansion | None = None) -> Fraction:
    caps = [c.cap for c in x.components]
    if y is not None:
        caps += [c.cap for c in y.components]
    return min(caps)


def _witt_op(x: WittExpansion, y: WittExpansion, pick) -> WittExpansion:
    """Evaluate on x, y the universal polynomials pick(sums, prods) names."""
    _check_witt_pair(x, y)
    polys = pick(*witt_universal(x.p, x.length))
    k = x.components[0].k
    cap = _common_cap(x, y)
    return WittExpansion(x.p, tuple(_eval_witt_poly(q, x.components, y.components, x.p, k, cap)
                                    for q in polys))


def witt_add(x: WittExpansion, y: WittExpansion) -> WittExpansion:
    return _witt_op(x, y, lambda sums, prods: sums)


def witt_mul(x: WittExpansion, y: WittExpansion) -> WittExpansion:
    return _witt_op(x, y, lambda sums, prods: prods)


def witt_neg(x: WittExpansion) -> WittExpansion:
    """Solve x + z = 0 componentwise: S_n is X_n + Y_n plus lower-index terms."""
    sums, _ = witt_universal(x.p, x.length)
    k = x.components[0].k
    cap = _common_cap(x)
    zs: list = []
    for n in range(x.length):
        # drop the bare X_n and Y_n monomials, evaluate the rest at (x, z-so-far)
        unit_x = tuple(1 if i == n else 0 for i in range(2 * x.length))
        unit_y = tuple(1 if i == x.length + n else 0 for i in range(2 * x.length))
        rest = [(c, e) for c, e in sums[n] if e not in (unit_x, unit_y)]
        pad = [hahn_zero(x.p, cap, k)] * (x.length - n)
        g = _eval_witt_poly(rest, x.components, tuple(zs) + tuple(pad), x.p, k, cap)
        zs.append(hahn_neg(hahn_add(x.components[n], g)))
    return WittExpansion(x.p, tuple(zs))


def teichmueller_lift(a: HahnSeries, N: int) -> WittExpansion:
    """[a] = (a, 0, ..., 0); needs a in the valuation ring."""
    if N > MAX_WITT_LENGTH:
        raise TiltError(f"Witt length {N} > {MAX_WITT_LENGTH} unsupported")
    va = a.valuation()
    if va is not None and va < 0:
        raise TiltError("Teichmueller lift needs valuation >= 0")
    comps = [a] + [hahn_zero(a.p, a.cap, a.k) for _ in range(N - 1)]
    return WittExpansion(a.p, tuple(comps))


def witt_one(p: int, N: int, cap=DEFAULT_CAP, k: int = DEFAULT_K) -> WittExpansion:
    return teichmueller_lift(hahn_one(p, cap, k), N)


def witt_int(c: int, p: int, N: int, cap=DEFAULT_CAP, k: int = DEFAULT_K) -> WittExpansion:
    """c * 1 in the Witt ring by repeated addition; intended for small |c|."""
    one = witt_one(p, N, cap, k)
    zero = WittExpansion(p, tuple(hahn_zero(p, cap, k) for _ in range(N)))
    acc = zero
    for _ in range(abs(c)):
        acc = witt_add(acc, one)
    return witt_neg(acc) if c < 0 else acc


def primitive_element(a: HahnSeries, N: int) -> WittExpansion:
    """[a] - p, the degree-one primitive element attached to a."""
    return witt_add(teichmueller_lift(a, N), witt_int(-a.p, a.p, N, a.cap, a.k))
