"""Exact places, valuations, and absolute values over Q and imaginary quadratics.

The one home of exact integer arithmetic: `power`, `_int_valuation`,
`_log_fraction`, `divisor_support` and the elementary number theory (a
segmented sieve `primerange`, `isprime`, Tonelli-Shanks `sqrt_mod`, and
`factorint` under a Pollard-Brent step budget) live here, on Python ints
alone; other modules import them from here.

Supported base fields are Q and Q(sqrt(-d)) for squarefree d > 0. An element
is (A + B*omega)/D in the integral basis (1, omega), where
omega = (1 + sqrt(-d))/2 when d = 3 (mod 4) and omega = sqrt(-d) otherwise,
stored as three ints over one denominator D > 0 with gcd(A, B, D) = 1: field
arithmetic, norms and valuations run on ints, and the Fraction coordinates
a = A/D and b = B/D are built only when read.  The `FieldElement` constructor
rejects any other form; `NumberField.element` and the arithmetic build through
`_make`, which skips that check because they reduce as they go.
A sum of log-absolute values is a `LogForm`: exact Fraction coefficients of
log p plus the log of a rational modulus (|N x| for principal data), so
whether it vanishes is decided exactly and floats appear only in display.

The canonical place order lives here too: the archimedean place first, then
the finite places by (prime, conjugate_index).  `place_key` sorts by it, and one
cached per-field enumeration answers `places_up_to`, `canonical_place_list`
and `place_index`.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress


class FieldError(ValueError):
    """Unsupported field kind or malformed element."""


class InfiniteOrder(ValueError):
    """Valuation requested for the zero element."""


def power(x, k: int, mul, one):
    """x^k for k >= 0 by square-and-multiply, without the final unused squaring."""
    if k < 0:
        raise ValueError(f"power needs k >= 0, got k = {k}")
    out = one
    while True:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


# ---------------------------------------------------------------------------
# elementary number theory: sieve, primality, square roots mod p, factorization
# (Crandall-Pomerance, Prime Numbers, ch. 3 and 5)

def primerange(a: int, b: int) -> list[int]:
    """The primes p with a <= p < b, ascending: the segment [a, b) is sieved by
    the base primes up to sqrt(b), which come from the same sieve."""
    a = max(a, 2)
    if b <= a:
        return []
    flags = bytearray([1]) * (b - a)
    for p in primerange(2, math.isqrt(b - 1) + 1):
        start = max(p * p, -(-a // p) * p) - a
        flags[start::p] = bytes(len(range(start, b - a, p)))
    return list(compress(range(a, b), flags))


_TRIAL_PRIMES = tuple(primerange(2, 1000))
_MR_BASES = _TRIAL_PRIMES[:13]  # 2, 3, ..., 41
# the least strong pseudoprime to all 13 bases (Sorenson-Webster 2015)
_MR_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: odd n > a is a strong probable prime to base a."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 1 that is
    free of the trial primes: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1 and Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1

    def half(x):
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k, Q^k for k running over the leading bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Primality: trial division, then Miller-Rabin to the first 13 prime bases,
    which is deterministic below _MR_BOUND, and BPSW (a strong base-2 test plus
    a strong Lucas test) from there on."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_PRIMES[-1] ** 2:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def sqrt_mod(a: int, p: int) -> int | None:
    """The least r in [0, p) with r^2 = a (mod p) for a prime p, or None
    (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(a, (q + 1) // 2, p), pow(a, q, p)
    while t != 1:
        # the least i with t^(2^i) = 1, then fold the root of unity 2^(s-i-1) in
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return min(r, p - r)


# Pollard-Brent steps one factorint call may spend.  Rho needs about sqrt(p)
# steps to find a prime factor p, so this budget reliably finds every factor
# below 10^8: no failure in 200 semiprimes p*q with p in [10^7, 10^8) and
# q > 100p, while 3 in 200 failed with p in [10^8, 10^9).  Spent in full on a
# 400-bit composite (10^120 + 7) it takes about 0.15 s (Python 3.11, 2 vCPUs).
FACTOR_BUDGET = 2 ** 17


def _pollard_brent(n: int, c: int, budget: int) -> tuple[int, int]:
    """(g, steps used) along y -> y^2 + c mod the composite n, by Brent's cycle
    search with gcds batched over 128 steps: g is a proper factor, n when this
    c fails, and 1 when the next round would pass the step budget."""
    y, g, q, r, used = 2, 1, 1, 1, 0
    while g == 1:
        if used + 2 * r > budget:
            return 1, used
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            k += 128
        used += 2 * r
        r *= 2
    if g == n:
        # the batch overshot: replay it one gcd at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return g, used


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(m, k) with m^k = n and k a prime, for n free of the trial primes."""
    for k in _TRIAL_PRIMES:
        if _TRIAL_PRIMES[-1] ** k > n:
            return None
        m = _iroot(n, k)
        if m ** k == n:
            return m, k
    return None


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factorint(n: int) -> dict[int, int]:
    """prime -> multiplicity of an integer, primes ascending (-1 for n < 0, and
    {0: 1} for n = 0).  Trial division by the primes below 1000, then
    Pollard-Brent within FACTOR_BUDGET steps; FieldError when they run out."""
    if n == 0:
        return {0: 1}
    out: dict[int, int] = {-1: 1} if n < 0 else {}
    rest = abs(n)
    for p in _TRIAL_PRIMES:
        if p * p > rest:
            break
        if rest % p == 0:
            m = 0
            while rest % p == 0:
                rest //= p
                m += 1
            out[p] = m
    found: dict[int, int] = {}
    stack, spent = ([(rest, 1)] if rest > 1 else []), 0
    while stack:
        m, mult = stack.pop()
        if isprime(m):
            found[m] = found.get(m, 0) + mult
            continue
        root = _perfect_power(m)
        if root is not None:
            stack.append((root[0], mult * root[1]))
            continue
        g, c = m, 1
        while g == m:
            g, used = _pollard_brent(m, c, FACTOR_BUDGET - spent)
            spent += used
            c += 1
        if g == 1:
            # str() of more than 4300 digits raises, so a huge n goes by its size
            name = n if n.bit_length() < 10000 else f"a {n.bit_length()}-bit integer"
            raise FieldError(f"cannot factor {name}: no factor of a composite part found "
                             f"within FACTOR_BUDGET = {FACTOR_BUDGET} Pollard-Brent steps")
        stack += [(g, mult), (m // g, mult)]
    out.update(sorted(found.items()))
    return out


def _squarefree(n: int) -> bool:
    for q, m in factorint(n).items():
        if m > 1:
            return False
    return True


_FIELD_RE = re.compile(r"^Q(?:\(sqrt\((-\d+)\)\))?$")
_ZERO = Fraction(0)  # a form's zero coefficient


@dataclass(frozen=True)
class NumberField:
    """Q (d is None) or the imaginary quadratic field Q(sqrt(-d))."""

    d: int | None = None

    def __post_init__(self):
        if self.d is not None:
            if self.d <= 0:
                raise FieldError(f"need squarefree d > 0, got d = {self.d}")
            if not _squarefree(self.d):
                raise FieldError(f"d = {self.d} is not squarefree")

    @property
    def degree(self) -> int:
        return 1 if self.d is None else 2

    @property
    def discriminant(self) -> int:
        if self.d is None:
            return 1
        return -self.d if self.d % 4 == 3 else -4 * self.d

    @property
    def half_basis(self) -> bool:
        # omega = (1 + sqrt(-d))/2 exactly when d = 3 (mod 4)
        return self.d is not None and self.d % 4 == 3

    @property
    def omega_trace(self) -> int:
        return 1 if self.half_basis else 0

    @property
    def omega_norm(self) -> int:
        if self.d is None:
            return 0
        return (1 + self.d) // 4 if self.half_basis else self.d

    @classmethod
    def parse(cls, text: str) -> "NumberField":
        m = _FIELD_RE.match(text.strip())
        if not m:
            raise FieldError(f"cannot parse field {text!r}; expected Q or Q(sqrt(-d))")
        if m.group(1) is None:
            return cls(None)
        return cls(-int(m.group(1)))

    def element(self, a, b=0) -> "FieldElement":
        """a + b*omega for int or Fraction coordinates a and b; anything else,
        a float included, raises FieldError, since a float's binary value is not
        the number it prints.  With b = 0 no gcd is taken: a's denominator is D."""
        for c in (a, b):
            if not isinstance(c, (int, Fraction)):
                raise FieldError(f"an element coordinate must be an int or a Fraction, got {c!r}")
        if not b:
            return _make(self, a.numerator, 0, a.denominator)
        if self.d is None:
            raise FieldError("Q element with nonzero omega coordinate")
        # over the lcm of the denominators, A, B and D share no prime
        da, db = a.denominator, b.denominator
        D = math.lcm(da, db)
        return _make(self, a.numerator * (D // da), b.numerator * (D // db), D)

    def one(self) -> "FieldElement":
        return self.element(1)

    def omega(self) -> "FieldElement":
        if self.d is None:
            raise FieldError("Q has no quadratic generator")
        return self.element(0, 1)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt(-{self.d}))"


@dataclass(frozen=True, slots=True)
class FieldElement:
    """(A + B*omega)/D for ints A, B, D with D > 0 and gcd(A, B, D) = 1, so
    each element has one form and equality and hashing compare ints; B = 0
    over Q.  `a` and `b` are the coordinates as Fractions (Cohen, GTM 138,
    sec. 4.2).

    The one form is a hard rule: `FieldElement(field, A, B, D)` raises
    FieldError for any other triple, so `FieldElement(Q, 2, 0, 4)` never
    stands beside `Q.element(Fraction(1, 2))` unequal to it.  Build elements
    from coordinates with NumberField.element."""

    field: NumberField
    A: int
    B: int
    D: int

    def __post_init__(self):
        A, B, D = self.A, self.B, self.D
        if D <= 0 or math.gcd(A, B, D) != 1 or (B and self.field.d is None):
            raise FieldError(f"({A} + {B}*omega)/{D} is not the reduced form of "
                             f"an element of {self.field}; build it with NumberField.element")

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    def is_zero(self) -> bool:
        return not (self.A or self.B)

    def conjugate(self) -> "FieldElement":
        # omega-bar = trace(omega) - omega; gcd(A + t*B, B, D) = gcd(A, B, D) = 1
        return _make(self.field, self.A + self.B * self.field.omega_trace, -self.B, self.D)

    def norm_ints(self) -> tuple[int, int]:
        """N(A + B*omega) and D^degree: the numerator and denominator of the
        norm, not reduced; for (1 + i)/2 they are 2 and 4."""
        A, B, field = self.A, self.B, self.field
        if field.d is None:
            return A, self.D
        return A * A + A * B * field.omega_trace + B * B * field.omega_norm, self.D * self.D

    def norm(self) -> Fraction:
        return Fraction(*self.norm_ints())

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        D, F = self.D, other.D
        return _reduced(self.field, self.A * F + other.A * D, self.B * F + other.B * D, D * F)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        D, F = self.D, other.D
        return _reduced(self.field, self.A * F - other.A * D, self.B * F - other.B * D, D * F)

    def __neg__(self) -> "FieldElement":
        return _make(self.field, -self.A, -self.B, self.D)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        field = self.field
        A, B, C, E = self.A, self.B, other.A, other.B
        # omega^2 = t*omega - n
        BE = B * E
        return _reduced(field, A * C - BE * field.omega_norm,
                        A * E + B * C + BE * field.omega_trace, self.D * other.D)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        if self.field.d is None:
            return _reduced(self.field, self.D, 0, self.A)
        # 1/x = D * conj(A + B*omega) / N(A + B*omega)
        c = self.conjugate()
        return _reduced(self.field, c.A * self.D, c.B * self.D, self.norm_ints()[0])

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k, FieldElement.__mul__, self.field.one())

    def _check(self, other: "FieldElement"):
        if self.field != other.field:
            raise FieldError("mixed-field arithmetic")

    def __str__(self) -> str:
        a = self.a
        if self.B == 0:
            return str(a)
        sign, mag = ("+", self.b) if self.B > 0 else ("-", -self.b)
        w = "w" if mag == 1 else f"{mag}*w"
        if self.A == 0:
            return w if sign == "+" else f"-{w}"
        return f"{a}{sign}{w}"


_set_field, _set_A, _set_B, _set_D = (getattr(FieldElement, name).__set__
                                      for name in ("field", "A", "B", "D"))


def _make(field: NumberField, A: int, B: int, D: int) -> FieldElement:
    """The element (A + B*omega)/D for a triple its caller has already reduced.

    It fills the slots directly, skipping the constructor's check (a gcd) and
    the frozen dataclass's per-field object.__setattr__: about 0.4 against
    0.8 us a build (timeit, Python 3.11.7)."""
    x = object.__new__(FieldElement)
    _set_field(x, field)
    _set_A(x, A)
    _set_B(x, B)
    _set_D(x, D)
    return x


def _reduced(field: NumberField, A: int, B: int, D: int) -> FieldElement:
    """(A + B*omega)/D for D != 0, with gcd(A, B, D) divided out and D made positive."""
    g = math.gcd(A, B, D)
    if D < 0:
        g = -g
    if g != 1:
        A, B, D = A // g, B // g, D // g
    return _make(field, A, B, D)


@dataclass(frozen=True, slots=True)
class Place:
    """A place of the field: prime is None at the archimedean place.

    For a split rational prime the two places above it carry
    conjugate_index 0 and 1, ordered by the smaller root of the minimal
    polynomial of omega mod p.
    """

    field: NumberField
    prime: int | None
    e: int = 1
    f: int = 1
    conjugate_index: int = 0

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    @property
    def local_degree(self) -> int:
        return self.e * self.f

    def to_json(self) -> dict:
        return {
            "prime": self.prime,
            "e": self.e,
            "f": self.f,
            "conjugate_index": self.conjugate_index,
        }

    def __str__(self) -> str:
        if self.is_archimedean:
            return "v_inf"
        tag = "'" * self.conjugate_index
        return f"v{self.prime}{tag}"


def archimedean_place(field: NumberField) -> Place:
    # local degree over R: 1 for Q, 2 for the complex place
    return Place(field, None, 1, field.degree, 0)


def splitting_type(field: NumberField, p: int) -> str:
    if field.d is None:
        return "rational"
    D = field.discriminant
    if D % p == 0:
        return "ramified"
    if p == 2:
        return "split" if D % 8 == 1 else "inert"
    return "split" if pow(D, (p - 1) // 2, p) == 1 else "inert"


def places_over(field: NumberField, p: int) -> tuple[Place, ...]:
    kind = splitting_type(field, p)
    if kind == "rational":
        return (Place(field, p, 1, 1, 0),)
    if kind == "ramified":
        return (Place(field, p, 2, 1, 0),)
    if kind == "inert":
        return (Place(field, p, 1, 2, 0),)
    return (Place(field, p, 1, 1, 0), Place(field, p, 1, 1, 1))


def place_over(field: NumberField, p: int, conjugate_index: int = 0) -> Place:
    """The place over the rational prime p with the given conjugate index."""
    if not isprime(p):
        raise FieldError(f"{p} is not a prime, so no place lies over it")
    options = places_over(field, p)
    if not 0 <= conjugate_index < len(options):
        raise FieldError(f"no place over {p} with conjugate index {conjugate_index} in {field}")
    return options[conjugate_index]


def place_from_json(field: NumberField, data: dict) -> Place:
    """The place a Place.to_json record names; every stored coordinate must agree."""
    prime = data.get("prime")
    if prime is None:
        v = archimedean_place(field)
    else:
        v = place_over(field, int(prime), int(data.get("conjugate_index", 0)))
    if any(int(data[k]) != getattr(v, k) for k in ("e", "f") if k in data):
        raise FieldError(f"no place {data} in {field}")
    return v


# ---------------------------------------------------------------------------
# canonical place order: archimedean first, then finite by (prime, conjugate)

def place_key(v: Place) -> tuple:
    """Sort key of the canonical order: (is finite, prime, conjugate_index)."""
    return (not v.is_archimedean, v.prime or 0, v.conjugate_index)


_ENUMERATION: dict = {}  # field -> canonical place list, grown on demand
INDEX_PRIME_BOUND = 10 ** 6  # place_index sieves up to v's prime: 0.5 s at this bound


def _enumeration(field: NumberField, bound: int) -> list[Place]:
    """The cached canonical list, extended through every place over a prime <= bound."""
    places = _ENUMERATION.setdefault(field, [archimedean_place(field)])
    for p in primerange((places[-1].prime or 1) + 1, bound + 1):
        places.extend(places_over(field, int(p)))
    return places


def places_up_to(field: NumberField, bound: int) -> list[Place]:
    """The archimedean place plus every finite place over a rational prime <= bound."""
    if bound < 2:
        raise FieldError(f"bound must be >= 2, got {bound}")
    places = _enumeration(field, bound)
    return places[:bisect_right(places, bound, key=lambda v: v.prime or 0)]


def canonical_place_list(field: NumberField, count: int) -> list[Place]:
    """The first `count` places in the canonical enumeration."""
    places = _enumeration(field, 1)
    while len(places) < count:
        # Bertrand: a prime lies in (p, 2p], so every round adds a place
        places = _enumeration(field, 2 * (places[-1].prime or 1))
    return places[:count]


def place_index(v: Place) -> int:
    """1-based position of a place in the canonical enumeration."""
    if (v.prime or 1) > INDEX_PRIME_BOUND:
        raise FieldError(f"{v} lies over a prime > {INDEX_PRIME_BOUND}; its index is not computed")
    places = _enumeration(v.field, v.prime or 1)
    n = bisect_left(places, place_key(v), key=place_key)
    if n == len(places) or places[n] != v:
        raise FieldError(f"{v} is not a place of {v.field}")
    return n + 1


# Bounded, because the large primes of factored norms rarely recur and an
# unbounded cache keeps each of them (about 213 B an entry) for the life of the
# process.  1,024 entries (about 0.2 MB) hold the roots of every split prime
# below about 17,000 for Q(i), so a loop of ord over places_up_to that far
# still hits; on orbit-heights 91% of calls hit, against 93% unbounded.
@lru_cache(maxsize=1024)
def _split_roots(field: NumberField, p: int) -> tuple[int, int]:
    """The two roots of the minimal polynomial of omega mod p, ascending."""
    t, n = field.omega_trace, field.omega_norm
    if p == 2:
        roots = sorted(r for r in (0, 1) if (r * r - t * r + n) % 2 == 0)
    else:
        s = sqrt_mod(field.discriminant, p)
        inv2 = pow(2, -1, p)
        roots = sorted({(t + s) * inv2 % p, (t - s) * inv2 % p})
    if len(roots) != 2:
        raise FieldError(f"{p} does not split in {field}")
    return roots[0], roots[1]


def _hensel_root(field: NumberField, p: int, index: int, k: int) -> int:
    """Lift the chosen root of m_omega to a root mod p^k (Newton doubling)."""
    t, n = field.omega_trace, field.omega_norm
    r = _split_roots(field, p)[index]
    prec, mod = 1, p
    while prec < k:
        prec = min(2 * prec, k)
        mod = p ** prec
        deriv = (2 * r - t) % mod
        r = (r - (r * r - t * r + n) * pow(deriv, -1, mod)) % mod
    return r


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise InfiniteOrder("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ord(x: FieldElement, v: Place) -> int:
    """Normalized additive valuation at a finite place: ord(uniformizer) = 1."""
    if v.is_archimedean:
        raise FieldError("ord is defined at finite places only")
    if x.is_zero():
        raise InfiniteOrder("0 has infinite order at every place")
    p = v.prime
    u, w = x.A, x.B
    shift = -v.e * _int_valuation(x.D, p)
    if x.field.d is None:
        return shift + _int_valuation(u, p)
    kind = splitting_type(x.field, p)
    if kind == "inert":
        if u == 0:
            return shift + _int_valuation(w, p)
        if w == 0:
            return shift + _int_valuation(u, p)
        return shift + min(_int_valuation(u, p), _int_valuation(w, p))
    norm_val = _int_valuation(x.norm_ints()[0], p)
    if kind == "ramified":
        return shift + norm_val
    # split: evaluate u + w*r at the Hensel root for this conjugate index
    k = norm_val + 1
    r = _hensel_root(x.field, p, v.conjugate_index, k)
    t = (u + w * r) % (p ** k)
    if t == 0:
        raise FieldError("split valuation exceeded its norm bound")  # unreachable for x != 0
    return shift + _int_valuation(t, p)


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def log_term(c: Fraction, p: int) -> float:
    """The float of c * log p: the one evaluator of a form's finite terms."""
    return float(c) * math.log(p)


@dataclass(frozen=True)
class LogForm:
    """log(modulus) + sum_p c_p log p for Fractions c_p and a rational modulus > 0.

    Logs of distinct primes are linearly independent over Q (prod p^(k_p) = 1
    forces every k_p = 0), so the form is 0 exactly when the total coefficient
    of every log p is: `exact` says so with no tolerance (Bombieri-Gubler,
    ch. 1), and `residual` is the float |value()| beside it.
    """

    coefficients: dict  # prime -> Fraction coefficient of log p
    modulus: Fraction = Fraction(1)

    @cached_property
    def content(self) -> dict:
        """prime -> exact total coefficient of log p, the modulus's exponents included."""
        out = dict(self.coefficients)
        for p, m in prime_exponents(self.modulus).items():
            out[p] = out.get(p, _ZERO) + m
        return out

    @property
    def exact(self) -> bool:
        return not any(self.content.values())

    @property
    def arch_log(self) -> float:
        return _log_fraction(self.modulus)

    def finite_value(self) -> float:
        return sum(log_term(c, p) for p, c in self.coefficients.items())

    def value(self) -> float:
        return self.arch_log + self.finite_value()

    @property
    def residual(self) -> float:
        return abs(self.value())


def log_form(divisor, modulus: Fraction) -> LogForm:
    """sum_v log|.|_v of a divisor ((place, ord_v), ...), canonically ordered,
    plus log(modulus): |x|_v = p^(-f_v ord_v) (Artin), so p maps to
    -sum_{v|p} f_v ord_v, 0 at a split prime whose ords cancel.  With
    divisor_support(x) and |N x| this is sum_v log|x|_v over every place."""
    coefficients: dict[int, Fraction] = {}
    for v, o in divisor:
        coefficients[v.prime] = coefficients.get(v.prime, _ZERO) - v.f * o
    return LogForm(coefficients, modulus)


@dataclass(frozen=True)
class ProductFormulaReport:
    finite_exponent_sums: dict  # prime -> exact coefficient of log p over all v | p
    norm_exponents: dict        # prime -> ord_p of |N(x)|, exact
    archimedean_log: float
    residual: float

    @property
    def exact(self) -> bool:
        # finite sums must cancel the archimedean coefficients prime by prime
        return all(self.finite_exponent_sums.get(p, 0) == -self.norm_exponents.get(p, 0)
                   for p in self.finite_exponent_sums.keys() | self.norm_exponents.keys())


def prime_exponents(q: Fraction) -> dict[int, Fraction]:
    """prime -> signed exponent of a nonzero rational: numerator primes, then denominator."""
    out = {int(p): Fraction(m) for p, m in factorint(abs(q.numerator)).items()}
    out.update((int(p), Fraction(-m)) for p, m in factorint(q.denominator).items())
    return out


def _norm_valuations(x: FieldElement) -> dict[int, int]:
    """prime -> ord_p |N(x)|, ascending, at the primes of N(D x) and of D, for
    x = (A + B*omega)/D (N(D x) = D^deg N(x)): every prime where an ord_v(x)
    can be nonzero, one whose ords cancel mapping to 0."""
    out = factorint(abs(x.norm_ints()[0]))
    for p, m in factorint(x.D).items():
        out[p] = out.get(p, 0) - x.field.degree * m
    return dict(sorted(out.items()))


def _divisor(x: FieldElement, primes) -> list[tuple[Place, int]]:
    return [(v, o) for p in primes for v in places_over(x.field, p) if (o := ord(x, v))]


def divisor_support(x: FieldElement) -> list[tuple[Place, int]]:
    """All (place, ord) with nonzero order, from the norm's prime support."""
    if x.is_zero():
        raise InfiniteOrder("0 has no divisor")
    return _divisor(x, _norm_valuations(x))


def product_formula_check(x: FieldElement) -> ProductFormulaReport:
    """Sum log|x|_v over all places: the form's coefficients at the primes of
    |N(x)| must cancel its factorization, which is the one that finds the
    divisor; the residual is the float of the whole form."""
    if x.is_zero():
        raise InfiniteOrder("product formula needs x != 0")
    valuations = _norm_valuations(x)
    form = log_form(_divisor(x, valuations), abs(x.norm()))
    # numerator primes first, as prime_exponents lists them
    norm_exponents = {p: Fraction(m) for p, m in sorted(valuations.items(), key=lambda t: t[1] < 0)
                      if m}
    finite_sums = {p: form.coefficients.get(p, _ZERO) for p in sorted(norm_exponents)}
    return ProductFormulaReport(finite_sums, norm_exponents, form.arch_log, form.residual)


def roots_of_unity(field: NumberField) -> list[FieldElement]:
    """The exact torsion subgroup of L*."""
    one = field.one()
    if field.d == 1:
        i = field.omega()
        return [one, -one, i, -i]
    if field.d == 3:
        w = field.omega()  # primitive sixth root: w^2 = w - 1
        return [one, -one, w, -w, w - one, one - w]
    return [one, -one]
