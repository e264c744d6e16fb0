"""Universal cover of SL2(R), displacement heights, and the geometric chain.

The cover is modeled on the vector action: a matrix moves angle coordinates of
period 2pi, antipodally equivariant, so the kernel of the projection is the
central subgroup of translations by 2pi generated by phi_infinity = z^2 (z the
lift of -I).  An element is (matrix, lifted angle of (1, 0)); evaluation picks
the monotone branch pinned by that base value.

The height h(g) = (1/2) sup_x (g(x) - x) is a quasimorphism: subadditive, and
exactly h + pi*m under central translation by phi_infinity^m.

Monodromy data are exact SL2(Z) tuples satisfying the one surface relation;
irreducibility mod ell is decided by brute force over the projective line.
Integer matrices are kept in exact arithmetic end to end, so determinant and
relation checks never pass through floats.

numpy is imported inside the functions that evaluate the action, not at the
top: importing this module (or the CLI) stays cheap, and the first evaluation
pays for numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .numfield import isprime, power
from .rng import SplitMix64

TWO_PI = 2.0 * math.pi


class SzpiroError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact 2x2 helpers (integers stay integers)

def _mat_mul(m1, m2):
    (a, b), (c, d) = m1
    (e, f), (g, h) = m2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _mat_det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _is_int_matrix(m) -> bool:
    return all(isinstance(v, int) for row in m for v in row)


def _int_inv(m):
    # adjugate of a determinant-1 integer matrix
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def _commutator(a, b):
    return _mat_mul(_mat_mul(a, b), _mat_mul(_int_inv(a), _int_inv(b)))


IDENTITY_2x2 = ((1, 0), (0, 1))


def _float_entries(m) -> tuple:
    """(a, b, c, d) of m as floats.  The action on angles reads only
    directions, which one positive scale of all four entries keeps, so integer
    entries past the float range are shifted right together, the largest to
    1000 bits, before they are converted."""
    (a, b), (c, d) = m
    try:
        return float(a), float(b), float(c), float(d)
    except OverflowError:
        shift = max(abs(v).bit_length() for v in (a, b, c, d)) - 1000
        return float(a >> shift), float(b >> shift), float(c >> shift), float(d >> shift)


# ---------------------------------------------------------------------------
# the universal cover

@dataclass(frozen=True)
class UnivCoverElt:
    """(matrix, g~(0)); the matrix acts on angles, lift0 pins the branch."""

    matrix: tuple
    lift0: float

    def __post_init__(self):
        det = _mat_det(self.matrix)
        if _is_int_matrix(self.matrix):
            if det != 1:
                raise SzpiroError(f"integer matrix has determinant {det}")
        elif abs(det - 1.0) > 1e-12:
            raise SzpiroError(f"determinant {det} too far from 1")
        a, _, c, _ = _float_entries(self.matrix)
        base = math.atan2(c, a)
        rem = (self.lift0 - base + math.pi) % TWO_PI - math.pi
        if abs(rem) > 1e-9:
            raise SzpiroError("lift0 incompatible with the matrix angle")


def lift(matrix, winding: int = 0) -> UnivCoverElt:
    """The lift whose value at 0 is the principal angle plus 2 pi winding."""
    m = (tuple(matrix[0]), tuple(matrix[1]))
    a, _, c, _ = _float_entries(m)
    base = math.atan2(c, a) % TWO_PI
    return UnivCoverElt(m, base + TWO_PI * winding)


def identity_lift() -> UnivCoverElt:
    return UnivCoverElt(IDENTITY_2x2, 0.0)


def phi_infinity(m: int = 1) -> UnivCoverElt:
    """The central generator z^2 (and its powers): translation by 2 pi m."""
    return UnivCoverElt(IDENTITY_2x2, TWO_PI * m)


def _evaluate_array(e: UnivCoverElt, xs: np.ndarray) -> np.ndarray:
    """Monotone branch: reduce mod pi, move the angle, re-attach the floor."""
    import numpy as np

    (a, b), (c, d) = e.matrix
    if a == 1 and d == 1 and b == 0 and c == 0:
        # central elements translate exactly; skip the trig round trip
        return e.lift0 + xs
    a, b, c, d = _float_entries(e.matrix)
    n = np.floor(xs / math.pi)
    x0 = xs - n * math.pi
    cos0, sin0 = np.cos(x0), np.sin(x0)
    theta = np.arctan2(c * cos0 + d * sin0, a * cos0 + b * sin0)
    delta = (theta - math.atan2(c, a)) % TWO_PI
    # x0 in [0, pi) forces delta in [0, pi); larger values are wrap artifacts
    delta = np.where(delta >= math.pi,
                     np.where(delta > 1.5 * math.pi, 0.0, math.pi),
                     delta)
    return e.lift0 + delta + n * math.pi


def evaluate(e: UnivCoverElt, x: float) -> float:
    import numpy as np

    return float(_evaluate_array(e, np.asarray([x], dtype=float))[0])


def compose(e1: UnivCoverElt, e2: UnivCoverElt) -> UnivCoverElt:
    """(g1 g2)~ with branch g1~(g2~(0)); exact on integer matrices."""
    m = _mat_mul(e1.matrix, e2.matrix)
    raw = evaluate(e1, e2.lift0)
    # the matrix fixes lift0 mod 2 pi; the evaluation only has to choose the
    # branch, so snap to the congruent point (drift << pi even when a huge
    # hyperbolic matrix makes the raw value ill-conditioned)
    a, _, c, _ = _float_entries(m)
    base = math.atan2(c, a)
    return UnivCoverElt(m, raw + ((base - raw + math.pi) % TWO_PI - math.pi))


# ---------------------------------------------------------------------------
# the height quasimorphism

class HeightValue(NamedTuple):
    value: float
    error: float


def height_q(e: UnivCoverElt, grid: int = 4096) -> HeightValue:
    """(1/2) sup of the displacement over one period, with a grid error bound.

    The error is half the largest adjacent variation seen on the refined grid:
    a modulus-of-continuity estimate, honest but crude near hyperbolic spikes.
    """
    import numpy as np

    if grid < 64:
        raise SzpiroError("grid too coarse")
    xs = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    disp = _evaluate_array(e, xs) - xs
    i = int(np.argmax(disp))
    step = TWO_PI / grid
    fine = np.linspace(xs[i] - step, xs[i] + step, 512)
    fine_disp = _evaluate_array(e, fine) - fine
    best = max(float(disp[i]), float(np.max(fine_disp)))
    # a peak in any unrefined cell is still only bounded by the coarse jump
    coarse_jump = float(np.max(np.abs(np.diff(disp))))
    err = 0.5 * coarse_jump + 1e-12
    return HeightValue(0.5 * best, 0.5 * err)


# ---------------------------------------------------------------------------
# Schottky parameters and theta links

def _check_ell(ell: int):
    if ell < 5 or not isprime(ell):
        raise SzpiroError("ell must be a prime >= 5")


@dataclass(frozen=True)
class ThetaLink:
    """tau plus the diagonal scalings diag(j, 1/j) hitting j^2 * tau."""

    tau: complex
    ell: int

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise SzpiroError("tau must lie in the upper half plane")
        _check_ell(self.ell)

    @property
    def ell_star(self) -> int:
        return (self.ell - 1) // 2

    @property
    def matrices(self) -> tuple:
        return tuple(((float(j), 0.0), (0.0, 1.0 / j))
                     for j in range(1, self.ell_star + 1))


def schottky(tau: complex) -> complex:
    """q = e^{2 pi i tau}; |q| < 1 exactly when Im tau > 0.  Re tau is reduced
    by its period 1 first, with the exact fmod, so that 2 pi Re tau stays finite."""
    if tau.imag <= 0:
        raise SzpiroError("tau must lie in the upper half plane")
    return cmath.exp(2j * math.pi * complex(math.fmod(tau.real, 1.0), tau.imag))


def theta_values(tau: complex, ell: int) -> tuple:
    """(q^{j^2 / 2 ell})_{j=1..ell*}, computed in the exponent after reducing
    Re tau by the common period 2 ell."""
    _check_ell(ell)
    if tau.imag <= 0:
        raise SzpiroError("tau must lie in the upper half plane")
    tau = complex(math.fmod(tau.real, 2 * ell), tau.imag)
    ell_star = (ell - 1) // 2
    return tuple(cmath.exp(2j * math.pi * tau * (j * j) / (2 * ell))
                 for j in range(1, ell_star + 1))


# ---------------------------------------------------------------------------
# monodromy data

@dataclass(frozen=True)
class MonodromyDatum:
    """Surface-group image in SL2(Z): genus handles plus puncture loops, with
    the single relation prod [a_j, b_j] prod gamma_s = 1 holding exactly."""

    genus: int
    handles: tuple    # ((a_1, b_1), ..., (a_g, b_g))
    punctures: tuple  # (gamma_1, ..., gamma_k)

    def __post_init__(self):
        if self.genus != len(self.handles):
            raise SzpiroError("genus does not match the handle count")
        if not self.punctures:
            raise SzpiroError("at least one puncture is required")
        total = IDENTITY_2x2
        for a, b in self.handles:
            for m in (a, b):
                if not _is_int_matrix(m) or _mat_det(m) != 1:
                    raise SzpiroError("handles must be integer matrices of determinant 1")
            total = _mat_mul(total, _commutator(a, b))
        for g in self.punctures:
            if not _is_int_matrix(g) or _mat_det(g) != 1:
                raise SzpiroError("punctures must be integer matrices of determinant 1")
            total = _mat_mul(total, g)
        if total != IDENTITY_2x2:
            raise SzpiroError("surface relation violated")

    def generators(self) -> list:
        out = []
        for a, b in self.handles:
            out.extend([a, b])
        out.extend(self.punctures)
        return out


_T = ((1, 1), (0, 1))
_T_INV = ((1, -1), (0, 1))
_S = ((0, -1), (1, 0))
_S_INV = ((0, 1), (-1, 0))


_MAX_WORD = 6  # letters in a random generator word
_ENTRY_BOUND = 40  # largest |entry| a random generator may have


def _random_word(rng: SplitMix64):
    letters = (_T, _T_INV, _S, _S_INV)
    for _ in range(200):
        m = IDENTITY_2x2
        for _ in range(1 + rng.randrange(_MAX_WORD)):
            m = _mat_mul(m, letters[rng.randrange(4)])
        if max(abs(v) for row in m for v in row) <= _ENTRY_BOUND:
            return m
    return IDENTITY_2x2  # bound too tight; the identity always qualifies


def monodromy_generate(genus: int, punctures: int, seed: int) -> MonodromyDatum:
    """Random bounded words for every generator except the last puncture,
    which is solved exactly from the relation."""
    if punctures < 1:
        raise SzpiroError("at least one puncture is required")
    if genus < 0:
        raise SzpiroError("genus must be >= 0")
    rng = SplitMix64(seed)
    handles = tuple((_random_word(rng), _random_word(rng)) for _ in range(genus))
    frees = [_random_word(rng) for _ in range(punctures - 1)]
    total = IDENTITY_2x2
    for a, b in handles:
        total = _mat_mul(total, _commutator(a, b))
    for g in frees:
        total = _mat_mul(total, g)
    return MonodromyDatum(genus, handles, tuple(frees + [_int_inv(total)]))


def reduce_mod(datum: MonodromyDatum, ell: int) -> tuple:
    """All generators with entries reduced into F_ell."""
    _check_prime(ell)
    return tuple(tuple(tuple(v % ell for v in row) for row in m)
                 for m in datum.generators())


def _check_prime(ell: int):
    if not isprime(ell):
        raise SzpiroError("modulus must be prime")


def irreducible(mats, ell: int) -> bool:
    """No common eigenvector among the <= ell + 1 points of P^1(F_ell)."""
    _check_prime(ell)
    mats = [tuple(tuple(v % ell for v in row) for row in m) for m in mats]
    if not mats:
        return False
    candidates = [(1, t) for t in range(ell)] + [(0, 1)]
    for x, y in candidates:
        if all((m[0][0] * x + m[0][1] * y) * y % ell
               == (m[1][0] * x + m[1][1] * y) * x % ell for m in mats):
            return False
    return True


# ---------------------------------------------------------------------------
# the geometric chain

@dataclass(frozen=True)
class Cor312Report:
    seed: int | None
    mid: float
    rhs: float
    tolerance: float
    passed: bool


def corollary312_check(datum: MonodromyDatum, ell: int, grid: int = 1024,
                       seed: int | None = None) -> Cor312Report:
    """mid >= rhs for lifts of the j^2 powers of the puncture loops.

    mid sums the heights of the individual lifts; rhs is the height of their
    ordered product.  The theta-locus sup that bounds mid from above ranges
    over this one tuple, so it is mid itself and is not reported.  Tolerance
    comes from the reported grid errors.
    """
    _check_ell(ell)
    ell_star = (ell - 1) // 2
    link = [lift(power(gamma, j * j, _mat_mul, IDENTITY_2x2))
            for gamma in datum.punctures for j in range(1, ell_star + 1)]

    heights = [height_q(e, grid) for e in link]
    mid = sum(h.value for h in heights)
    mid_err = sum(h.error for h in heights)

    product = identity_lift()
    for e in link:
        product = compose(product, e)
    rh = height_q(product, grid)

    tol = mid_err + rh.error + 1e-9
    return Cor312Report(seed, mid, rh.value, tol, mid >= rh.value - tol)


# ---------------------------------------------------------------------------
# the log-theta lattice

@dataclass(frozen=True)
class LatticeSite:
    n: int
    m: int
    label: str
    elements: tuple  # UnivCoverElt per j


def log_theta_lattice(n_values, m_values, ell: int = 5, seed: int = 0) -> dict:
    """Grid {theta_{n,m}}: column n carries one Theta-link's lifted scalings,
    the m axis translates by phi_infinity (a log-link chain per column)."""
    _check_ell(ell)
    rng = SplitMix64(seed)
    n_values = list(n_values)
    m_values = list(m_values)
    out = {}
    for n in n_values:
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5))
        base = tuple(lift(m) for m in ThetaLink(tau, ell).matrices)
        for m in m_values:
            shifted = tuple(compose(e, phi_infinity(m)) for e in base)
            out[(n, m)] = LatticeSite(n, m, f"theta_{n},{m}", shifted)
    return out
