"""The four benchmark workloads: seeded inputs, op rounds and their oracles.

Every input is generated from the run's seed with ``random.Random``; the
library receives only the generated values. A workload yields rounds: each
round has a fixed op composition and the seed picks the values inside it, so
runs with different seeds do the same mix of work. An op is one public
library call (or one CLI invocation) plus a check against an oracle computed
in ``oracles.py`` or from an identity between library outputs.

Warm-up inputs lie outside every generator's range (other primes, degrees,
seeds or fields), so set-up never computes a timed op's exact inputs.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles


@dataclass
class Op:
    kind: str                              # "<layer>.<function>" or "cli.<command>"
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct
    oracle: str                            # which oracle the check applies


def _ok(cond: bool, message: str) -> str | None:
    return None if cond else message


def _store(holder: dict, key: str) -> Callable[[object], None]:
    def check(result):
        holder[key] = result
    return check


class Workload:
    name = ""
    oracles: tuple = ()

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self):
        """Untimed oracle precomputation; imports nothing from the library."""

    def setup(self):
        """Import the workload's modules and warm up; timed as setup_s."""
        raise NotImplementedError

    def once(self):
        """Ops run once before the timed rounds: checked and counted, outside throughput."""
        return []

    def rounds(self):
        raise NotImplementedError


# (op kind, exception) pairs that are library defects, not wrong outputs: such an
# op counts as failed but leaves the run's "correct" true.
KNOWN_DEFECTS = {
    # composed integer lifts that leave float range, e.g. monodromy_generate(2, 5,
    # 391208478) at ell = 11; rare among the data cover-heights draws
    ("szpiro.corollary312_check", "OverflowError"),
}


# ---------------------------------------------------------------------------
# orbit-heights: carriers, L*-orbits, heights, product formula

FIELDS = (None, 1, 3)                      # Q, Q(i), Q(sqrt(-3))
SAMPLE_SCHEDULE = ((1, 10), (1, 50), (2, 10))
CLI_DEFAULT_SAMPLE = (3, 50)
J_PRIMES = (2, 3, 5)
SMOOTH_BOUND = 50


class OrbitHeights(Workload):
    name = "orbit-heights"
    oracles = ("weil_height", "height_inversion_symmetry", "stabilized_dominates",
               "sample_size", "distance_zero", "distance_symmetric",
               "distance_triangle", "norm_factorization_small",
               "norm_factorization_large", "kummer_order", "j_round_trip")

    def setup(self):
        from arithmeticoid import adelic, heights, numfield, cohomology
        from arithmeticoid.ffcurve import LocalPointArch, local_point
        from arithmeticoid.padic import PadicScalar

        self.nf, self.ad, self.ht, self.coh = numfield, adelic, heights, cohomology
        self.LocalPointArch, self.local_point = LocalPointArch, local_point
        self.PadicScalar = PadicScalar
        self.fields = {d: numfield.NumberField(d) for d in FIELDS}
        self.finite = {d: [v for v in adelic.canonical_place_list(K, 14)
                           if not v.is_archimedean][:7]
                       for d, K in self.fields.items()}
        self.j_table = heights.load_j_coefficients()
        # warm-up: one call per op kind on inputs no generator produces
        # (coordinate 101, sample (1, 7), Frobenius shift 2, n = 4, j at p = 7)
        for d, K in self.fields.items():
            y0 = adelic.standard_arithmeticoid(K)
            z = K.element(Fraction(97, 89), 0 if d is None else 1)
            sample = heights.default_sample(K, 1, 7)
            heights.stabilized_height_report(adelic.global_frobenius(y0, 2), z, sample)
            heights.scalar_height(y0, z)
            adelic.distance(y0, adelic.global_frobenius(y0, 2))
            numfield.product_formula_check(K.element(101, 0 if d is None else 1))
            cohomology.kummer_class(K.element(101), self.finite[d][0], 4)
        heights.invert_j_series(7, Fraction(1, 7), 16)

    # -- input generators ---------------------------------------------------

    def _element(self, d, lo=-12, hi=12, den=6):
        """Nonzero a + b*omega whose norm is 50-smooth, so place lookups stay bounded."""
        r = self.rng
        while True:
            a = Fraction(r.randint(lo, hi), r.randint(1, den))
            b = Fraction(0) if d is None else Fraction(r.randint(lo, hi), r.randint(1, den))
            if (a or b) and max(oracles.norm_exponents(a, b, d), default=1) <= SMOOTH_BOUND:
                return a, b

    def _carrier(self, d):
        r, K = self.rng, self.fields[d]
        deviations = {}
        for v in r.sample(self.finite[d], r.randint(0, 2)):
            deviations[v] = self.local_point(v, e=Fraction(1 + r.randrange(8),
                                                           1 + r.randrange(8)))
        if r.random() < 0.5:
            arch = self.nf.archimedean_place(K)
            deviations[arch] = self.LocalPointArch(math.exp(r.uniform(-1.0, 1.0)))
        return self.ad.make_arithmeticoid(K, deviations, frobenius_shift=r.randrange(2))

    def _large_norm_element(self, d):
        """A product of small elements whose norm has 15-25 digits, with its factorization."""
        r, K = self.rng, self.fields[d]
        while True:
            x, facs = K.one(), []
            while len(str(abs(oracles.quadratic_norm(x.a, x.b, d)))) < 15:
                if d is None:
                    a, b = r.randint(100_000, 3_000_000), 0
                else:
                    a, b = r.randint(100, 1500), r.randint(100, 1500)
                x = x * K.element(a, b)
                facs.append(oracles.trial_factor(oracles.quadratic_norm(
                    Fraction(a), Fraction(b), d).numerator))
            if len(str(abs(oracles.quadratic_norm(x.a, x.b, d)))) <= 25:
                return x, oracles.merge_factorizations(*facs)

    # -- ops ----------------------------------------------------------------

    def _stabilized_ops(self, d, max_factors, prime_bound, standard=False):
        ht, K = self.ht, self.fields[d]
        y = self.ad.standard_arithmeticoid(K) if standard else self._carrier(d)
        za, zb = self._element(d)
        z = K.element(za, zb)
        size = _sample_size(max_factors, prime_bound)
        held: dict = {}

        def check_sample(sample):
            held["sample"] = sample
            return _ok(len(sample) == size, f"sample size {len(sample)} != {size}")

        def check_stab(result):
            value, _ = result
            plain = ht.scalar_height(y, z).total
            return _ok(value >= plain - 1e-12, f"stabilized {value} < plain {plain}")

        return [
            Op("heights.default_sample", lambda: ht.default_sample(K, max_factors, prime_bound),
               check_sample, "sample_size"),
            Op("heights.stabilized_height_report",
               lambda: ht.stabilized_height_report(y, z, held["sample"]),
               check_stab, "stabilized_dominates"),
        ]

    def _scalar_height_op(self, d):
        ht, K = self.ht, self.fields[d]
        y0 = self.ad.standard_arithmeticoid(K)
        a, b = self._element(d, -2000, 2000, 500) if d is None else self._element(d)
        z = K.element(a, b)
        if d is None:
            want = oracles.weil_height(a)
            return Op("heights.scalar_height", lambda: ht.scalar_height(y0, z),
                      lambda rep: _ok(abs(rep.total - want) <= 1e-9 * max(1.0, want),
                                      f"h({a}) = {rep.total}, want {want}"),
                      "weil_height")

        def check(rep):
            inv = ht.scalar_height(y0, z.inverse()).total
            return _ok(abs(rep.total - inv) <= 1e-9 * max(1.0, abs(inv)),
                       f"h(z) = {rep.total} but h(1/z) = {inv} on y0")
        return Op("heights.scalar_height", lambda: ht.scalar_height(y0, z), check,
                  "height_inversion_symmetry")

    def _distance_ops(self, d):
        dist = self.ad.distance
        a, b, c = self._carrier(d), self._carrier(d), self._carrier(d)
        held: dict = {}
        return [
            Op("adelic.distance", lambda: dist(a, a),
               lambda r: _ok(r == 0.0, f"d(a, a) = {r}"), "distance_zero"),
            Op("adelic.distance", lambda: dist(a, b), _store(held, "ab"), "distance_symmetric"),
            Op("adelic.distance", lambda: dist(b, a),
               lambda r: _ok(abs(r - held["ab"]) <= 1e-12, f"d(b, a) = {r} != {held['ab']}"),
               "distance_symmetric"),
            Op("adelic.distance", lambda: dist(b, c), _store(held, "bc"), "distance_triangle"),
            Op("adelic.distance", lambda: dist(a, c),
               lambda r: _ok(r <= held["ab"] + held["bc"] + 1e-12,
                             f"d(a, c) = {r} > {held['ab']} + {held['bc']}"),
               "distance_triangle"),
        ]

    def _product_formula_op(self, d, large: bool):
        K = self.fields[d]
        if large:
            x, want = self._large_norm_element(d)
            oracle = "norm_factorization_large"
        else:
            a, b = self._element(d, -50, 50, 12)
            x, want = K.element(a, b), oracles.norm_exponents(a, b, d)
            oracle = "norm_factorization_small"

        def check(rep):
            got = {int(p): m for p, m in rep.norm_exponents.items() if m}
            if got != want:
                return f"norm exponents {got} != trial division {want}"
            sums = {int(p): -m for p, m in rep.finite_exponent_sums.items() if m}
            if sums != want:
                return f"finite exponent sums {sums} do not cancel {want}"
            return _ok(rep.exact and rep.residual < 1e-9, f"residual {rep.residual}")
        return Op("numfield.product_formula_check",
                  lambda: self.nf.product_formula_check(x), check, oracle)

    def _kummer_op(self, d):
        r, K = self.rng, self.fields[d]
        q = Fraction(r.choice((1, -1)))
        for p in (2, 3, 5, 7, 11, 13):
            q *= Fraction(p) ** r.randint(-2, 2)
        v = r.choice(self.finite[d][:6])
        n = r.randint(1, 3)
        p = v.prime
        want = v.e * (oracles.valuation(q.numerator, p) - oracles.valuation(q.denominator, p))
        return Op("cohomology.kummer_class", lambda: self.coh.kummer_class(K.element(q), v, n),
                  lambda c: _ok(c.order_part == want % p ** n,
                                f"order part {c.order_part} != {want} mod {p}^{n}"),
                  "kummer_order")

    def _j_op(self):
        r = self.rng
        p = r.choice(J_PRIMES)
        k = r.randint(1, 4)
        unit = r.randint(1, p ** 6)
        if unit % p == 0:
            unit += 1
        j = Fraction(unit, p ** k)

        def check(q):
            if q.val != k or q.abs_precision != k + 16:
                return f"q has valuation {q.val}, precision {q.abs_precision}"
            back = self.ht.tate_j_value(q, self.j_table)
            target = self.PadicScalar.from_fraction(j, p, 20)
            return _ok(back.agrees_with(target, 16 - k), f"j(q) != {j} to {16 - k} digits")
        return Op("heights.invert_j_series", lambda: self.ht.invert_j_series(p, j, 16),
                  check, "j_round_trip")

    def once(self):
        # the CLI's default orbit sample (4-5 s), on the standard carrier over Q
        return [] if self.smoke else self._stabilized_ops(None, *CLI_DEFAULT_SAMPLE, standard=True)

    def rounds(self):
        while True:
            ops = []
            slot = 0
            for d in FIELDS:
                for mf, pb in SAMPLE_SCHEDULE:
                    # distance ops are the largest group, so the median op is a distance
                    ops += self._stabilized_ops(d, mf, pb)
                    ops.append(self._scalar_height_op(d))
                    ops += self._distance_ops(d)
                    ops += [self._product_formula_op(d, False), self._product_formula_op(d, True)]
                    ops.append(self._kummer_op(d))
                    if slot % 3 == 0:
                        ops.append(self._j_op())
                    slot += 1
            yield ops


@functools.lru_cache(maxsize=None)
def _sample_size(max_factors: int, prime_bound: int) -> int:
    """|{+-1} u {+-prod of up to max_factors factors p or 1/p, p <= prime_bound}|."""
    primes = [n for n in range(2, prime_bound + 1) if oracles.trial_factor(n) == {n: 1}]
    gens = [Fraction(p) for p in primes] + [Fraction(1, p) for p in primes]
    seen = frontier = {Fraction(1)}
    for _ in range(max_factors):
        frontier = {q * g for q in frontier for g in gens}
        seen = seen | frontier
    return 2 * len(seen)


# ---------------------------------------------------------------------------
# tilt-series: Artin-Hasse, Hahn series, Lubin-Tate, Witt vectors

AH_TRIPLES = tuple((p, D, prec) for p in (2, 3, 5, 7) for D in (20, 40, 60) for prec in (8, 12))
WITT_PRIMES = (2, 3)


class TiltSeries(Workload):
    name = "tilt-series"
    oracles = ("artin_hasse_recurrence", "artin_hasse_isometry", "lubin_tate_leading",
               "hahn_inverse_leading", "witt_constant_ghost", "witt_first_component",
               "primitive_first_component")

    def prepare(self):
        self.residues = {t: oracles.artin_hasse_residues(*t) for t in AH_TRIPLES}

    def setup(self):
        from arithmeticoid import tilt

        self.tilt = tilt
        # warm-up: the universal Witt polynomials, F_{p^k} moduli, and one of
        # each series op at degrees, primes and exponents no generator uses
        for p in WITT_PRIMES:
            for n in (1, 2, 3):
                tilt.witt_universal(p, n)
        for p in (2, 3, 5, 7):
            s = tilt.artin_hasse(p, 10, 6)
            for k in (1, 2, 3):
                a = tilt.hahn(p, {Fraction(97, 7): 1}, k=k)
                tilt.evaluate_series(s, a)
                tilt.lubin_tate_act(1, a)
                tilt.hahn_inv(tilt.hahn_add(tilt.hahn_one(p, k=k), a))

    def _series(self, p, k, n_terms, lead_lo=2, lead_hi=8):
        """Random Hahn series: leading coefficient nonzero, exponents over denominators <= 3."""
        r = self.rng
        fld = self.tilt.coeff_field(p, k)
        den = r.randint(1, 3)
        e = Fraction(r.randint(lead_lo * den, lead_hi * den), den)
        lead = tuple(r.randrange(p) for _ in range(k))
        while not any(lead):
            lead = tuple(r.randrange(p) for _ in range(k))
        terms = {e: lead}
        for _ in range(n_terms - 1):
            e += Fraction(r.randint(1, 4 * den), den)
            terms[e] = tuple(r.randrange(p) for _ in range(k))
        return self.tilt.hahn(p, terms, k=k), fld

    def _ah_ops(self, triple, k, n_terms):
        t = self.tilt
        p, D, prec = triple
        want = self.residues[triple]
        series = t.ZpSeries(p, prec, D, want)
        a, fld = self._series(p, k, n_terms)

        def check_eval(b):
            if b.terms[:1] != ((Fraction(0), fld.one),):
                return "AH(a) does not start with 1"
            return _ok(b.terms[1:2] == a.terms[:1],
                       f"|AH(a) - 1| != |a|: {b.terms[1:2]} vs {a.terms[:1]}")
        return [
            Op("tilt.artin_hasse", lambda: t.artin_hasse(p, D, prec),
               lambda s: _ok(s.coeffs == want, f"AH({p}, {D}, {prec}) residues differ"),
               "artin_hasse_recurrence"),
            Op("tilt.evaluate_series", lambda: t.evaluate_series(series, a), check_eval,
               "artin_hasse_isometry"),
        ]

    def _lubin_tate_op(self, p, k):
        a, _ = self._series(p, k, 3)
        u = self.rng.randint(1, 60)
        if u % p == 0:
            u += 1
        e0, c0 = a.terms[0]
        want = (e0, oracles.scale_coeff(c0, u, p))
        return Op("tilt.lubin_tate_act", lambda: self.tilt.lubin_tate_act(u, a),
                  lambda out: _ok(out.terms[:1] == (want,),
                                  f"[u](a) leads with {out.terms[:1]}, want {want}"),
                  "lubin_tate_leading")

    def _hahn_inv_op(self, p, k):
        t, r = self.tilt, self.rng
        fld = t.coeff_field(p, k)
        den = r.randint(1, 3)
        lead_e = Fraction(r.randint(den, 4 * den), den)
        lead_c = tuple(r.randrange(p) for _ in range(k))
        if not any(lead_c):
            lead_c = fld.one
        # the rest sits at least 2 above the lead, so the geometric series stays short
        e1 = lead_e + Fraction(r.randint(2 * den, 4 * den), den)
        e2 = e1 + Fraction(r.randint(1, 4 * den), den)
        x = t.hahn(p, {lead_e: lead_c, e1: tuple(r.randrange(p) for _ in range(k)),
                       e2: tuple(r.randrange(p) for _ in range(k))}, k=k)

        def check(inv):
            if not inv.terms or inv.terms[0][0] != -lead_e:
                return f"1/x leads at {inv.terms[:1]}, want exponent {-lead_e}"
            prod = oracles.fpk_mul(lead_c, inv.terms[0][1], fld.modulus, p)
            return _ok(prod == fld.one, f"leading coefficients multiply to {prod}")
        return Op("tilt.hahn_inv", lambda: t.hahn_inv(x), check, "hahn_inverse_leading")

    def _witt_constant_ops(self, p, n):
        t, r = self.tilt, self.rng
        xs = tuple(r.randrange(p) for _ in range(n))
        ys = tuple(r.randrange(p) for _ in range(n))
        wx = t.WittExpansion(p, tuple(t.hahn(p, {Fraction(0): c}, k=1) for c in xs))
        wy = t.WittExpansion(p, tuple(t.hahn(p, {Fraction(0): c}, k=1) for c in ys))
        ix, iy = oracles.witt_to_int(xs, p), oracles.witt_to_int(ys, p)
        want_sum = oracles.int_to_witt(ix + iy, p, n)
        want_prod = oracles.int_to_witt(ix * iy, p, n)

        def digits(w):
            return tuple(c.terms[0][1][0] if c.terms else 0 for c in w.components)
        return [
            Op("tilt.witt_add", lambda: t.witt_add(wx, wy),
               lambda w: _ok(digits(w) == want_sum, f"{xs} + {ys} = {digits(w)}, want {want_sum}"),
               "witt_constant_ghost"),
            Op("tilt.witt_mul", lambda: t.witt_mul(wx, wy),
               lambda w: _ok(digits(w) == want_prod, f"{xs} * {ys} = {digits(w)}, want {want_prod}"),
               "witt_constant_ghost"),
        ]

    def _witt_series_ops(self, p, n):
        t = self.tilt
        a, _ = self._series(p, 1, 2)
        b, _ = self._series(p, 1, 2)
        wa, wb = t.teichmueller_lift(a, n), t.teichmueller_lift(b, n)
        cap = min(a.cap, b.cap)
        want_sum = oracles.series_sum(a.terms, b.terms, cap, p)
        want_prod = oracles.series_product(a.terms, b.terms, cap, p)
        return [
            Op("tilt.witt_add", lambda: t.witt_add(wa, wb),
               lambda w: _ok(w.components[0].terms == want_sum, "S_0 != x_0 + y_0"),
               "witt_first_component"),
            Op("tilt.witt_mul", lambda: t.witt_mul(wa, wb),
               lambda w: _ok(w.components[0].terms == want_prod, "P_0 != x_0 y_0"),
               "witt_first_component"),
            Op("tilt.primitive_element", lambda: t.primitive_element(a, n),
               lambda w: _ok(w.components[0].terms == a.terms, "[a] - p does not start with a"),
               "primitive_first_component"),
        ]

    def rounds(self):
        # every round runs the same ops on fresh values; only their order is shuffled
        while True:
            order = list(range(len(AH_TRIPLES)))
            self.rng.shuffle(order)
            ops = []
            for i in order:
                triple = AH_TRIPLES[i]
                p = triple[0]
                ops += self._ah_ops(triple, 1 + i % 3, 1 + (i // 3) % 3)
                if i % 4 == 0:
                    ops.append(self._lubin_tate_op(p, 1 + (i // 4) % 3))
                    ops.append(self._hahn_inv_op(p, 1 + (i // 4) % 3))
                if i % 4 == 1:
                    ops += self._witt_constant_ops(WITT_PRIMES[(i // 4) % 2], 1 + (i // 4) % 3)
                if i % 8 == 2:
                    ops += self._witt_series_ops(WITT_PRIMES[(i // 8) % 2], 1 + (i // 8) % 3)
            yield ops


# ---------------------------------------------------------------------------
# cover-heights: the universal cover of SL2(R)

COVER_SHAPES = tuple((g, k, ell) for g in (0, 1, 2) for k in (1, 2, 3, 4, 5) for ell in (5, 7, 11))
GRID = 4096


class CoverHeights(Workload):
    name = "cover-heights"
    oracles = ("rotation_closed_form", "height_finite", "central_height",
               "subadditivity", "surface_relation", "cor312_passed", "irreducible_exhaustive")

    def setup(self):
        from arithmeticoid import szpiro

        self.sz = szpiro
        # warm-up at grid 512, ell 13 and a seed above every generated one
        e = szpiro.lift(((2, 1), (1, 1)), 0)
        szpiro.height_q(szpiro.compose(e, e), 512)
        datum = szpiro.monodromy_generate(1, 2, seed=2 ** 40 + 1)
        szpiro.corollary312_check(datum, 13)
        szpiro.irreducible(szpiro.reduce_mod(datum, 13), 13)

    def _lift(self, kind: int):
        r = self.rng
        if kind == 0:
            t = r.uniform(0.0, 2 * math.pi)
            m = ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t)))
        elif kind == 1:
            m = ((1.0, r.uniform(-2.0, 2.0)), (0.0, 1.0))
        else:
            t = r.uniform(0.2, 3.0)
            m = ((t, 0.0), (0.0, 1.0 / t))
        return self.sz.lift(m, r.randrange(5) - 2)

    def _group(self, i: int, genus: int, punctures: int, ell: int):
        sz, r = self.sz, self.rng
        e1, e2 = self._lift(i % 3), self._lift((i + 1) % 3)
        held: dict = {}

        def lift_check(e, key):
            def check(h):
                held[key] = h
                if not (math.isfinite(h.value) and h.error >= 0):
                    return f"height {h} is not a finite value with an error"
                if e.matrix[0][1] == -e.matrix[1][0] and e.matrix[0][0] == e.matrix[1][1]:
                    # a rotation translates every angle by lift0
                    return _ok(abs(h.value - e.lift0 / 2) <= h.error + 1e-9,
                               f"rotation height {h.value} != {e.lift0 / 2}")
                return None
            return check

        def check_subadd(h12):
            h1, h2 = held["h1"], held["h2"]
            slack = h1.value + h2.value + h1.error + h2.error + h12.error + 1e-9 - h12.value
            return _ok(slack >= 0, f"subadditivity slack {slack}")

        m = r.choice([n for n in range(-10, 11) if n])
        central = sz.phi_infinity(m)
        dseed = r.getrandbits(32)
        return [
            Op("szpiro.height_q", lambda: sz.height_q(e1, GRID), lift_check(e1, "h1"),
               "rotation_closed_form" if i % 3 == 0 else "height_finite"),
            Op("szpiro.height_q", lambda: sz.height_q(e2, GRID), lift_check(e2, "h2"),
               "height_finite"),
            Op("szpiro.height_q", lambda: sz.height_q(central, GRID),
               lambda h: _ok(abs(h.value - math.pi * m) < 1e-6, f"h(phi^{m}) = {h.value}"),
               "central_height"),
            Op("szpiro.compose", lambda: sz.compose(e1, e2), _store(held, "e12"),
               "subadditivity"),
            Op("szpiro.height_q", lambda: sz.height_q(held["e12"], GRID), check_subadd,
               "subadditivity"),
            Op("szpiro.monodromy_generate", lambda: sz.monodromy_generate(genus, punctures, dseed),
               lambda dt: held.__setitem__("datum", dt) or _ok(
                   oracles.surface_relation_holds(dt.handles, dt.punctures),
                   "surface relation fails"),
               "surface_relation"),
            Op("szpiro.corollary312_check", lambda: sz.corollary312_check(held["datum"], ell),
               lambda rep: _ok(rep.passed, f"cor312 failed: {rep}"), "cor312_passed"),
            Op("szpiro.irreducible",
               lambda: sz.irreducible(sz.reduce_mod(held["datum"], ell), ell),
               lambda irr: _ok(irr == oracles.irreducible_mod(held["datum"].generators(), ell),
                               "irreducibility disagrees with the exhaustive search"),
               "irreducible_exhaustive"),
        ]

    def rounds(self):
        # every round covers each (genus, punctures, ell) once, in a seeded order
        while True:
            order = list(range(len(COVER_SHAPES)))
            self.rng.shuffle(order)
            yield [op for i in order for op in self._group(i, *COVER_SHAPES[i])]


# ---------------------------------------------------------------------------
# cli-examples: the README's worked examples plus two validation errors

def _kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.lstrip("# ").partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _check_height(out: str) -> str | None:
    total = float(_kv(out)["total"])
    return _ok(abs(total - oracles.weil_height(Fraction(5))) <= 1e-12, f"total {total}")


def _check_product_formula(out: str) -> str | None:
    doc = json.loads(out)
    want = {str(p): str(m) for p, m in oracles.norm_exponents(Fraction(2), Fraction(1), 1).items()}
    if doc["norm_exponents"] != want:
        return f"norm exponents {doc['norm_exponents']} != {want}"
    sums = {p: str(-int(m)) for p, m in want.items()}
    if doc["finite_coefficients"] != sums:
        return f"finite coefficients {doc['finite_coefficients']} != {sums}"
    return _ok(doc["exact"] is True and doc["residual"] < 1e-9, "product formula not exact")


def _check_kv(**want):
    def check(out: str) -> str | None:
        kv = _kv(out)
        bad = {k: kv.get(k) for k, v in want.items() if kv.get(k) != v}
        return _ok(not bad, f"unexpected values {bad}")
    return check


# (name, argv after the program, exit code, stdout check); names match tracing.CLI_COMMANDS
CLI_EXAMPLES = (
    ("height", ["height", "--field", "Q", "--z", "5"], 0, _check_height),
    ("product-formula", ["product-formula", "--field", "Q(sqrt(-1))", "--x", "2+i",
                         "--format", "json"], 0, _check_product_formula),
    ("szpiro.cor312", ["szpiro", "cor312", "--seed", "7", "--ell", "5", "--punctures", "3"],
     0, _check_kv(passed="true", irreducible_mod_ell="true")),
    ("orbit", ["orbit", "--field", "Q(sqrt(-3))", "--bound", "3"], 0,
     _check_kv(count="6", matches_torsion="true")),
    ("tilt.witt-check", ["tilt", "witt-check", "--p", "2", "--count", "50", "--seed", "11",
                         "--format", "csv"], 0, _check_kv(all_match_ghost_oracle="true")),
    ("places", ["places", "--field", "Q(sqrt(5))"], 1, None),
    ("tilt.artin-hasse", ["tilt", "artin-hasse", "--p", "4"], 1, None),
)


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARITHMETICOID_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_cli(argv, importtime: bool = False) -> subprocess.CompletedProcess:
    flags = ["-X", "importtime"] if importtime else []
    return subprocess.run([sys.executable, *flags, "-m", "arithmeticoid", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=120)


def split_importtime(stderr: str) -> tuple:
    """(seconds of the largest cumulative import, stderr without -X importtime lines)."""
    micros, rest = [0], []
    for line in stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            cumulative = line.split("|")[1].strip()
            if cumulative.isdigit():
                micros.append(int(cumulative))
        else:
            rest.append(line)
    return max(micros) / 1e6, "".join(rest)


class CliExamples(Workload):
    name = "cli-examples"
    # every check also compares the exit code and the first stdout of the command
    oracles = ("validation_message", "height_value", "product_formula_json", "reported_checks")
    _oracle_of = {"height": "height_value", "product-formula": "product_formula_json"}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # the traced run adds -X importtime and keeps each invocation's import time
        self.importtime = False
        self.import_s: list = []

    def setup(self):
        import arithmeticoid.cli  # noqa: F401  the module every invocation loads

        # warm-up invocation: z = 7 is not among the examples
        proc = run_cli(["height", "--field", "Q", "--z", "7"])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up invocation failed: {proc.stderr}")
        self.first_stdout: dict = {}

    def _op(self, name, argv, code, check):
        def verify(proc):
            stderr = proc.stderr
            if self.importtime:
                seconds, stderr = split_importtime(stderr)
                self.import_s.append(seconds)
            if proc.returncode != code:
                return f"exit {proc.returncode}, want {code}: {stderr[-200:]}"
            first = self.first_stdout.setdefault(name, proc.stdout)
            if proc.stdout != first:
                return "stdout differs from the first run of this command"
            if check is None:
                return _ok(stderr.startswith("error: ") and "Traceback" not in stderr,
                           f"validation message {stderr!r}")
            return check(proc.stdout)
        oracle = "validation_message" if check is None else self._oracle_of.get(name, "reported_checks")
        return Op(f"cli.{name}", lambda: run_cli(argv, self.importtime), verify, oracle)

    def rounds(self):
        while True:
            examples = list(CLI_EXAMPLES)
            self.rng.shuffle(examples)
            yield [self._op(*ex) for ex in examples]


WORKLOADS = {w.name: w for w in (CliExamples, OrbitHeights, TiltSeries, CoverHeights)}
