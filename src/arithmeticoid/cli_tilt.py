"""Handlers of the ``tilt`` commands: the Lubin-Tate action, Artin-Hasse and
the Witt-vector check.  ``cli`` imports this module when one of them runs."""

from __future__ import annotations

import math

from . import tilt
from .cli import CliResult, Config, _check_work, _tuple_cell, parse_fraction
from .rng import SplitMix64

# coefficient products of `tilt eval`; see cli._check_work
EVAL_WORK = 500_000


def _series_rows(x):
    rows = [[e, _tuple_cell(vec)] for e, vec in x.terms]
    if len(rows) > 16:
        rows = rows[:16] + [["...", f"{len(x.terms) - 16} more terms"]]
    return rows


def _eval_work(p: int, exponent, cap) -> int:
    """A bound on the coefficient products of [u](c·t^exponent) below cap.

    The monomial's powers leave at most T = ceil(cap/exponent) exponents below
    the cap.  For each base-p digit d of u that the action reads,
    (1 + a^(p^i))^d has at most n = min(p, T) terms and takes fewer than
    2·bits(p) products of such powers, each of at most n² coefficient
    products, and the running product of at most T terms is multiplied by it
    once.
    """
    terms = math.ceil(cap / exponent)
    n = min(p, terms)
    return tilt.lubin_tate_digits(p, exponent, cap) * n * (2 * p.bit_length() * n + terms)


def cmd_tilt_eval(cfg: Config, args) -> CliResult:
    u = parse_fraction(args.u)
    exponent = parse_fraction(args.exponent)
    a = tilt.monomial(args.p, exponent, args.coeff, cfg.hahn_cap, cfg.coeff_k)
    if not a.is_zero() and exponent > 0:  # lubin_tate_act rejects exponent <= 0
        _check_work(f"--hahn-cap {cfg.hahn_cap} and --exponent {exponent}",
                    "digits * n * (2 * bits(p) * n + T) coefficient products, "
                    "T = ceil(hahn_cap/exponent), n = min(p, T)",
                    _eval_work(args.p, exponent, cfg.hahn_cap), EVAL_WORK)
    out = tilt.lubin_tate_act(u, a)
    va, vo = a.valuation(), out.valuation()
    unit = u.denominator % args.p != 0 and u.numerator % args.p != 0
    preserved = vo == va if unit else None  # a non-unit u may raise the valuation
    doc = {
        "p": args.p,
        "u": str(u),
        "input_valuation": None if va is None else str(va),
        "output_valuation": None if vo is None else str(vo),
        "unit_action": unit,
        "valuation_preserved": preserved,
        "cap": str(out.cap),
        "terms": [{"exponent": str(e), "coeff": list(vec)} for e, vec in out.terms],
    }
    summary = ["p", "u", "input_valuation", "output_valuation", "valuation_preserved", "cap"]
    return CliResult(doc, summary, ["exponent", "coefficient_tower"], _series_rows(out),
                     preserved is not False)


def cmd_tilt_artin_hasse(cfg: Config, args) -> CliResult:
    series = tilt.artin_hasse(args.p, args.degree, cfg.padic_precision)
    doc = {
        "p": args.p,
        "degree": args.degree,
        "coefficient_precision": cfg.padic_precision,
        "coefficients": list(series.coeffs),
    }
    summary = ["p", "degree", "coefficient_precision"]
    columns, rows, ok = [], [], True
    if args.exponent:
        exponent = parse_fraction(args.exponent)
        a = tilt.monomial(args.p, exponent, args.coeff, cfg.hahn_cap, cfg.coeff_k)
        value = tilt.evaluate_series(series, a)
        shifted = tilt.hahn_add(value, tilt.hahn_neg(tilt.hahn_one(args.p, value.cap, value.k)))
        ok = shifted.valuation() == a.valuation()
        doc["evaluation"] = {
            "exponent": str(exponent),
            "value_minus_one_valuation":
                None if shifted.valuation() is None else str(shifted.valuation()),
            "isometry": ok,
        }
        summary += [("exponent", exponent), ("isometry", ok)]
        columns = ["exponent", "coefficient_tower"]
        rows = _series_rows(value)
    return CliResult(doc, summary, columns, rows, ok)


def _eval_terms_int(terms, xs, ys) -> int:
    vals = list(xs) + list(ys)
    total = 0
    for coeff, exps in terms:
        m = coeff
        for v, e in zip(vals, exps):
            if e:
                m *= v ** e
        total += m
    return total


def _ghost(p: int, vec) -> list:
    return [sum(p ** i * vec[i] ** (p ** (n - i)) for i in range(n + 1))
            for n in range(len(vec))]


def cmd_tilt_witt_check(cfg: Config, args) -> CliResult:
    n_len = cfg.witt_length
    sums, prods = tilt.witt_universal(args.p, n_len)
    rng = SplitMix64(cfg.seed)
    failures = []
    for i in range(args.count):
        xs = [rng.randrange(19) - 9 for _ in range(n_len)]
        ys = [rng.randrange(19) - 9 for _ in range(n_len)]
        s_vec = [_eval_terms_int(sums[n], xs, ys) for n in range(n_len)]
        p_vec = [_eval_terms_int(prods[n], xs, ys) for n in range(n_len)]
        gx, gy = _ghost(args.p, xs), _ghost(args.p, ys)
        sum_ok = _ghost(args.p, s_vec) == [a + b for a, b in zip(gx, gy)]
        prod_ok = _ghost(args.p, p_vec) == [a * b for a, b in zip(gx, gy)]
        if not (sum_ok and prod_ok):
            failures.append({"index": i, "x": xs, "y": ys,
                             "sum_ok": sum_ok, "prod_ok": prod_ok})
    ok = not failures
    doc = {
        "p": args.p,
        "witt_length": n_len,
        "count": args.count,
        "seed": cfg.seed,
        "failures": failures,
        "all_match_ghost_oracle": ok,
    }
    rows = [[f["index"], f["sum_ok"], f["prod_ok"]] for f in failures]
    return CliResult(doc, ["seed", "p", "witt_length", "count", "all_match_ghost_oracle"],
                     ["failed_index", "sum_ok", "prod_ok"], rows, ok)
