"""Command line drivers for the local-global stack.

Every subcommand returns one result document, ``doc``, and renders it in three
modes: json (canonical: sorted keys, floats at 17 significant digits), csv, and
a human table.  ``doc`` is canonical.  The table and csv summary lines name
``doc`` keys and print ``fmt(doc[key])``; a ``(label, value)`` pair stands in
only where ``doc`` holds that value in another shape.  Row cells are raw values
that the renderer formats with the same ``fmt``.  A fixed (config, seed) pair
reproduces byte-identical output.  Randomized experiments print their seed in
the output header.

Configuration layers, later wins: built-in defaults, --config file (JSON,
unknown keys rejected), ARITHMETICOID_* environment variables, command line
flags.  Exit codes: 0 success, 1 validation error, 2 property-check failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple

from .numfield import (
    FieldElement,
    NumberField,
    Place,
    archimedean_place,
    log_term,
    place_over,
    places_up_to,
    product_formula_check,
    roots_of_unity,
)
from .tilt import (
    MAX_WITT_LENGTH,
    artin_hasse,
    evaluate_series,
    hahn_add,
    hahn_neg,
    hahn_one,
    lubin_tate_act,
    monomial,
    witt_universal,
)
from .ffcurve import LocalPointArch, local_point
from .adelic import (
    TateSymbol,
    deform,
    distance,
    first_difference,
    global_frobenius,
    hyperplane_pairing,
    lstar_act,
    mutate_tate_parameters,
    normalization_coordinate,
    period_map,
    stabilizer_check,
    standard_arithmeticoid,
)
from .heights import (
    Frobenioid,
    arithmetic_degree,
    default_sample,
    frobenius_pullback,
    ideloid_from_element,
    make_ideloid,
    principal_divisor,
    scalar_height,
    stabilized_height_report,
)
# cohomology and szpiro (with numpy) are imported by the handlers that use them,
# so every other command starts without them

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_USAGE = 64

ENV_PREFIX = "ARITHMETICOID_"


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration

# name: (default, (lo, hi) or choices, metavar, help).  The type of the default
# is the knob's type; the rational knob's range excludes its lower end.
KNOBS = {
    "field": ("Q", None, "SPEC", 'number field, "Q" or "Q(sqrt(-d))"'),
    "format": ("table", ("json", "csv", "table"), None, "output mode (default table)"),
    "seed": (0, (0, 2 ** 64 - 1), "N", "RNG seed (64-bit)"),
    "hahn_cap": (Fraction(64), (0, 1024), "Q", "truncation cap for series exponents"),
    "coeff_k": (12, (1, 12), "K", "coefficient tower height"),
    "padic_precision": (16, (1, 64), "N", "p-adic coefficient precision"),
    "witt_length": (3, (1, MAX_WITT_LENGTH), "N", "Witt vector length"),
    "grid": (1024, (64, 65536), "N", "sup-evaluation grid size"),
}


@dataclass
class Config:
    field: NumberField
    format: str
    seed: int
    hahn_cap: Fraction
    coeff_k: int
    padic_precision: int
    witt_length: int
    grid: int


def _rational(raw) -> Fraction | None:
    """Fraction(str(raw)), or None when malformed.  An exponent literal of four
    or more digits is malformed too: 1e9999999 would build a huge int.  So is a
    run of more than 1,000 digits, which int() refuses past 4,300 anyway."""
    text = str(raw)
    if re.search(r"[eE][+-]?\d{4}|\d{1001}", text):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _span(lo, hi) -> str:
    """A range as --help shows it: 1..12, or >= 1 / <= 1000 with one end open."""
    if lo is None or hi is None:
        return f">= {lo}" if hi is None else f"<= {hi}"
    return f"{lo}..{hi}"


def _in_range(name: str, val, lo, hi):
    if (lo is None or lo <= val) and (hi is None or val <= hi):
        return val
    want = f"be {_span(lo, hi)}" if None in (lo, hi) else f"lie in [{lo}, {hi}]"
    raise CliError(f"{name} must {want}, got {val}")


def _coerce_knob(key: str, raw) -> object:
    default, spec = KNOBS[key][:2]
    if spec is None:
        return str(raw)
    if isinstance(default, str):
        if str(raw) not in spec:
            raise CliError(f"{key} must be {', '.join(spec[:-1])} or {spec[-1]}, "
                           f"not {str(raw)!r}")
        return str(raw)
    rational = isinstance(default, Fraction)
    # bool is an int subclass
    val = None if isinstance(raw, bool) else _rational(raw)
    if val is None or not (rational or val.denominator == 1):
        kind = "a rational number" if rational else "an integer"
        raise CliError(f"{key} must be {kind}, got {raw!r}")
    lo, hi = spec
    if not rational:
        return _in_range(key, int(val), lo, hi)
    if not lo < val <= hi:
        raise CliError(f"{key} must lie in ({lo}, {hi}], got {val}")
    return val


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> Config:
    values = {key: knob[0] for key, knob in KNOBS.items()}
    path = getattr(args, "config", None)
    if path:
        data = _read_json(path)
        if not isinstance(data, dict):
            raise CliError("config file must hold a JSON object")
        for key, raw in data.items():
            if key not in values:
                raise CliError(f"unknown config key {key!r}")
            values[key] = _coerce_knob(key, raw)
    for key in values:
        for raw in (os.environ.get(ENV_PREFIX + key.upper()), getattr(args, key, None)):
            if raw is not None:
                values[key] = _coerce_knob(key, raw)
    values["field"] = NumberField.parse(values["field"])
    return Config(**values)


# ---------------------------------------------------------------------------
# input grammar

_RAT = r"\d{1,1000}(?:/\d{1,1000})?"  # the digit cap of _rational
# a + b*g with g = i or w; a, when present, is followed by the sign of b
_QUADRATIC = rf"(?:(?P<a>[+-]?{_RAT})(?=[+-]))?(?P<b>[+-]?(?:{_RAT})?)\*?(?P<g>[iw])"


def parse_element(field: NumberField, text: str) -> FieldElement:
    """Accepts 7, -3/5, i, 2+i, 1/2-3/4w, 3*w, or the pair form a,b."""
    s = text.strip().replace(" ", "")
    if not s:
        raise CliError("empty element")
    if "," in s:
        pair = [_rational(c) for c in s.split(",")]
        if len(pair) != 2 or None in pair:
            raise CliError(f"cannot parse element {text!r}")
        return field.element(*pair)
    if re.fullmatch(rf"[+-]?{_RAT}", s):
        return field.element(parse_fraction(s))
    m = re.fullmatch(_QUADRATIC, s)
    if m is None:
        raise CliError(f"cannot parse element {text!r}")
    if field.d is None:
        raise CliError(f"element {text!r} needs a quadratic field")
    if m["g"] == "i" and field.d != 1:
        raise CliError("the letter i denotes the generator of Q(sqrt(-1)) only; use w")
    b = m["b"] + "1" if m["b"] in ("", "+", "-") else m["b"]
    return field.element(parse_fraction(m["a"] or "0"), parse_fraction(b))


def parse_place(field: NumberField, token: str) -> Place:
    m = re.fullmatch(r"(\d{1,1000})('*)", token.strip())
    if m is None:
        raise CliError(f"cannot parse place token {token!r}; expected like 5 or 5'")
    try:
        return place_over(field, int(m[1]), len(m[2]))
    except ValueError as exc:
        raise CliError(f"no place {token!r} in {field}: {exc}") from exc


def parse_matrix(text: str):
    rows = [r for r in text.replace(" ", "").split(";") if r]
    if len(rows) != 2:
        raise CliError("matrix must be two rows a,b;c,d")
    out = [r.split(",") for r in rows]
    if any(len(cells) != 2 for cells in out):
        raise CliError("matrix rows need two entries")
    try:
        finite = all(math.isfinite(float(c)) for r in out for c in r)
    except ValueError as exc:
        raise CliError(f"bad matrix entry: {exc}") from exc
    if not finite:  # float() turns an entry past 1e308 into inf
        raise CliError(f"matrix {text!r} must have finite entries")
    integral = all(re.fullmatch(r"[+-]?\d+", c) for r in out for c in r)
    return tuple(tuple((int if integral else float)(c) for c in r) for r in out)


def parse_range(text: str) -> range:
    """HI or LO:HI as range(LO, HI), both ends in [-64, 64]."""
    m = re.fullmatch(r"(?:([+-]?\d{1,9}):)?([+-]?\d{1,9})", text.strip())
    if m is None:
        raise CliError(f"cannot parse range {text!r}; expected HI or LO:HI")
    lo, hi = int(m[1] or 0), int(m[2])
    if not (-64 <= lo <= 64 and -64 <= hi <= 64):
        raise CliError(f"range {text!r} must have both ends in [-64, 64]")
    return range(lo, hi)


def parse_complex(text: str) -> complex:
    s = text.replace(" ", "")
    try:
        z = complex(*map(float, s.split(",", 1))) if "," in s else complex(s)
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise CliError(f"complex number {text!r} must be finite")
    return z


def parse_fraction(text: str) -> Fraction:
    val = _rational(text)
    if val is None:
        raise CliError(f"cannot parse fraction {text!r}")
    return val


def build_carrier(cfg: Config, args: argparse.Namespace):
    """Standard arithmeticoid deformed per flags: --deform, --arch-scale, --frobenius."""
    y = standard_arithmeticoid(cfg.field)
    for spec in getattr(args, "deform", None) or []:
        if ":" not in spec:
            raise CliError(f"deformation {spec!r} must look like 5:3/2")
        tok, e_text = spec.split(":", 1)
        v = parse_place(cfg.field, tok)
        e = parse_fraction(e_text)
        if e <= 0:
            raise CliError("deformation exponent must be > 0")
        y = deform(y, v, local_point(v, e))
    text = getattr(args, "arch_scale", None)
    if text is not None:
        try:
            point = LocalPointArch(parse_fraction(text))
        except ValueError as exc:
            raise CliError(f"--arch-scale: {exc}") from exc
        y = deform(y, archimedean_place(cfg.field), point)
    m = getattr(args, "frobenius", None)
    if m:
        y = global_frobenius(y, m)
    return y


# ---------------------------------------------------------------------------
# rendering

def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        sign = "+" if x.imag >= 0 else "-"
        return f"{fmt_float(x.real)}{sign}{fmt_float(abs(x.imag))}j"
    if x is None:
        return "-"
    return str(x)


def canon_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {canon_json(value[k], indent + 1)}"
            for k in sorted(value, key=str)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{canon_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, complex):
        return f"[{fmt_float(value.real)}, {fmt_float(value.imag)}]"
    raise CliError(f"cannot serialize {type(value).__name__}")


def _csv_cell(cell: str) -> str:
    if any(ch in cell for ch in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@dataclass
class CliResult:
    doc: dict
    summary: list = dc_field(default_factory=list)  # doc keys, or (label, value) pairs
    columns: list = dc_field(default_factory=list)
    rows: list = dc_field(default_factory=list)     # lists of raw cell values
    ok: bool = True


def render(res: CliResult, mode: str) -> str:
    if mode == "json":
        return canon_json(res.doc)
    summary = [item if isinstance(item, tuple) else (item, res.doc[item])
               for item in res.summary]
    summary = [(k, fmt(v)) for k, v in summary]
    rows = [[fmt(c) for c in row] for row in res.rows]
    lines = []
    if mode == "csv":
        lines += [f"# {k} = {v}" for k, v in summary]
        if res.columns:
            lines.append(",".join(res.columns))
            lines += [",".join(_csv_cell(c) for c in row) for row in rows]
        return "\n".join(lines)
    lines += [f"{k} = {v}" for k, v in summary]
    if res.columns:
        if lines:
            lines.append("")
        widths = [len(c) for c in res.columns]
        for row in rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        for row in [res.columns] + rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _tuple_cell(values) -> str:
    return "(" + ",".join(str(c) for c in values) + ")"


def _residue_cells(v: Place, k) -> tuple:
    """A Kummer class's order part as "n mod p^k" and its unit tag as "(a,b)"."""
    return f"{k.order_part} mod {v.prime ** k.precision}", _tuple_cell(k.unit_tag)


# ---------------------------------------------------------------------------
# subcommands

# Caps on the work a handler's loops multiply together, where per-flag ranges
# cannot bound the product; each command at its cap took under 5 s (2 vCPUs).
ORBIT_WORK = 150_000           # stabilizer checks
SUBADD_WORK = 5000 * 1024      # count * grid: the --count bound at the default grid
LATTICE_WORK = 16384 * 1024    # heights * grid, grids below 1024 counted as 1024


def _check_work(flags: str, formula: str, work: int, cap: int) -> None:
    if work > cap:
        raise CliError(f"{flags} ask for {formula} = {work}, more than the cap of {cap}")


def cmd_places(cfg: Config, args) -> CliResult:
    places = places_up_to(cfg.field, args.bound)
    doc = {"field": str(cfg.field), "bound": args.bound,
           "places": [v.to_json() for v in places]}
    rows = [
        [v, "inf" if v.is_archimedean else v.prime,
         v.e, v.f, v.conjugate_index, v.local_degree]
        for v in places
    ]
    return CliResult(doc, ["field"],
                     ["place", "prime", "e", "f", "conjugate_index", "degree"], rows)


def cmd_height(cfg: Config, args) -> CliResult:
    y = build_carrier(cfg, args)
    z = parse_element(cfg.field, args.z)
    report = scalar_height(y, z)
    primes = sorted({t.place.prime for t in report.finite})
    coeffs = {p: report.finite_coefficient(p) for p in primes}
    doc = report.to_json()
    doc["field"] = str(cfg.field)
    doc["finite_coefficients"] = {str(p): str(c) for p, c in coeffs.items() if c != 0}
    rows = [[t.place, t.alpha, f"{t.log_scale}*log({t.place.prime})", t.value]
            for t in report.finite]
    a = report.archimedean
    rows.append(["v_inf", 1.0 / a.s, a.log_abs, a.value])
    return CliResult(doc, ["label", "total"],
                     ["place", "alpha", "log_abs", "contribution"], rows)


def cmd_stabilized_height(cfg: Config, args) -> CliResult:
    y = build_carrier(cfg, args)
    if args.scale:
        x = parse_element(cfg.field, args.scale)
        try:
            y = lstar_act(x, y)
        except ValueError as exc:
            raise CliError(f"--scale: {exc}") from exc
    z = parse_element(cfg.field, args.z)
    base = scalar_height(y, z).total
    sample = default_sample(cfg.field, args.max_factors, args.prime_bound)
    value, witness = stabilized_height_report(y, z, sample)
    doc = {
        "field": str(cfg.field),
        "z": str(z),
        "base_height": base,
        "stabilized_height": value,
        "witness": None if witness is None else str(witness),
        "sample_size": len(sample),
    }
    return CliResult(doc, list(doc))


def cmd_orbit(cfg: Config, args) -> CliResult:
    b_range = range(-args.bound, args.bound + 1) if cfg.field.d is not None else (0,)
    _check_work(f"--bound {args.bound} and --denominator-bound {args.denominator_bound}",
                "(2*bound+1)^degree * denominator_bound stabilizer checks",
                (2 * args.bound + 1) * len(b_range) * args.denominator_bound, ORBIT_WORK)
    y = standard_arithmeticoid(cfg.field)
    found = {}
    for den in range(1, args.denominator_bound + 1):
        for a in range(-args.bound, args.bound + 1):
            for b in b_range:
                if a == 0 and b == 0:
                    continue
                x = cfg.field.element(Fraction(a, den), Fraction(b, den))
                if (x.a, x.b) in found:
                    continue
                if stabilizer_check(x, y):
                    found[(x.a, x.b)] = x
    stabilizers = [found[k] for k in sorted(found)]
    torsion = {(x.a, x.b) for x in roots_of_unity(cfg.field)}
    ok = set(found) == torsion
    doc = {
        "field": str(cfg.field),
        "bound": args.bound,
        "denominator_bound": args.denominator_bound,
        "stabilizers": [str(x) for x in stabilizers],
        "count": len(stabilizers),
        "matches_torsion": ok,
    }
    rows = [[x, x.norm()] for x in stabilizers]
    return CliResult(doc, ["field", "bound", "count", "matches_torsion"],
                     ["element", "norm"], rows, ok)


def cmd_product_formula(cfg: Config, args) -> CliResult:
    x = parse_element(cfg.field, args.x)
    report = product_formula_check(x)
    ok = report.exact
    primes = sorted(set(report.finite_exponent_sums) | set(report.norm_exponents))
    rows = [[p, report.finite_exponent_sums.get(p, Fraction(0)),
             report.norm_exponents.get(p, Fraction(0))] for p in primes]
    doc = {
        "field": str(cfg.field),
        "x": str(x),
        "finite_coefficients": {str(p): str(c) for p, c, _ in rows},
        "norm_exponents": {str(p): str(n) for p, _, n in rows},
        "archimedean_log": report.archimedean_log,
        "residual": report.residual,
        "exact": ok,
    }
    return CliResult(doc, ["field", "x", "archimedean_log", "residual", "exact"],
                     ["prime", "finite_coefficient", "norm_exponent"], rows, ok)


def cmd_distance(cfg: Config, args) -> CliResult:
    y0 = standard_arithmeticoid(cfg.field)
    y1 = build_carrier(cfg, args)
    doc = {
        "field": str(cfg.field),
        "distance": distance(y0, y1),
        "first_index": first_difference(y0, y1),
    }
    return CliResult(doc, list(doc))


def cmd_period_map(cfg: Config, args) -> CliResult:
    y = build_carrier(cfg, args)
    coords = normalization_coordinate(y)
    all_ones = period_map(y) == period_map(standard_arithmeticoid(cfg.field))
    doc = {
        "field": str(cfg.field),
        "frobenius_shift": coords.shift,
        "archimedean": float(coords.arch),
        "overrides": [{"place": str(v), "alpha": str(a)} for v, a in coords.overrides],
        "all_ones": all_ones,
    }
    summary = ["field", "frobenius_shift", "archimedean", "all_ones"]
    ok = True
    if args.x:
        x = parse_element(cfg.field, args.x)
        pairing = hyperplane_pairing(y, x)
        ok = pairing.exact
        doc["hyperplane"] = {
            "x": str(x),
            "finite_coefficients": {str(p): str(c)
                                    for p, c in sorted(pairing.finite_coefficients.items())},
            "archimedean_term": pairing.archimedean_term,
            "residual": pairing.residual,
            "exact": ok,
        }
        summary += [("hyperplane_x", x), ("hyperplane_residual", pairing.residual),
                    ("hyperplane_exact", ok)]
    return CliResult(doc, summary, ["place", "alpha"], coords.overrides, ok)


def cmd_frobenioid(cfg: Config, args) -> CliResult:
    x = parse_element(cfg.field, args.x)
    div = principal_divisor(x)
    effective = all(o >= 0 for _, o in div)
    entries = None
    if effective:
        elt = Frobenioid(cfg.field, args.mode).element(dict(div))
        if args.pullback:
            try:
                elt = frobenius_pullback(elt, args.pullback)
            except OverflowError as exc:
                raise CliError(f"--pullback {args.pullback}: p^{args.pullback} leaves "
                               f"the float range of mode real") from exc
        entries = elt.entries
    elif args.pullback:
        raise CliError("pullback needs an effective divisor (no poles)")
    doc = {
        "field": str(cfg.field),
        "x": str(x),
        "mode": args.mode,
        "divisor": [{"place": str(v), "order": o} for v, o in div],
        "effective": effective,
        "monoid_element": None if entries is None else
        [{"place": str(v), "exponent": fmt(c)} for v, c in entries],
        "identity": bool(entries is not None and not entries),
    }
    after = {} if entries is None else dict(entries)
    rows = [[v, o, None if entries is None else after.get(v, 0)] for v, o in div]
    return CliResult(doc, ["field", "x", "mode", "effective"],
                     ["place", "order", "monoid_exponent"], rows)


def cmd_degree(cfg: Config, args) -> CliResult:
    x = parse_element(cfg.field, args.x)
    ideal = ideloid_from_element(x)
    if args.arch_log:
        ideal = make_ideloid(cfg.field, dict(ideal.entries),
                             ideal.arch_log + args.arch_log)
    report = arithmetic_degree(standard_arithmeticoid(cfg.field), ideal)
    vanishes = report.vanishes
    doc = {
        "field": str(cfg.field),
        "x": str(x),
        "arch_log_offset": float(args.arch_log),
        "finite": [{"prime": p, "coefficient": str(c)} for p, c in report.finite],
        "archimedean": report.archimedean,
        "total": report.total,
        "principal_vanishes": vanishes,
    }
    summary = ["field", "x", "archimedean", "total"]
    if report.principal:
        summary.append("principal_vanishes")
    rows = [[p, c, log_term(c, p)] for p, c in report.finite]
    return CliResult(doc, summary, ["prime", "coefficient", "value"], rows, vanishes is not False)


def cmd_mutate(cfg: Config, args) -> CliResult:
    params = []
    for spec in args.param or []:
        if ":" not in spec:
            raise CliError(f"parameter {spec!r} must look like name:log_abs")
        name, raw = spec.rsplit(":", 1)
        try:
            params.append(TateSymbol(name, float(raw)))
        except ValueError as exc:
            raise CliError(f"bad log_abs in {spec!r}: {exc}") from exc
    if args.params_file:
        data = _read_json(args.params_file)
        try:
            params += [TateSymbol(str(rec["name"]), float(rec["log_abs"])) for rec in data]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f'{args.params_file} must hold a JSON list of '
                           f'{{"name": ..., "log_abs": <number>}} objects') from exc
    report = mutate_tate_parameters(params, args.independent)
    doc = {
        "independent": args.independent,
        "inverted_count": report.inverted_count,
        "fresh_parameters_required": report.fresh_parameters_required,
        "entries": [
            {"name": e.name, "inverted": e.inverted, "log_abs_before": e.log_abs_before,
             "log_abs_after": e.log_abs_after, "admissible": e.admissible}
            for e in report.entries
        ],
    }
    rows = [[e.name, e.inverted, e.log_abs_before, e.log_abs_after, e.admissible]
            for e in report.entries]
    return CliResult(doc, ["independent", "inverted_count", "fresh_parameters_required"],
                     ["name", "inverted", "before", "after", "admissible"], rows)


# --- cohomology ------------------------------------------------------------

def cmd_cohomology_kummer(cfg: Config, args) -> CliResult:
    from .cohomology import kummer_class

    v = parse_place(cfg.field, args.place)
    x = parse_element(cfg.field, args.x)
    k = kummer_class(x, v, args.level)
    doc = {
        "field": str(cfg.field),
        "x": str(x),
        "place": v.to_json(),
        "level": k.precision,
        "order_part": k.order_part,
        "order_modulus": v.prime ** k.precision,
        "unit_tag": list(k.unit_tag),
        "tag_modulus": k.tag_modulus,
        "is_unit_class": k.is_unit_class(),
    }
    order_part, unit_tag = _residue_cells(v, k)
    return CliResult(doc, ["field", "x", ("place", v), ("order_part", order_part),
                           ("unit_tag", unit_tag), "tag_modulus", "is_unit_class"])


def cmd_cohomology_tate(cfg: Config, args) -> CliResult:
    from .cohomology import adelic_class_to_json, bloch_kato_member, tate_class

    semistable = {}
    for spec in args.entry or []:
        if ":" not in spec:
            raise CliError(f"entry {spec!r} must look like 7:3/1")
        tok, raw = spec.split(":", 1)
        v = parse_place(cfg.field, tok)
        semistable[v] = parse_element(cfg.field, raw)
    arch = parse_complex(args.arch)
    cls = tate_class(cfg.field, semistable, arch, n=args.level)
    doc = adelic_class_to_json(cls)
    doc["bloch_kato_member"] = bloch_kato_member(cls)
    rows = [[v, *_residue_cells(v, k), k.tag_modulus] for v, k in cls.finite]
    return CliResult(doc, ["field", ("archimedean", cls.archimedean), "bloch_kato_member"],
                     ["place", "order_part", "unit_tag", "tag_modulus"], rows)


def cmd_cohomology_collate(cfg: Config, args) -> CliResult:
    from .cohomology import (adelic_class_from_json, adelic_class_to_json, collate,
                             transform_from_json)

    data = _read_json(args.input)
    try:
        classes = {label: adelic_class_from_json(doc)
                   for label, doc in data["classes"].items()}
        isos = {label: [transform_from_json(cls.field, t)
                        for t in data.get("transforms", {}).get(label, [])]
                for label, cls in classes.items()}
    except (AttributeError, KeyError, TypeError) as exc:
        raise CliError(f'{args.input} must hold {{"classes": {{label: class}}, '
                       f'"transforms": {{label: [transform]}}}}') from exc
    except ValueError as exc:
        raise CliError(f"{args.input}: {exc}") from exc
    merged = collate(classes, isos)
    docs = sorted((adelic_class_to_json(c) for c in merged), key=canon_json)
    doc = {"input_count": len(classes), "collated_count": len(merged),
           "classes": docs}
    return CliResult(doc, ["input_count", "collated_count"])


# --- tilt ------------------------------------------------------------------

def _series_rows(x):
    rows = [[e, _tuple_cell(vec)] for e, vec in x.terms]
    if len(rows) > 16:
        rows = rows[:16] + [["...", f"{len(x.terms) - 16} more terms"]]
    return rows


def cmd_tilt_eval(cfg: Config, args) -> CliResult:
    u = parse_fraction(args.u)
    exponent = parse_fraction(args.exponent)
    a = monomial(args.p, exponent, args.coeff, cfg.hahn_cap, cfg.coeff_k)
    out = lubin_tate_act(u, a)
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
    series = artin_hasse(args.p, args.degree, cfg.padic_precision)
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
        a = monomial(args.p, exponent, args.coeff, cfg.hahn_cap, cfg.coeff_k)
        value = evaluate_series(series, a)
        shifted = hahn_add(value, hahn_neg(hahn_one(args.p, value.cap, value.k)))
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
    from .szpiro import SplitMix64

    n_len = cfg.witt_length
    sums, prods = witt_universal(args.p, n_len)
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


# --- szpiro ----------------------------------------------------------------

def cmd_szpiro_height(cfg: Config, args) -> CliResult:
    from . import szpiro as sz

    m = parse_matrix(args.matrix)
    e = sz.lift(m, args.winding)
    h = sz.height_q(e, cfg.grid)
    doc = {
        "matrix": [list(r) for r in m],
        "winding": args.winding,
        "lift0": e.lift0,
        "grid": cfg.grid,
        "height": h.value,
        "error": h.error,
    }
    return CliResult(doc, ["lift0", "grid", "height", "error"])


def _random_cover_elt(rng):
    from . import szpiro as sz

    kind = rng.randrange(3)
    if kind == 0:
        t = rng.uniform(0.0, 2 * math.pi)
        m = ((math.cos(t), -math.sin(t)), (math.sin(t), math.cos(t)))
    elif kind == 1:
        m = ((1.0, rng.uniform(-2.0, 2.0)), (0.0, 1.0))
    else:
        t = rng.uniform(0.2, 3.0)
        m = ((t, 0.0), (0.0, 1.0 / t))
    return sz.lift(m, rng.randrange(5) - 2)


def cmd_szpiro_subadd(cfg: Config, args) -> CliResult:
    from . import szpiro as sz

    _check_work(f"--count {args.count} and grid {cfg.grid}", "count * grid",
                args.count * cfg.grid, SUBADD_WORK)
    rng = sz.SplitMix64(cfg.seed)
    min_slack = math.inf
    violations = []
    for i in range(args.count):
        e1, e2 = _random_cover_elt(rng), _random_cover_elt(rng)
        h1 = sz.height_q(e1, cfg.grid)
        h2 = sz.height_q(e2, cfg.grid)
        h12 = sz.height_q(sz.compose(e1, e2), cfg.grid)
        slack = (h1.value + h2.value + h1.error + h2.error + h12.error + 1e-9
                 - h12.value)
        min_slack = min(min_slack, slack)
        if slack < 0:
            violations.append({"index": i, "slack": slack})
    ok = not violations
    doc = {
        "seed": cfg.seed,
        "count": args.count,
        "grid": cfg.grid,
        "min_slack": min_slack,
        "violations": violations,
        "subadditive": ok,
    }
    rows = [[v["index"], v["slack"]] for v in violations]
    return CliResult(doc, ["seed", "count", "grid", "min_slack", "subadditive"],
                     ["failed_index", "slack"], rows, ok)


def cmd_szpiro_theta(cfg: Config, args) -> CliResult:
    from . import szpiro as sz

    tau = parse_complex(args.tau)
    vals = sz.theta_values(tau, args.ell)
    doc = {
        "tau": tau,
        "ell": args.ell,
        "schottky": sz.schottky(tau),
        "theta_values": [{"j": j + 1, "value": v, "modulus": abs(v)}
                         for j, v in enumerate(vals)],
    }
    rows = [[t["j"], t["value"], t["modulus"]] for t in doc["theta_values"]]
    return CliResult(doc, ["tau", "ell", "schottky"], ["j", "value", "modulus"], rows)


def cmd_szpiro_cor312(cfg: Config, args) -> CliResult:
    from . import szpiro as sz

    datum = sz.monodromy_generate(args.genus, args.punctures, cfg.seed)
    try:
        report = sz.corollary312_check(datum, args.ell, grid=cfg.grid, seed=cfg.seed)
    except OverflowError as exc:
        raise CliError(f"seed {cfg.seed}: the composed lifts leave the float range "
                       f"at ell = {args.ell}") from exc
    irr = sz.irreducible(sz.reduce_mod(datum, args.ell), args.ell)
    doc = {
        "seed": cfg.seed,
        "ell": args.ell,
        "genus": args.genus,
        "punctures": args.punctures,
        "grid": cfg.grid,
        "mid": report.mid,
        "rhs": report.rhs,
        "tolerance": report.tolerance,
        "irreducible_mod_ell": irr,
        "passed": report.passed,
    }
    rows = [[cfg.seed, report.mid, report.rhs, report.passed]]
    return CliResult(doc, ["seed", "ell", "genus", "punctures", "irreducible_mod_ell", "passed"],
                     ["seed", "mid", "rhs", "pass"], rows, report.passed)


def cmd_szpiro_lattice(cfg: Config, args) -> CliResult:
    from . import szpiro as sz

    n_values = parse_range(args.n)
    m_values = parse_range(args.m)
    _check_work(f"--n {args.n}, --m {args.m}, --ell {args.ell} and grid {cfg.grid}",
                "|n| * |m| * (ell-1)/2 heights * max(grid, 1024)",
                len(n_values) * len(m_values) * (args.ell - 1) // 2 * max(cfg.grid, 1024),
                LATTICE_WORK)
    grid = sz.log_theta_lattice(n_values, m_values, args.ell, cfg.seed)
    sites = []
    rows = []
    for (n, m) in sorted(grid):
        site = grid[(n, m)]
        heights = [sz.height_q(e, cfg.grid) for e in site.elements]
        sites.append({
            "label": site.label, "n": n, "m": m,
            "heights": [{"value": h.value, "error": h.error} for h in heights],
        })
        rows += [[site.label, n, m, j, h.value, h.error]
                 for j, h in enumerate(heights, start=1)]
    doc = {"seed": cfg.seed, "ell": args.ell, "grid": cfg.grid, "sites": sites}
    return CliResult(doc, ["seed", "ell", ("sites", len(sites))],
                     ["label", "n", "m", "j", "height", "error"], rows)


# ---------------------------------------------------------------------------
# flag tables and parser assembly

class Flag(NamedTuple):
    """One command line flag.  Every int flag has bounds (lo, hi), either end
    None for open; every float flag must be finite."""
    name: str
    type: type | None = None
    default: object = None
    bounds: tuple | None = None
    help: str | None = None
    metavar: str | None = None
    required: bool = False
    choices: tuple | None = None
    repeat: bool = False

    def add_to(self, group) -> None:
        span = self.bounds and _span(*self.bounds)
        group.add_argument(
            self.name, type=self.type, default=self.default, metavar=self.metavar,
            required=self.required, choices=self.choices,
            help=", ".join(filter(None, [self.help, span])) or None,
            **({"action": "append"} if self.repeat else {}))


KNOB_FLAGS = [
    Flag("--" + key.replace("_", "-"), int if isinstance(default, int) else None,
         bounds=spec if isinstance(default, int) else None,
         choices=spec if isinstance(default, str) else None, metavar=metavar, help=text)
    for key, (default, spec, metavar, text) in KNOBS.items()
]

CARRIER = [
    Flag("--deform", repeat=True, metavar="P:E",
         help="Beltrami exponent E at the place over P (repeatable)"),
    Flag("--arch-scale", metavar="S", help="rational archimedean scale s > 0"),
    Flag("--frobenius", int, 0, (-100, 100), "global Frobenius twists", metavar="M"),
]
X = Flag("--x", required=True, help="nonzero field element")
Z = Flag("--z", required=True, help="field element")
P = Flag("--p", int, bounds=(None, 1000), required=True)  # check_prime rejects the rest
COEFF = Flag("--coeff", int, 1, (-10 ** 6, 10 ** 6))
LEVEL = Flag("--level", int, 3, (1, 32))
ELL = Flag("--ell", int, 5, (5, 1000))
GROUPS = {"cohomology": "Kummer classes and collation",
          "tilt": "perfectoid-side series operations",
          "szpiro": "universal cover heights and theta links"}

# (command words, handler, help, flags); each bound keeps its flag under 10 s
COMMANDS = [
    ("places", cmd_places, "enumerate places of the field",
     [Flag("--bound", int, 20, (2, 100_000), "rational prime bound")]),
    ("height", cmd_height, "deformation height of (1 : z)", [Z, *CARRIER]),
    ("stabilized-height", cmd_stabilized_height, "sup of the height over a sampled orbit",
     [Z, Flag("--scale", help="act by this element before sampling"),
      Flag("--max-factors", int, 3, (0, 3)), Flag("--prime-bound", int, 50, (2, 60)), *CARRIER]),
    ("orbit", cmd_orbit, "scan for stabilizers of the standard point",
     [Flag("--bound", int, 5, (1, 100), "coordinate bound"),
      Flag("--denominator-bound", int, 1, (1, 100))]),
    ("product-formula", cmd_product_formula, "exact product formula check for one element", [X]),
    ("distance", cmd_distance, "metric distance from the standard point to a deformed one",
     CARRIER),
    ("period-map", cmd_period_map, "normalization coordinates and hyperplane pairing",
     [Flag("--x", help="pair the period data against this element"), *CARRIER]),
    ("frobenioid", cmd_frobenioid, "divisor monoid data of an element",
     [X, Flag("--mode", default="integer", choices=("integer", "perfection", "real")),
      Flag("--pullback", int, 0, (0, 64), "divide exponents by p^M at each place")]),
    ("degree", cmd_degree, "arithmetic degree of a principal ideloid",
     [X, Flag("--arch-log", float, 0.0, help="extra archimedean log-modulus")]),
    ("mutate", cmd_mutate, "invert Tate parameters and flag the results",
     [Flag("--param", repeat=True, metavar="NAME:LOG_ABS", help="Tate symbol (repeatable)"),
      Flag("--params-file", metavar="PATH", help='JSON list of {"name", "log_abs"}'),
      Flag("--independent", int, None, (0, None), "how many leading symbols to invert",
           required=True)]),
    ("cohomology kummer", cmd_cohomology_kummer, "Kummer class of x at a place",
     [Flag("--x", required=True), Flag("--place", required=True, metavar="P", help="like 5 or 5'"),
      LEVEL]),
    ("cohomology tate-class", cmd_cohomology_tate, "adelic class of Tate parameters",
     [Flag("--entry", repeat=True, metavar="P:Q",
           help="Tate parameter Q at the place over P (repeatable)"),
      Flag("--arch", required=True, help="Schottky parameter, |q| < 1"), LEVEL]),
    ("cohomology collate", cmd_cohomology_collate,
     "merge labeled classes through transform families",
     [Flag("--input", required=True, metavar="PATH")]),
    ("tilt eval", cmd_tilt_eval, "one-parameter action [u] on a monomial",
     [P, Flag("--u", required=True, help="p-integral rational"),
      Flag("--exponent", required=True, help="positive rational exponent"), COEFF]),
    ("tilt artin-hasse", cmd_tilt_artin_hasse, "p-integral exponential, optional isometry check",
     [P, Flag("--degree", int, 60, (1, 2000)),
      Flag("--exponent", help="evaluate at coeff * t^exponent"), COEFF]),
    ("tilt witt-check", cmd_tilt_witt_check, "universal Witt polynomials against the ghost oracle",
     [P, Flag("--count", int, 200, (1, 5000))]),
    ("szpiro height", cmd_szpiro_height, "displacement height of one lift",
     [Flag("--matrix", required=True, metavar="a,b;c,d"),
      Flag("--winding", int, 0, (-10 ** 6, 10 ** 6))]),
    ("szpiro subadd", cmd_szpiro_subadd, "Monte-Carlo subadditivity of the height",
     [Flag("--count", int, 1000, (1, 5000))]),
    ("szpiro theta", cmd_szpiro_theta, "theta values and the Schottky parameter",
     [Flag("--tau", required=True, help='upper half plane, like "0.3+0.9j"'), ELL]),
    ("szpiro cor312", cmd_szpiro_cor312, "sup-mid-degree chain for one random monodromy datum",
     [ELL, Flag("--genus", int, 0, (0, 100)), Flag("--punctures", int, 3, (1, 100))]),
    # parse_range bounds the --n and --m spans
    ("szpiro lattice", cmd_szpiro_lattice, "finite block of the theta lattice",
     [Flag("--n", default="3", metavar="LO:HI"), Flag("--m", default="-2:3", metavar="LO:HI"),
      ELL]),
]


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> Parser:
    epilog = ("environment overrides: " + ", ".join(ENV_PREFIX + k.upper() for k in KNOBS)
              + ".  precedence: defaults < --config file < environment < flags.")
    parser = Parser(prog="arithmeticoid", description=__doc__.splitlines()[0],
                    epilog=epilog)
    subparsers = {(): parser.add_subparsers(metavar="COMMAND")}
    for words, func, help_text, flags in COMMANDS:
        *group, name = words.split()
        if tuple(group) not in subparsers:
            g = subparsers[()].add_parser(group[0], help=GROUPS[group[0]])
            g.set_defaults(func=None)
            subparsers[tuple(group)] = g.add_subparsers(metavar="SUBCOMMAND")
        p = subparsers[tuple(group)].add_parser(name, help=help_text, epilog=epilog)
        config = p.add_argument_group("configuration")
        config.add_argument("--config", metavar="PATH", help="JSON config file")
        for flag in KNOB_FLAGS:
            flag.add_to(config)
        for flag in flags:
            flag.add_to(p)
        p.set_defaults(func=func, flags=flags)
    return parser


def check_flags(args: argparse.Namespace) -> None:
    """Exit 1 on an out-of-range int flag or a non-finite float flag."""
    for flag in args.flags:
        val = getattr(args, flag.name[2:].replace("-", "_"))
        if val is not None and flag.type is float and not math.isfinite(val):
            raise CliError(f"{flag.name} must be finite, got {val}")
        if val is not None and flag.bounds:
            _in_range(flag.name, val, *flag.bounds)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.error("a subcommand is required")
    try:
        check_flags(args)
        cfg = resolve_config(args)
        result = args.func(cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        print(render(result, cfg.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # closed by the reader: quiet the flush at exit (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    return EXIT_OK if result.ok else EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
