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

from .numfield import (
    FieldElement,
    NumberField,
    Place,
    archimedean_place,
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
from .cohomology import (
    adelic_class_from_json,
    adelic_class_to_json,
    bloch_kato_member,
    collate,
    kummer_class,
    tate_class,
    transform_from_json,
)
from . import szpiro as sz

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_USAGE = 64

ENV_PREFIX = "ARITHMETICOID_"
PLACES_MAX_BOUND = 100_000  # bounds the listing and the place cache it fills


class CliError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration

KNOB_RANGES = {
    "coeff_k": (1, 12),
    "padic_precision": (1, 64),
    "witt_length": (1, MAX_WITT_LENGTH),
    "grid": (64, 65536),
}

CONFIG_DEFAULTS = {
    "field": "Q",
    "format": "table",
    "seed": 0,
    "hahn_cap": "64",
    "coeff_k": 12,
    "padic_precision": 16,
    "witt_length": 3,
    "grid": 1024,
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
    or more digits is malformed too: 1e9999999 would build a huge int."""
    text = str(raw)
    if re.search(r"[eE][+-]?\d{4}", text):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _coerce_knob(key: str, raw) -> object:
    if key == "field":
        return str(raw)
    if key == "format":
        val = str(raw)
        if val not in ("json", "csv", "table"):
            raise CliError(f"format must be json, csv or table, not {val!r}")
        return val
    kind = "a rational number" if key == "hahn_cap" else "an integer"
    # bool is an int subclass
    val = None if isinstance(raw, bool) else _rational(raw)
    if val is None or (key != "hahn_cap" and val.denominator != 1):
        raise CliError(f"{key} must be {kind}, got {raw!r}")
    if key == "hahn_cap":
        if not 0 < val <= 1024:
            raise CliError(f"hahn_cap must lie in (0, 1024], got {val}")
        return str(val)
    val = int(val)
    if key == "seed":
        if not 0 <= val < 2 ** 64:
            raise CliError("seed must be a 64-bit nonnegative integer")
        return val
    lo, hi = KNOB_RANGES[key]
    if not lo <= val <= hi:
        raise CliError(f"{key} must lie in [{lo}, {hi}], got {val}")
    return val


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> Config:
    values = dict(CONFIG_DEFAULTS)
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
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            values[key] = _coerce_knob(key, raw)
    for key in values:
        raw = getattr(args, key, None)
        if raw is not None:
            values[key] = _coerce_knob(key, raw)
    values["field"] = NumberField.parse(values["field"])
    values["hahn_cap"] = Fraction(values["hahn_cap"])
    return Config(**values)


# ---------------------------------------------------------------------------
# input grammar

_RAT = r"\d+(?:/\d+)?"


def parse_element(field: NumberField, text: str) -> FieldElement:
    """Accepts 7, -3/5, i, 2+i, 1/2-3/4w, 3*w, or the pair form a,b."""
    s = text.strip().replace(" ", "")
    if not s:
        raise CliError("empty element")
    if "," in s:
        return FieldElement.parse(field, s)
    m = re.fullmatch(rf"(?P<a>[+-]?{_RAT})", s)
    if m:
        return field.element(Fraction(m["a"]))
    m = re.fullmatch(rf"(?P<b>[+-]?(?:{_RAT})?)\*?(?P<g>[iw])", s)
    if m is None:
        m = re.fullmatch(
            rf"(?P<a>[+-]?{_RAT})(?P<sign>[+-])(?P<braw>(?:{_RAT})?)\*?(?P<g>[iw])", s)
        if m is None:
            raise CliError(f"cannot parse element {text!r}")
        a = Fraction(m["a"])
        b = Fraction(m["braw"]) if m["braw"] else Fraction(1)
        if m["sign"] == "-":
            b = -b
    else:
        a = Fraction(0)
        braw = m["b"]
        b = Fraction(-1) if braw == "-" else Fraction(1) if braw in ("", "+") else Fraction(braw)
    if field.d is None:
        raise CliError(f"element {text!r} needs a quadratic field")
    if m["g"] == "i" and field.d != 1:
        raise CliError("the letter i denotes the generator of Q(sqrt(-1)) only; use w")
    return field.element(a, b)


def parse_place(field: NumberField, token: str) -> Place:
    s = token.strip()
    idx = 0
    while s.endswith("'"):
        idx += 1
        s = s[:-1]
    if not s.isdigit():
        raise CliError(f"cannot parse place token {token!r}; expected like 5 or 5'")
    try:
        return place_over(field, int(s), idx)
    except ValueError as exc:
        raise CliError(f"no place {token!r} in {field}: {exc}") from exc


def parse_matrix(text: str):
    rows = [r for r in text.replace(" ", "").split(";") if r]
    if len(rows) != 2:
        raise CliError("matrix must be two rows a,b;c,d")
    out = []
    integral = True
    for r in rows:
        cells = r.split(",")
        if len(cells) != 2:
            raise CliError("matrix rows need two entries")
        for c in cells:
            if not re.fullmatch(r"[+-]?\d+", c):
                integral = False
        out.append(cells)
    cast = int if integral else float
    try:
        return tuple(tuple(cast(c) for c in r) for r in out)
    except ValueError as exc:
        raise CliError(f"bad matrix entry: {exc}") from exc


def parse_range(text: str) -> range:
    s = text.strip()
    if ":" in s:
        lo, hi = s.split(":", 1)
        return range(int(lo), int(hi))
    return range(int(s))


def parse_complex(text: str) -> complex:
    s = text.replace(" ", "")
    try:
        if "," in s:
            re_part, im_part = s.split(",", 1)
            return complex(float(re_part), float(im_part))
        return complex(s)
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r}") from exc


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
    s = getattr(args, "arch_scale", None)
    if s is not None:
        if s <= 0:
            raise CliError("archimedean scale must be > 0")
        y = deform(y, archimedean_place(cfg.field), LocalPointArch(float(s)))
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

def cmd_places(cfg: Config, args) -> CliResult:
    if not 2 <= args.bound <= PLACES_MAX_BOUND:
        raise CliError(f"--bound must lie in [2, {PLACES_MAX_BOUND}], got {args.bound}")
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
        y = lstar_act(parse_element(cfg.field, args.scale), y)
    z = parse_element(cfg.field, args.z)
    base = scalar_height(y, z).total
    sample = default_sample(cfg.field, args.max_factors, args.prime_bound)
    value, witness = stabilized_height_report(y, z, sample)
    ok = value >= base - 1e-12
    doc = {
        "field": str(cfg.field),
        "z": str(z),
        "base_height": base,
        "stabilized_height": value,
        "witness": None if witness is None else str(witness),
        "sample_size": len(sample),
        "dominates_base": ok,
    }
    return CliResult(doc, list(doc), ok=ok)


def cmd_orbit(cfg: Config, args) -> CliResult:
    if args.bound < 1 or args.denominator_bound < 1:
        raise CliError("bounds must be >= 1")
    y = standard_arithmeticoid(cfg.field)
    found = {}
    b_range = range(-args.bound, args.bound + 1) if cfg.field.d is not None else (0,)
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
    ok = report.exact and report.residual < 1e-9
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
    d = distance(y0, y1)
    moved = bool(y1.deviations) or y1.frobenius_shift != 0
    ok = d > 0 if moved else d == 0
    doc = {
        "field": str(cfg.field),
        "distance": d,
        "moved": moved,
        "separates": ok,
    }
    return CliResult(doc, list(doc), ok=ok)


def cmd_period_map(cfg: Config, args) -> CliResult:
    y = build_carrier(cfg, args)
    coords = normalization_coordinate(y)
    all_ones = period_map(y) == period_map(standard_arithmeticoid(cfg.field))
    doc = {
        "field": str(cfg.field),
        "frobenius_shift": coords.shift,
        "archimedean": coords.arch,
        "overrides": [{"place": str(v), "alpha": str(a)} for v, a in coords.overrides],
        "all_ones": all_ones,
    }
    summary = ["field", "frobenius_shift", "archimedean", "all_ones"]
    ok = True
    if args.x:
        x = parse_element(cfg.field, args.x)
        pairing = hyperplane_pairing(y, x)
        ok = pairing.exact and pairing.residual < 1e-9
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
            elt = frobenius_pullback(elt, args.pullback)
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
        ideal = make_ideloid(cfg.field, {v: o for v, o, _ in ideal.entries},
                             ideal.arch_log + args.arch_log)
    report = arithmetic_degree(standard_arithmeticoid(cfg.field), ideal)
    principal = not args.arch_log
    ok = abs(report.total) < 1e-9 if principal else True
    doc = {
        "field": str(cfg.field),
        "x": str(x),
        "arch_log_offset": float(args.arch_log),
        "finite": [{"prime": p, "coefficient": str(c)} for p, c in report.finite],
        "archimedean": report.archimedean,
        "total": report.total,
        "principal_vanishes": ok if principal else None,
    }
    summary = ["field", "x", "archimedean", "total"]
    if principal:
        summary.append("principal_vanishes")
    rows = [[p, c, float(c) * math.log(p)] for p, c in report.finite]
    return CliResult(doc, summary, ["prime", "coefficient", "value"], rows, ok)


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
    ok = len(report.flagged) == report.inverted_count
    doc = {
        "independent": args.independent,
        "inverted_count": report.inverted_count,
        "fresh_parameters_required": report.fresh_parameters_required,
        "entries": [
            {"name": e.name, "inverted": e.inverted, "log_abs_before": e.log_abs_before,
             "log_abs_after": e.log_abs_after, "admissible": e.admissible}
            for e in report.entries
        ],
        "consistent": ok,
    }
    rows = [[e.name, e.inverted, e.log_abs_before, e.log_abs_after, e.admissible]
            for e in report.entries]
    return CliResult(doc, ["independent", "inverted_count", "fresh_parameters_required"],
                     ["name", "inverted", "before", "after", "admissible"], rows, ok)


# --- cohomology ------------------------------------------------------------

def cmd_cohomology_kummer(cfg: Config, args) -> CliResult:
    v = parse_place(cfg.field, args.place)
    x = parse_element(cfg.field, args.x)
    if not 1 <= args.level <= 32:
        raise CliError("level must lie in [1, 32]")
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

def _series_rows(x, limit: int = 16):
    rows = [[e, _tuple_cell(vec)] for e, vec in x.terms]
    if len(rows) > limit:
        rows = rows[:limit] + [["...", f"{len(x.terms) - limit} more terms"]]
    return rows


def cmd_tilt_eval(cfg: Config, args) -> CliResult:
    u = parse_fraction(args.u)
    exponent = parse_fraction(args.exponent)
    a = monomial(args.p, exponent, args.coeff, cfg.hahn_cap, cfg.coeff_k)
    out = lubin_tate_act(u, a)
    va, vo = a.valuation(), out.valuation()
    unit = u.denominator % args.p != 0 and u.numerator % args.p != 0
    ok = (vo == va) if unit and vo is not None else True
    doc = {
        "p": args.p,
        "u": str(u),
        "input_valuation": None if va is None else str(va),
        "output_valuation": None if vo is None else str(vo),
        "unit_action": unit,
        "valuation_preserved": ok,
        "cap": str(out.cap),
        "terms": [{"exponent": str(e), "coeff": list(vec)} for e, vec in out.terms],
    }
    summary = ["p", "u", "input_valuation", "output_valuation", "valuation_preserved", "cap"]
    return CliResult(doc, summary, ["exponent", "coefficient_tower"], _series_rows(out), ok)


def cmd_tilt_artin_hasse(cfg: Config, args) -> CliResult:
    if args.degree < 1:
        raise CliError("--degree must be >= 1")
    series = artin_hasse(args.p, args.degree, cfg.padic_precision)
    doc = {
        "p": args.p,
        "degree": args.degree,
        "coefficient_precision": cfg.padic_precision,
        "coefficients": list(series.coeffs),
        "p_integral": True,
    }
    summary = ["p", "degree", "coefficient_precision", "p_integral"]
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
    if args.count < 1:
        raise CliError("--count must be >= 1")
    n_len = cfg.witt_length
    sums, prods = witt_universal(args.p, n_len)
    rng = sz.SplitMix64(cfg.seed)
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


def _random_cover_elt(rng: sz.SplitMix64):
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
    if args.count < 1:
        raise CliError("--count must be >= 1")
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
    tau = parse_complex(args.tau)
    vals = sz.theta_values(tau, args.ell)
    q = sz.schottky(tau)
    scaled = sz.schottky(4 * tau)
    drift = abs(scaled - q ** 4)
    ok = drift < 1e-10
    doc = {
        "tau": tau,
        "ell": args.ell,
        "schottky": q,
        "scaling_drift_alpha_4": drift,
        "scaling_ok": ok,
        "theta_values": [{"j": j + 1, "value": v, "modulus": abs(v)}
                         for j, v in enumerate(vals)],
    }
    rows = [[t["j"], t["value"], t["modulus"]] for t in doc["theta_values"]]
    return CliResult(doc, ["tau", "ell", "schottky", "scaling_drift_alpha_4", "scaling_ok"],
                     ["j", "value", "modulus"], rows, ok)


def cmd_szpiro_cor312(cfg: Config, args) -> CliResult:
    if args.punctures < 1:
        raise CliError("--punctures must be >= 1")
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
        "lhs": report.lhs,
        "mid": report.mid,
        "rhs": report.rhs,
        "tolerance": report.tolerance,
        "irreducible_mod_ell": irr,
        "passed": report.passed,
    }
    rows = [[cfg.seed, report.lhs, report.mid, report.rhs, report.passed]]
    return CliResult(doc, ["seed", "ell", "genus", "punctures", "irreducible_mod_ell", "passed"],
                     ["seed", "lhs", "mid", "rhs", "pass"], rows, report.passed)


def cmd_szpiro_lattice(cfg: Config, args) -> CliResult:
    n_values = parse_range(args.n)
    m_values = parse_range(args.m)
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
# parser assembly

class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _common_parent() -> Parser:
    p = Parser(add_help=False)
    g = p.add_argument_group("configuration")
    g.add_argument("--config", metavar="PATH", help="JSON config file")
    g.add_argument("--field", metavar="SPEC", help='number field, "Q" or "Q(sqrt(-d))"')
    g.add_argument("--format", choices=["json", "csv", "table"],
                   help="output mode (default table)")
    g.add_argument("--seed", type=int, metavar="N", help="RNG seed (64-bit)")
    g.add_argument("--hahn-cap", dest="hahn_cap", metavar="Q",
                   help="truncation cap for series exponents")
    g.add_argument("--coeff-k", dest="coeff_k", type=int, metavar="K",
                   help="coefficient tower height, 1..12")
    g.add_argument("--padic-precision", dest="padic_precision", type=int, metavar="N",
                   help="p-adic coefficient precision, 1..64")
    g.add_argument("--witt-length", dest="witt_length", type=int, metavar="N",
                   help=f"Witt vector length, 1..{MAX_WITT_LENGTH}")
    g.add_argument("--grid", type=int, metavar="N",
                   help="sup-evaluation grid size, 64..65536")
    return p


def build_parser() -> Parser:
    epilog = (
        "environment overrides: " +
        ", ".join(ENV_PREFIX + k.upper() for k in CONFIG_DEFAULTS) +
        ".  precedence: defaults < --config file < environment < flags."
    )
    common = _common_parent()
    parser = Parser(prog="arithmeticoid", description=__doc__.splitlines()[0],
                    epilog=epilog)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def leaf(subparsers, name: str, func, help_text: str):
        p = subparsers.add_parser(name, parents=[common], help=help_text,
                                  epilog=epilog)
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "places", cmd_places, "enumerate places of the field")
    p.add_argument("--bound", type=int, default=20,
                   help=f"rational prime bound, 2..{PLACES_MAX_BOUND}")

    carrier_flags = [
        ("--deform", dict(action="append", metavar="P:E",
                          help="Beltrami exponent E at the place over P (repeatable)")),
        ("--arch-scale", dict(dest="arch_scale", type=float, metavar="S",
                              help="archimedean scale s > 0")),
        ("--frobenius", dict(type=int, default=0, metavar="M",
                             help="global Frobenius twists")),
    ]

    p = leaf(sub, "height", cmd_height, "deformation height of (1 : z)")
    p.add_argument("--z", required=True, help="field element")
    for flag, kw in carrier_flags:
        p.add_argument(flag, **kw)

    p = leaf(sub, "stabilized-height", cmd_stabilized_height,
             "sup of the height over a sampled orbit")
    p.add_argument("--z", required=True, help="field element")
    p.add_argument("--scale", help="act by this element before sampling")
    p.add_argument("--max-factors", dest="max_factors", type=int, default=3)
    p.add_argument("--prime-bound", dest="prime_bound", type=int, default=50)
    for flag, kw in carrier_flags:
        p.add_argument(flag, **kw)

    p = leaf(sub, "orbit", cmd_orbit, "scan for stabilizers of the standard point")
    p.add_argument("--bound", type=int, default=5, help="coordinate bound")
    p.add_argument("--denominator-bound", dest="denominator_bound", type=int, default=1)

    p = leaf(sub, "product-formula", cmd_product_formula,
             "exact product formula check for one element")
    p.add_argument("--x", required=True, help="nonzero field element")

    p = leaf(sub, "distance", cmd_distance,
             "metric distance from the standard point to a deformed one")
    for flag, kw in carrier_flags:
        p.add_argument(flag, **kw)

    p = leaf(sub, "period-map", cmd_period_map,
             "normalization coordinates and hyperplane pairing")
    p.add_argument("--x", help="pair the period data against this element")
    for flag, kw in carrier_flags:
        p.add_argument(flag, **kw)

    p = leaf(sub, "frobenioid", cmd_frobenioid, "divisor monoid data of an element")
    p.add_argument("--x", required=True, help="nonzero field element")
    p.add_argument("--mode", choices=["integer", "perfection", "real"],
                   default="integer")
    p.add_argument("--pullback", type=int, default=0,
                   help="divide exponents by p^M at each place")

    p = leaf(sub, "degree", cmd_degree, "arithmetic degree of a principal ideloid")
    p.add_argument("--x", required=True, help="nonzero field element")
    p.add_argument("--arch-log", dest="arch_log", type=float, default=0.0,
                   help="extra archimedean log-modulus")

    p = leaf(sub, "mutate", cmd_mutate, "invert Tate parameters and flag the results")
    p.add_argument("--param", action="append", metavar="NAME:LOG_ABS",
                   help="Tate symbol (repeatable)")
    p.add_argument("--params-file", dest="params_file", metavar="PATH",
                   help='JSON list of {"name", "log_abs"}')
    p.add_argument("--independent", type=int, required=True,
                   help="how many leading symbols to invert")

    coh = sub.add_parser("cohomology", help="Kummer classes and collation")
    coh_sub = coh.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    p = leaf(coh_sub, "kummer", cmd_cohomology_kummer, "Kummer class of x at a place")
    p.add_argument("--x", required=True)
    p.add_argument("--place", required=True, metavar="P", help="like 5 or 5'")
    p.add_argument("--level", type=int, default=3)
    p = leaf(coh_sub, "tate-class", cmd_cohomology_tate,
             "adelic class of Tate parameters")
    p.add_argument("--entry", action="append", metavar="P:Q",
                   help="Tate parameter Q at the place over P (repeatable)")
    p.add_argument("--arch", required=True, help="Schottky parameter, |q| < 1")
    p.add_argument("--level", type=int, default=3)
    p = leaf(coh_sub, "collate", cmd_cohomology_collate,
             "merge labeled classes through transform families")
    p.add_argument("--input", required=True, metavar="PATH")

    tilt = sub.add_parser("tilt", help="perfectoid-side series operations")
    tilt_sub = tilt.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    p = leaf(tilt_sub, "eval", cmd_tilt_eval, "one-parameter action [u] on a monomial")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--u", required=True, help="p-integral rational")
    p.add_argument("--exponent", required=True, help="positive rational exponent")
    p.add_argument("--coeff", type=int, default=1)
    p = leaf(tilt_sub, "artin-hasse", cmd_tilt_artin_hasse,
             "p-integral exponential, optional isometry check")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--degree", type=int, default=60)
    p.add_argument("--exponent", help="evaluate at coeff * t^exponent")
    p.add_argument("--coeff", type=int, default=1)
    p = leaf(tilt_sub, "witt-check", cmd_tilt_witt_check,
             "universal Witt polynomials against the ghost oracle")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--count", type=int, default=200)

    szp = sub.add_parser("szpiro", help="universal cover heights and theta links")
    szp_sub = szp.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    p = leaf(szp_sub, "height", cmd_szpiro_height, "displacement height of one lift")
    p.add_argument("--matrix", required=True, metavar="a,b;c,d")
    p.add_argument("--winding", type=int, default=0)
    p = leaf(szp_sub, "subadd", cmd_szpiro_subadd,
             "Monte-Carlo subadditivity of the height")
    p.add_argument("--count", type=int, default=1000)
    p = leaf(szp_sub, "theta", cmd_szpiro_theta, "theta values and Schottky scaling")
    p.add_argument("--tau", required=True, help='upper half plane, like "0.3+0.9j"')
    p.add_argument("--ell", type=int, default=5)
    p = leaf(szp_sub, "cor312", cmd_szpiro_cor312,
             "sup-mid-degree chain for one random monodromy datum")
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--genus", type=int, default=0)
    p.add_argument("--punctures", type=int, default=3)
    p = leaf(szp_sub, "lattice", cmd_szpiro_lattice, "finite block of the theta lattice")
    p.add_argument("--n", default="3", metavar="LO:HI")
    p.add_argument("--m", default="-2:3", metavar="LO:HI")
    p.add_argument("--ell", type=int, default=5)

    for group_parser in (coh, tilt, szp):
        group_parser.set_defaults(func=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.error("a subcommand is required")
    try:
        cfg = resolve_config(args)
        result = args.func(cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(render(result, cfg.format))
    return EXIT_OK if result.ok else EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
