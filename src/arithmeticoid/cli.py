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

This module is the core: knobs, configuration, input grammar, rendering, the
command table and ``main``.  The handlers live in one module per command group
(cli_field, cli_cohomology, cli_tilt, cli_szpiro).  A command imports only its
group's module, which imports the layers it calls, and its parser gets only
its own flags.
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
from functools import partial
from importlib import import_module
from typing import NamedTuple

from .numfield import FieldElement, NumberField, Place, place_over

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
    "witt_length": (3, (1, 3), "N", "Witt vector length"),  # 3 is tilt.MAX_WITT_LENGTH
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


# ---------------------------------------------------------------------------
# subcommands: one handler module per command group, loaded when its command runs

class _Handlers:
    """A handler module named by attribute: ``FIELD.cmd_places`` stands for
    ``cli_field.cmd_places`` and imports cli_field only when it is called."""

    def __init__(self, module: str):
        self.module = module

    def __getattr__(self, name: str):
        return partial(_dispatch, self.module, name)


def _dispatch(module: str, name: str, cfg: Config, args: argparse.Namespace) -> CliResult:
    return getattr(import_module(f".{module}", __package__), name)(cfg, args)


FIELD = _Handlers("cli_field")
COHOMOLOGY = _Handlers("cli_cohomology")
TILT = _Handlers("cli_tilt")
SZPIRO = _Handlers("cli_szpiro")


# Handlers cap the work their loops multiply together where per-flag ranges
# cannot bound the product; each command at its cap took under 5 s (2 vCPUs).
def _check_work(flags: str, formula: str, work: int, cap: int) -> None:
    if work > cap:
        raise CliError(f"{flags} ask for {formula} = {work}, more than the cap of {cap}")


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
    ("places", FIELD.cmd_places, "enumerate places of the field",
     [Flag("--bound", int, 20, (2, 100_000), "rational prime bound")]),
    ("height", FIELD.cmd_height, "deformation height of (1 : z)", [Z, *CARRIER]),
    ("stabilized-height", FIELD.cmd_stabilized_height, "sup of the height over a sampled orbit",
     [Z, Flag("--scale", help="act by this element before sampling"),
      Flag("--max-factors", int, 3, (0, 3)), Flag("--prime-bound", int, 50, (2, 60)), *CARRIER]),
    ("orbit", FIELD.cmd_orbit, "scan for stabilizers of the standard point",
     [Flag("--bound", int, 5, (1, 100), "coordinate bound"),
      Flag("--denominator-bound", int, 1, (1, 100))]),
    ("product-formula", FIELD.cmd_product_formula,
     "exact product formula check for one element", [X]),
    ("distance", FIELD.cmd_distance, "metric distance from the standard point to a deformed one",
     CARRIER),
    ("period-map", FIELD.cmd_period_map, "normalization coordinates and hyperplane pairing",
     [Flag("--x", help="pair the period data against this element"), *CARRIER]),
    ("frobenioid", FIELD.cmd_frobenioid, "divisor monoid data of an element",
     [X, Flag("--mode", default="integer", choices=("integer", "perfection", "real")),
      Flag("--pullback", int, 0, (0, 64), "divide exponents by p^M at each place")]),
    ("degree", FIELD.cmd_degree, "arithmetic degree of a principal ideloid",
     [X, Flag("--arch-log", float, 0.0, help="extra archimedean log-modulus")]),
    ("mutate", FIELD.cmd_mutate, "invert the leading Tate parameters",
     [Flag("--param", repeat=True, metavar="NAME:LOG_ABS", help="Tate symbol (repeatable)"),
      Flag("--params-file", metavar="PATH", help='JSON list of {"name", "log_abs"}'),
      Flag("--independent", int, None, (0, None), "how many leading symbols to invert",
           required=True)]),
    ("cohomology kummer", COHOMOLOGY.cmd_cohomology_kummer, "Kummer class of x at a place",
     [Flag("--x", required=True), Flag("--place", required=True, metavar="P", help="like 5 or 5'"),
      LEVEL]),
    ("cohomology tate-class", COHOMOLOGY.cmd_cohomology_tate, "adelic class of Tate parameters",
     [Flag("--entry", repeat=True, metavar="P:Q",
           help="Tate parameter Q at the place over P (repeatable)"),
      Flag("--arch", required=True, help="Schottky parameter, |q| < 1"), LEVEL]),
    ("cohomology collate", COHOMOLOGY.cmd_cohomology_collate,
     "merge labeled classes through transform families",
     [Flag("--input", required=True, metavar="PATH")]),
    # --exponent with --hahn-cap: digits * n * (2 * bits(p) * n + T) coefficient products,
    # T = ceil(hahn_cap/exponent), n = min(p, T), at most cli_tilt.EVAL_WORK
    ("tilt eval", TILT.cmd_tilt_eval, "one-parameter action [u] on a monomial",
     [P, Flag("--u", required=True, help="p-integral rational"),
      Flag("--exponent", required=True, help="positive rational exponent"), COEFF]),
    # --exponent: the value has at most degree + 1 terms, so --degree bounds it
    ("tilt artin-hasse", TILT.cmd_tilt_artin_hasse,
     "p-integral exponential, optional isometry check",
     [P, Flag("--degree", int, 60, (1, 2000)),
      Flag("--exponent", help="evaluate at coeff * t^exponent"), COEFF]),
    ("tilt witt-check", TILT.cmd_tilt_witt_check,
     "universal Witt polynomials against the ghost oracle",
     [P, Flag("--count", int, 200, (1, 5000))]),
    ("szpiro height", SZPIRO.cmd_szpiro_height, "displacement height of one lift",
     [Flag("--matrix", required=True, metavar="a,b;c,d"),
      Flag("--winding", int, 0, (-10 ** 6, 10 ** 6))]),
    ("szpiro subadd", SZPIRO.cmd_szpiro_subadd, "Monte-Carlo subadditivity of the height",
     [Flag("--count", int, 1000, (1, 5000))]),
    ("szpiro theta", SZPIRO.cmd_szpiro_theta, "theta values and the Schottky parameter",
     [Flag("--tau", required=True, help='upper half plane, like "0.3+0.9j"'), ELL]),
    ("szpiro cor312", SZPIRO.cmd_szpiro_cor312,
     "sup-mid-degree chain for one random monodromy datum",
     [ELL, Flag("--genus", int, 0, (0, 100)), Flag("--punctures", int, 3, (1, 100))]),
    # parse_range bounds the --n and --m spans
    ("szpiro lattice", SZPIRO.cmd_szpiro_lattice, "finite block of the theta lattice",
     [Flag("--n", default="3", metavar="LO:HI"), Flag("--m", default="-2:3", metavar="LO:HI"),
      ELL]),
]


class Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser(argv=None) -> Parser:
    """The parser of every command or, when the leading words of ``argv`` name
    a command, of that command alone: argparse hands it the rest of argv and
    consults no other, so help and usage errors read the same either way."""
    named = [entry for entry in COMMANDS
             if argv and entry[0].split() == list(argv[:len(entry[0].split())])]
    epilog = ("environment overrides: " + ", ".join(ENV_PREFIX + k.upper() for k in KNOBS)
              + ".  precedence: defaults < --config file < environment < flags.")
    parser = Parser(prog="arithmeticoid", description=__doc__.splitlines()[0],
                    epilog=epilog)
    subparsers = {(): parser.add_subparsers(metavar="COMMAND")}
    for words, func, help_text, flags in named or COMMANDS:
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
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
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
