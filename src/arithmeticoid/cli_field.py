"""Handlers of the field and carrier commands: places, heights, orbits, product
formulas, distances, period maps, frobenioids, degrees and Tate mutations.

``cli`` imports this module when one of these commands runs.  Each handler
imports the layers it calls, so ``places`` and ``product-formula`` load
numfield alone.  Layer functions are read off their modules at call time.
"""

from __future__ import annotations

from fractions import Fraction

from . import numfield
from .cli import (
    CliError,
    CliResult,
    Config,
    _check_work,
    _read_json,
    fmt,
    parse_element,
    parse_fraction,
    parse_place,
)

# stabilizer checks; see cli._check_work
ORBIT_WORK = 150_000


def build_carrier(cfg: Config, args):
    """Standard arithmeticoid deformed per flags: --deform, --arch-scale, --frobenius."""
    from . import adelic, ffcurve

    y = adelic.standard_arithmeticoid(cfg.field)
    for spec in getattr(args, "deform", None) or []:
        if ":" not in spec:
            raise CliError(f"deformation {spec!r} must look like 5:3/2")
        tok, e_text = spec.split(":", 1)
        v = parse_place(cfg.field, tok)
        e = parse_fraction(e_text)
        if e <= 0:
            raise CliError("deformation exponent must be > 0")
        y = adelic.deform(y, v, ffcurve.local_point(v, e))
    text = getattr(args, "arch_scale", None)
    if text is not None:
        try:
            point = ffcurve.LocalPointArch(parse_fraction(text))
        except ValueError as exc:
            raise CliError(f"--arch-scale: {exc}") from exc
        y = adelic.deform(y, numfield.archimedean_place(cfg.field), point)
    m = getattr(args, "frobenius", None)
    if m:
        y = adelic.global_frobenius(y, m)
    return y


def cmd_places(cfg: Config, args) -> CliResult:
    places = numfield.places_up_to(cfg.field, args.bound)
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
    from . import heights

    y = build_carrier(cfg, args)
    z = parse_element(cfg.field, args.z)
    report = heights.scalar_height(y, z)
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
    from . import adelic, heights

    y = build_carrier(cfg, args)
    if args.scale:
        x = parse_element(cfg.field, args.scale)
        try:
            y = adelic.lstar_act(x, y)
        except ValueError as exc:
            raise CliError(f"--scale: {exc}") from exc
    z = parse_element(cfg.field, args.z)
    base = heights.scalar_height(y, z).total
    sample = heights.default_sample(cfg.field, args.max_factors, args.prime_bound)
    value, witness = heights.stabilized_height_report(y, z, sample)
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
    from . import adelic

    b_range = range(-args.bound, args.bound + 1) if cfg.field.d is not None else (0,)
    _check_work(f"--bound {args.bound} and --denominator-bound {args.denominator_bound}",
                "(2*bound+1)^degree * denominator_bound stabilizer checks",
                (2 * args.bound + 1) * len(b_range) * args.denominator_bound, ORBIT_WORK)
    y = adelic.standard_arithmeticoid(cfg.field)
    found = set()
    for den in range(1, args.denominator_bound + 1):
        for a in range(-args.bound, args.bound + 1):
            for b in b_range:
                if a == 0 and b == 0:
                    continue
                x = cfg.field.element(Fraction(a, den), Fraction(b, den))
                if x not in found and adelic.stabilizer_check(x, y):
                    found.add(x)
    stabilizers = sorted(found, key=lambda x: (x.a, x.b))
    ok = found == set(numfield.roots_of_unity(cfg.field))
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
    report = numfield.product_formula_check(x)
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
    from . import adelic

    y0 = adelic.standard_arithmeticoid(cfg.field)
    y1 = build_carrier(cfg, args)
    doc = {
        "field": str(cfg.field),
        "distance": adelic.distance(y0, y1),
        "first_index": adelic.first_difference(y0, y1),
    }
    return CliResult(doc, list(doc))


def cmd_period_map(cfg: Config, args) -> CliResult:
    from . import adelic

    y = build_carrier(cfg, args)
    coords = adelic.normalization_coordinate(y)
    y0 = adelic.standard_arithmeticoid(cfg.field)
    all_ones = adelic.period_map(y) == adelic.period_map(y0)
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
        form = adelic.hyperplane_pairing(y, x)
        ok = form.exact
        doc["hyperplane"] = {
            "x": str(x),
            "finite_coefficients": {str(p): str(c) for p, c in sorted(form.content.items())},
            "archimedean_term": form.arch_log,
            "residual": form.residual,
            "exact": ok,
        }
        summary += [("hyperplane_x", x), ("hyperplane_residual", form.residual),
                    ("hyperplane_exact", ok)]
    return CliResult(doc, summary, ["place", "alpha"], coords.overrides, ok)


def cmd_frobenioid(cfg: Config, args) -> CliResult:
    from . import heights

    x = parse_element(cfg.field, args.x)
    div = numfield.divisor_support(x)
    effective = all(o >= 0 for _, o in div)
    entries = None
    if effective:
        elt = heights.Frobenioid(cfg.field, args.mode).element(dict(div))
        if args.pullback:
            try:
                elt = heights.frobenius_pullback(elt, args.pullback)
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
    from . import adelic, heights

    x = parse_element(cfg.field, args.x)
    ideal = heights.ideloid_from_element(x)
    if args.arch_log:
        ideal = heights.make_ideloid(cfg.field, dict(ideal.entries),
                                     ideal.arch_log + args.arch_log)
    report = heights.arithmetic_degree(adelic.standard_arithmeticoid(cfg.field), ideal)
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
    rows = [[p, c, numfield.log_term(c, p)] for p, c in report.finite]
    return CliResult(doc, summary, ["prime", "coefficient", "value"], rows, vanishes is not False)


def cmd_mutate(cfg: Config, args) -> CliResult:
    from . import adelic

    params = []
    for spec in args.param or []:
        if ":" not in spec:
            raise CliError(f"parameter {spec!r} must look like name:log_abs")
        name, raw = spec.rsplit(":", 1)
        try:
            params.append(adelic.TateSymbol(name, float(raw)))
        except ValueError as exc:
            raise CliError(f"bad log_abs in {spec!r}: {exc}") from exc
    if args.params_file:
        data = _read_json(args.params_file)
        try:
            params += [adelic.TateSymbol(str(rec["name"]), float(rec["log_abs"]))
                       for rec in data]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f'{args.params_file} must hold a JSON list of '
                           f'{{"name": ..., "log_abs": <number>}} objects') from exc
    entries = adelic.mutate_tate_parameters(params, args.independent)
    doc = {
        "independent": args.independent,
        "entries": [
            {"name": e.name, "inverted": e.inverted, "log_abs_before": e.log_abs_before,
             "log_abs_after": e.log_abs_after}
            for e in entries
        ],
    }
    rows = [[e.name, e.inverted, e.log_abs_before, e.log_abs_after] for e in entries]
    return CliResult(doc, ["independent"], ["name", "inverted", "before", "after"], rows)
