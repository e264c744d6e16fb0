"""Handlers of the ``szpiro`` commands: cover heights, subadditivity, theta
values, Corollary 3.12 and the theta lattice.  ``cli`` imports this module when
one of them runs; numpy waits for the first height."""

from __future__ import annotations

import math

from . import szpiro as sz
from .cli import (
    CliResult,
    Config,
    _check_work,
    parse_complex,
    parse_matrix,
    parse_range,
)
from .rng import SplitMix64

# see cli._check_work
SUBADD_WORK = 5000 * 1024      # count * grid: the --count bound at the default grid
LATTICE_WORK = 16384 * 1024    # heights * grid, grids below 1024 counted as 1024


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


def _random_cover_elt(rng):
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
    _check_work(f"--count {args.count} and grid {cfg.grid}", "count * grid",
                args.count * cfg.grid, SUBADD_WORK)
    rng = SplitMix64(cfg.seed)
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
    datum = sz.monodromy_generate(args.genus, args.punctures, cfg.seed)
    report = sz.corollary312_check(datum, args.ell, grid=cfg.grid, seed=cfg.seed)
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
