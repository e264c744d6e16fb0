"""One workload in a fresh interpreter: prepare, set up, then a closed-loop timed phase.

Usage (run.py starts it; PYTHONPATH must reach the repository's src/):

    python3 benchmark/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,run} --trace {0,1} [--smoke]

Prints one JSON object on its last stdout line. ``--mode setup`` stops after
set-up, so run.py can repeat set-up in fresh interpreters and take a median.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads

STARTUP_REPEATS = 3
MAX_MESSAGES = 20


def tail(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with 10 samples above it (the max if n <= 10)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_phase(workload, seconds: float, tracer=None) -> dict:
    """Run the once-per-run ops, then whole rounds until the deadline has passed.

    Every op is checked. Throughput counts the rounds' ops over the time spent
    inside them: input generation and oracle checks stay outside the clock, and
    the once-per-run ops stay out of it.
    """
    latencies, kinds, messages = [], [], []
    rounds = round_ops = 0
    round_s = 0.0
    oracle_runs: dict = {}
    tally = {"attempted": 0, "failed": 0, "wrong": 0, "known_defects": 0}
    clock = time.perf_counter

    def run(op) -> float:
        call = op.call
        if tracer is not None:
            call = tracer.span(f"op.{op.kind}", "op", call)
            tracer.begin_op(tally["attempted"])
        t0 = clock()
        try:
            result, error = call(), None
        except Exception as exc:  # a failed op is counted, never fatal
            result, error = None, f"raised {type(exc).__name__}: {exc}"
            known = (op.kind, type(exc).__name__) in workloads.KNOWN_DEFECTS
            tally["known_defects" if known else "wrong"] += 1
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
        tally["attempted"] += 1
        latencies.append(t1 - t0)
        kinds.append(op.kind)
        if error is None:
            oracle_runs[op.oracle] = oracle_runs.get(op.oracle, 0) + 1
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                tally["wrong"] += 1
        if error is not None:
            tally["failed"] += 1
            if len(messages) < MAX_MESSAGES:
                messages.append(f"{op.kind}: {error}")
        return t1 - t0

    for op in workload.once():
        run(op)
    start = clock()
    deadline = start + seconds
    for ops in workload.rounds():
        round_s += sum(run(op) for op in ops)
        round_ops += len(ops)
        rounds += 1
        if clock() >= deadline:
            break
    wall = clock() - start
    by_kind: dict = {}
    for k, lat in zip(kinds, latencies):
        by_kind.setdefault(k, []).append(lat)
    tail_s, tail_pct = tail(latencies)
    return {
        **tally,
        "messages": messages,
        "oracle_runs": oracle_runs,
        "rounds": rounds,
        "wall_s": wall,
        "inside_ops_share": round_s / wall,
        "op_time_s": sum(latencies),
        "throughput_ops_s": round_ops / round_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "kind_p50_ms": {k: statistics.median(v) * 1e3 for k, v in by_kind.items()},
    }


def cli_startup_s() -> float:
    """Median time of ``import arithmeticoid.cli`` in fresh interpreters (-X importtime)."""
    times = []
    for _ in range(STARTUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import arithmeticoid.cli"],
                              env=workloads.cli_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(workloads.split_importtime(proc.stderr)[0])
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None, help="write spans here (gzip JSON lines)")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.prepare()
    t0 = time.perf_counter()
    workload.setup()
    out = {"setup_s": time.perf_counter() - t0}
    if args.mode == "run":
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            if args.workload == "cli-examples":
                workload.importtime = True
        out.update(run_phase(workload, args.seconds, tracer))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-examples" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            out["rollup"] = tracer.rollup(out["op_time_s"])
            if args.trace_out:
                os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
                tracer.export(args.trace_out)
            # cli-examples times the import inside each invocation; the others start probes
            imports = getattr(workload, "import_s", None)
            out["cli_startup_s"] = statistics.median(imports) if imports else cli_startup_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
