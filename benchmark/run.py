"""Benchmark for arithmeticoid: one workload, seeded, run in fresh interpreters.

Run from the repository root:

    python3 benchmark/run.py --workload orbit-heights --seed 1 --seconds 10 --trace 0

Workloads: cli-examples, orbit-heights, tilt-series, cover-heights (see
workloads.py and BENCHMARK.json for why each exists). Each is a closed loop
with one caller: the next op starts when the previous one has returned, and
cli-examples runs one subprocess at a time.

``--trace 0`` starts ``SETUPS`` fresh interpreters: all but the last only set
up (import the workload's modules and warm up), the last also runs the timed
phase. It reports the end-to-end metrics; setup_s is the median set-up time,
and throughput_ops_s counts the timed rounds' ops (each round is the
workload's fixed op mix) over the time spent inside them.

``--trace 1`` runs the same seed twice in fresh interpreters for half of
``--seconds`` each, first untraced and then traced, and reports the per-layer
metrics from the traced run plus tracing overhead (traced over untraced
throughput). Spans go to .bench_out/trace-<workload>-<seed>.jsonl.gz.

Every line but the last is for people; the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A failed op (an
exception, a wrong exit code, or an oracle mismatch) is counted and never
stops the run. "correct" is false when an op returned a wrong output or raised
anything but a known library defect (workloads.KNOWN_DEFECTS); the known
defects still count as failed ops. The exit code is 0 whenever the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 7
END_TO_END = (("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RUN_BUDGET_S = 170  # the whole command, all workers included
OUT_DIR = ".bench_out"


def worker(args, mode: str, seconds: float, trace: int, trace_out: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.smoke:
        cmd.append("--smoke")
    # a process group of its own, so a timeout also ends the CLI processes the worker started
    with subprocess.Popen(cmd, env=workloads.cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, preexec_fn=os.setpgrp) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def report_failures(res: dict):
    rate = res["failed"] / res["attempted"]
    print(f"error_rate = {rate:.6g} ratio ({res['failed']} of {res['attempted']} ops failed)")
    if res["known_defects"]:
        print(f"  {res['known_defects']} of them hit a known library defect"
              " (workloads.KNOWN_DEFECTS)")
    for msg in res["messages"]:
        print(f"  failed: {msg}")


def end_to_end(args) -> dict:
    n_setups = 1 if args.smoke else SETUPS
    setups = [worker(args, "setup", 0, 0)["setup_s"] for _ in range(n_setups - 1)]
    res = worker(args, "run", args.seconds, 0)
    setups.append(res["setup_s"])
    values = {
        "throughput_ops_s": res["throughput_ops_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_tail_ms": res["latency_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    for name, unit in END_TO_END:
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"  throughput_ops_s counts {res['rounds']} rounds' ops over the time inside them")
    print(f"  latency_tail_ms is p{res['tail_percentile']:.2f} of {res['attempted']} ops"
          f" (10 samples beyond it)")
    print(f"  setup_s is the median of {len(setups)} fresh interpreters: "
          + ", ".join(f"{s:.3f}" for s in setups))
    print(f"  timed phase {res['wall_s']:.2f} s, {res['inside_ops_share']:.1%} inside ops")
    report_failures(res)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def per_layer(args) -> dict:
    half = args.seconds / 2
    plain = worker(args, "run", half, 0)
    trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl.gz")
    traced = worker(args, "run", half, 1, trace_out)
    values = {name: 0.0 for name in tracing.per_layer_metric_names()}
    values.update({k: v for k, v in traced["rollup"].items() if k in values})
    values["cli.startup_s"] = traced["cli_startup_s"]
    if args.workload == "cli-examples":
        values["cli.startup_share"] = traced["cli_startup_s"] / (traced["latency_p50_ms"] / 1e3)
        for kind, p50 in traced["kind_p50_ms"].items():
            values[f"{kind}.latency_ms"] = p50
    values["trace.overhead_ratio"] = traced["throughput_ops_s"] / plain["throughput_ops_s"]
    for name, value in values.items():
        print(f"{name} = {value:.6g} {tracing.per_layer_unit(name)}")
    print(f"  untraced {plain['throughput_ops_s']:.4g} ops/s, traced"
          f" {traced['throughput_ops_s']:.4g} ops/s over {half:g} s each; spans in {trace_out}")
    shares = {layer: values[f"{layer}.self_share"] for layer in tracing.LAYERS}
    print("  self-time share by layer: "
          + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    report_failures(traced)
    failed = plain["failed"] + traced["failed"]
    attempted = plain["attempted"] + traced["attempted"]
    wrong = plain["wrong"] + traced["wrong"]
    metrics = {name: {"value": values[name], "unit": tracing.per_layer_unit(name)}
               for name in tracing.per_layer_metric_names()}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up, no CLI-default orbit sample; for the benchmark's tests")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_BUDGET_S
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join("src", "arithmeticoid", "__init__.py")):
        print("error: run from the repository root; src/arithmeticoid is missing",
              file=sys.stderr)
        return 2
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
