"""Smoke tests for the benchmark itself (not part of the library's tier-1 suite).

Run from the repository root:

    python3 -m pytest benchmark/test_smoke.py -q

They run every workload briefly (``--smoke``: one set-up) and check that each
named metric is emitted, that every oracle of every workload ran and passed,
and that the command refuses to run outside a checkout of the repository.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    import run
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == tracing.per_layer_metric_names()
    assert all(m["unit"] == tracing.per_layer_unit(m["name"]) for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_oracle_runs_and_passes(workload):
    w = workloads.WORKLOADS[workload](5, smoke=True)
    w.prepare()
    w.setup()
    res = worker.run_phase(w, 0.0)  # exactly one round
    assert res["failed"] == 0, res["messages"]
    assert set(res["oracle_runs"]) == set(w.oracles)


def test_traced_layers_are_the_dominant_ones():
    w = workloads.WORKLOADS["tilt-series"](5, smoke=True)
    w.prepare()
    w.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = worker.run_phase(w, 0.0, tracer)
    finally:
        tracer.uninstall()
    rollup = tracer.rollup(res["op_time_s"])
    assert rollup["tilt.self_share"] > 0.9
    assert rollup["tilt.hahn_mul.calls"] > 0
    assert 0 < rollup["tilt.hahn_mul.kept_ratio"] <= 1
    assert rollup["tilt.artin_hasse.repeat_ratio"] == 0  # one round visits each triple once


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("orbit-heights", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_witt_oracle_round_trips():
    for p in (2, 3):
        for n in (1, 2, 3):
            for c in range(p ** n):
                assert oracles.witt_to_int(oracles.int_to_witt(c, p, n), p) == c


def test_tail_leaves_ten_samples_beyond():
    lat = list(range(100))
    value, pct = worker.tail(lat)
    assert value == 89 and pct == 90.0
    assert sum(1 for x in lat if x > value) == 10


class _Raising(workloads.Workload):
    name = "raising"

    def once(self):
        def boom(exc):
            def call():
                raise exc
            return call
        return [workloads.Op("szpiro.corollary312_check", boom(OverflowError("big")), None, "x"),
                workloads.Op("szpiro.corollary312_check", boom(ValueError("bad")), None, "x")]

    def rounds(self):
        yield [workloads.Op("szpiro.compose", lambda: 1, lambda r: None, "x")]


def test_known_defects_fail_without_making_the_run_wrong():
    res = worker.run_phase(_Raising(0), 0.0)
    assert (res["attempted"], res["failed"], res["known_defects"], res["wrong"]) == (3, 2, 1, 1)
    assert res["rounds"] == 1 and res["throughput_ops_s"] > 0
