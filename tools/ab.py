"""A/B benchmark: a base git ref against the working tree, in alternating pairs.

Run from the repository root:

    python3 tools/ab.py --base HEAD~1 --workload orbit-heights --pairs 10 --seconds 20

The base ref's committed files are exported with ``git archive`` into a
temporary directory (a worktree would register itself in .git and stay
registered if the run is killed).  Each pair then runs
``benchmark/run.py --trace 0`` once in the base tree and once in the working
tree, on one fresh seed, with the side that runs first alternating, and reads
each run's last stdout line.  The seeds are fresh: the first is drawn with
``random.SystemRandom`` and pair i runs first + i, so no one picks the seeds a
claim is measured on.  ``BENCH_<workload>.json`` gets the seeds, the base's
sha, HEAD's sha with every path where the working tree differs from HEAD
(untracked files included; empty when HEAD is what ran), the per-pair values
of every end-to-end metric, the medians, the base's IQR, the win counts and a
verdict; the temporary tree is removed at the end.

The verdict is "gain" or "loss" only if one side wins at least 90% of the
pairs and the median gap exceeds the base's IQR; otherwise it is
"unresolved" (Kalibera & Jones, "Rigorous benchmarking in reasonable time",
ISMM 2013).  Each metric also carries BENCHMARK.json's bound and whether the
median change stays inside it.  Standard library only; tier-1 tests only
the verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

WIN_SHARE = 0.9


def iqr(values: list[float]) -> float:
    """The interquartile range, by statistics.quantiles' default method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], head: list[float], better: str) -> dict:
    """Compare paired runs of one metric: "gain" when the head wins at least
    WIN_SHARE of the pairs and its median beats the base's by more than the
    base's IQR, "loss" the same way round, otherwise "unresolved"."""
    if len(base) != len(head) or len(base) < 2:
        raise ValueError("need at least two pairs, as many base runs as head runs")
    sign = 1 if better == "higher" else -1
    head_wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    base_wins = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    base_median, head_median = statistics.median(base), statistics.median(head)
    spread = iqr(base)
    gap = sign * (head_median - base_median)
    need = WIN_SHARE * len(base)
    if head_wins >= need and gap > spread:
        outcome = "gain"
    elif base_wins >= need and -gap > spread:
        outcome = "loss"
    else:
        outcome = "unresolved"
    return {"base_median": base_median, "head_median": head_median, "base_iqr": spread,
            "head_wins": head_wins, "base_wins": base_wins, "verdict": outcome}


def _git(*args: str) -> str:
    # rstrip only: a porcelain status line starts with a meaningful space
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.rstrip("\n")


def _export(ref: str, dest: str):
    """The committed files of ref, extracted into dest."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", ref], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if proc.wait() != 0:
        raise RuntimeError(f"git archive {ref} exited {proc.returncode}")


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark/run.py --trace 0 in tree; its last stdout line, parsed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bounds() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def compare(base_tree: str, workload: str, seeds: list[int], seconds: float) -> dict:
    """Run the pairs, print one line per run, and return the report's runs and metrics."""
    runs: dict = {"base": [], "head": []}
    for i, seed in enumerate(seeds):
        order = [("base", base_tree), ("head", ".")]
        if i % 2:
            order.reverse()
        for side, tree in order:
            res = _run(tree, workload, seed, seconds)
            runs[side].append({"seed": seed, "first": side == order[0][0],
                               "correct": res["correct"], "attempted": res["attempted"],
                               "failed": res["failed"],
                               "metrics": {k: m["value"] for k, m in res["metrics"].items()}})
            tput = res["metrics"].get("throughput_ops_s", {}).get("value", float("nan"))
            print(f"pair {i + 1}/{len(seeds)} seed {seed} {side}: {tput:.6g} ops/s, "
                  f"{res['failed']} of {res['attempted']} ops failed", flush=True)
    metrics = {}
    for name, spec in _bounds().items():
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        out = {"unit": spec["unit"], "better": spec["better"], "base": base, "head": head,
               **verdict(base, head, spec["better"])}
        change = (out["head_median"] - out["base_median"]) / out["base_median"]
        worse = -change if spec["better"] == "higher" else change
        out.update(relative_change=change, bound=spec["bound"], within_bound=worse <= spec["bound"])
        metrics[name] = out
    return {"runs": runs, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git ref of the base tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--tmp", default=None, help="directory for the base tree (default: system temp)")
    ap.add_argument("--out", default=".", help="directory for BENCH_<workload>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")
    if not os.path.isfile(os.path.join("benchmark", "run.py")):
        print("error: run from the repository root", file=sys.stderr)
        return 2
    first = random.SystemRandom().randrange(10 ** 6)
    seeds = [first + i for i in range(args.pairs)]
    base_sha = _git("rev-parse", "--verify", args.base + "^{commit}")
    changed = _git("status", "--porcelain", "--untracked-files=all").splitlines()
    head = {"sha": _git("rev-parse", "HEAD"), "uncommitted_changes": changed}
    base_tree = tempfile.mkdtemp(prefix="ab-base-", dir=args.tmp)
    started = time.time()
    try:
        _export(base_sha, base_tree)
        report = compare(base_tree, args.workload, seeds, args.seconds)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    doc = {
        "workload": args.workload,
        "base": {"ref": args.base, "sha": base_sha},
        "head": head,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": seeds,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "wall_s": round(time.time() - started, 1),
        **report,
    }
    path = os.path.join(args.out, f"BENCH_{args.workload}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for name, m in report["metrics"].items():
        print(f"{name}: base {m['base_median']:.6g}, head {m['head_median']:.6g} "
              f"({m['relative_change']:+.1%}), base IQR {m['base_iqr']:.3g}, "
              f"wins {m['head_wins']}-{m['base_wins']}: {m['verdict']}"
              f"{'' if m['within_bound'] else ', OUTSIDE its bound'}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
