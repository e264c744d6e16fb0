"""Each demo runs in a fresh interpreter and prints exactly its recorded output.

tests/data/demos/<name>.out holds the stdout of demos/<name>.py.  A demo that
exits nonzero, prints a traceback, or changes a single byte of its narration
fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "demos"


def test_every_demo_has_a_golden():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.out"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_text(encoding="utf-8")
