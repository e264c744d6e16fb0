"""The verdict of tools/ab.py, the A/B benchmark harness (the harness itself
runs the benchmark and stays out of this suite)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BASE = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 105.0]


def test_identical_pairs_are_unresolved():
    for better in ("higher", "lower"):
        v = ab.verdict(BASE, list(BASE), better)
        assert v["verdict"] == "unresolved" and v["head_wins"] == v["base_wins"] == 0


def test_ten_wins_past_the_iqr_read_gain_and_the_mirror_reads_loss():
    head = [b + 20 for b in BASE]
    assert ab.iqr(BASE) < 20
    v = ab.verdict(BASE, head, "higher")
    assert (v["verdict"], v["head_wins"], v["base_wins"]) == ("gain", 10, 0)
    assert ab.verdict(BASE, head, "lower")["verdict"] == "loss"
    assert ab.verdict(head, BASE, "lower")["verdict"] == "gain"


def test_wins_inside_the_iqr_or_below_nine_in_ten_stay_unresolved():
    small = [b + 1 for b in BASE]  # 10 wins, but the gap is inside the base's IQR
    assert ab.verdict(BASE, small, "higher")["verdict"] == "unresolved"
    mixed = [b + 20 for b in BASE[:8]] + [b - 1 for b in BASE[8:]]  # 8 of 10 wins
    assert ab.verdict(BASE, mixed, "higher")["verdict"] == "unresolved"
    nine = [b + 20 for b in BASE[:9]] + [BASE[9] - 1]
    assert ab.verdict(BASE, nine, "higher")["verdict"] == "gain"
    with pytest.raises(ValueError):
        ab.verdict(BASE, BASE[:5], "higher")
