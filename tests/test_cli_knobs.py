"""Property test: config-file knob values of every JSON type.

Each run exits 0 or 1 with no exception escaping ``main``; a rejected numeric
knob is named in the message, and an accepted integer knob runs with exactly
the value the file holds.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from arithmeticoid.cli import ENV_PREFIX, KNOBS, main

SUBADD = ["szpiro", "subadd", "--count", "1"]
# integer knob -> (a cheap command whose JSON output echoes it, the echo)
ECHO = {
    "seed": (SUBADD, lambda d: d["seed"]),
    "grid": (SUBADD, lambda d: d["grid"]),
    "padic_precision": (["tilt", "artin-hasse", "--p", "2", "--degree", "2"],
                        lambda d: d["coefficient_precision"]),
    "witt_length": (["tilt", "witt-check", "--p", "2", "--count", "1"],
                    lambda d: d["witt_length"]),
    "coeff_k": (["tilt", "eval", "--p", "3", "--u", "2", "--exponent", "1/2"],
                lambda d: len(d["terms"][0]["coeff"])),
}
# integer knob -> (lo, hi), read from the knob table
RANGES = {key: knob[1] for key, knob in KNOBS.items() if isinstance(knob[0], int)}

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10, max_value=70_000),
    st.integers(),
    st.integers(min_value=0, max_value=70).map(float),
    st.floats(min_value=0, max_value=70_000),
    st.floats(),
    st.text(max_size=8),
    st.integers(min_value=0, max_value=70).map(str),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _accepted(key, value) -> bool:
    """Oracle for non-string values: an integral number inside the knob's range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(value, float) and not (math.isfinite(value) and value.is_integer()):
        return False
    lo, hi = RANGES[key]
    return lo <= value <= hi


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(KNOBS)), value=json_values)
@example(key="grid", value=100.7)
@example(key="seed", value=1.5)
@example(key="grid", value=True)
def test_config_knob_values_exit_0_or_1_and_run_as_given(key, value):
    argv = ECHO.get(key, (["szpiro", "height", "--matrix", "0,-1;1,0"], None))[0]
    clean_env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, clean_env, clear=True):
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({key: value}, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--config", path, "--format", "json"])
    assert code in (0, 1), (key, value, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if key not in ECHO:
        if code == 1 and key == "hahn_cap":
            assert "hahn_cap" in err.getvalue()
        return
    if not isinstance(value, str):
        assert (code == 0) == _accepted(key, value), (key, value, err.getvalue())
    if code == 1:
        assert key in err.getvalue(), (key, value, err.getvalue())
        return
    echoed = ECHO[key][1](json.loads(out.getvalue()))
    assert isinstance(echoed, int) and echoed == Fraction(str(value)), (key, value, echoed)
