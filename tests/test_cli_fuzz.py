"""Fuzz the command line from its own flag table.

For each subcommand of ``cli.COMMANDS``, drawn the same number of times, every
flag it takes (the
configuration flags included) is omitted or given a value of one kind: small
and in range, one past a bound, a malformed token, a 5,000-digit string,
inf/nan, or a value from the flag's own grammar (elements, places, --deform
specs, exponents, ...).  The grammar reaches far out too: a place past index
1,074, exponents and scales within 10^-18 of 1, a Frobenius shift of 100, a
31-digit element.  Each run must exit 0, 1, 2 or 64, keep Python's internal
text (a Traceback, "invalid literal", "Exceeds the limit", "math domain error")
off stderr, finish in under 5 s, and print the same stdout when rerun.  Only a
command whose verdict rests on a grid estimate may exit 2: every other verdict
is a theorem.  A run that exits 0 in json mode must print JSON.

The tilt commands also run at the corners of their flag boxes, --p up to 997
and --exponent at 1/10^k and at the digit cap: each run exits 0 or 1 within
the README's 10 s for a flag at an end of its range.
"""

import io
import itertools
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arithmeticoid.cli import COMMANDS, ENV_PREFIX, KNOB_FLAGS, KNOBS, main

DATA = Path(__file__).parent / "data"
ELEMENTS = ["7", "-3/5", "2+i", "1/2-3/4w", "3*w", "2,1", "1/6+w", "12", "3+4i",
            str(2 ** 100)]
NEAR_ONE = "1000000000000000001/1000000000000000000"
NEAR_ONE_SCALE = "100000000000000000001/100000000000000000000"
GRAMMAR = {  # well-formed values of each text flag
    "--x": ELEMENTS, "--z": ELEMENTS, "--scale": ELEMENTS,
    "--place": ["5", "5'", "2", "13"],
    "--deform": ["5:3/2", "3:1/2", "2:1/3", "7':2", "9001:2", "5:" + NEAR_ONE],
    "--u": ["2", "1/2", "3/5"],
    "--exponent": ["1/2", "2/3", "3/4", "1/1000", "1/100000"],
    "--entry": ["7:3/1", "5:25", "5':2+i", "13':13"],
    "--arch": ["0.1", "0.2,0.1"],
    "--tau": ["0.3+0.9j", "0.25,0.5"],
    "--matrix": ["0,-1;1,0", "2,1;1,1", "0.5,0;0,2.0"],
    "--param": ["q1:-2.0", "q2:-0.5"],
    "--params-file": [str(DATA / "mutate_params.json")],
    "--input": [str(DATA / "collate.json")],
    "--n": ["3", "0:2", "1:1"],
    "--m": ["-2:3", "0:2"],
    "--p": ["2", "3", "5", "7", "997"],
    "--field": ["Q", "Q(sqrt(-1))", "Q(sqrt(-3))"],
    "--hahn-cap": ["8", "1/2"],
    "--arch-scale": ["5/2", "0.1", "2", NEAR_ONE_SCALE],
    "--frobenius": ["100"],
}
EDGES = {  # tokens of the same grammar that the command must reject or survive
    "--x": ["0", "i", "1/0", "2,1,1"], "--z": ["0", "w", "1e9999999,1"],
    "--place": ["9", "0", "5''", "13'"],
    "--deform": ["2:0", "7:-1", "4:1", "5:1e99999", "x:1", "5"],
    "--u": ["0", "3"], "--exponent": ["0", "-1", "1e10000000"],
    "--entry": ["0:3", "7"], "--arch": ["2", "0", "1e400j"], "--tau": ["1j", "-1j", "0", "1e308+1j"],
    "--matrix": ["1,2;3,4", "1e400,0;0,1", "1,2"], "--param": ["q3:1.0", "q4:-inf", "q"],
    "--params-file": [str(DATA / "missing.json")], "--input": [str(DATA)],
    "--n": ["-65:0", "2:1"], "--m": ["0:65"], "--p": ["4", "-3", "11"],
    "--field": ["Q(sqrt(5))", "Q(sqrt(-4))"], "--hahn-cap": ["0", "1025"],
    "--arch-scale": ["0", "-1", "1e999"],
}
MALFORMED = ["abc", "", "1.5", "0x10", "1/0", "1e99999", "5'", ":", "٣"]
DIGITS = "7" * 5000
# the default sample of stabilized-height alone takes seconds: draw it small
NEVER_OMITTED = {"--max-factors", "--prime-bound"}
# their tolerance comes from grid estimates of a sup, not from a theorem
MAY_EXIT_2 = {"szpiro subadd", "szpiro cor312"}


def _benign(flag):
    """A value from the flag's grammar or small and in range; None omits the flag."""
    valid = list(GRAMMAR.get(flag.name, [])) + list(flag.choices or [])
    if flag.bounds:
        start = 0 if flag.bounds[0] is None else flag.bounds[0]
        valid += [str(v) for v in range(start, start + 3)]
    kinds = [st.sampled_from(valid)] if valid else []
    if not flag.required and flag.name not in NEVER_OMITTED:
        kinds += [st.none()] * (6 if flag.name.replace("-", "_")[2:] in KNOBS else 1)
    return st.one_of(kinds)


def _hostile(flag):
    """One past a bound, an edge of its grammar, malformed, 5,000 digits, non-finite,
    or omitted."""
    kinds = [st.sampled_from(MALFORMED), st.just(DIGITS), st.sampled_from(["inf", "nan"]),
             st.none()]
    if flag.name in EDGES:
        kinds.append(st.sampled_from(EDGES[flag.name]))
    if flag.bounds:
        lo, hi = flag.bounds
        past = ([] if lo is None else [lo - 1]) + ([] if hi is None else [hi + 1])
        kinds.append(st.sampled_from([str(v) for v in past]))
    return st.one_of(kinds)


@st.composite
def invocations(draw, words, flags):
    """The command's argv with every flag benign, except at most one hostile flag."""
    hostile = draw(st.one_of(st.none(), st.sampled_from(flags), st.sampled_from(KNOB_FLAGS)))
    argv = words.split()
    for flag in [*KNOB_FLAGS, *flags]:
        value = draw(_hostile(flag) if flag is hostile else _benign(flag))
        if value is not None:
            argv.append(f"{flag.name}={value}")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _check(argv):
    clean_env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    with mock.patch.dict(os.environ, clean_env, clear=True):
        code, out, err, seconds = _run(argv)
        rerun = _run(argv)
    assert code in (0, 1, 2, 64), (argv, code, err)
    assert code != 2 or " ".join(argv[:2]) in MAY_EXIT_2, (argv, out)
    for text in ("Traceback", "invalid literal", "Exceeds the limit", "math domain error"):
        assert text not in err, (argv, err)
    assert seconds < 5.0 and rerun[3] < 5.0, (argv, seconds, rerun[3])
    assert rerun[:2] == (code, out), argv
    if code == 0 and "--format=json" in argv:
        json.loads(out)


# the same number of draws for every command: 21 commands, 147 draws
DRAWS_PER_COMMAND = 7


@pytest.mark.parametrize("words,flags", [(w, f) for w, _, _, f in COMMANDS],
                         ids=[w for w, *_ in COMMANDS])
@settings(max_examples=DRAWS_PER_COMMAND, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_fuzz(words, flags, data):
    _check(data.draw(invocations(words, flags), label="argv"))


# carriers whose float distance reads 0
FAR_CARRIERS = [["distance", "--deform=9001:2"], ["distance", "--deform=5:" + NEAR_ONE],
                ["distance", "--arch-scale=" + NEAR_ONE_SCALE]]
# non-finite Tate parameters in json mode, which the draws rarely combine
NON_FINITE_PARAMS = [["mutate", f"--param=a:{v}", "--independent=1", "--format=json"]
                     for v in ("-inf", "nan")]


@pytest.mark.parametrize("argv", FAR_CARRIERS + NON_FINITE_PARAMS, ids=" ".join)
def test_cli_fuzz_examples(argv):
    _check(argv)


# the README's budget for a command with a flag at an end of its range
CORNER_SECONDS = 10.0
# the digit cap of _rational: 1,000 digits, here an exponent just below 1/3
NEAR_THIRD = "3" * 999 + "/1" + "0" * 999
TILT_CORNERS = {  # the command, then the values of each flag at the ends of its box
    "tilt eval": [("--p", ["2", "997"]), ("--u", ["-1", "1", "p-1", "-1/2"]),
                  ("--exponent", ["1", "1/10", "1/1000", "1/100000", NEAR_THIRD]),
                  ("--hahn-cap", ["1/1000", "1024"]),
                  ("--coeff-k --coeff", ["1 -1000000", "12 1"])],
    "tilt artin-hasse": [("--p", ["2", "997"]), ("--degree", ["1", "2000"]),
                         ("--padic-precision", ["1", "64"]),
                         ("--exponent", ["1/100000", NEAR_THIRD]),
                         ("--hahn-cap --coeff-k", ["1/1000 1", "1024 12"])],
    # tilt.MAX_WITT_DEGREE puts the corners of --p at (7, 3) and (113, 2)
    "tilt witt-check": [("--p", ["2", "7", "11", "113", "997"]), ("--count", ["1", "5000"]),
                        ("--witt-length", ["1", "2", "3"])],
}


def _corner_argvs(words, box):
    for values in itertools.product(*(vals for _, vals in box)):
        argv = words.split()
        for (names, _), value in zip(box, values):
            value = value.replace("p-1", str(int(values[0]) - 1))  # --p comes first
            argv += [f"{name}={v}" for name, v in zip(names.split(), value.split())]
        yield argv


@pytest.mark.parametrize("words", sorted(TILT_CORNERS))
def test_tilt_commands_at_the_corners_of_their_boxes_exit_0_or_1_in_time(words):
    clean_env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    with mock.patch.dict(os.environ, clean_env, clear=True):
        for argv in _corner_argvs(words, TILT_CORNERS[words]):
            code, _, err, seconds = _run(argv)
            assert code in (0, 1) and "Traceback" not in err, (argv, code, err)
            assert seconds < CORNER_SECONDS, (argv, seconds)
