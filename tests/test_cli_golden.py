"""Byte-exact CLI output against recorded goldens.

tests/data/cli_golden.txt holds one block per invocation: a header line
``### <exit code> <argv as a JSON list>`` followed by the exact stdout.  The
blocks cover the carrier layer's commands (heights, stabilized heights,
distances, period maps, monoids, degrees, product formulas, cohomology,
place listings, Tate-parameter mutation, collation, tilt and universal-cover
commands) plus the README's worked examples, each in table, json and csv mode.
Every json block must parse.
Input files named by relative path (a parameter list, a collation payload) sit
next to the goldens in tests/data/.
"""

import json
import os
from pathlib import Path

import pytest

from arithmeticoid.cli import ENV_PREFIX, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.txt"


def _load_blocks():
    blocks = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("### "):
            code, argv = line[4:].split(" ", 1)
            blocks.append((int(code), json.loads(argv), []))
        else:
            blocks[-1][2].append(line)
    return [(code, argv, "".join(out)) for code, argv, out in blocks]


BLOCKS = _load_blocks()


@pytest.mark.parametrize("code,argv,expected", BLOCKS,
                         ids=["_".join(argv) for _, argv, _ in BLOCKS])
def test_cli_output_matches_golden(capsys, monkeypatch, code, argv, expected):
    for key in [k for k in os.environ if k.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(key)
    monkeypatch.chdir(DATA)
    assert main(list(argv)) == code
    assert capsys.readouterr().out == expected
    if argv[-2:] == ["--format", "json"]:
        json.loads(expected)
