"""Which lines of src/arithmeticoid does nothing a user or the gate runs reach?

Run from the repository root:

    python3 tools/reach.py

In this one process, with ``sys.settrace`` and ``threading.settrace`` filtered
to src/arithmeticoid, it runs

- tests/test_cli.py, tests/test_cli_golden.py and tests/test_acceptance.py,
  through ``pytest.main``;
- every script in demos/, through ``runpy``;
- one smoke round of each benchmark workload that runs in process
  (cli-examples starts a subprocess per op, so it is left out).

It then prints each executable line that none of them reached, grouped by
file and function, and the total.  A line is executable when the compiled
module maps an instruction to it (PEP 626).

Code that runs in a subprocess is not traced: a test that starts
``python -m arithmeticoid`` or a demo golden reaches nothing here.  Line
tracing also slows the library several times, so a test with a wall-clock
bound may fail under it.  The tool reports reach, not pass or fail; the
tier-1 suite stays the verdict.  Standard library only.

    python3 tools/reach.py --raises [TEST_FILE ...]

instead runs only the given test files (default: all of tests/) and lists
each ``raise`` statement in src/arithmeticoid that none of their tests
reached, by file, line and function.  A raise counts as reached when an
exception event fires on one of its lines, so ``if x: raise E`` on one line
counts only when it raises.  This mode traces no line events and runs
several times faster than the line map.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "arithmeticoid") + os.sep
TESTS = ["tests/test_cli.py", "tests/test_cli_golden.py", "tests/test_acceptance.py"]
SUBPROCESS_WORKLOADS = {"cli-examples"}
SEED = 1

reached: set = set()  # (path, line)
raised: set = set()  # (path, line) of exception events


def _local(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    elif event == "exception":
        raised.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(PKG) else None


def _global_raises(frame, event, arg):
    if frame.f_code.co_filename.startswith(PKG):
        frame.f_trace_lines = False  # exception events only
        return _local
    return None


def raise_statements(source: str) -> list:
    """[(first line, last line, qualified name of the enclosing function or
    class, or "<module>")] of every ``raise`` statement in source, by line."""
    out: list = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                out.append((child.lineno, child.end_lineno, owner or "<module>"))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                walk(child, owner)

    walk(ast.parse(source), "")
    return sorted(out)


def executable_lines(path: str) -> dict:
    """{line: qualified name of the innermost code object that runs it}.

    A function's own first line is its ``def`` (or first decorator), which
    the enclosing code runs; it belongs to the enclosing code.
    """
    with open(path, encoding="utf-8") as fh:
        top = compile(fh.read(), path, "exec")
    owner: dict = {}

    def walk(code, is_function):
        for _, _, line in code.co_lines():
            # line 0 is the module's own entry point, which maps no source
            if line and not (is_function and line == code.co_firstlineno):
                owner[line] = code.co_qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, True)

    walk(top, False)
    return owner


def _spans(lines: list) -> str:
    out, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(out)


def run_everything() -> None:
    import pytest

    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the report
        code = pytest.main(["-q", "-p", "no:cacheprovider", *TESTS])
    print(f"pytest exit status {int(code)} (under tracing; see the docstring)", file=sys.stderr)
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(os.path.join(ROOT, "demos", demo), run_name="__main__")
    sys.path.insert(0, os.path.join(ROOT, "benchmark"))
    import worker
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        if name in SUBPROCESS_WORKLOADS:
            continue
        w = cls(SEED, smoke=True)
        w.prepare()
        w.setup()
        res = worker.run_phase(w, 0.0)  # exactly one round
        print(f"workload {name}: {res['failed']} failed ops", file=sys.stderr)


def report_raises(files: list) -> int:
    """Run the test files under exception tracing and print the raise
    statements in src/arithmeticoid that none of them reached."""
    import pytest

    sys.settrace(_global_raises)
    threading.settrace(_global_raises)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["-q", "-p", "no:cacheprovider", *files])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"pytest exit status {int(code)} (under tracing)", file=sys.stderr)
    total = missed = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = PKG + name
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        for first, last, owner in raise_statements(source):
            total += 1
            if not any((path, line) in raised for line in range(first, last + 1)):
                missed += 1
                text = source.splitlines()[first - 1].strip()
                print(f"{name}:{first} {owner}: {text}")
    print(f"unreached: {missed} of {total} raise statements in src/arithmeticoid")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--raises", action="store_true",
                    help="list the raise statements that the given tests leave unreached")
    ap.add_argument("tests", nargs="*", help="test files for --raises (default: tests/)")
    args = ap.parse_args(argv)
    if args.tests and not args.raises:
        ap.error("test files are read only with --raises")
    os.chdir(ROOT)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    # the subprocess tests need the package too, though they are not traced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if args.raises:
        return report_raises(args.tests or ["tests"])
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        run_everything()
    finally:
        tracer = sys.gettrace()
        sys.settrace(None)
        threading.settrace(None)
    if tracer is not _global:
        print("warning: something replaced the tracer during the run", file=sys.stderr)
    total = unreached = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = PKG + name
        owner = executable_lines(path)
        total += len(owner)
        missed: dict = defaultdict(list)
        for line in sorted(owner):
            if (path, line) not in reached:
                missed[owner[line]].append(line)
        if missed:
            print(name)
            for func, lines in sorted(missed.items(), key=lambda kv: kv[1][0]):
                print(f"  {func}: {_spans(lines)}")
        unreached += sum(map(len, missed.values()))
    print(f"unreached: {unreached} of {total} executable lines in src/arithmeticoid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
