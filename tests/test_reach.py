"""The ast-based raise finder of tools/reach.py (the tracing runs themselves
stay out of this suite)."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parent.parent / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

SOURCE = '''\
if False:
    raise SystemExit(1)


def f(x):
    if x: raise ValueError("one line")
    try:
        return 1 / x
    except ZeroDivisionError:
        raise


class C:
    def m(self, n):
        def inner():
            raise KeyError(n)
        raise TypeError(f"spans {n} "
                        f"two lines") from None
'''


def test_raise_finder_names_every_raise_with_its_lines_and_owner():
    assert reach.raise_statements(SOURCE) == [
        (2, 2, "<module>"),
        (6, 6, "f"),
        (10, 10, "f"),
        (16, 16, "C.m.inner"),
        (17, 18, "C.m"),
    ]


def test_raise_finder_on_a_source_without_raises():
    assert reach.raise_statements("def g():\n    return 1\n") == []
