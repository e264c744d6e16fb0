"""Spans and counters recorded from outside the library.

The tracer wraps each listed public function and rebinds the wrapper under
every name that refers to the original in the loaded arithmeticoid modules,
because the modules import each other with ``from .x import f``. sympy's
``factorint`` is also rebound on the sympy package, since ``adelic`` imports
it inside its functions at call time.

Spans are recorded only while an op is running (``begin_op``/``end_op``), so
input construction and oracle checks between ops stay untraced. Each span
keeps its name, start, end, parent span and op id; self time is the span's
duration minus the durations of its child spans. Counter bookkeeping runs
after the span closes and is charged to no span.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import json
import sys
import time
from array import array

# layer -> (module holding the original, function names); names follow the modules
LAYERS = {
    "numfield": ("arithmeticoid.numfield", ("ord", "product_formula_check", "factorint")),
    "adelic": ("arithmeticoid.adelic", ("divisor_support", "lstar_act", "distance",
                                         "place_index", "canonical_place_list",
                                         "frobenius_point")),
    "heights": ("arithmeticoid.heights", ("scalar_height", "stabilized_height_report",
                                           "default_sample", "invert_j_series")),
    "cohomology": ("arithmeticoid.cohomology", ("kummer_class",)),
    "tilt": ("arithmeticoid.tilt", ("artin_hasse", "evaluate_series", "lubin_tate_act",
                                     "hahn_mul", "hahn_inv", "witt_add", "witt_mul",
                                     "witt_universal")),
    "szpiro": ("arithmeticoid.szpiro", ("height_q", "compose", "corollary312_check",
                                         "monodromy_generate", "irreducible")),
}

# functions whose original lives outside the layer's own module; install()
# skips any function whose module the workload has not loaded
_MODULE_OVERRIDES = {"frobenius_point": "arithmeticoid.ffcurve", "factorint": "sympy"}

CLI_COMMANDS = ("height", "product-formula", "szpiro.cor312", "orbit",
                "tilt.witt-check", "places", "tilt.artin-hasse")


def per_layer_metric_names() -> list:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer, (_, funcs) in LAYERS.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_s"]
        names += [f"{layer}.self_s", f"{layer}.self_share"]
    names += ["numfield.factorint.repeat_ratio", "numfield.factorint.max_digits",
              "tilt.hahn_mul.pairs", "tilt.hahn_mul.kept_ratio",
              "tilt.artin_hasse.repeat_ratio", "szpiro.height_q.points",
              "cli.startup_s", "cli.startup_share"]
    names += [f"cli.{c}.latency_ms" for c in CLI_COMMANDS]
    names += ["trace.overhead_ratio", "trace.spans"]
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("max_digits"):
        return "digits"
    return "count"


class _Counters:
    """Counts with their bases, taken at the layer boundary from call arguments."""

    def __init__(self):
        self.factorint_seen: set = set()
        self.factorint_repeats = 0
        self.factorint_max_digits = 0
        self.ah_seen: set = set()
        self.ah_repeats = 0
        self.hahn_pairs = 0
        self.hahn_kept = 0
        self.grid_points = 0

    def factorint(self, args, kwargs):
        n = int(args[0])
        if n in self.factorint_seen:
            self.factorint_repeats += 1
        self.factorint_seen.add(n)
        self.factorint_max_digits = max(self.factorint_max_digits, len(str(abs(n))))

    def artin_hasse(self, args, kwargs):
        key = tuple(args) + tuple(sorted(kwargs.items()))
        if key in self.ah_seen:
            self.ah_repeats += 1
        self.ah_seen.add(key)

    def hahn_mul(self, args, kwargs):
        x, y = args[0], args[1]
        vx = x.terms[0][0] if x.terms else x.cap
        vy = y.terms[0][0] if y.terms else y.cap
        cap = min(x.cap + vy, y.cap + vx)  # the truncation hahn_mul documents
        ey = [e for e, _ in y.terms]
        self.hahn_pairs += len(x.terms) * len(ey)
        for ex, _ in x.terms:
            self.hahn_kept += bisect.bisect_left(ey, cap - ex)

    def height_q(self, args, kwargs):
        self.grid_points += args[1] if len(args) > 1 else kwargs.get("grid", 4096)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_names = array("l")
        self._name_ids: dict = {}
        self.name_layer: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.parents = array("l")
        self.ops = array("l")
        self.op = None
        self._stack: list = []  # [span index, child time]
        self.counters = _Counters()
        self._restore: list = []

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._name_ids[name]

    def begin_op(self, op_id: int):
        self.op = op_id

    def end_op(self):
        self.op = None

    def span(self, name: str, layer: str, fn, counter=None):
        """Wrap fn so that each call made during an op records one span."""
        nid = self._name_id(name, layer)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.span_names.append(nid)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.selfs.append(0.0)
            tracer.parents.append(stack[-1][0] if stack else -1)
            tracer.ops.append(tracer.op)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
                tracer.selfs[idx] = (t1 - t0) - frame[1]
                if counter is not None:
                    counter(args, kwargs)
                if stack:
                    # the parent's self time excludes this span and its bookkeeping
                    stack[-1][1] += clock() - t0
        return wrapper

    def install(self):
        """Rebind every listed function whose module is loaded."""
        for layer, (module_name, funcs) in LAYERS.items():
            for fname in funcs:
                src = _MODULE_OVERRIDES.get(fname, module_name)
                owner = sys.modules.get(src)
                if owner is None:
                    continue
                original = getattr(owner, fname)
                counter = getattr(self.counters, fname, None)
                wrapper = self.span(f"{layer}.{fname}", layer, original, counter)
                self._rebind(original, wrapper)
                if src == "sympy":
                    self._set(owner, fname, wrapper)

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("arithmeticoid"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, mod, attr, value):
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def rollup(self, op_time_s: float) -> dict:
        """Per-function calls and self time, per-layer self time and share, counters."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, s in zip(self.span_names, self.selfs):
            calls[nid] += 1
            self_s[nid] += s
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self.names):
            layer = self.name_layer[nid]
            if layer in layer_self:  # the root span of each op has layer "op"
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.self_s"] = self_s[nid]
                layer_self[layer] += self_s[nid]
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = s
            out[f"{layer}.self_share"] = s / op_time_s if op_time_s > 0 else 0.0
        c = self.counters
        f_calls = out.get("numfield.factorint.calls", 0)
        a_calls = out.get("tilt.artin_hasse.calls", 0)
        h_calls = out.get("szpiro.height_q.calls", 0)
        out["numfield.factorint.repeat_ratio"] = c.factorint_repeats / f_calls if f_calls else 0.0
        out["numfield.factorint.max_digits"] = c.factorint_max_digits
        out["tilt.hahn_mul.pairs"] = c.hahn_pairs
        out["tilt.hahn_mul.kept_ratio"] = c.hahn_kept / c.hahn_pairs if c.hahn_pairs else 0.0
        out["tilt.artin_hasse.repeat_ratio"] = c.ah_repeats / a_calls if a_calls else 0.0
        out["szpiro.height_q.points"] = c.grid_points / h_calls if h_calls else 0.0
        out["trace.spans"] = len(self.starts)
        return out

    def export(self, path: str):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "fields":
                                 ["name", "start", "end", "parent", "op"]}) + "\n")
            for i in range(len(self.starts)):
                fh.write(json.dumps([self.span_names[i], self.starts[i], self.ends[i],
                                     self.parents[i], self.ops[i]]) + "\n")
