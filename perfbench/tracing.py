"""Spans around the package's public entry points, kept in memory.

A span is (name, start, end, parent); parent is the index of the span
that was open when this one began, or -1.  Wrapping replaces the
function on every tensorquire module that binds it, so calls through
``from .x import f`` imports are caught too.  Per-term functions
(decode, encode_round, arith, product_units, accum_term) are too hot to
wrap; the layer sweep times them in isolated loops instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) of each wrapped entry point; "Class.method" names
# a method.  The layer of a span is its module.
ENTRY_POINTS = (
    ("cli", "main"),
    ("arrayio", "parse_array"),
    ("arrayio", "load_values"),
    ("arrayio", "Report.render"),
    ("kernels", "run_dot"),
    ("kernels", "run_matvec"),
    ("kernels", "run_matmul"),
    ("kernels", "cg_solve"),
    ("kernels", "cg_step"),
    ("kernels", "evaluate_normal_form"),
    ("quire", "exact_dot"),
    ("schedule", "reduce_terms"),
    ("backends", "QuireBackend.accum_finish"),
    ("exprs", "normalize"),
    ("planner", "plan"),
    ("planner", "search"),
    ("planner", "predict_cost"),
    ("planner", "ref_paths"),
    ("planner", "loop_occurrences"),
)


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("tensorquire") and m]


def replace_everywhere(original, replacement) -> list:
    """Rebind every tensorquire module attribute that is ``original``.
    Returns the (owner, name, old) triples needed to undo it."""
    undo = []
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> "Tracer":
        for module, attr in ENTRY_POINTS:
            mod = importlib.import_module(f"tensorquire.{module}")
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, fn))
                self._undo.append((cls, meth, fn))
            else:
                fn = getattr(mod, attr)
                self._undo.extend(replace_everywhere(fn, self._wrap(name, fn)))
        return self

    def remove(self) -> None:
        restore(self._undo)
        self._undo = []


def self_times(spans) -> dict:
    """Seconds of self time per layer: each span's duration minus the
    part its child spans cover.  Spans are (name, start, end, parent,
    process), in order within each process; a parent is an index within
    its process."""
    child = defaultdict(float)
    for name, start, end, parent, proc in spans:
        if parent >= 0:
            child[(proc, parent)] += end - start
    out = defaultdict(float)
    index_in_proc = defaultdict(int)
    for name, start, end, _, proc in spans:
        idx = index_in_proc[proc]
        index_in_proc[proc] += 1
        out[name.split(".")[0]] += (end - start) - child[(proc, idx)]
    return dict(out)
