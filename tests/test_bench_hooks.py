"""The benchmark tracer's hooks still name real package entry points.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of its
ENTRY_POINTS; a renamed function or a method moved to another class
would otherwise only show when a traced benchmark run fails.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

from tensorquire.backends import BACKEND_NAMES, make_backend
from tensorquire.kernels import run_dot
from tensorquire.posit import POSIT32
from tensorquire.quire import QuireConfig, product_units
from tensorquire.schedule import reduce_terms, schedule_from_seed

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.ENTRY_POINTS


def _resolve(module, attr):
    obj = importlib.import_module(f"tensorquire.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_entry_point_resolves():
    for module, attr in _entry_points():
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_method_hooks_are_defined_on_their_class():
    # the tracer wraps vars(cls)[method], so an inherited method breaks it
    for module, attr in _entry_points():
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"tensorquire.{module}"), cls_name)
            assert meth in vars(cls), f"{module}.{attr} is not defined on {cls_name}"


# The layer sweep (perfbench/layers.py) also calls the package directly:
# accum_term on raw values of every backend, product_units on patterns,
# and reduce_terms with a backend that has no arithmetic at all.


def test_accum_term_on_raw_values_equals_the_kernel():
    rng = random.Random(4)
    values = [Fraction(rng.randint(-(1 << 22), 1 << 22), 1 << 16) for _ in range(40)]
    for name in BACKEND_NAMES:
        be = make_backend(name)
        xs = [be.from_fraction(v) for v in values[:20]]
        ys = [be.from_fraction(v) for v in values[20:]]
        acc = be.accum_new()
        for t in zip(xs, ys):
            acc = be.accum_term(acc, t)
        assert be.accum_finish(acc) == run_dot(xs, ys, be), name


def test_product_units_takes_patterns():
    qcfg = QuireConfig(POSIT32)
    one = 1 << 30  # the posit32 pattern of 1.0
    half = 0x38000000
    assert product_units(one, half, qcfg) == 1 << (-1 - qcfg.lsb_scale)
    assert product_units(POSIT32.nar_pattern, one, qcfg) is None


def test_reduce_terms_needs_only_the_four_accum_methods():
    class NullBackend:
        def accum_new(self):
            return 0

        def accum_term(self, acc, t):
            return acc + len(t)

        def accum_merge(self, a, b):
            return a + b

        def accum_finish(self, acc):
            return acc

    terms = [(k, k + 1) for k in range(50)]
    for seed in range(5):
        assert reduce_terms(NullBackend(), terms, schedule_from_seed(seed, len(terms))) == 100
