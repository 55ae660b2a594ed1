"""The benchmark tracer's hooks still name real package entry points.

``perfbench/tracing.py`` wraps each ``(module, attr)`` of its
ENTRY_POINTS; a renamed function or a method moved to another class
would otherwise only show when a traced benchmark run fails.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
