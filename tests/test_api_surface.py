"""Every exported name has a user.

A name in a module's ``__all__`` must resolve, and it must be used
somewhere other than that ``__all__`` entry and its own definition: in
the package, in the benchmark harness (``perfbench/*.py``) or in the
README.  Tests do not count, so an export that only its tests call
fails here.
"""

from __future__ import annotations

import functools
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tensorquire"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

_ALL_BLOCK = re.compile(r"^__all__ = \[.*?\]", re.S | re.M)


def _module_name(stem: str) -> str:
    return "tensorquire" if stem == "__init__" else f"tensorquire.{stem}"


@functools.lru_cache(maxsize=None)
def _sources() -> dict:
    """Text of every file that may use a name, with ``__all__`` blocks cut."""
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
    return {p: _ALL_BLOCK.sub("", p.read_text()) for p in paths}


def _exports():
    for stem in MODULES:
        module = importlib.import_module(_module_name(stem))
        for name in getattr(module, "__all__", ()):
            yield stem, name


@pytest.mark.parametrize("stem,name", list(_exports()))
def test_export_resolves_and_has_a_user(stem, name):
    module = importlib.import_module(_module_name(stem))
    assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"
    escaped = re.escape(name)
    word = re.compile(rf"(?<!\w){escaped}(?!\w)")
    # the definition itself, at module level, is not a use
    definition = re.compile(rf"^(?:(?:def|class) {escaped}\b|{escaped}\s*[:=])", re.M)
    own = PACKAGE / f"{stem}.py"
    assert any(
        word.search(definition.sub("", text) if path == own else text)
        for path, text in _sources().items()
    ), f"{module.__name__}.{name} is exported, but nothing in src, perfbench or README uses it"
