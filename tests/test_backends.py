"""The IEEE backends' one arithmetic, checked against numpy's.

binary32 and binary64 share one set of ops: compute in binary64, then
round once to the target format.  numpy's float32/float64 ufuncs are an
independent route to the same IEEE results, so every op is compared bit
for bit, over special operands and random bit patterns.  The one
designed difference is the quiet NaN of a zero divisor (0/0 and NaN/0),
which is the format's own positive quiet NaN, not the platform's default
NaN.
"""

from __future__ import annotations

import math
import os
import random
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tensorquire
from tensorquire.arrayio import exception_value, load_values, parse_array
from tensorquire.backends import make_backend

# name -> (struct code, numpy float type, numpy uint type, bits)
FORMATS = {
    "binary32": (">f", np.float32, np.uint32, 32),
    "binary64": (">d", np.float64, np.uint64, 64),
}

SPECIAL32 = [
    0x00000000, 0x80000000,  # +0, -0
    0x7F800000, 0xFF800000,  # +inf, -inf
    0x7FC00000, 0xFFC00000,  # quiet NaN, both signs
    0x7FC12345, 0xFFA00001,  # quiet NaN with payload, signalling NaN
    0x00000001, 0x80000001,  # min subnormal
    0x7F7FFFFF, 0xFF7FFFFF,  # max finite
    0x3F800000, 0xBF800000,  # 1.0, -1.0
]
SPECIAL64 = [
    0x0000000000000000, 0x8000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF8000000012345, 0xFFF4000000000001,
    0x0000000000000001, 0x8000000000000001,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
    0x3FF0000000000000, 0xBFF0000000000000,
]
SPECIAL = {"binary32": SPECIAL32, "binary64": SPECIAL64}

OPS = ("mul", "add", "sub", "div")
UFUNC = {"mul": np.multiply, "add": np.add, "sub": np.subtract, "div": np.divide}


def _float(pattern: int, code: str, bits: int) -> float:
    return struct.unpack(code, pattern.to_bytes(bits // 8, "big"))[0]


def _pattern(v: float, code: str) -> int:
    return int.from_bytes(struct.pack(code, v), "big")


def _operand_pairs(name: str):
    bits = FORMATS[name][3]
    rng = random.Random(20240 + bits)
    special = SPECIAL[name]
    pairs = [(x, y) for x in special for y in special]
    pairs += [(rng.getrandbits(bits), rng.getrandbits(bits)) for _ in range(20_000)]
    return pairs


@pytest.mark.parametrize("name", list(FORMATS))
def test_exception_value_is_the_positive_quiet_nan(name):
    backend = make_backend(name)
    want = {"binary32": "0x7fc00000", "binary64": "0x7ff8000000000000"}[name]
    assert backend.to_hex(exception_value(backend)) == want


@pytest.mark.parametrize("name", list(FORMATS))
def test_ops_match_numpy_bit_for_bit(name):
    code, ftype, utype, bits = FORMATS[name]
    backend = make_backend(name)
    pairs = _operand_pairs(name)
    xs = np.array([x for x, _ in pairs], dtype=utype).view(ftype)
    ys = np.array([y for _, y in pairs], dtype=utype).view(ftype)
    quiet_nan = _pattern(math.nan, code)
    checked = 0
    for op in OPS:
        with np.errstate(all="ignore"):
            want = UFUNC[op](xs, ys).view(utype).tolist()
        fn = getattr(backend, op)
        for (px, py), w in zip(pairs, want):
            a, b = _float(px, code, bits), _float(py, code, bits)
            got = _pattern(fn(a, b), code)
            if op == "div" and b == 0.0 and (a == 0.0 or math.isnan(a)):
                assert got == quiet_nan, (op, hex(px), hex(py))
                continue
            assert got == w, (op, hex(px), hex(py), hex(got), hex(w))
            checked += 1
    # a float quiets a signalling NaN when it loads, so negate what it holds
    for px in SPECIAL[name] + [x for x, _ in pairs[-2000:]]:
        a = _float(px, code, bits)
        assert _pattern(backend.neg(a), code) == _pattern(-ftype(a), code), hex(px)
    assert checked > 4 * 20_000


@pytest.mark.parametrize("name", list(FORMATS))
def test_from_fraction_matches_numpy(name):
    code, ftype, _, _ = FORMATS[name]
    backend = make_backend(name)
    rng = random.Random(7)
    for _ in range(5_000):
        num = rng.getrandbits(rng.randrange(1, 200)) * rng.choice((1, -1))
        x = Fraction(num, rng.getrandbits(rng.randrange(1, 200)) or 1)
        with np.errstate(all="ignore"):
            want = struct.pack(code, ftype(np.float64(float(x))))
        assert struct.pack(code, backend.from_fraction(x)) == want, x


def test_binary32_input_overflow_is_inf_without_warning():
    backend = make_backend("binary32")
    texts = (
        "shape 1\nformat decimal\n1e39\n",
        "shape 1\nformat binary64\n0x47f0000000000000\n",
        "shape 1\nformat binary64\n0xc7f0000000000000\n",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [load_values(parse_array(t), backend)[0] for t in texts]
    assert [backend.to_hex(v) for v in got] == ["0x7f800000", "0x7f800000", "0xff800000"]
    # below the midpoint past the largest binary32 stays finite; the
    # midpoint itself ties to the even neighbour, 2**128, which is +inf
    top = struct.unpack(">f", bytes.fromhex("7f7fffff"))[0]
    assert backend.from_float(top + 2.0**102) == top
    assert backend.from_float(-top - 2.0**103) == -math.inf


@pytest.mark.parametrize("name", list(FORMATS))
def test_from_fraction_overflow_is_signed_inf(name):
    backend = make_backend(name)
    big = Fraction(10) ** 400
    assert backend.from_fraction(big) == math.inf
    assert backend.from_fraction(-big) == -math.inf
    # below the midpoint past the largest binary64 the value rounds to
    # that double, then to the format; the midpoint itself ties to the
    # even neighbour, 2**1024, which is +inf
    top = Fraction(struct.unpack(">d", bytes.fromhex("7fefffffffffffff"))[0])
    half_ulp = Fraction(2) ** 970
    assert backend.from_fraction(top + half_ulp - 1) == backend.from_float(float(top))
    assert backend.from_fraction(-top - half_ulp) == -math.inf


def test_import_loads_no_numpy():
    code = (
        "import sys\n"
        "import tensorquire.cli, tensorquire.kernels, tensorquire.backends\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(tensorquire.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
