"""Array file parsing and report rendering."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from tensorquire.arrayio import (
    ArrayData,
    ArrayFormatError,
    Report,
    load_values,
    parse_array,
)
from tensorquire.backends import make_backend
from tensorquire.posit import POSIT16, POSIT32, encode_round, format_bits


def test_parse_minimal():
    data = parse_array("shape 3\nformat decimal\n1 2 3\n")
    assert data.dims == (3,)
    assert data.fmt == "decimal"
    assert data.tokens == ("1", "2", "3")
    assert data.count == 3


def test_parse_comments_and_layout():
    text = "# a matrix\nshape 2 2  # rank 2\nformat decimal\n1 2\n3 4\n"
    data = parse_array(text)
    assert data.dims == (2, 2)
    assert data.tokens == ("1", "2", "3", "4")


def test_parse_hex_tokens():
    data = ArrayData((2, 2), "posit16", ("0x4000", "0x0000", "0x8000", "0x3000"))
    assert parse_array("shape 2 2\nformat posit16\n0x4000 0x0000\n0x8000 0x3000\n") == data


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "shape 2\n",
        "format decimal\nshape 2\n1 2\n",
        "shape 0\nformat decimal\n",
        "shape x\nformat decimal\n1\n",
        "shape 2\nformat nonsense\n1 2\n",
        "shape 2\nformat decimal\n1\n",
        "shape 2\nformat decimal\n1 2 3\n",
        "shape 1\nformat posit32\n0x40\n",
        "shape 1\nformat posit32\n40000000\n",
        "shape 1\nformat posit16\n0x40zz\n",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ArrayFormatError):
        parse_array(bad)


def test_posit32_native_pass_through():
    backend = make_backend("quire")
    data = parse_array("shape 2\nformat posit32\n0x40000000 0x80000000\n")
    vals = load_values(data, backend)
    assert vals == [0x40000000, 0x80000000]


def test_posit16_reencodes_for_posit32_backend():
    backend = make_backend("quire")
    half16 = encode_round(Fraction(1, 2), POSIT16)
    data = parse_array(f"shape 1\nformat posit16\n{format_bits(half16, POSIT16)}\n")
    vals = load_values(data, backend)
    assert vals == [encode_round(Fraction(1, 2), POSIT32)]


def test_posit_nar_crosses_formats():
    backend = make_backend("quire")
    data = parse_array("shape 1\nformat posit16\n0x8000\n")
    assert load_values(data, backend) == [POSIT32.nar_pattern]


def test_binary32_tokens():
    backend = make_backend("binary32")
    # 1.0f, -2.0f
    data = parse_array("shape 2\nformat binary32\n0x3f800000 0xc0000000\n")
    vals = load_values(data, backend)
    assert [float(v) for v in vals] == [1.0, -2.0]


def test_binary_nan_becomes_backend_exception():
    backend = make_backend("quire")
    data = parse_array("shape 1\nformat binary32\n0x7fc00000\n")
    assert load_values(data, backend) == [POSIT32.nar_pattern]


def test_binary_infinity_rejected_outside_binary_backends():
    data = parse_array("shape 1\nformat binary32\n0x7f800000\n")
    with pytest.raises(ArrayFormatError):
        load_values(data, make_backend("quire"))
    vals = load_values(data, make_backend("binary32"))
    assert math.isinf(float(vals[0]))


def test_binary64_round_trip_value():
    backend = make_backend("rational")
    # 0.1 as stored in binary64 is not 1/10; the exact value must survive
    data = parse_array("shape 1\nformat binary64\n0x3fb999999999999a\n")
    vals = load_values(data, backend)
    assert vals[0] == Fraction(0.1)
    assert vals[0] != Fraction(1, 10)


def test_decimal_tokens():
    backend = make_backend("rational")
    data = parse_array("shape 4\nformat decimal\n1 -2.5 1/3 NaR\n")
    vals = load_values(data, backend)
    assert vals[:3] == [1, Fraction(-5, 2), Fraction(1, 3)]
    assert backend.is_exception(vals[3])


def test_decimal_bad_token():
    data = parse_array("shape 1\nformat decimal\nbogus\n")
    with pytest.raises(ArrayFormatError):
        load_values(data, make_backend("rational"))


def test_report_rendering():
    rep = Report()
    rep.add("command", "kernel")
    backend = make_backend("quire")
    rep.add_value("result", backend, 0x40000000)
    rep.add_vector("x", backend, [0, 0x40000000])
    text = rep.render()
    assert text.splitlines() == [
        "command=kernel",
        "result=0x40000000 1.0",
        "x[0]=0x00000000 0.0",
        "x[1]=0x40000000 1.0",
    ]
    assert rep.get("result") == "0x40000000 1.0"
    with pytest.raises(KeyError):
        rep.get("missing")


def test_report_is_byte_stable():
    def build():
        rep = Report()
        backend = make_backend("rational")
        rep.add("n", 2)
        rep.add_value("v", backend, Fraction(1, 3))
        return rep.render()

    assert build() == build()
    assert build().endswith("\n")
