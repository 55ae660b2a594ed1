"""Codec and scalar arithmetic tests for the posit module.

Goldens are checked against hand-derived values; everything else is
checked against the independent string-route oracle in oracles.py.
Exhaustive sweeps at the larger widths live in test_acceptance.py.
"""

from __future__ import annotations

import operator
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis.strategies import fractions, integers, one_of, sampled_from

from oracles import ref_arith, ref_decode, ref_encode, ref_round, _positive_values
from tensorquire.posit import (
    FINITE,
    NAR,
    POSIT8,
    POSIT16,
    POSIT32,
    ZERO,
    InexactConversion,
    PositConfig,
    arith,
    compare,
    decode,
    encode_round,
    format_bits,
    from_float,
    parse_bits,
    to_float,
    to_signed,
)

_SMALL_FRACTIONS = fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=10**9
)
# 64-bit draws whose top bits are the pattern at any width: zero, NaR,
# one, maxpos and their negatives, and full-range random patterns
_TOP_PATTERNS = one_of(
    sampled_from([0, 1 << 63, 1 << 62, (1 << 63) - 1, 3 << 62, (1 << 63) + 1]),
    integers(0, (1 << 64) - 1),
)
_EXACT = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


class TestConfig:
    def test_geometry(self):
        assert POSIT8.nar_pattern == 0x80
        assert POSIT8.maxpos_pattern == 0x7F
        assert POSIT8.minpos_pattern == 0x01
        assert POSIT8.max_scale == 24
        assert POSIT8.min_scale == -24
        assert POSIT32.max_scale == 120

    def test_hex_digits_rounds_up(self):
        assert POSIT8.hex_digits == 2
        assert PositConfig(12, 2).hex_digits == 3
        assert POSIT32.hex_digits == 8

    @pytest.mark.parametrize("nbits,es", [(2, 0), (3, 1), (8, 6), (8, -1)])
    def test_rejects_bad_geometry(self, nbits, es):
        with pytest.raises(ValueError):
            PositConfig(nbits, es)


class TestDecode:
    def test_one(self):
        d = decode(0b01000000, POSIT8)
        assert d.kind == FINITE
        assert d.value == 1

    def test_zero_and_nar(self):
        assert decode(0x00, POSIT8).kind == ZERO
        assert decode(0x80, POSIT8).kind == NAR

    def test_long_regime(self):
        assert decode(0b01110000, POSIT8).value == 256

    def test_extremes(self):
        assert decode(POSIT8.maxpos_pattern, POSIT8).value == Fraction(2) ** 24
        assert decode(POSIT8.minpos_pattern, POSIT8).value == Fraction(1, 2**24)

    def test_truncated_exponent_reads_high_bits(self):
        # regime eats all but one exponent bit; that bit is the high one
        d = decode(0b01111101, POSIT8)
        assert d.value == Fraction(2) ** 18

    def test_negative_is_twos_complement(self):
        for p in (0b01000000, 0b01110000, 0x33):
            neg = (-p) & POSIT8.mask
            assert decode(neg, POSIT8).value == -decode(p, POSIT8).value

    @staticmethod
    def check_against_reference(patterns, cfg):
        for p in patterns:
            mine = decode(p, cfg)
            ref = ref_decode(p, cfg)
            if ref is None:
                assert mine.kind == NAR, hex(p)
            elif ref == 0:
                assert mine == (ZERO, 1, 0, 0), hex(p)
            else:
                assert mine.kind == FINITE, hex(p)
                assert mine.significand & 1, hex(p)  # the canonical triple
                assert mine.value == ref, hex(p)

    @pytest.mark.parametrize(
        "nbits,es", [(n, es) for n in range(3, 13) for es in range(n - 2)]
    )
    def test_matches_reference_exhaustive(self, nbits, es):
        self.check_against_reference(range(1 << nbits), PositConfig(nbits, es))

    @pytest.mark.parametrize("nbits,es", [(32, 2), (64, 2), (64, 3)])
    def test_matches_reference_random(self, nbits, es):
        # the oracle's exact values grow as 2**(2**es * nbits), so wide
        # formats are checked at small es only
        rng = random.Random(f"decode:{nbits}:{es}")
        self.check_against_reference(
            [rng.getrandbits(nbits) for _ in range(20000)], PositConfig(nbits, es)
        )

    def test_memory_stays_bounded(self):
        # a stream of distinct patterns must not grow the process: the
        # decode memo keeps a bounded number of them
        patterns = random.Random("decode-stream").sample(range(1 << 32), 200_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for p in patterns:
                decode(p, POSIT32)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 10 * 2**20, grown

    def test_rejects_wide_pattern(self):
        with pytest.raises(ValueError):
            decode(0x100, POSIT8)


class TestEncode:
    def test_one(self):
        assert encode_round(Fraction(1), POSIT8) == 0b01000000

    def test_exact_patterns_round_trip(self):
        for p in range(256):
            if p in (0, 0x80):
                continue
            assert encode_round(decode(p, POSIT8).value, POSIT8) == p

    def test_saturates_at_maxpos(self):
        assert encode_round(Fraction(2) ** 300, POSIT8) == 0b01111111
        assert encode_round(-(Fraction(2) ** 300), POSIT8) == 0b10000001

    def test_saturates_at_minpos_never_zero(self):
        tiny = Fraction(1, 2**400)
        assert encode_round(tiny, POSIT8) == POSIT8.minpos_pattern
        assert encode_round(-tiny, POSIT8) == (-POSIT8.minpos_pattern) & 0xFF

    def test_all_adjacent_midpoints_tie_to_even(self):
        """The halfway point between neighbours goes to the even pattern."""
        vals = _positive_values(8, 2)
        for lo_pat in range(1, 127):
            lo, hi = vals[lo_pat - 1], vals[lo_pat]
            mid = ref_decode((lo_pat << 1) | 1, PositConfig(9, 2))
            assert lo < mid < hi
            even = lo_pat if lo_pat % 2 == 0 else lo_pat + 1
            assert encode_round(mid, POSIT8) == even
            assert encode_round(mid + (hi - mid) / 7, POSIT8) == lo_pat + 1
            assert encode_round(mid - (mid - lo) / 7, POSIT8) == lo_pat

    @given(_SMALL_FRACTIONS)
    def test_matches_reference(self, x):
        assert encode_round(x, POSIT8) == ref_encode(x, 8, 2)

    @settings(max_examples=300)
    @given(integers(-(10**40), 10**40), integers(1, 10**40))
    def test_matches_reference_wide_range(self, num, den):
        x = Fraction(num, den)
        assert encode_round(x, POSIT8) == ref_encode(x, 8, 2)
        assert encode_round(x, PositConfig(12, 2)) == ref_encode(x, 12, 2)


class TestArith:
    def test_identities(self):
        one = 0b01000000
        for p in range(256):
            if p == 0x80:
                continue
            assert arith("mul", p, one, POSIT8) == p
            assert arith("add", p, 0, POSIT8) == p

    def test_nar_absorbs(self):
        for op in ("add", "sub", "mul", "div"):
            assert arith(op, 0x80, 0x40, POSIT8) == 0x80
            assert arith(op, 0x40, 0x80, POSIT8) == 0x80

    def test_divide_by_zero(self):
        assert arith("div", 0b01000000, 0, POSIT8) == 0x80
        assert arith("div", 0, 0, POSIT8) == 0x80

    @settings(max_examples=400)
    @given(
        sampled_from(["add", "sub", "mul", "div"]),
        integers(0, 255),
        integers(0, 255),
    )
    def test_matches_reference(self, op, a, b):
        assert arith(op, a, b, POSIT8) == ref_arith(op, a, b, 8, 2)

    @pytest.mark.parametrize(
        "nbits,es", [(n, es) for n in range(3, 7) for es in range(n - 2)]
    )
    def test_matches_reference_exhaustive_small(self, nbits, es):
        """Every operand pair of every small format, and the encoding of
        every pattern's value and of every midpoint between neighbours,
        against the string-route oracle.  The patterns one bit wider
        decode to exactly those values and midpoints."""
        cfg = PositConfig(nbits, es)
        wider = PositConfig(nbits + 1, es)
        for q in range(1 << (nbits + 1)):
            x = ref_decode(q, wider)
            if x is not None:
                assert encode_round(x, cfg) == ref_encode(x, nbits, es), q
        pats = range(1 << nbits)
        for op in ("add", "sub", "mul", "div"):
            for a in pats:
                for b in pats:
                    assert arith(op, a, b, cfg) == ref_arith(op, a, b, nbits, es), (op, a, b)

    @pytest.mark.parametrize("nbits", [32, 64])
    @settings(max_examples=300, deadline=None)
    @given(sampled_from(["add", "sub", "mul", "div"]), _TOP_PATTERNS, _TOP_PATTERNS)
    def test_matches_bisection_oracle_wide(self, nbits, op, a, b):
        """posit32 and posit64 against the exact result of the decoded
        operands, rounded once by bisection; ref_encode's table of every
        pattern is out of reach past 16 bits."""
        cfg = PositConfig(nbits, 2)
        a, b = a >> (64 - nbits), b >> (64 - nbits)
        va, vb = ref_decode(a, cfg), ref_decode(b, cfg)
        if va is None or vb is None or (op == "div" and vb == 0):
            want = cfg.nar_pattern
        else:
            want = ref_round(_EXACT[op](va, vb), cfg)
        assert arith(op, a, b, cfg) == want


class TestNoFractionOnArithmeticPath:
    """Operations and quire drains round exact integers; a Fraction
    built anywhere on that path is a second rounding route."""

    def test_arith_and_quire_build_no_fraction(self, monkeypatch):
        import random

        import tensorquire.posit as posit_mod
        import tensorquire.quire as quire_mod

        ops = ("add", "sub", "mul", "div")
        pairs = [(a, b) for a in range(256) for b in range(256)]
        rng = random.Random(8)
        vecs = [[rng.getrandbits(32) for _ in range(16)] for _ in range(6)]
        qcfg = quire_mod.QuireConfig(POSIT32)
        accs = [0, None, 3, -(1 << 300), qcfg.max_int + 1]
        expect = (
            [[arith(op, a, b, POSIT8) for a, b in pairs] for op in ops],
            [quire_mod.exact_dot(x, y, POSIT32) for x, y in zip(vecs, vecs[1:])],
            [quire_mod.drain(acc, qcfg) for acc in accs],
        )

        class NoFraction:
            def __init__(self, *args, **kwargs):
                raise AssertionError("Fraction built on the arithmetic path")

        monkeypatch.setattr(posit_mod, "Fraction", NoFraction)
        monkeypatch.setattr(quire_mod, "Fraction", NoFraction)
        got = (
            [[arith(op, a, b, POSIT8) for a, b in pairs] for op in ops],
            [quire_mod.exact_dot(x, y, POSIT32) for x, y in zip(vecs, vecs[1:])],
            [quire_mod.drain(acc, qcfg) for acc in accs],
        )
        assert got == expect


class TestCompare:
    def test_goldens(self):
        one = 0b01000000
        two = 0b01001000
        assert compare(one, one, POSIT8) == "eq"
        assert compare(one, two, POSIT8) == "lt"
        assert compare(two, one, POSIT8) == "gt"
        assert compare(0x80, one, POSIT8) == "unordered"

    def test_signed_pattern_order_is_value_order(self):
        pats = [p for p in range(256) if p != 0x80]
        pats.sort(key=lambda p: to_signed(p, POSIT8))
        vals = [decode(p, POSIT8).value for p in pats]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)


class TestConvert:
    def test_posit16_binary64_round_trip_exhaustive(self):
        cfg = POSIT16
        for p in range(1 << 16):
            x = to_float(p, cfg)
            assert from_float(x, cfg) == p

    def test_nan_and_inf_to_nar(self):
        assert from_float(float("nan"), POSIT32) == POSIT32.nar_pattern
        assert from_float(float("inf"), POSIT32) == POSIT32.nar_pattern
        assert from_float(float("-inf"), POSIT32) == POSIT32.nar_pattern

    def test_inexact_conversion_raises(self):
        cfg = PositConfig(64, 2)
        # a 60-bit significand cannot be a binary64 exactly
        bits = (0b01000 << 59) | ((1 << 59) - 1)
        with pytest.raises(InexactConversion):
            to_float(bits, cfg)
        assert to_float(bits, cfg, exact=False) == pytest.approx(2.0)


class TestBitsText:
    def test_format(self):
        assert format_bits(0x40, POSIT8) == "0x40"
        assert format_bits(0, POSIT32) == "0x00000000"
        assert format_bits(0x5A, PositConfig(12, 2)) == "0x05a"

    def test_parse_round_trip(self):
        for p in (0, 1, 0x80, 0xFF):
            assert parse_bits(format_bits(p, POSIT8), POSIT8) == p

    @pytest.mark.parametrize("bad", ["40", "0x4", "0x400", "0xzz", "0x 0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_bits(bad, POSIT8)
