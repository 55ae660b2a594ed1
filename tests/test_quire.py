"""Exact-accumulator tests.

The rational numbers are the oracle throughout: a quire is correct iff
its value tracks the exact sum of products and its final rounding
equals encode_round of that exact sum.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers, lists

from oracles import ref_dot
from tensorquire.backends import QuireBackend
from tensorquire.posit import POSIT8, POSIT32, PositConfig, decode, encode_round
from tensorquire.quire import MAX_WIDTH, Quire, QuireConfig, exact_dot

Q8 = QuireConfig(POSIT8)
Q32 = QuireConfig(POSIT32)

ONE = 0b01000000
FINITE8 = [p for p in range(256) if p != 0x80]


def test_geometry():
    assert Q8.lsb_scale == -48
    assert Q8.total_width == 24 * 4 + 1 + 31
    assert Q32.lsb_scale == -240
    assert Q32.total_width == 16 * 32


def test_fresh_is_zero_and_bitwise_stable():
    a = Quire.zero(Q8)
    b = Quire.zero(Q8)
    assert a.value == 0
    assert a.to_posit() == 0
    assert a == b


def test_single_fma():
    q = Quire.zero(Q8).fma(ONE, ONE)
    assert q.value == 1
    assert q.to_posit() == ONE


def test_minpos_squared_sets_lsb():
    q = Quire.zero(Q8).fma(POSIT8.minpos_pattern, POSIT8.minpos_pattern)
    assert q.acc == 1


def test_every_pattern_lands_exactly():
    # single-term accumulation agrees with the decoder for all of posit8
    for p in FINITE8:
        q = Quire.zero(Q8).add(p)
        assert q.value == decode(p, POSIT8).value
        q2 = Quire.zero(Q8).fma(p, ONE)
        assert q2.value == decode(p, POSIT8).value


def test_nar_operand_is_sticky():
    q = Quire.zero(Q8).fma(0x80, ONE)
    assert q.nar
    assert q.fma(ONE, ONE).nar
    assert q.add(ONE).nar
    assert q.to_posit() == 0x80
    assert Quire.zero(Q8).merge(q).nar


def test_overflow_saturates_to_nar():
    # double a maxpos^2 accumulator until it exceeds the carry room
    q = Quire.zero(Q8).fma(POSIT8.maxpos_pattern, POSIT8.maxpos_pattern)
    for _ in range(40):
        q = q.merge(q)
        if q.nar:
            break
    assert q.nar
    assert q.to_posit() == 0x80


def test_to_posit_saturation():
    q = Quire.zero(Q8)
    q = q.fma(POSIT8.maxpos_pattern, POSIT8.maxpos_pattern)
    q = q.fma(POSIT8.maxpos_pattern, POSIT8.maxpos_pattern)
    assert not q.nar  # the accumulator holds 2*maxpos^2 exactly
    assert q.value == 2 * Fraction(2) ** 48
    assert q.to_posit() == POSIT8.maxpos_pattern


MAXPOS8 = POSIT8.maxpos_pattern
NEG_MAXPOS8 = (-MAXPOS8) & POSIT8.mask


def _doubled(q, times):
    for _ in range(times):
        q = q.merge(q)
    return q


def test_carry_edge_grouping_invariance():
    # a + b exceeds the carry room on its own, a + b + c does not; the
    # drain judges only the final exact sum, so both groupings agree
    a = b = _doubled(Quire.zero(Q8).fma(MAXPOS8, MAXPOS8), 30)
    c = _doubled(Quire.zero(Q8).fma(NEG_MAXPOS8, MAXPOS8), 30)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.to_posit() == right.to_posit() == MAXPOS8
    assert left == right


def test_carry_edge_grouping_invariance_backend():
    be = QuireBackend(POSIT8)

    def doubled(factors):
        acc = be.accum_term(be.accum_new(), factors)
        for _ in range(30):
            acc = be.accum_merge(acc, acc)
        return acc

    a = b = doubled((MAXPOS8, MAXPOS8))
    c = doubled((NEG_MAXPOS8, MAXPOS8))
    left = be.accum_finish(be.accum_merge(be.accum_merge(a, b), c))
    right = be.accum_finish(be.accum_merge(a, be.accum_merge(b, c)))
    assert left == right == MAXPOS8


def test_merge_identity_and_commutativity():
    rng = random.Random(7)
    for _ in range(200):
        a = Quire.zero(Q8)
        b = Quire.zero(Q8)
        for _ in range(rng.randint(0, 6)):
            a = a.fma(rng.choice(FINITE8), rng.choice(FINITE8))
        for _ in range(rng.randint(0, 6)):
            b = b.fma(rng.choice(FINITE8), rng.choice(FINITE8))
        assert a.merge(Quire.zero(Q8)) == a
        assert a.merge(b) == b.merge(a)


def test_merge_associativity():
    rng = random.Random(8)
    for _ in range(200):
        qs = []
        for _ in range(3):
            q = Quire.zero(Q8)
            for _ in range(rng.randint(1, 5)):
                q = q.fma(rng.choice(FINITE8), rng.choice(FINITE8))
            qs.append(q)
        a, b, c = qs
        assert a.merge(b).merge(c) == a.merge(b.merge(c))


@settings(max_examples=200)
@given(
    lists(integers(0, 255).filter(lambda p: p != 0x80), max_size=12),
    integers(0, 2**32),
)
def test_split_merge_equals_sequential(terms, split_seed):
    """Any partition of the terms into two accumulators, merged, gives
    the same bits as one sequential accumulation."""
    rng = random.Random(split_seed)
    seq = Quire.zero(Q8)
    left = Quire.zero(Q8)
    right = Quire.zero(Q8)
    for p in terms:
        seq = seq.fma(p, p)
        if rng.random() < 0.5:
            left = left.fma(p, p)
        else:
            right = right.fma(p, p)
    assert left.merge(right) == seq


def test_accumulation_tracks_rationals():
    rng = random.Random(2026)
    for _ in range(10_000 // 8):
        n = rng.randint(0, 8)
        xs = [rng.choice(FINITE8) for _ in range(n)]
        ys = [rng.choice(FINITE8) for _ in range(n)]
        q = Quire.zero(Q8)
        for a, b in zip(xs, ys):
            q = q.fma(a, b)
        exact = ref_dot(
            [decode(a, POSIT8).value for a in xs],
            [decode(b, POSIT8).value for b in ys],
        )
        assert q.value == exact
        assert q.to_posit() == encode_round(exact, POSIT8)


def test_permutation_invariance():
    rng = random.Random(99)
    xs = [rng.choice(FINITE8) for _ in range(32)]
    ys = [rng.choice(FINITE8) for _ in range(32)]
    base = exact_dot(xs, ys, POSIT8)
    for _ in range(50):
        order = list(range(32))
        rng.shuffle(order)
        assert exact_dot([xs[i] for i in order], [ys[i] for i in order], POSIT8) == base


def test_exact_dot_cancellation():
    big = encode_round(Fraction(2) ** 24, POSIT32)
    one = encode_round(Fraction(1), POSIT32)
    xs = [big, one, (-big) & POSIT32.mask]
    ys = [one, one, one]
    assert exact_dot(xs, ys, POSIT32) == one


def test_exact_dot_empty():
    assert exact_dot([], [], POSIT8) == 0


def test_exact_dot_rejects_length_mismatch():
    with pytest.raises(ValueError):
        exact_dot([ONE], [], POSIT8)


def test_width_bound():
    # the widest admitted posit64 and posit32 quires, then the first
    # rejected es of each; a rejected width builds no integer that wide
    assert QuireConfig(PositConfig(64, 8)).total_width == 63_520 <= MAX_WIDTH
    assert QuireConfig(PositConfig(32, 9)).total_width == 61_472 <= MAX_WIDTH
    for nbits, es in ((64, 9), (32, 10), (64, 61)):
        with pytest.raises(ValueError, match=f"posit\\({nbits},{es}\\) quire"):
            QuireConfig(PositConfig(nbits, es))
