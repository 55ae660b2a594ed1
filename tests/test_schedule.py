"""Schedule parsing, seeding, and the reduction driver."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from tensorquire.backends import make_backend
from tensorquire.schedule import (
    SEQUENTIAL,
    Schedule,
    format_schedule,
    parse_schedule,
    reduce_terms,
    schedule_from_seed,
)


def test_sequential_format():
    assert format_schedule(SEQUENTIAL) == "perm=identity;levels=flat;workers=1"


def test_format_parse_round_trip():
    for seed in range(40):
        s = schedule_from_seed(seed, 9)
        assert parse_schedule(format_schedule(s), 9) == s


def test_seed_is_deterministic():
    assert schedule_from_seed(123, 50) == schedule_from_seed(123, 50)
    distinct = {schedule_from_seed(s, 50) for s in range(20)}
    assert len(distinct) > 1


def test_parse_defaults_and_field_order():
    assert parse_schedule("") == SEQUENTIAL
    assert parse_schedule("workers=3") == Schedule(None, (), 3)
    assert parse_schedule("levels=2,3;perm=identity") == Schedule(None, (2, 3), 1)
    assert parse_schedule("perm=1,0;workers=2", 2) == Schedule((1, 0), (), 2)


@pytest.mark.parametrize(
    "bad",
    ["perm=0,0", "perm=1,2", "workers=0", "levels=0", "bogus=1"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_schedule(bad)


@pytest.mark.parametrize(
    "bad, field, token",
    [("workers=x", "workers", "x"), ("levels=2,y", "levels", "y"), ("perm=0,z", "perm", "z")],
)
def test_parse_rejects_non_integers_by_field(bad, field, token):
    with pytest.raises(ValueError, match=f"schedule field '{field}': '{token}' is not an integer"):
        parse_schedule(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("perm=0,0", "perm repeats 0"),
        ("perm=0,2", "perm entry 2 is outside 0..1"),
        ("perm=-1,0", "perm entry -1 is outside 0..1"),
        ("perm=1,0,1", "perm repeats 1"),
    ],
)
def test_parse_names_the_bad_perm_entry(bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_schedule(bad)


def test_parse_checks_perm_length():
    with pytest.raises(ValueError):
        parse_schedule("perm=1,0", 3)


def test_order_identity():
    assert list(SEQUENTIAL.order(4)) == [0, 1, 2, 3]
    assert list(Schedule((2, 0, 1)).order(3)) == [2, 0, 1]


def test_reduce_terms_exact_backend_schedule_free():
    backend = make_backend("rational")
    terms = [(Fraction(i, 3), Fraction(7 - i, 2)) for i in range(11)]
    exact = sum(a * b for a, b in terms)
    for seed in range(30):
        s = schedule_from_seed(seed, len(terms))
        assert reduce_terms(backend, terms, s) == exact


def test_reduce_terms_quire_bits_schedule_free():
    backend = make_backend("quire")
    vals = [backend.from_fraction(Fraction(v, 8)) for v in range(-10, 11)]
    terms = [(v,) for v in vals]
    base = reduce_terms(backend, terms, SEQUENTIAL)
    for seed in range(30):
        s = schedule_from_seed(seed, len(terms))
        assert reduce_terms(backend, terms, s) == base


# roundings of one reduction: the quire rounds once at its drain, even
# when empty; every other rounding backend rounds each step
EMPTY_ROUNDINGS = {"quire": 1, "naive": 0, "binary32": 0, "binary64": 0, "rational": 0}
# (2*3)*5: the quire rounds 2*3, fuses *5 and drains; the others round
# both products
MULTI_FACTOR_ROUNDINGS = {"quire": 2, "naive": 2, "binary32": 2, "binary64": 2, "rational": 0}


@pytest.mark.parametrize("name", sorted(EMPTY_ROUNDINGS))
def test_reduce_terms_empty(name):
    backend = make_backend(name)
    got = reduce_terms(backend, [], SEQUENTIAL)
    assert got == 0
    zero = backend.zero()
    assert type(got) is type(zero)
    assert backend.to_hex(got) == backend.to_hex(zero)
    assert backend.roundings == EMPTY_ROUNDINGS[name]


@pytest.mark.parametrize("name", sorted(MULTI_FACTOR_ROUNDINGS))
def test_reduce_terms_multi_factor(name):
    backend = make_backend(name)
    terms = [tuple(backend.from_fraction(Fraction(v)) for v in (2, 3, 5))]
    assert backend.to_fraction(reduce_terms(backend, terms, SEQUENTIAL)) == 30
    assert backend.roundings == MULTI_FACTOR_ROUNDINGS[name]


@pytest.mark.parametrize("name", sorted(EMPTY_ROUNDINGS))
def test_reduce_terms_factorless_and_single_factor_terms(name):
    # a term with no factors counts as one, and a lone factor as itself
    backend = make_backend(name)
    terms = [(), (backend.from_fraction(Fraction(5, 4)),), ()]
    assert backend.to_fraction(reduce_terms(backend, terms, SEQUENTIAL)) == Fraction(13, 4)


@pytest.mark.parametrize("name", ["quire", "naive", "binary32", "rational"])
def test_huge_worker_count_ends_at_once(name):
    # every chunk past the last term is empty, so workers=10**20 is
    # workers=n, and the reduction ends in time bounded by n
    backend = make_backend(name)
    terms = [tuple(backend.from_fraction(Fraction(v, 7)) for v in (i, 3 - i)) for i in range(5)]
    start = time.perf_counter()
    got = reduce_terms(backend, terms, Schedule(None, (2,), 10**20))
    assert time.perf_counter() - start < 2
    roundings = backend.roundings
    backend.reset_counter()
    want = reduce_terms(backend, terms, Schedule(None, (2,), 5))
    assert backend.to_hex(got) == backend.to_hex(want)
    assert backend.roundings == roundings


def test_worker_split_covers_short_tail():
    # 5 terms over 4 workers leaves one worker empty; result unchanged
    backend = make_backend("rational")
    terms = [(Fraction(i),) for i in range(5)]
    s = Schedule(None, (), 4)
    assert reduce_terms(backend, terms, s) == 10


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("pos", range(6))
def test_reduce_terms_rational_nar_is_sticky(pos, slot):
    # the rational backend's NaR is None, so the fold must not take a
    # None accumulator for an empty one under any grouping
    backend = make_backend("rational")
    terms = [(Fraction(i + 1, 3), Fraction(5 - i, 2)) for i in range(6)]
    bad = list(terms[pos])
    bad[slot] = None
    terms[pos] = tuple(bad)
    schedules = [schedule_from_seed(seed, 6) for seed in range(40)]
    schedules += [Schedule(None, (1,), w) for w in range(1, 7)]
    for s in schedules:
        assert reduce_terms(backend, terms, s) is None, s
