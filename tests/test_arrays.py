"""Row-major indexing and dense-array validation."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis.strategies import integers, lists

from tensorquire.arrays import DenseArray, element_count, flat_index

dims_strategy = lists(integers(1, 5), min_size=1, max_size=4)


def _arange(dims):
    return DenseArray(tuple(dims), list(range(element_count(dims))))


def test_flat_index_goldens():
    assert flat_index((0, 0), (2, 2)) == 0
    assert flat_index((1, 0), (2, 2)) == 2
    assert flat_index((1, 2, 3), (2, 3, 4)) == 23


def test_flat_index_rejects_out_of_range():
    with pytest.raises(IndexError):
        flat_index((2, 0), (2, 2))
    with pytest.raises(IndexError):
        flat_index((0, -1), (2, 2))
    with pytest.raises(ValueError):
        flat_index((0,), (2, 2))


@given(dims_strategy)
def test_flat_index_is_a_bijection(dims):
    seen = [flat_index(idx, dims) for idx in itertools.product(*map(range, dims))]
    assert seen == list(range(element_count(dims)))


def test_dense_array_validation():
    with pytest.raises(ValueError):
        DenseArray((2, 2), [1, 2, 3])
    with pytest.raises(ValueError):
        DenseArray((0,), [])


def test_at_bounds():
    a = _arange((2, 3))
    assert a.at(1, 2) == 5
    with pytest.raises(IndexError):
        a.at(2, 0)
