"""Flat row-major arrays and the index algebra over them.

Multidimensionality is a view: storage is always a flat sequence, and a
shape only prescribes how multi-indices map onto flat offsets.  The
mapping is row-major Horner flattening throughout; a column-major
source must be converted on input.  Keeping the layout choice out of
array semantics is what lets the planner re-block data freely without
touching results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["DenseArray", "flat_index", "element_count"]

Dims = Tuple[int, ...]


def element_count(dims: Sequence[int]) -> int:
    n = 1
    for d in dims:
        n *= d
    return n


def _check_dims(dims: Sequence[int]) -> Dims:
    dims = tuple(int(d) for d in dims)
    for d in dims:
        if d <= 0:
            raise ValueError(f"dimensions must be positive, got {dims}")
    return dims


def flat_index(idx: Sequence[int], dims: Sequence[int]) -> int:
    """Row-major offset of a multi-index: ((i0*d1 + i1)*d2 + i2)..."""
    if len(idx) != len(dims):
        raise ValueError(f"index rank {len(idx)} != shape rank {len(dims)}")
    off = 0
    for i, d in zip(idx, dims):
        if not 0 <= i < d:
            raise IndexError(f"index {tuple(idx)} out of bounds for shape {tuple(dims)}")
        off = off * d + i
    return off


@dataclass(frozen=True)
class DenseArray:
    """A shape plus flat row-major data.

    Values are whatever the active backend works in: posit or IEEE bit
    patterns as ints, floats, or exact rationals.  The array itself
    does not interpret them.
    """

    dims: Dims
    data: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", _check_dims(self.dims))
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.data) != element_count(self.dims):
            raise ValueError(
                f"shape {self.dims} needs {element_count(self.dims)} values, got {len(self.data)}"
            )

    @property
    def rank(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.data)

    def at(self, *idx: int):
        return self.data[flat_index(idx, self.dims)]
