"""Data-motion cost prediction and layout selection.

Given a normal form and a description of a memory hierarchy, the
planner predicts how many cost units each candidate tiling spends on
cache misses and picks the cheapest.  The footprint model is defined
exactly, so an access-trace simulator can reproduce it number for
number:

  For every hierarchy level and every read reference, partition the
  loops enclosing that reference by the tiling and enumerate the tile
  instances.  In each instance the reference touches a set of lines
  (an element's line is the line of its first byte).  If that set,
  times the line size, fits the level's capacity, the level charges
  one miss per distinct line: the tile's lines are loaded once and
  then hit.  Otherwise every execution of the reference inside the
  instance is charged a miss, including re-reads under loops that do
  not move the address.  Instances are grouped by the residue of their
  base byte address modulo the line size, which fixes their line count,
  so alignment effects are counted exactly, never extrapolated from the
  first tile.

Only reads are charged: operand traffic is what layout choices move
around; the output stream is written once regardless.

Tile search is exhaustive over divisors of each loop extent, with a
deterministic tie-break (lexicographically smallest block vector), so
the chosen plan is reproducible and provably minimal at desk scale.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .exprs import Affine, NormalForm, Ref, scopes

__all__ = [
    "CostLevel",
    "CostModel",
    "LayoutPlan",
    "parse_cost_model",
    "format_cost_model",
    "loop_occurrences",
    "ref_paths",
    "predict_cost",
    "search",
    "plan",
]


@dataclass(frozen=True)
class CostLevel:
    capacity: int
    line_size: int
    miss_cost: int

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if self.line_size < 1:
            raise ValueError("line size must be >= 1")
        if self.miss_cost < 0:
            raise ValueError("miss cost must be >= 0")
        if self.capacity % self.line_size:
            raise ValueError("line size must divide capacity")


@dataclass(frozen=True)
class CostModel:
    levels: Tuple[CostLevel, ...]
    element_size: int

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("cost model needs at least one level")
        if self.element_size < 1:
            raise ValueError("element size must be >= 1")
        caps = [lv.capacity for lv in self.levels]
        if any(a >= b for a, b in zip(caps, caps[1:])):
            raise ValueError("level capacities must be strictly increasing")


def parse_cost_model(text: str) -> CostModel:
    """Parse the text format: one `level capacity=.. line=.. miss=..`
    line per hierarchy level plus one `element=..` line."""
    levels: List[CostLevel] = []
    element = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("element"):
            _, _, val = line.partition("=")
            element = int(val.strip())
            continue
        if not line.startswith("level"):
            raise ValueError(f"unrecognized cost-model line: {raw!r}")
        fields = {}
        for field in line.split()[1:]:
            key, eq, val = field.partition("=")
            if not eq:
                raise ValueError(f"cost-model field {field!r} has no '='")
            fields[key] = val
        try:
            levels.append(
                CostLevel(
                    int(fields.pop("capacity")),
                    int(fields.pop("line")),
                    int(fields.pop("miss")),
                )
            )
        except KeyError as e:
            raise ValueError(f"cost-model level missing field {e}") from None
        if fields:
            raise ValueError(f"unknown cost-model fields {sorted(fields)}")
    if element is None:
        raise ValueError("cost model needs an element=<bytes> line")
    return CostModel(tuple(levels), element)


def format_cost_model(cm: CostModel) -> str:
    lines = [f"element={cm.element_size}"]
    lines += [
        f"level capacity={lv.capacity} line={lv.line_size} miss={lv.miss_cost}"
        for lv in cm.levels
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# loop structure of a normal form

Occurrence = Tuple[int, str, int]  # (occurrence id, var name, extent)


def loop_occurrences(nf: NormalForm) -> Tuple[Occurrence, ...]:
    """All loop occurrences in nesting order, numbered by ``scopes``.
    Ids keep occurrences distinct even when a name repeats in sibling
    scopes, as it does in the CG form."""
    return tuple(dict.fromkeys(occ for _, path in scopes(nf) for occ in path))


def ref_paths(nf: NormalForm) -> Tuple[Tuple[Ref, Tuple[Occurrence, ...]], ...]:
    """Read references paired with every loop occurrence enclosing
    them, outermost first.  Occurrence ids match loop_occurrences.

    The path is syntactic: a loop that never moves the reference's
    address still multiplies how often the reference executes.
    """
    return tuple((node, path) for node, path in scopes(nf) if isinstance(node, Ref))


@functools.lru_cache(maxsize=16)
def _references(nf: NormalForm) -> Tuple[Tuple[Occurrence, ...], tuple]:
    """The form's loop occurrences, and per read reference its
    (array, index, moving, silent) analysis.  It depends on the form
    alone, so one search computes it once, not once per candidate.

    ``moving`` holds the (occurrence id, coef, extent) of each loop that
    sets the reference's address, in path order; ``silent`` holds the
    (occurrence id, extent) of every other loop on its path.  A
    variable's last occurrence on the path sets the address; every
    other loop holds it and only multiplies the instance count.
    """
    refs = []
    for ref, path in ref_paths(nf):
        coefs: Dict[str, int] = {}
        for a in ref.index.atoms:
            if a[0] == "t":
                coefs[a[1]] = coefs.get(a[1], 0) + a[2]
        setter = {var: oid for oid, var, _ in path if var in coefs}
        moving = tuple((oid, coefs[var], ext) for oid, var, ext in path if setter.get(var) == oid)
        silent = tuple((oid, ext) for oid, var, ext in path if setter.get(var) != oid)
        refs.append((ref.array, ref.index, moving, silent))
    return loop_occurrences(nf), tuple(refs)


def _validate_tiles(occs: Sequence[Occurrence], tiles: Sequence[int]) -> None:
    if len(tiles) != len(occs):
        raise ValueError(f"need {len(occs)} tile sizes, got {len(tiles)}")
    for (_, var, ext), b in zip(occs, tiles):
        if b < 1 or ext % b:
            raise ValueError(f"tile {b} does not divide extent {ext} of loop {var}")


@functools.lru_cache(maxsize=1 << 12)
def _line_profile(
    index: Affine, loops: Tuple[Tuple[int, int, int], ...], esize: int, line: int
) -> Tuple[Tuple[int, int], ...]:
    """(instances, distinct lines) per occurring residue of the tile
    instances' base byte address modulo ``line``.

    ``loops`` holds (coef, extent, block) of each address-moving loop in
    path order.  An instance's address is base + off, where base is the
    index at the instance's first point and off ranges over one set
    fixed by the blocks.  With base*esize = q*line + r, the line of
    base + off is q + (r + off*esize) // line, so the line count depends
    on r alone.  The residues' histogram is the product of per-loop
    residue counts, combined mod ``line`` without visiting instances.
    """
    offsets = {0}
    residues = Counter({sum(a[1] for a in index.atoms if a[0] == "c") * esize % line: 1})
    for coef, ext, b in loops:
        offsets = {off + coef * i for off in offsets for i in range(b)}
        steps = Counter(coef * b * o * esize % line for o in range(ext // b))
        combined = Counter()
        for (r, n), (s, m) in itertools.product(residues.items(), steps.items()):
            combined[(r + s) % line] += n * m
        residues = combined
    offset_bytes = {off * esize for off in offsets}
    return tuple(
        (n, len({(r + x) // line for x in offset_bytes})) for r, n in residues.items()
    )


def predict_cost(nf: NormalForm, tiles: Sequence[int], cm: CostModel) -> int:
    """Cost units spent on misses under the footprint model above.

    ``tiles`` gives one block size per loop occurrence, in
    loop_occurrences order.
    """
    occs, refs = _references(nf)
    _validate_tiles(occs, tiles)
    total = 0
    for _, index, moving, silent in refs:
        loops = tuple((coef, ext, tiles[oid]) for oid, coef, ext in moving)
        silent_instances = math.prod(ext // tiles[oid] for oid, ext in silent)
        reads_per_instance = math.prod(b for _, _, b in loops) * math.prod(
            tiles[oid] for oid, _ in silent
        )
        for lv in cm.levels:
            charge = 0
            for n, lines in _line_profile(index, loops, cm.element_size, lv.line_size):
                charge += n * (lines if lines * lv.line_size <= lv.capacity else reads_per_instance)
            total += charge * silent_instances * lv.miss_cost
    return total


@dataclass(frozen=True)
class LayoutPlan:
    """Chosen blocks per loop occurrence plus the lifts they imply, and
    the sorted ``search`` table they were chosen from."""

    tiles: Tuple[Tuple[str, int, int], ...]  # (var, extent, block)
    lifts: Tuple[Tuple[str, str, int], ...]  # (operand, var, block)
    predicted_cost: int
    table: Tuple[Tuple[int, Tuple[int, ...]], ...]  # (cost, blocks)

    @property
    def blocks(self) -> Tuple[int, ...]:
        return tuple(b for _, _, b in self.tiles)


def _divisors(n: int) -> Tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


# the most address points a search may visit.  A line profile costs at
# most its reference's points and a memo hit fewer, so the worst case
# (every candidate a miss, lines wider than any tile) measured 80 ns per
# point on a 2-CPU x86-64 host: about 1.4 s at the budget
SEARCH_BUDGET = 1 << 24


def search(nf: NormalForm, cm: CostModel) -> List[Tuple[int, Tuple[int, ...]]]:
    """Exhaustive (cost, blocks) table over all divisor tilings,
    sorted by cost then block vector.

    The work is bounded before any candidate is costed: per level and
    read reference, predict_cost's line profile takes at most one step
    per point of the loops that move the reference's address (at most
    that many residues times offsets, and a residue convolution of at
    most that size), whatever the tiling.  A search whose work exceeds
    SEARCH_BUDGET is rejected up front.
    """
    occs, refs = _references(nf)
    for _, var, ext in occs:
        if ext > 1 << 12:
            raise ValueError(f"loop {var} extent {ext} too large for exhaustive search")
    divisors = [_divisors(ext) for _, _, ext in occs]
    points = sum(math.prod(ext for _, _, ext in moving) for _, _, moving, _ in refs)
    work = math.prod(map(len, divisors)) * len(cm.levels) * points
    if work > SEARCH_BUDGET:
        raise ValueError(
            f"exhaustive search needs {work} address points, over the budget of {SEARCH_BUDGET}"
        )
    table = []
    for blocks in itertools.product(*divisors):
        table.append((predict_cost(nf, blocks, cm), blocks))
    table.sort()
    return table


def plan(nf: NormalForm, cm: CostModel) -> LayoutPlan:
    """Cheapest divisor tiling; ties go to the smallest block vector."""
    occs, refs = _references(nf)
    table = search(nf, cm)
    cost, blocks = table[0]
    tiles = tuple((var, ext, b) for (_, var, ext), b in zip(occs, blocks))
    lifts = []
    seen = set()
    for array, _, moving, _ in refs:
        for oid, _, ext in moving:
            b = blocks[oid]
            if 1 < b < ext and (array, oid) not in seen:
                seen.add((array, oid))
                lifts.append((array, occs[oid][1], b))
    return LayoutPlan(tiles, tuple(lifts), cost, tuple(table))
