"""Reduction schedules: term order, tree shape, and worker split.

A schedule fixes how a reduction of n terms is organized:

  1. ``perm`` reorders the terms (None means identity);
  2. the terms are split into ``workers`` contiguous chunks of
     ceil(n/workers) (the last chunk may be short);
  3. within a chunk, the first entry of ``levels`` groups consecutive
     terms into blocks, each block feeding one fresh accumulator; each
     further level groups the resulting partials into blocks merged
     left to right; leftover partials fold left to right;
  4. worker partials fold left to right, and the final accumulator is
     converted exactly once.

Backends with an exact accumulator produce bit-identical results under
every schedule; rounding backends expose their order dependence through
exactly this machinery, never through races.

Seeds expand to schedules via ``random.Random`` (the stdlib Mersenne
Twister), documented so that a seed names one schedule forever:
perm = rng.sample(range(n), n), workers = rng.randint(1, 4), then
rng.randint(0, 2) levels each drawn rng.randint(2, max(2, n)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "Schedule",
    "SEQUENTIAL",
    "schedule_from_seed",
    "parse_schedule",
    "format_schedule",
    "reduce_terms",
]


@dataclass(frozen=True)
class Schedule:
    perm: Optional[Tuple[int, ...]] = None
    levels: Tuple[int, ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for b in self.levels:
            if b < 1:
                raise ValueError("level block sizes must be >= 1")
        if self.perm is not None and sorted(self.perm) != list(range(len(self.perm))):
            # name the first entry that breaks the permutation
            seen = set()
            for i in self.perm:
                if not 0 <= i < len(self.perm):
                    raise ValueError(f"perm entry {i} is outside 0..{len(self.perm) - 1}")
                if i in seen:
                    raise ValueError(f"perm repeats {i}")
                seen.add(i)

    def order(self, n: int) -> Sequence[int]:
        if self.perm is None:
            return range(n)
        if len(self.perm) != n:
            raise ValueError(f"schedule permutes {len(self.perm)} terms, reduction has {n}")
        return self.perm


SEQUENTIAL = Schedule()


def schedule_from_seed(seed: int, n: int) -> Schedule:
    rng = random.Random(seed)
    perm = tuple(rng.sample(range(n), n))
    workers = rng.randint(1, 4)
    nlevels = rng.randint(0, 2)
    levels = tuple(rng.randint(2, max(2, n)) for _ in range(nlevels))
    return Schedule(perm, levels, workers)


def format_schedule(s: Schedule) -> str:
    perm = "identity" if s.perm is None else ",".join(str(i) for i in s.perm)
    levels = "flat" if not s.levels else ",".join(str(b) for b in s.levels)
    return f"perm={perm};levels={levels};workers={s.workers}"


def _field_int(key: str, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"schedule field {key!r}: {tok!r} is not an integer") from None


def parse_schedule(text: str, n: Optional[int] = None) -> Schedule:
    """Parse the spec string `perm=...;levels=...;workers=...`.

    Fields may appear in any order; missing fields default to the
    sequential schedule.  When ``n`` is given the permutation length is
    checked against it.
    """
    perm: Optional[Tuple[int, ...]] = None
    levels: Tuple[int, ...] = ()
    workers = 1
    for field in text.strip().split(";"):
        if not field:
            continue
        key, _, val = field.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "perm":
            if val != "identity":
                perm = tuple(_field_int(key, t) for t in val.split(","))
        elif key == "levels":
            if val != "flat" and val:
                levels = tuple(_field_int(key, t) for t in val.split(","))
        elif key == "workers":
            workers = _field_int(key, val)
        else:
            raise ValueError(f"unknown schedule field {key!r}")
    s = Schedule(perm, levels, workers)
    if n is not None and s.perm is not None and len(s.perm) != n:
        raise ValueError(f"schedule permutes {len(s.perm)} terms, reduction has {n}")
    return s


def _fold_merge(backend, accs):
    out = accs[0]
    for a in accs[1:]:
        out = backend.accum_merge(out, a)
    return out


def reduce_terms(backend, terms: Sequence[tuple], schedule: Schedule):
    """Reduce a term list under a schedule; one accum_finish at the end.

    Each term is a tuple of factor values fed to backend.accum_term.
    """
    n = len(terms)
    if n == 0:
        return backend.accum_finish(backend.accum_new())
    order = schedule.order(n)
    seq = [terms[i] for i in order]

    chunk = -(-n // schedule.workers)
    partials = []
    # the non-empty chunks only, so a huge worker count costs nothing
    for start in range(0, n, chunk):
        part = seq[start : start + chunk]
        b0 = schedule.levels[0] if schedule.levels else len(part)
        accs = []
        for lo in range(0, len(part), b0):
            acc = backend.accum_new()
            for t in part[lo : lo + b0]:
                acc = backend.accum_term(acc, t)
            accs.append(acc)
        for b in schedule.levels[1:]:
            accs = [_fold_merge(backend, accs[lo : lo + b]) for lo in range(0, len(accs), b)]
        partials.append(_fold_merge(backend, accs))
    return backend.accum_finish(_fold_merge(backend, partials))
