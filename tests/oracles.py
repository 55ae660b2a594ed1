"""Independent reference implementations used as test oracles.

Everything here is deliberately written by a different route than the
package code: the posit decoder walks the bit string as text, the
encoder searches an enumerated value table, and the cost simulator
replays an explicit access trace.  Agreement between these and the
package is the point of the tests, so nothing below may import the
corresponding package internals beyond type definitions.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from tensorquire.exprs import Add, Div, Mul, NormalForm, Ref, Sum
from tensorquire.planner import CostModel
from tensorquire.posit import PositConfig

# ---------------------------------------------------------------------------
# posit codec, string route


def ref_decode(bits: int, cfg: PositConfig) -> Optional[Fraction]:
    """Exact value of a pattern, None for NaR.  Walks the bit string."""
    n = cfg.nbits
    s = format(bits & ((1 << n) - 1), f"0{n}b")
    if s == "1" + "0" * (n - 1):
        return None
    if s == "0" * n:
        return Fraction(0)
    neg = s[0] == "1"
    if neg:
        s = format((-bits) & ((1 << n) - 1), f"0{n}b")
    body = s[1:]
    first = body[0]
    run = len(body) - len(body.lstrip(first))
    k = run - 1 if first == "1" else -run
    rest = body[run + 1 :]  # skip the regime terminator when present
    e_bits = rest[: cfg.es]
    f_bits = rest[cfg.es :]
    # a truncated exponent field holds the high bits
    e = int(e_bits, 2) << (cfg.es - len(e_bits)) if e_bits else 0
    frac = Fraction(int(f_bits, 2), 1 << len(f_bits)) if f_bits else Fraction(0)
    mag = Fraction(2) ** (k * (1 << cfg.es) + e) * (1 + frac)
    return -mag if neg else mag


@lru_cache(maxsize=None)
def _positive_values(nbits: int, es: int) -> Tuple[Fraction, ...]:
    cfg = PositConfig(nbits, es)
    return tuple(ref_decode(p, cfg) for p in range(1, 1 << (nbits - 1)))


def ref_encode(x: Fraction, nbits: int, es: int) -> int:
    """Nearest pattern by table search; ties to the even pattern via
    the half-step lattice one bit wider.  Feasible for nbits <= 16."""
    mask = (1 << nbits) - 1
    if x == 0:
        return 0
    if x < 0:
        return (-ref_encode(-x, nbits, es)) & mask
    vals = _positive_values(nbits, es)
    maxpos_pat = (1 << (nbits - 1)) - 1
    if x >= vals[-1]:
        return maxpos_pat
    if x <= vals[0]:
        return 1  # saturate, never to zero
    i = bisect_left(vals, x)
    if vals[i] == x:
        return i + 1
    lo_pat = i  # vals[i-1] belongs to pattern i
    mid = ref_decode((lo_pat << 1) | 1, PositConfig(nbits + 1, es))
    if x < mid:
        return lo_pat
    if x > mid:
        return lo_pat + 1
    return lo_pat if lo_pat % 2 == 0 else lo_pat + 1


def ref_arith(op: str, a: int, b: int, nbits: int, es: int) -> int:
    cfg = PositConfig(nbits, es)
    nar = 1 << (nbits - 1)
    va, vb = ref_decode(a, cfg), ref_decode(b, cfg)
    if va is None or vb is None:
        return nar
    if op == "add":
        r = va + vb
    elif op == "sub":
        r = va - vb
    elif op == "mul":
        r = va * vb
    elif op == "div":
        if vb == 0:
            return nar
        r = va / vb
    else:
        raise ValueError(op)
    return ref_encode(r, nbits, es)


def ref_dot(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(xs, ys)), Fraction(0))


# ---------------------------------------------------------------------------
# access-trace cost simulator

Anno = tuple


def _annotate(nf: NormalForm) -> Tuple[Anno, List[int], int]:
    """Mirror the occurrence numbering positionally, then build an
    executable tree carrying occurrence ids on each sum.  Also returns
    the element loops' ids and the number of occurrences."""
    counter = [len(nf.loops)]
    refs = [0]

    def walk(node) -> Anno:
        if isinstance(node, Ref):
            pos = refs[0]
            refs[0] += 1
            return ("ref", pos, node)
        if isinstance(node, Sum):
            ids = []
            for _ in node.indices:
                ids.append(counter[0])
                counter[0] += 1
            return ("sum", tuple(ids), node.indices, walk(node.body))
        if isinstance(node, Mul):
            return ("many", tuple(walk(f) for f in node.factors))
        if isinstance(node, Add):
            return ("many", tuple(walk(t) for t in node.terms))
        if isinstance(node, Div):
            return ("many", (walk(node.num), walk(node.den)))
        raise TypeError(type(node).__name__)

    tree = walk(nf.body)  # numbers the sums, so before counter[0] is read
    return tree, list(range(len(nf.loops))), counter[0]


def trace_cost(nf: NormalForm, tiles: Sequence[int], cm: CostModel) -> int:
    """Replay every read access, bucket by tile instance of the
    reference's enclosing loops, then apply the fits/doesn't-fit rule
    per bucket.  Slow and literal on purpose."""
    tree, free_ids, count = _annotate(nf)
    if len(tiles) != count:
        raise ValueError("tile vector length mismatch")
    block = dict(enumerate(tiles))

    records: Dict[int, Dict[tuple, List[int]]] = {}

    def run(anode: Anno, env: dict, inst: tuple) -> None:
        kind = anode[0]
        if kind == "ref":
            _, pos, ref = anode
            addr = ref.index.evaluate(env)
            records.setdefault(pos, {}).setdefault(inst, []).append(addr)
        elif kind == "many":
            for child in anode[1]:
                run(child, env, inst)
        else:
            _, ids, indices, child = anode
            for point in product(*(range(ext) for _, ext in indices)):
                env2 = dict(env)
                inst2 = inst
                for (var, _), oid, i in zip(indices, ids, point):
                    env2[var] = i
                    inst2 = inst2 + (i // block[oid],)
                run(child, env2, inst2)

    free_vars = [var for var, _ in nf.loops]
    for point in product(*(range(ext) for _, ext in nf.loops)):
        env = dict(zip(free_vars, point))
        inst = tuple(i // block[oid] for oid, i in zip(free_ids, point))
        run(tree, env, inst)

    total = 0
    for lv in cm.levels:
        for buckets in records.values():
            for addrs in buckets.values():
                lines = {a * cm.element_size // lv.line_size for a in addrs}
                if len(lines) * lv.line_size <= lv.capacity:
                    total += len(lines) * lv.miss_cost
                else:
                    total += len(addrs) * lv.miss_cost
    return total


# ---------------------------------------------------------------------------
# shared random generators


def random_spd_system(rng: random.Random, n: int, shift: int = 64):
    """Integer SPD matrix M^T M + shift*I and a small rhs.  With
    entries in [-3, 3] the spectrum sits in [shift, 9n^2 + shift], so
    shift=64 keeps the condition number of an 8x8 under 10."""
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a = [
        [sum(m[k][i] * m[k][j] for k in range(n)) + (shift if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    b = [rng.randint(-4, 4) for _ in range(n)]
    if all(x == 0 for x in b):
        b[0] = 1
    return a, b


CANCELLATION_CORPUS: List[Tuple[List[int], List[int]]] = []


def _build_corpus() -> None:
    big = 1 << 24
    rng = random.Random(20240917)
    for t in range(12):
        small = [rng.randint(1, 9) for _ in range(3)]
        xs = [big + t, small[0], -(big + t), small[1], big, small[2], -big]
        ys = [1] * len(xs)
        CANCELLATION_CORPUS.append((xs, ys))


_build_corpus()
