"""Reference routes the benchmark checks the program against.

Nothing here calls the package's arithmetic, kernels or planner: the
posit decoder reads the bit string as text, nearest-posit rounding is
judged by bracketing between neighbouring patterns, dots, matmuls and
CG run on ``fractions.Fraction``, the float folds use Python floats
(binary32 via ``struct``), and the planner's cost model is replayed
address by address.  Only the normal-form node classes are imported,
as the description of what to replay.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from tensorquire.exprs import Add, Div, Mul, Ref, Sum

# ---------------------------------------------------------------------------
# posit values, string route


def ref_decode(bits: int, nbits: int, es: int) -> Optional[Fraction]:
    """Exact value of a posit pattern, None for NaR."""
    mask = (1 << nbits) - 1
    s = format(bits & mask, f"0{nbits}b")
    if s == "0" * nbits:
        return Fraction(0)
    if s == "1" + "0" * (nbits - 1):
        return None
    neg = s[0] == "1"
    if neg:
        s = format((-bits) & mask, f"0{nbits}b")
    body = s[1:]
    lead = body[0]
    run = len(body) - len(body.lstrip(lead))
    k = run - 1 if lead == "1" else -run
    rest = body[run + 1 :]
    ebits, fbits = rest[:es], rest[es:]
    e = (int(ebits, 2) << (es - len(ebits))) if ebits else 0
    scale = k * (1 << es) + e
    frac = Fraction(int(fbits, 2), 1 << len(fbits)) if fbits else Fraction(0)
    mag = (1 + frac) * (Fraction(2) ** scale)
    return -mag if neg else mag


def _midpoint(lo_pattern: int, nbits: int, es: int) -> Fraction:
    """The rounding boundary above positive pattern ``lo_pattern``: the
    pattern one bit wider that sits between it and its successor."""
    return ref_decode((lo_pattern << 1) | 1, nbits + 1, es)


def is_nearest_posit(x: Optional[Fraction], p: int, nbits: int = 32, es: int = 2) -> bool:
    """True when ``p`` is the correctly rounded posit of exact ``x``.

    Rounding is to nearest on the encoded bit string, ties to the even
    pattern; magnitudes beyond the range saturate at maxpos/minpos and
    never round to zero or NaR.  ``x=None`` stands for NaR.
    """
    mask = (1 << nbits) - 1
    nar = 1 << (nbits - 1)
    if x is None:
        return p == nar
    if x == 0:
        return p == 0
    if p == 0 or p == nar:
        return False
    if x < 0:
        x, p = -x, (-p) & mask
    maxpos = nar - 1
    if p > maxpos:  # a negative pattern for a positive value
        return False
    if p > 1:
        below = _midpoint(p - 1, nbits, es)
        if x < below or (x == below and p % 2):
            return False
    if p < maxpos:
        above = _midpoint(p, nbits, es)
        if x > above or (x == above and p % 2):
            return False
    return True


# ---------------------------------------------------------------------------
# exact arithmetic


def fraction_dot(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for x, y in zip(xs, ys):
        total += x * y
    return total


def dyadic_dot(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
    """Exact dot of values with power-of-two denominators, summed as one
    integer over the smallest common power of two."""
    shift = 0
    for v in list(xs) + list(ys):
        shift = max(shift, v.denominator.bit_length() - 1)
    total = 0
    for x, y in zip(xs, ys):
        total += (x.numerator << (shift - x.denominator.bit_length() + 1)) * (
            y.numerator << (shift - y.denominator.bit_length() + 1)
        )
    return Fraction(total, 1 << (2 * shift))


def fraction_matmul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> List[Fraction]:
    return [
        fraction_dot(a[i * n : (i + 1) * n], b[j::n]) for i in range(n) for j in range(n)
    ]


def fraction_cg(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> Tuple[List[Fraction], List[Fraction]]:
    """Textbook CG in exact arithmetic for n steps (or until r = 0).
    Returns x and the exact residual b - A x."""
    x = [Fraction(0)] * n
    r = list(b)
    p = list(r)
    rr = fraction_dot(r, r)
    for _ in range(n):
        if rr == 0:
            break
        w = [fraction_dot(a[i * n : (i + 1) * n], p) for i in range(n)]
        alpha = rr / fraction_dot(p, w)
        x = [xi + alpha * pi for xi, pi in zip(x, p)]
        r = [ri - alpha * wi for ri, wi in zip(r, w)]
        rr_new = fraction_dot(r, r)
        p = [ri + (rr_new / rr) * pi for ri, pi in zip(r, p)]
        rr = rr_new
    resid = [b[i] - fraction_dot(a[i * n : (i + 1) * n], x) for i in range(n)]
    return x, resid


# ---------------------------------------------------------------------------
# IEEE left folds


def f32(x: float) -> float:
    """Round a double to the nearest binary32 value (ties to even)."""
    return struct.unpack("<f", struct.pack("<f", x))[0]


def float_fold_dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sequential binary64 dot: s = x0*y0, then s = s + xi*yi."""
    s = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        s = s + x * y
    return s


def float32_fold_dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sequential binary32 dot.  Each product and sum is formed in
    binary64 and rounded once to binary32, which equals the correctly
    rounded binary32 result because 53 >= 2*24 + 2."""
    s = f32(xs[0] * ys[0])
    for x, y in zip(xs[1:], ys[1:]):
        s = f32(s + f32(x * y))
    return s


# ---------------------------------------------------------------------------
# planner cost model, replayed address by address


def _executable(nf):
    """Number loop occurrences the planner's way (element loops, then
    sum indices in a left-to-right preorder walk) and tag each read."""
    next_id = [len(nf.loops)]
    refs = [0]

    def walk(node):
        if isinstance(node, Ref):
            refs[0] += 1
            return ("ref", refs[0] - 1, node)
        if isinstance(node, Sum):
            ids = tuple(range(next_id[0], next_id[0] + len(node.indices)))
            next_id[0] += len(node.indices)
            return ("loop", ids, node.indices, walk(node.body))
        if isinstance(node, Mul):
            return ("seq", tuple(walk(f) for f in node.factors))
        if isinstance(node, Add):
            return ("seq", tuple(walk(t) for t in node.terms))
        if isinstance(node, Div):
            return ("seq", (walk(node.num), walk(node.den)))
        raise TypeError(f"unexpected node {type(node).__name__}")

    return walk(nf.body), next_id[0]


def occurrence_extents(nf) -> List[int]:
    """Extent of every loop occurrence, in the numbering replay_cost uses."""
    out = [ext for _, ext in nf.loops]

    def walk(node):
        if node[0] == "loop":
            out.extend(ext for _, ext in node[2])
            walk(node[3])
        elif node[0] == "seq":
            for child in node[1]:
                walk(child)

    walk(_executable(nf)[0])
    return out


def replay_cost(nf, blocks: Sequence[int], levels: Sequence[Tuple[int, int, int]], element: int) -> int:
    """Cost of a tiling by replaying every read.

    Each read lands in the tile instance named by (index // block) over
    all loops enclosing it.  Per level and instance: if the distinct
    lines fit the capacity, each line costs one miss, otherwise every
    read in the instance does.  ``levels`` holds (capacity, line, miss).
    """
    tree, count = _executable(nf)
    if len(blocks) != count:
        raise ValueError(f"need {count} blocks, got {len(blocks)}")
    trace: Dict[int, Dict[tuple, List[int]]] = {}

    def run(node, env, inst):
        if node[0] == "ref":
            _, pos, ref = node
            addr = ref.index.evaluate(env)
            trace.setdefault(pos, {}).setdefault(inst, []).append(addr)
        elif node[0] == "seq":
            for child in node[1]:
                run(child, env, inst)
        else:
            _, ids, indices, body = node
            for point in product(*(range(ext) for _, ext in indices)):
                env2 = dict(env)
                inst2 = inst
                for (var, _), oid, i in zip(indices, ids, point):
                    env2[var] = i
                    inst2 += (i // blocks[oid],)
                run(body, env2, inst2)

    names = [var for var, _ in nf.loops]
    for point in product(*(range(ext) for _, ext in nf.loops)):
        inst = tuple(i // blocks[k] for k, i in enumerate(point))
        run(tree, dict(zip(names, point)), inst)

    total = 0
    for capacity, line, miss in levels:
        for per_ref in trace.values():
            for addrs in per_ref.values():
                lines = {a * element // line for a in addrs}
                if len(lines) * line <= capacity:
                    total += len(lines) * miss
                else:
                    total += len(addrs) * miss
    return total
