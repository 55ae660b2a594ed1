"""Tensor expressions and their flat-index normal forms.

A kernel is first written as a small expression tree (dot, matrix
product, outer product, elementwise product, sum reduction, or the
conjugate-gradient update).  ``normalize`` lowers the tree to a normal
form: an assignment to a flat output index, a set of element loops, and
a body whose only memory accesses are affine functions of loop
variables.  No multidimensional access survives, and reductions get a
single accumulator each.

The normal form pretty-prints to a canonical text used in golden tests,
for example::

    C[i*2+j] = sum(k<2) A[i*2+k]*B[k*2+j]

Passes over a normal-form body go through ``children`` and
``map_children``, the one place that knows the node shapes, and
analyses that need the enclosing loops read ``scopes``, the one place
that numbers loop occurrences; only the interpreter keeps its own
per-node dispatch.
Evaluation of normal forms lives in the kernels module; cost
prediction over them lives in the planner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

__all__ = [
    "Affine",
    "Ref",
    "Mul",
    "Add",
    "Div",
    "Sum",
    "NormalForm",
    "children",
    "map_children",
    "scopes",
    "Leaf",
    "Multiply",
    "SumReduce",
    "Dot",
    "MatMul",
    "OuterProduct",
    "CGKernel",
    "dot_expr",
    "matmul_expr",
    "outer_expr",
    "cg_expr",
    "kernel_expr",
    "normalize",
    "reuse_census",
    "CensusRecord",
    "apply_tiling",
]


# ---------------------------------------------------------------------------
# normal-form IR


@dataclass(frozen=True)
class Affine:
    """Affine index expression with a fixed print order.

    ``atoms`` is a sequence of ('c', const) and ('t', var, coef)
    entries; the order is preserved so that the canonical text can
    write A[j+i*n] and A[i*n+k] as the kernels traditionally do.
    """

    atoms: Tuple[tuple, ...]

    @staticmethod
    def var(name: str, coef: int = 1) -> "Affine":
        return Affine((("t", name, coef),))

    @staticmethod
    def const(value: int) -> "Affine":
        return Affine((("c", value),))

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(self.atoms + other.atoms)

    def free_vars(self) -> Tuple[str, ...]:
        return tuple(a[1] for a in self.atoms if a[0] == "t")

    def evaluate(self, env: dict) -> int:
        off = 0
        for a in self.atoms:
            if a[0] == "c":
                off += a[1]
            else:
                off += env[a[1]] * a[2]
        return off

    def substitute(self, var: str, repl: "Affine") -> "Affine":
        out = []
        for a in self.atoms:
            if a[0] == "t" and a[1] == var:
                for r in repl.atoms:
                    if r[0] == "c":
                        out.append(("c", r[1] * a[2]))
                    else:
                        out.append(("t", r[1], r[2] * a[2]))
            else:
                out.append(a)
        return Affine(tuple(out))

    def __str__(self) -> str:
        parts = []
        for a in self.atoms:
            if a[0] == "c":
                parts.append(str(a[1]))
            elif a[2] == 1:
                parts.append(a[1])
            else:
                parts.append(f"{a[1]}*{a[2]}")
        return "+".join(parts) if parts else "0"


@dataclass(frozen=True)
class Ref:
    array: str
    index: Affine

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class Mul:
    """Ordered product; factors print left to right joined by '*'."""

    factors: Tuple[object, ...]

    def __str__(self) -> str:
        return "*".join(_factor_str(f) for f in self.factors)


@dataclass(frozen=True)
class Add:
    terms: Tuple[object, ...]

    def __str__(self) -> str:
        return " + ".join(str(t) for t in self.terms)


@dataclass(frozen=True)
class Div:
    num: object
    den: object

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"


@dataclass(frozen=True)
class Sum:
    """Reduction over one accumulator.

    ``indices`` may hold several (var, extent) pairs: a blocked
    reduction keeps a single Sum node with a split index so that the
    accumulator, and therefore the rounding count, is unchanged.
    The index space is enumerated in row-major order.
    """

    indices: Tuple[Tuple[str, int], ...]
    body: object

    def __str__(self) -> str:
        prefix = " ".join(f"sum({v}<{n})" for v, n in self.indices)
        return f"{prefix} {self.body}"


def _factor_str(f) -> str:
    # Div carries its own parentheses; bare sums get wrapped.
    if isinstance(f, (Sum, Add)):
        return f"({f})"
    return str(f)


def children(node) -> tuple:
    """The direct subexpressions of a normal-form node, in print order."""
    if isinstance(node, Ref):
        return ()
    if isinstance(node, Mul):
        return node.factors
    if isinstance(node, Sum):
        return (node.body,)
    if isinstance(node, Add):
        return node.terms
    if isinstance(node, Div):
        return (node.num, node.den)
    raise TypeError(f"not a normal-form node: {type(node).__name__}")


def map_children(node, f):
    """The same node rebuilt with ``f`` applied to each direct child; a
    Ref, which has none, comes back as is."""
    if isinstance(node, Sum):
        return Sum(node.indices, f(node.body))
    if isinstance(node, Mul):
        return Mul(tuple(map(f, node.factors)))
    if isinstance(node, Add):
        return Add(tuple(map(f, node.terms)))
    if isinstance(node, Div):
        return Div(f(node.num), f(node.den))
    return node


@dataclass(frozen=True)
class NormalForm:
    """output[out_index] = body, under the given element loops."""

    output: str
    out_extent: int
    out_index: Affine
    loops: Tuple[Tuple[str, int], ...]
    body: object
    operands: Tuple[Tuple[str, int], ...]  # (name, flat extent), sorted

    def __str__(self) -> str:
        return f"{self.output}[{self.out_index}] = {self.body}"

    @property
    def reduction_depth(self) -> int:
        """Summation levels to a scalar: ceil(log2(extent)) per sum index."""
        element = len(self.loops)
        return max(
            sum((ext - 1).bit_length() for _, _, ext in path[element:])
            for _, path in scopes(self)
        )


def scopes(nf: NormalForm):
    """Every body node in preorder, children in print order, paired
    with the (id, var, extent) loop occurrences enclosing it, outermost
    first.  A Sum's indices enclose its body, not the Sum itself.  Ids
    number the element loops first, then each Sum's indices as the walk
    reaches them, so a name repeated in sibling scopes, as in the CG
    form, gets one id per occurrence.
    """
    ids = itertools.count()
    stack = [(nf.body, tuple((next(ids), var, ext) for var, ext in nf.loops))]
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, Sum):
            path += tuple((next(ids), var, ext) for var, ext in node.indices)
        for c in reversed(children(node)):
            stack.append((c, path))


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Leaf:
    name: str
    dims: Tuple[int, ...]


@dataclass(frozen=True)
class Multiply:
    a: object
    b: object


@dataclass(frozen=True)
class SumReduce:
    child: object


@dataclass(frozen=True)
class Dot:
    a: object
    b: object


@dataclass(frozen=True)
class MatMul:
    a: object
    b: object


@dataclass(frozen=True)
class OuterProduct:
    a: object
    b: object


@dataclass(frozen=True)
class CGKernel:
    n: int


def dot_expr(n: int) -> Dot:
    return Dot(Leaf("X", (n,)), Leaf("Y", (n,)))


def matmul_expr(n: int) -> MatMul:
    return MatMul(Leaf("A", (n, n)), Leaf("B", (n, n)))


def outer_expr(n: int) -> OuterProduct:
    return OuterProduct(Leaf("X", (n,)), Leaf("Y", (n,)))


def cg_expr(n: int) -> CGKernel:
    return CGKernel(n)


def kernel_expr(kind: str, n: int):
    table = {"dot": dot_expr, "matmul": matmul_expr, "outer": outer_expr, "cg": cg_expr}
    if kind not in table:
        raise ValueError(f"unknown kernel {kind!r}")
    if n < 1:
        raise ValueError(f"kernel size must be >= 1, got {n}")
    return table[kind](n)


class NormalizeError(ValueError):
    pass


def _leaf_vector(e, what: str) -> Tuple[str, int]:
    if not isinstance(e, Leaf) or len(e.dims) != 1:
        raise NormalizeError(f"{what} must be a vector leaf, got {type(e).__name__}")
    return e.name, e.dims[0]


def _vector_pair(a, b, what: str) -> Tuple[str, str, int]:
    """Names and common length of two equal-length vector leaves."""
    xa, n = _leaf_vector(a, f"{what} operand")
    xb, nb = _leaf_vector(b, f"{what} operand")
    if n != nb:
        raise NormalizeError(f"{what} length mismatch: {n} vs {nb}")
    return xa, xb, n


def _dot_form(xa: str, xb: str, n: int) -> NormalForm:
    j = Affine.var("j")
    body = Sum((("j", n),), Mul((Ref(xa, j), Ref(xb, j))))
    return NormalForm("C", 1, Affine.const(0), (), body, ((xa, n), (xb, n)))


def normalize(e) -> NormalForm:
    """Lower an expression tree to its flat-index normal form."""
    v = Affine.var

    if isinstance(e, Dot):
        return _dot_form(*_vector_pair(e.a, e.b, "dot"))

    if isinstance(e, MatMul):
        if not (isinstance(e.a, Leaf) and isinstance(e.b, Leaf)):
            raise NormalizeError("matmul operands must be leaves")
        if len(e.a.dims) != 2 or len(e.b.dims) != 2:
            raise NormalizeError("matmul operands must be matrices")
        n = e.a.dims[0]
        if e.a.dims != (n, n) or e.b.dims != (n, n):
            raise NormalizeError("matmul supports square operands only")
        body = Sum(
            (("k", n),),
            Mul((Ref(e.a.name, v("i", n) + v("k")), Ref(e.b.name, v("k", n) + v("j")))),
        )
        return NormalForm(
            "C",
            n * n,
            v("i", n) + v("j"),
            (("i", n), ("j", n)),
            body,
            ((e.a.name, n * n), (e.b.name, n * n)),
        )

    if isinstance(e, OuterProduct):
        xa, n = _leaf_vector(e.a, "outer operand")
        xb, m = _leaf_vector(e.b, "outer operand")
        body = Mul((Ref(xa, v("i")), Ref(xb, v("j"))))
        return NormalForm(
            "C", n * m, v("i", m) + v("j"), (("i", n), ("j", m)), body, ((xa, n), (xb, m))
        )

    if isinstance(e, SumReduce):
        # Two supported spellings: full reduction of a vector, and full
        # reduction of an elementwise product (the dot product).
        child = e.child
        if isinstance(child, Leaf) and len(child.dims) == 1:
            n = child.dims[0]
            body = Sum((("j", n),), Ref(child.name, v("j")))
            return NormalForm("C", 1, Affine.const(0), (), body, ((child.name, n),))
        if isinstance(child, Multiply):
            return _dot_form(*_vector_pair(child.a, child.b, "multiply"))
        raise NormalizeError(f"unsupported sum-reduce child {type(child).__name__}")

    if isinstance(e, Multiply):
        xa, xb, n = _vector_pair(e.a, e.b, "multiply")
        body = Mul((Ref(xa, v("i")), Ref(xb, v("i"))))
        return NormalForm("C", n, v("i"), (("i", n),), body, ((xa, n), (xb, n)))

    if isinstance(e, CGKernel):
        n = e.n
        num = Sum((("j", n),), Mul((Ref("R", v("j")), Ref("R", v("j")))))
        den = Sum(
            (("i", n),),
            Sum(
                (("j", n),),
                Mul((Ref("P", v("i")), Ref("A", v("j") + v("i", n)), Ref("P", v("j")))),
            ),
        )
        body = Add((Ref("X", v("k")), Mul((Ref("P", v("k")), Div(num, den)))))
        return NormalForm(
            "X",
            2 * n,
            Affine.const(n) + v("k"),
            (("k", n),),
            body,
            (("A", n * n), ("P", n), ("R", n), ("X", 2 * n)),
        )

    if isinstance(e, Leaf):
        raise NormalizeError("a bare leaf is not a kernel")
    raise NormalizeError(f"unsupported node {type(e).__name__}")


# ---------------------------------------------------------------------------
# census and tiling


class CensusRecord(NamedTuple):
    uses: int
    mults: int
    depth: int


def reuse_census(e, n: Optional[int] = None) -> CensusRecord:
    """How often each input element is read, and how much work results.

    Derived from the normal form: reads per array over the whole
    iteration space divided by the input element count, the total
    multiplication count, and the summation depth (levels of pairwise
    combining to reach a scalar).
    """
    if isinstance(e, str):
        e = kernel_expr(e, n)
    if not isinstance(e, (Dot, MatMul, OuterProduct)):
        raise ValueError("census applies to dot, matmul, and outer kernels")
    nf = normalize(e)
    reads = mults = 0
    for node, path in scopes(nf):
        # how many times the enclosing loops execute this node
        trip = math.prod(ext for _, _, ext in path)
        if isinstance(node, Ref):
            reads += trip
        elif isinstance(node, Mul):
            mults += trip * (len(node.factors) - 1)
    uses, rem = divmod(reads, sum(ext for _, ext in nf.operands))
    if rem:
        raise ValueError("non-uniform reuse; census undefined")
    return CensusRecord(uses, mults, nf.reduction_depth)


def _split_loops(loops, var: str, block: int) -> tuple:
    """``loops`` with ``var`` replaced by its (var+'o', var+'i') pair."""
    out = []
    for v, ext in loops:
        if v != var:
            out.append((v, ext))
        elif ext % block:
            raise ValueError(f"block {block} does not divide extent {ext}")
        else:
            out += [(f"{var}o", ext // block), (f"{var}i", block)]
    return tuple(out)


def _tile_node(node, var: str, block: int, repl: Affine):
    if isinstance(node, Ref):
        return Ref(node.array, node.index.substitute(var, repl))
    if isinstance(node, Sum):
        node = Sum(_split_loops(node.indices, var, block), node.body)
    return map_children(node, lambda c: _tile_node(c, var, block, repl))


def apply_tiling(nf: NormalForm, tiles: dict) -> NormalForm:
    """Split loop variables into (outer, inner) pairs of the given blocks.

    A reduction variable stays inside its Sum node as a lifted index
    pair, preserving the single accumulator; an element loop splits
    into two loops.  Blocks of 1 and full-extent blocks are identity
    splits kept for uniformity.  Requires variable names to be unique
    across the form (true for dot/matmul/outer).
    """
    out = nf
    for var, block in tiles.items():
        names = list({oid: v for _, path in scopes(out) for oid, v, _ in path}.values())
        if names.count(var) > 1:
            raise ValueError(f"variable {var} is not unique; cannot tile")
        if var not in names:
            raise ValueError(f"no loop named {var}")
        repl = Affine.var(f"{var}o", block) + Affine.var(f"{var}i")
        out = NormalForm(
            out.output,
            out.out_extent,
            out.out_index.substitute(var, repl),
            _split_loops(out.loops, var, block),
            _tile_node(out.body, var, block, repl),
            out.operands,
        )
    return out
