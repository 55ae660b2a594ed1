"""Executable kernels over backends and schedules.

Two evaluation routes exist for every kernel.  The direct route runs
the textbook recipe (scheduled reductions for dots and matrix rows,
scalar ops for updates).  The normal-form route interprets the
flat-index loop nest produced by ``exprs.normalize``.  Under the quire
and rational backends both routes are bitwise identical: the normal
form is evaluated with one rounding per reduction, loop-invariant
subexpressions are computed once (matching how the direct route reuses
alpha and the matrix-vector product), and a term's factors feed the
accumulator unrounded.

Schedules shape every reduction tree; exact backends are bitwise
schedule-invariant, rounding backends expose their order dependence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Tuple

from .arrays import DenseArray
from .backends import Backend
from .exprs import Add, Div, Mul, NormalForm, Ref, Sum, cg_expr, children, normalize
from .schedule import SEQUENTIAL, Schedule, reduce_terms

__all__ = [
    "BreakdownError",
    "run_dot",
    "run_matvec",
    "run_matmul",
    "run_outer",
    "evaluate_normal_form",
    "CGState",
    "initial_state",
    "cg_step",
    "CGOutcome",
    "cg_solve",
    "rounding_census",
]


class BreakdownError(ArithmeticError):
    """Zero p.A.p denominator: the CG recurrence cannot continue."""

    def __init__(self, message: str, iteration: Optional[int] = None) -> None:
        super().__init__(message)
        self.iteration = iteration


def _vector(x, what: str) -> tuple:
    if isinstance(x, DenseArray):
        if x.rank != 1:
            raise ValueError(f"{what} must be a vector, shape is {x.dims}")
        return x.data
    return tuple(x)


def _matrix(a, what: str) -> Tuple[tuple, Tuple[int, int]]:
    if isinstance(a, DenseArray):
        if a.rank != 2:
            raise ValueError(f"{what} must be a matrix, shape is {a.dims}")
        return a.data, (a.dims[0], a.dims[1])
    raise ValueError(f"{what} must be a DenseArray matrix")


def run_dot(x, y, backend: Backend, schedule: Schedule = SEQUENTIAL):
    xs = _vector(x, "dot operand")
    ys = _vector(y, "dot operand")
    if len(xs) != len(ys):
        raise ValueError(f"dot length mismatch: {len(xs)} vs {len(ys)}")
    return reduce_terms(backend, list(zip(backend.prepare(xs), backend.prepare(ys))), schedule)


def run_matvec(a, x, backend: Backend, schedule: Schedule = SEQUENTIAL) -> DenseArray:
    data, (m, n) = _matrix(a, "matvec operand")
    xs = _vector(x, "matvec operand")
    if len(xs) != n:
        raise ValueError(f"matvec shape mismatch: {m}x{n} vs {len(xs)}")
    data = backend.prepare(data)
    xs = backend.prepare(xs)
    rows = (data[i * n : (i + 1) * n] for i in range(m))
    return DenseArray((m,), [reduce_terms(backend, list(zip(row, xs)), schedule) for row in rows])


def run_matmul(a, b, backend: Backend, schedule: Schedule = SEQUENTIAL) -> DenseArray:
    da, (m, n) = _matrix(a, "matmul operand")
    db, (n2, p) = _matrix(b, "matmul operand")
    if n != n2:
        raise ValueError(f"matmul inner dims disagree: {n} vs {n2}")
    # each operand is prepared once, not once per term that reads it
    da = backend.prepare(da)
    db = backend.prepare(db)
    rows = [da[i * n : (i + 1) * n] for i in range(m)]
    cols = [db[j::p] for j in range(p)]
    out = [reduce_terms(backend, list(zip(row, col)), schedule) for row in rows for col in cols]
    return DenseArray((m, p), out)


def run_outer(x, y, backend: Backend) -> DenseArray:
    # no reduction happens, so there is nothing for a schedule to vary
    xs = _vector(x, "outer operand")
    ys = _vector(y, "outer operand")
    out = [backend.mul(xi, yj) for xi in xs for yj in ys]
    return DenseArray((len(xs), len(ys)), out)


# ---------------------------------------------------------------------------
# normal-form interpreter


def _free_vars(node, cache: dict) -> frozenset:
    got = cache.get(node)
    if got is not None:
        return got
    if isinstance(node, Ref):
        fs = frozenset(node.index.free_vars())
    else:
        fs = frozenset().union(*(_free_vars(c, cache) for c in children(node)))
        if isinstance(node, Sum):
            fs -= frozenset(v for v, _ in node.indices)
    cache[node] = fs
    return fs


def evaluate_normal_form(
    nf: NormalForm,
    arrays: dict,
    backend: Backend,
    schedule: Schedule = SEQUENTIAL,
) -> DenseArray:
    """Interpret a normal form under a backend and schedule.

    ``arrays`` maps operand names to backend-native value sequences.
    Each Sum node owns one accumulator (rounded once on exit); factors
    of a term enter it unrounded and unprepared (prepared operands come
    in pairs).  Sum and Div values that do not depend on the loop
    variables in scope are computed once and reused, so the operation
    count matches the direct kernel routes.  A zero divisor gives the
    backend's exception value.
    """
    data = {}
    for name, ext in nf.operands:
        if name not in arrays:
            raise ValueError(f"missing operand {name}")
        vals = arrays[name]
        vals = vals.data if isinstance(vals, DenseArray) else tuple(vals)
        if len(vals) != ext:
            raise ValueError(f"operand {name} has {len(vals)} values, needs {ext}")
        data[name] = vals

    out = list(data[nf.output]) if nf.output in data else [backend.zero()] * nf.out_extent
    fv_cache: dict = {}
    memo: dict = {}

    def eval_factors(node, env) -> tuple:
        if isinstance(node, Ref):
            return (data[node.array][node.index.evaluate(env)],)
        if isinstance(node, Mul):
            return tuple(itertools.chain.from_iterable(eval_factors(f, env) for f in node.factors))
        if isinstance(node, Add):
            return (reduce(backend.add, [eval_scalar(t, env) for t in node.terms]),)
        if isinstance(node, (Sum, Div)):
            # computed once per binding of the node's free variables
            key = node, tuple(sorted((v, env[v]) for v in _free_vars(node, fv_cache)))
            res = memo.get(key)
            if res is None:
                if isinstance(node, Sum):
                    res = eval_sum(node, env)
                else:
                    res = (backend.div(eval_scalar(node.num, env), eval_scalar(node.den, env)),)
                memo[key] = res
            return res
        raise TypeError(f"not a normal-form node: {type(node).__name__}")

    def eval_scalar(node, env):
        return reduce(backend.mul, eval_factors(node, env))

    def eval_sum(node: Sum, env) -> tuple:
        bound = tuple(v for v, _ in node.indices)
        bset = frozenset(bound)
        parts = node.body.factors if isinstance(node.body, Mul) else (node.body,)
        # factors free of the reduction indices hoist out of the
        # accumulation and join the result as sibling factors
        inv_vals: list = []
        varying: list = []
        for part in parts:
            if _free_vars(part, fv_cache) & bset:
                varying.append(part)
            else:
                inv_vals.extend(eval_factors(part, env))
        terms = []
        for point in itertools.product(*(range(n) for _, n in node.indices)):
            env2 = dict(env)
            env2.update(zip(bound, point))
            fs: list = []
            for part in varying:
                fs.extend(eval_factors(part, env2))
            terms.append(tuple(fs))
        return (*inv_vals, reduce_terms(backend, terms, schedule))

    for point in itertools.product(*(range(n) for _, n in nf.loops)):
        env = dict(zip((v for v, _ in nf.loops), point))
        out[nf.out_index.evaluate(env)] = eval_scalar(nf.body, env)
    return DenseArray((nf.out_extent,), out)


# ---------------------------------------------------------------------------
# conjugate gradient


@dataclass(frozen=True)
class CGState:
    """State of the CG recurrence; A must be symmetric as stored."""

    a: DenseArray
    x: DenseArray
    r: DenseArray
    p: DenseArray
    k: int = 0

    def __post_init__(self) -> None:
        if self.a.rank != 2 or self.a.dims[0] != self.a.dims[1]:
            raise ValueError(f"A must be square, shape is {self.a.dims}")
        n = self.a.dims[0]
        for name, vec in (("x", self.x), ("r", self.r), ("p", self.p)):
            if vec.dims != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {vec.dims}")
        for i in range(n):
            for j in range(i + 1, n):
                if self.a.at(i, j) != self.a.at(j, i):
                    raise ValueError(f"A is not symmetric at ({i},{j})")

    @property
    def n(self) -> int:
        return self.a.dims[0]


def initial_state(a: DenseArray, b, backend: Backend) -> CGState:
    """x0 = 0, so r0 = p0 = b."""
    bs = _vector(b, "rhs")
    n = len(bs)
    zero = backend.zero()
    return CGState(a, DenseArray((n,), [zero] * n), DenseArray((n,), bs), DenseArray((n,), bs))


def _check_options(variant: str, form: str) -> None:
    if variant not in ("paper", "standard"):
        raise ValueError(f"unknown variant {variant!r}")
    if form not in ("direct", "normal"):
        raise ValueError(f"unknown form {form!r}")


def _axpy(y, d, alpha, backend: Backend) -> list:
    """y + d*alpha elementwise; every product and sum rounds."""
    return [backend.add(yi, backend.mul(di, alpha)) for yi, di in zip(y, d)]


def _x_update(
    nf, a: DenseArray, x, r, p, rr, variant: str, backend: Backend, schedule: Schedule, k: int
):
    """One CG x update at iteration k; returns (x', w, alpha).

    w = A*p and alpha = (r.r)/(p.w); a zero p.w is breakdown.  With a
    normal form ``nf`` the new x is its evaluation, whose X operand
    holds the old x followed by room for the new one; otherwise it is
    x + alpha*dir, with dir = w for the paper variant and p for the
    standard one.  The normal form's p.A.p is the same reduction as
    p.w, so the check here covers its divisor too.
    """
    w = run_matvec(a, p, backend, schedule).data
    den = run_dot(p, w, backend, schedule)
    if backend.is_zero(den):
        raise BreakdownError(f"zero p.A.p denominator at iteration {k}", k)
    alpha = backend.div(rr, den)
    if nf is None:
        return _axpy(x, w if variant == "paper" else p, alpha, backend), w, alpha
    n = len(x)
    ext = tuple(x) + (backend.zero(),) * n
    out = evaluate_normal_form(nf, {"X": ext, "P": p, "R": r, "A": a}, backend, schedule)
    return out.data[n:], w, alpha


def cg_step(
    state: CGState,
    backend: Backend,
    variant: str = "standard",
    form: str = "direct",
    schedule: Schedule = SEQUENTIAL,
) -> CGState:
    """One x-update: alpha = (r.r)/(p.A.p), x' = x + alpha*p (or alpha*A*p).

    ``variant='paper'`` uses the A*p direction, ``variant='standard'``
    uses p.  ``form='normal'`` evaluates the flat-index normal form,
    whose text takes the p direction, so under it both variants return
    the same x; the variants only diverge under ``form='direct'``.
    r and p are untouched here; completing the recurrence is
    cg_solve's job.
    """
    _check_options(variant, form)
    nf = normalize(cg_expr(state.n)) if form == "normal" else None
    rr = run_dot(state.r, state.r, backend, schedule)
    x1, _, _ = _x_update(
        nf, state.a, state.x.data, state.r, state.p.data, rr, variant, backend, schedule, state.k
    )
    return CGState(state.a, DenseArray((state.n,), x1), state.r, state.p, state.k + 1)


@dataclass(frozen=True)
class CGOutcome:
    x: DenseArray
    iterations: int
    converged: bool


def cg_solve(
    a: DenseArray,
    b,
    iters: int,
    backend: Backend,
    variant: str = "standard",
    schedule: Schedule = SEQUENTIAL,
    form: str = "direct",
) -> CGOutcome:
    """Full CG recurrence for ``iters`` steps (early exit on r.r = 0).

    The update order is pinned: alpha = (r.r)/(p.A.p), x += alpha*dir,
    r -= alpha*(A*p), beta = (r'.r')/(r.r), p = r' + beta*p.  The
    direction is p for the standard variant and A*p for the paper
    variant.  Breakdown (zero denominator with a nonzero residual)
    raises with the iteration index.

    ``form='normal'`` routes each x update through the flat-index
    normal form, normalized once per solve, instead of the direct
    recurrence; the r/p bookkeeping still needs alpha, so the census
    counts those roundings on top.  The normal-form text takes the p
    direction for both variants, so under the standard variant the two
    forms produce identical quire bits, while for the paper variant
    only ``form='direct'`` applies the A*p direction.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    _check_options(variant, form)
    state = initial_state(a, b, backend)
    n = state.n
    x = list(state.x.data)
    r = list(state.r.data)
    p = list(state.p.data)
    nf = normalize(cg_expr(n)) if form == "normal" else None

    rr = run_dot(r, r, backend, schedule)
    done = 0
    for t in range(iters):
        if backend.is_zero(rr):
            break
        x, w, alpha = _x_update(nf, a, x, r, p, rr, variant, backend, schedule, t)
        r = [backend.sub(ri, backend.mul(wi, alpha)) for ri, wi in zip(r, w)]
        rr_new = run_dot(r, r, backend, schedule)
        beta = backend.div(rr_new, rr)
        p = _axpy(r, p, beta, backend)
        rr = rr_new
        done = t + 1
    return CGOutcome(DenseArray((n,), x), done, backend.is_zero(rr))


def rounding_census(backend: Backend, run) -> dict:
    """Count the roundings a kernel run performs on this backend."""
    backend.reset_counter()
    run()
    return {"roundings": backend.roundings}
