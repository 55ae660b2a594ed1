"""Command-line surface.

Every command prints an ordered key=value report on stdout and is
byte-identical across runs for the same inputs and flags.  Exit codes:
0 success, 1 usage error, 2 data error (malformed files, bad hex,
shape mismatches), 3 numerical breakdown in CG.

Schedules are given either as an integer seed, expanded through a
documented pseudorandom recipe, or as an explicit spec string like
`perm=identity;levels=flat;workers=2`.  Backends whose results are
schedule-invariant (quire, rational) report `schedule=result-invariant`;
the rounding backends report the seed and the expanded schedule so the
reader can reproduce the exact reduction tree.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arrayio import ArrayFormatError, Report, load_values, parse_array, parse_rational
from .arrays import DenseArray
from .backends import BACKEND_NAMES, PositNaiveBackend, RationalBackend, make_backend
from .exprs import kernel_expr, normalize, reuse_census
from .kernels import BreakdownError, cg_solve, run_dot, run_matmul, run_matvec, run_outer
from .planner import format_cost_model, parse_cost_model, plan
from .posit import NAR, PositConfig, decode, encode_round, format_bits, parse_bits
from .schedule import SEQUENTIAL, format_schedule, parse_schedule, schedule_from_seed

__all__ = ["main"]

# posit decode prints a value's fraction in full, in time quadratic in its
# length: 2**(2**20) takes 1.5 s on a 2-CPU x86-64 host, 2**(2**22) 25 s
MAX_PRINTED_SCALE = 1 << 20


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _from_flags(make, *flags):
    """``make(*flags)``, where a rejected flag value is a usage error."""
    try:
        return make(*flags)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ArrayFormatError(f"cannot read {path}: {e}") from None


def _load_vector(path: str, backend, what: str):
    data = parse_array(_read_text(path))
    if len(data.dims) != 1:
        raise ArrayFormatError(f"{what} must be rank 1, file shape is {data.dims}")
    return load_values(data, backend)


def _load_matrix(path: str, backend, what: str) -> DenseArray:
    data = parse_array(_read_text(path))
    if len(data.dims) != 2:
        raise ArrayFormatError(f"{what} must be rank 2, file shape is {data.dims}")
    return DenseArray(data.dims, load_values(data, backend))


def _schedule_arg(text, n: int):
    """An integer token is a seed; anything else is a spec string."""
    if text is None:
        return SEQUENTIAL, None
    try:
        seed = int(text)
    except ValueError:
        return parse_schedule(text, n), None
    return schedule_from_seed(seed, n), seed


def _add_schedule_lines(rep: Report, backend_name: str, sched, seed) -> None:
    if backend_name in ("quire", "rational"):
        rep.add("schedule", "result-invariant")
        return
    if seed is not None:
        rep.add("seed", seed)
    rep.add("schedule", format_schedule(sched))


# ---------------------------------------------------------------------------
# commands


def cmd_posit(args) -> Report:
    cfg = _from_flags(PositConfig, args.n, args.es)
    exact = RationalBackend()  # prints a decoded value as float and fraction
    rep = Report()
    rep.add("command", f"posit {args.action}")
    rep.add("n", args.n)
    rep.add("es", args.es)
    if args.action == "decode":
        if args.bits is None:
            raise UsageError("posit decode needs --bits")
        bits = parse_bits(args.bits, cfg)
        d = decode(bits, cfg)
        if d is not None and abs(d.scale) > MAX_PRINTED_SCALE:
            raise UsageError(f"{args.bits} has scale {d.scale}, beyond ±{MAX_PRINTED_SCALE}")
        rep.add("bits", format_bits(bits, cfg))
        rep.add("kind", NAR if d is None else d.kind)
        if d is None:
            rep.add("value", "NaR")
        else:
            rep.add("value", exact.format_value(d.value))
            rep.add("fraction", exact.to_hex(d.value))
        return rep
    if args.value is None:
        raise UsageError("posit encode needs --value")
    val = parse_rational(args.value, PositNaiveBackend(cfg).range_scale)
    if val is None:
        raise ArrayFormatError(f"bad value {args.value!r}")
    bits = encode_round(val, cfg)
    d = decode(bits, cfg)
    rep.add("value", args.value)
    rep.add("bits", format_bits(bits, cfg))
    rep.add("rounded", exact.format_value(d.value))
    rep.add("fraction", exact.to_hex(d.value))
    rep.add("exact", "yes" if d.value == val else "no")
    return rep


def cmd_kernel(args) -> Report:
    backend = _from_flags(make_backend, args.backend, args.n, args.es)
    rep = Report()
    rep.add("command", f"kernel {args.kind}")
    rep.add("backend", backend.name)

    if args.kind in ("dot", "matmul", "outer"):
        if not args.a or not args.b:
            raise UsageError(f"kernel {args.kind} needs --a and --b")
        if args.matrix or args.rhs:
            raise UsageError(f"kernel {args.kind} takes --a/--b, not --matrix/--rhs")
        load = _load_matrix if args.kind == "matmul" else _load_vector
        a = load(args.a, backend, "--a")
        b = load(args.b, backend, "--b")
    else:
        if not args.matrix or not args.rhs:
            raise UsageError("kernel cg needs --matrix and --rhs")
        if args.a or args.b:
            raise UsageError("kernel cg takes --matrix/--rhs, not --a/--b")
        if args.iters < 1:
            raise UsageError(f"--iters must be >= 1, got {args.iters}")
        a = _load_matrix(args.matrix, backend, "--matrix")
        b = _load_vector(args.rhs, backend, "--rhs")

    # loading NaN/NaR tokens divides 0/0 on the backend; input
    # conversion is not a kernel rounding, so count from here
    backend.reset_counter()

    if args.kind == "dot":
        sched, seed = _schedule_arg(args.schedule, len(a))
        rep.add("n", len(a))
        _add_schedule_lines(rep, args.backend, sched, seed)
        result = run_dot(a, b, backend, sched)
        rep.add_value("result", backend, result)
        rep.add("roundings", backend.roundings)
        return rep

    if args.kind == "outer":
        rep.add("shape", f"{len(a)} {len(b)}")
        rep.add("schedule", "no-reduction")
        out = run_outer(a, b, backend)
        rep.add_vector("C", backend, out.data)
        rep.add("roundings", backend.roundings)
        return rep

    if args.kind == "matmul":
        sched, seed = _schedule_arg(args.schedule, a.dims[1])
        rep.add("shape", f"{a.dims[0]} {b.dims[1]}")
        _add_schedule_lines(rep, args.backend, sched, seed)
        out = run_matmul(a, b, backend, sched)
        rep.add_vector("C", backend, out.data)
        rep.add("roundings", backend.roundings)
        return rep

    # cg
    n = len(b)
    sched, seed = _schedule_arg(args.schedule, n)
    rep.add("n", n)
    rep.add("variant", args.variant)
    rep.add("form", args.form)
    rep.add("iters", args.iters)
    _add_schedule_lines(rep, args.backend, sched, seed)
    outcome = cg_solve(a, b, args.iters, backend, args.variant, sched, args.form)
    rep.add("iterations", outcome.iterations)
    rep.add("converged", "true" if outcome.converged else "false")
    rep.add_vector("x", backend, outcome.x.data)
    w = run_matvec(a, outcome.x, backend, sched)
    resid = [backend.sub(bi, wi) for bi, wi in zip(b, w.data)]
    rep.add_value("residual", backend, run_dot(resid, resid, backend, sched))
    rep.add("roundings", backend.roundings)
    return rep


def cmd_census(args) -> Report:
    rep = Report()
    rep.add("command", f"census {args.what}")
    if args.what == "nan":
        import numpy as np  # imported here so that no other command loads it

        rep.add("format", args.format)
        if args.format == "binary16":
            patterns = np.arange(1 << 16, dtype=np.uint16)
            count = int(np.isnan(patterns.view(np.float16)).sum())
            rep.add("total_patterns", 1 << 16)
            rep.add("nan_patterns", count)
            rep.add("method", "exhaustive")
        else:
            # only max-exponent patterns can be NaN; enumerate all of
            # them (sign x mantissa) and cross-check the closed form
            idx = np.arange(1 << 24, dtype=np.uint32)
            candidates = (0xFF << 23) | (idx & 0x7FFFFF) | ((idx >> 23) << 31)
            count = int(np.isnan(candidates.view(np.float32)).sum())
            rep.add("total_patterns", 1 << 32)
            rep.add("nan_patterns", count)
            rep.add("method", "formula+enumeration")
            rep.add("formula", "2*(2^23-1)")
        return rep
    rc = reuse_census(_from_flags(kernel_expr, args.kernel, args.size))
    rep.add("kernel", args.kernel)
    rep.add("size", args.size)
    rep.add("uses", rc.uses)
    rep.add("mults", rc.mults)
    rep.add("depth", rc.depth)
    return rep


def cmd_plan(args) -> Report:
    nf = normalize(_from_flags(kernel_expr, args.kernel, args.n))
    text = _read_text(args.cost_model)
    try:
        cm = parse_cost_model(text)
    except ValueError as e:
        raise ArrayFormatError(f"bad cost model: {e}") from None
    result = _from_flags(plan, nf, cm)
    rep = Report()
    rep.add("command", "plan")
    rep.add("kernel", args.kernel)
    rep.add("n", args.n)
    rep.add("cost_model", "; ".join(format_cost_model(cm).splitlines()))
    rep.add("loops", ",".join(f"{var}:{ext}" for var, ext, _ in result.tiles))
    rep.add("tiles", ",".join(f"{var}:{b}" for var, _, b in result.tiles))
    rep.add("blocks", ",".join(str(b) for b in result.blocks))
    lifts = ",".join(f"{arr}:{var}:{b}" for arr, var, b in result.lifts)
    rep.add("lifts", lifts if lifts else "none")
    rep.add("predicted_cost", result.predicted_cost)
    if args.table:
        for cost, blocks in result.table:
            rep.add("candidate", ",".join(str(b) for b in blocks) + f":{cost}")
    return rep


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    p = _Parser(prog="tensorquire", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    pp = sub.add_parser("posit", help="decode or encode posit bit patterns")
    pp.add_argument("action", choices=("decode", "encode"))
    pp.add_argument("--bits", help="hex pattern to decode")
    pp.add_argument("--value", help="decimal or fraction to encode")
    pp.add_argument("--n", type=int, default=32, help="posit width in bits")
    pp.add_argument("--es", type=int, default=2, help="exponent field width")
    pp.set_defaults(func=cmd_posit)

    pk = sub.add_parser("kernel", help="run a tensor kernel from array files")
    pk.add_argument("kind", choices=("dot", "matmul", "outer", "cg"))
    pk.add_argument("--a", help="first operand array file")
    pk.add_argument("--b", help="second operand array file")
    pk.add_argument("--matrix", help="system matrix array file (cg)")
    pk.add_argument("--rhs", help="right-hand side array file (cg)")
    pk.add_argument("--backend", choices=BACKEND_NAMES, default="quire")
    pk.add_argument("--schedule", help="integer seed or spec string")
    pk.add_argument("--variant", choices=("standard", "paper"), default="standard")
    pk.add_argument("--form", choices=("direct", "normal"), default="direct")
    pk.add_argument("--iters", type=int, default=8, help="CG iteration cap")
    pk.add_argument("--n", type=int, default=32, help="posit width for posit backends")
    pk.add_argument("--es", type=int, default=2, help="posit exponent width")
    pk.set_defaults(func=cmd_kernel)

    pc = sub.add_parser("census", help="NaN pattern or operand reuse census")
    pc.add_argument("what", choices=("nan", "reuse"))
    pc.add_argument("--format", choices=("binary16", "binary32"), default="binary16")
    pc.add_argument("--kernel", choices=("dot", "matmul", "outer"), default="dot")
    pc.add_argument("--size", type=int, default=4)
    pc.set_defaults(func=cmd_census)

    pl = sub.add_parser("plan", help="pick the cheapest tiling under a cost model")
    pl.add_argument("--kernel", choices=("dot", "matmul", "outer", "cg"), required=True)
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--cost-model", required=True, help="cost model file")
    pl.add_argument("--table", action="store_true", help="print the full search table")
    pl.set_defaults(func=cmd_plan)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        rep = args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except BreakdownError as e:
        print(f"breakdown: {e}", file=sys.stderr)
        return 3
    except (ArrayFormatError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(rep.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
