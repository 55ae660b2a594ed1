"""The layer sweep of a traced run: each layer timed on its own.

Per-term functions are too hot to wrap in spans, so they are timed here
in isolated loops.  Each loop runs on seeded inputs of the make-up of
the workload that exercises the layer: full-range patterns as in
dot-invariance, moderate values as in matmul-backends, SPD systems as in
cg-cli, the planner problems of plan-search.  Every figure is the median
of several batches.  Counts come from counting wrappers installed only
around the call being counted.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
from common import ROOT, child_env
from workloads import spd_system, write_array

clock = time.perf_counter
BATCHES = 5


def per_call(fn, items, batches: int = BATCHES) -> float:
    """Median over batches of seconds per item, calling fn(item)."""
    times = []
    for _ in range(batches):
        t0 = clock()
        for it in items:
            fn(it)
        times.append((clock() - t0) / len(items))
    return statistics.median(times)


def per_run(fn, batches: int = BATCHES) -> float:
    """Median seconds of fn() over batches."""
    times = []
    for _ in range(batches):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


@contextlib.contextmanager
def counting(module, attr: str, counter: list):
    """Count calls of module.attr (on every module that binds it)."""
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)

    undo = tracing.replace_everywhere(fn, counted)
    try:
        yield
    finally:
        tracing.restore(undo)


@contextlib.contextmanager
def timing(module, attr: str, spent: list):
    """Accumulate [seconds, calls] of module.attr."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[0] += clock() - t0
            spent[1] += 1

    undo = tracing.replace_everywhere(fn, timed)
    try:
        yield
    finally:
        tracing.restore(undo)


def _child_ms(code: str, runs: int = 3) -> float:
    """Median wall ms of a fresh interpreter running ``code``."""
    times = []
    for _ in range(runs):
        t0 = clock()
        subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                       cwd=str(ROOT), capture_output=True, timeout=60)
        times.append((clock() - t0) * 1e3)
    return statistics.median(times)


def _import_ms(runs: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import tensorquire.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                              cwd=str(ROOT), capture_output=True, text=True, timeout=60)
        times.append(float(proc.stdout.strip()) * 1e3)
    return statistics.median(times)


def sweep(seed: int, work: Path) -> dict:
    from tensorquire import arrayio, backends, cli, exprs, kernels, planner, posit, quire
    from tensorquire.arrays import DenseArray
    from tensorquire.planner import CostLevel, CostModel
    from tensorquire.schedule import reduce_terms, schedule_from_seed

    rng = random.Random(f"layers:{seed}")
    cfg = posit.POSIT32
    m = {}

    # posit: cold then warm decode of full-range patterns
    pats = [rng.getrandbits(32) for _ in range(20000)]
    t0 = clock()
    for p in pats:
        posit.decode(p, cfg)
    m["posit.decode_ns.cold"] = (clock() - t0) / len(pats) * 1e9
    m["posit.decode_ns.warm"] = per_call(lambda p: posit.decode(p, cfg), pats) * 1e9

    moderate = [posit.encode_round(Fraction(rng.randint(-(1 << 22), 1 << 22), 1 << 16), cfg)
                for _ in range(2000)]
    pairs = list(zip(moderate[::2], moderate[1::2]))
    for op in ("mul", "add", "div"):
        m[f"posit.arith_us.{op}"] = per_call(lambda ab: posit.arith(op, ab[0], ab[1], cfg),
                                            pairs) * 1e6
    exacts = [Fraction(rng.getrandbits(60) | 1, 1 << rng.randint(40, 80)) for _ in range(1000)]
    m["posit.encode_round_us"] = per_call(lambda x: posit.encode_round(x, cfg), exacts) * 1e6

    n = 8
    qb = backends.make_backend("quire")
    am = DenseArray((n, n), moderate[: n * n])
    bm = DenseArray((n, n), moderate[n * n : 2 * n * n])
    calls = [0]
    with counting(posit, "decode", calls):
        kernels.run_matmul(am, bm, qb)
    m["posit.decode_calls_per_term"] = calls[0] / n ** 3

    # quire: products, exact dots and drains of full-range patterns
    qcfg = quire.QuireConfig(cfg)
    full = list(zip(pats[:10000], pats[10000:]))
    m["quire.product_units_us"] = per_call(lambda ab: quire.product_units(ab[0], ab[1], qcfg),
                                           full) * 1e6
    xs, ys = pats[:10000], pats[10000:]
    m["quire.exact_dot_us_per_term"] = per_run(lambda: quire.exact_dot(xs, ys, cfg)) / len(xs) * 1e6
    quires = []
    for k in range(0, 4000, 8):
        q = quire.Quire.zero(qcfg)
        for a, b in full[k : k + 8]:
            q = q.fma(a, b)
        quires.append(q)
    m["quire.drain_us"] = per_call(lambda q: q.to_posit(), quires) * 1e6

    # backends: one accumulated term of moderate values per call
    values = [Fraction(rng.randint(-(1 << 22), 1 << 22), 1 << 16) for _ in range(2000)]
    for name in ("quire", "naive", "binary32", "binary64", "rational"):
        be = backends.make_backend(name)
        terms = [(be.from_fraction(a), be.from_fraction(b))
                 for a, b in zip(values[::2], values[1::2])]

        def accumulate(be=be, terms=terms):
            acc = be.accum_new()
            for t in terms:
                acc = be.accum_term(acc, t)
            return be.accum_finish(acc)

        m[f"backends.accum_term_us.{name}"] = per_run(accumulate) / len(terms) * 1e6

    # schedule: the driver alone, with a backend that does no arithmetic
    class NullBackend:
        def accum_new(self):
            return 0

        def accum_term(self, acc, t):
            return acc

        def accum_merge(self, a, b):
            return a

        def accum_finish(self, acc):
            return acc

    null = NullBackend()
    terms = [(a, b) for a, b in full[:4000]]
    scheds = [schedule_from_seed(rng.getrandbits(31), len(terms)) for _ in range(3)]
    m["schedule.reduce_terms_self_us_per_term"] = per_run(
        lambda: [reduce_terms(null, terms, s) for s in scheds]) / (3 * len(terms)) * 1e6

    # kernels
    dx, dy = pats[:5000], pats[5000:10000]
    sched = schedule_from_seed(rng.getrandbits(31), len(dx))
    m["kernels.run_dot_us_per_term"] = per_run(lambda: kernels.run_dot(dx, dy, qb, sched)) / len(dx) * 1e6
    cn = 12
    a_int, b_int = spd_system(seed, -1, cn)
    a_cg = DenseArray((cn, cn), [qb.from_fraction(Fraction(v)) for v in a_int])
    b_cg = [qb.from_fraction(Fraction(v)) for v in b_int]
    m["kernels.run_matvec_us_per_term"] = per_run(lambda: kernels.run_matvec(a_cg, b_cg, qb)) / cn ** 2 * 1e6
    for form in ("direct", "normal"):
        m[f"kernels.cg_solve_ms.{form}"] = per_run(
            lambda: kernels.cg_solve(a_cg, b_cg, cn, qb, form=form)) * 1e3
        qb.reset_counter()
        kernels.cg_solve(a_cg, b_cg, cn, qb, form=form)
        m[f"kernels.roundings_per_solve.{form}"] = qb.roundings
    spent = [0.0, 0]
    calls = [0]
    with timing(kernels, "evaluate_normal_form", spent), counting(exprs, "normalize", calls):
        kernels.cg_solve(a_cg, b_cg, cn, qb, form="normal")
    m["kernels.evaluate_normal_form_ms"] = spent[0] / max(spent[1], 1) * 1e3
    m["exprs.normalize_calls_per_solve"] = calls[0]
    m["exprs.normalize_us.cg"] = per_run(
        lambda: [exprs.normalize(exprs.cg_expr(cn)) for _ in range(100)]) / 100 * 1e6

    # planner
    cm = CostModel((CostLevel(16, 8, 1), CostLevel(256, 16, 10)), 4)
    mm = exprs.normalize(exprs.kernel_expr("matmul", 8))
    tilings = [tuple(rng.choice((1, 2, 4, 8)) for _ in range(3)) for _ in range(10)]
    m["planner.predict_cost_ms"] = per_call(lambda t: planner.predict_cost(mm, t, cm), tilings) * 1e3
    cgnf = exprs.normalize(exprs.cg_expr(8))
    m["planner.ref_paths_us"] = per_run(lambda: [planner.ref_paths(cgnf) for _ in range(100)]) / 100 * 1e6
    calls = [0]
    with counting(planner, "predict_cost", calls):
        planner.plan(mm, cm)
    m["planner.candidates_per_plan"] = calls[0]

    # arrayio: a 16 x 16 decimal matrix of the cg-cli make-up
    a16, b16 = spd_system(seed, -2, 16)
    fa = work / "layers-A.arr"
    fb = work / "layers-b.arr"
    write_array(fa, (16, 16), a16)
    write_array(fb, (16,), b16)
    text = fa.read_text()
    m["arrayio.parse_array_us_per_value"] = per_run(
        lambda: [arrayio.parse_array(text) for _ in range(20)]) / (20 * 256) * 1e6
    data = arrayio.parse_array(text)
    m["arrayio.load_values_us_per_value.decimal"] = per_run(
        lambda: [arrayio.load_values(data, qb) for _ in range(5)]) / (5 * 256) * 1e6
    rep = arrayio.Report()
    rep.add_vector("x", qb, moderate[:256])
    m["arrayio.render_us_per_line"] = per_run(lambda: [rep.render() for _ in range(50)]) / (50 * 256) * 1e6

    # cli: in-process main, its import, and the interpreter floor
    argv = ["kernel", "cg", "--matrix", str(fa), "--rhs", str(fb), "--iters", "16"]

    def cli_main():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("cli main failed in the layer sweep")

    m["cli.main_ms.cg"] = per_run(cli_main, 3) * 1e3
    m["cli.import_ms"] = _import_ms()
    m["cli.python_startup_ms"] = _child_ms("pass")
    return m
