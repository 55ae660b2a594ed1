"""The four workloads: inputs made from the seed, timed rounds, checks.

Every workload is a single-threaded closed loop: a call starts when the
previous one returns.  A round is a fixed set of operations whose size
does not depend on the seed, so medians over rounds compare across
seeds.  The checks compare the program's answers with the routes in
``reference.py`` or with properties the method must have; they run
outside the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import reference as ref
from common import ROOT, ScaledClock, child_env


@dataclass
class Round:
    """What one round did.  ``rates`` and ``scaled`` hold work units per
    second, raw and scaled, one per timed sample; ``samples`` holds named
    detail figures.  ``failures`` describes operations that raised or
    exited nonzero (counted in ``failed``); ``errors`` describes wrong
    answers of operations that did not fail."""

    rates: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add_rate(self, work: float, raw_s: float, scaled_s: float) -> None:
        self.rates.append(work / raw_s)
        self.scaled.append(work / scaled_s)

    def merge(self, other: "Round") -> None:
        self.rates += other.rates
        self.scaled += other.scaled
        for k, v in other.samples.items():
            self.samples.setdefault(k, []).extend(v)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.errors += other.errors


# ---------------------------------------------------------------------------
# dot-invariance


DOT_LENGTHS = (1000, 1500, 2000, 2500, 3000)
DOT_PAIRS_PER_LENGTH = 4  # a batch reduces 20 pairs, 40,000 terms
DOT_SCHEDULES = 3


def dot_batch_inputs(seed: int, batch: int):
    """The pairs of one worker batch: full-range posit32 patterns and
    the schedule seeds each pair is reduced under."""
    rng = random.Random(f"dot-invariance:{seed}:{batch}")
    lengths = list(DOT_LENGTHS) * DOT_PAIRS_PER_LENGTH
    rng.shuffle(lengths)
    pairs = []
    for n in lengths:
        xs = [rng.getrandbits(32) for _ in range(n)]
        ys = [rng.getrandbits(32) for _ in range(n)]
        seeds = [rng.getrandbits(31) for _ in range(DOT_SCHEDULES)]
        pairs.append((xs, ys, seeds))
    return pairs


def check_dot(xs, ys, results) -> Optional[str]:
    """One pattern across every reduction, and it is the nearest posit
    to the exact rational dot."""
    if len(set(results)) != 1:
        return f"dot n={len(xs)}: patterns differ across schedules: {[hex(r) for r in results]}"
    xv = [ref.ref_decode(x, 32, 2) for x in xs]
    yv = [ref.ref_decode(y, 32, 2) for y in ys]
    exact = None if None in xv or None in yv else ref.dyadic_dot(xv, yv)
    if not ref.is_nearest_posit(exact, results[0], 32, 2):
        return f"dot n={len(xs)}: 0x{results[0]:08x} is not the nearest posit to the exact dot"
    return None


class DotInvariance:
    """A round is one pair; a batch is the 20 pairs of dot_batch_inputs."""

    name = "dot-invariance"
    unit = "terms"
    rounds_per_batch = len(DOT_LENGTHS) * DOT_PAIRS_PER_LENGTH

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.batch: Optional[int] = None

    def prepare(self) -> None:
        from tensorquire.backends import make_backend

        self.backend = make_backend("quire")

    def round(self, r: int, clock: ScaledClock) -> Round:
        from tensorquire.kernels import run_dot
        from tensorquire.posit import POSIT32
        from tensorquire.quire import exact_dot
        from tensorquire.schedule import schedule_from_seed

        batch, k = divmod(r, self.rounds_per_batch)
        if batch != self.batch:
            self.pairs = dot_batch_inputs(self.seed, batch)
            self.batch = batch
        xs, ys, seeds = self.pairs[k]
        n = len(xs)
        scheds = [schedule_from_seed(s, n) for s in seeds]
        out = Round(attempted=1 + len(scheds))
        try:
            first, t_exact, s_exact = clock.time(exact_dot, xs, ys, POSIT32)
            rest, t_sched, s_sched = clock.time(
                lambda: [run_dot(xs, ys, self.backend, s) for s in scheds])
        except Exception as e:  # a failed operation is counted, not fatal
            out.failed = out.attempted
            out.failures.append(f"dot n={n}: {type(e).__name__}: {e}")
            return out
        out.add_rate(n * (1 + len(scheds)), t_exact + t_sched, s_exact + s_sched)
        out.sample("dot.exact_dot_us_per_term", t_exact / n * 1e6)
        out.sample("dot.run_dot_us_per_term", t_sched / (n * len(scheds)) * 1e6)
        err = check_dot(xs, ys, [first] + rest)
        if err:
            out.errors.append(err)
        return out

    @staticmethod
    def finish(samples) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# matmul-backends


MATMUL_N = 16
MATMUL_BACKENDS = ("quire", "naive", "binary32", "binary64", "rational")
MATMUL_SCHEDULE_SEEDS = 2  # plus the sequential schedule


def matmul_inputs(seed: int, r: int):
    """Two n x n matrices of moderate values k / 2**16, |k| < 2**22, and
    the seeds of the non-sequential schedules."""
    rng = random.Random(f"matmul-backends:{seed}:{r}")
    n = MATMUL_N
    a = [Fraction(rng.randint(-(1 << 22), 1 << 22), 1 << 16) for _ in range(n * n)]
    b = [Fraction(rng.randint(-(1 << 22), 1 << 22), 1 << 16) for _ in range(n * n)]
    seeds = [rng.getrandbits(31) for _ in range(MATMUL_SCHEDULE_SEEDS)]
    return a, b, seeds


def check_matmul(name: str, n: int, a_vals, b_vals, outs, census: List[int]) -> List[str]:
    """Check one backend's results under every schedule.

    ``a_vals``/``b_vals`` are the backend-native inputs, ``outs`` one
    flat result list per schedule (the sequential one first), ``census``
    the roundings counted per run."""
    errs: List[str] = []
    seq = outs[0]
    if name in ("quire", "rational"):
        for k, o in enumerate(outs):
            if list(o) != list(seq):
                errs.append(f"matmul {name}: schedule {k} differs from the sequential result")
    if name == "quire":
        av = [ref.ref_decode(v, 32, 2) for v in a_vals]
        bv = [ref.ref_decode(v, 32, 2) for v in b_vals]
        for idx, got in enumerate(seq):
            i, j = divmod(idx, n)
            exact = ref.dyadic_dot(av[i * n : (i + 1) * n], bv[j::n])
            if not ref.is_nearest_posit(exact, got, 32, 2):
                errs.append(f"matmul quire: C[{i},{j}]=0x{got:08x} is not the nearest posit")
                break
    elif name == "rational":
        if list(seq) != ref.fraction_matmul(a_vals, b_vals, n):
            errs.append("matmul rational: result differs from the Fraction matmul")
    elif name in ("binary64", "binary32"):
        fold = ref.float_fold_dot if name == "binary64" else ref.float32_fold_dot
        av = [float(v) for v in a_vals]
        bv = [float(v) for v in b_vals]
        want = [fold(av[i * n : (i + 1) * n], bv[j::n]) for i in range(n) for j in range(n)]
        if [float(v) for v in seq] != want:
            errs.append(f"matmul {name}: sequential result differs from the {name} left fold")
    elif name == "naive":
        expect = n * n * (2 * n - 1)
        for k, c in enumerate(census):
            if c != expect:
                errs.append(f"matmul naive: schedule {k} rounded {c} times, want {expect}")
    return errs


class MatmulBackends:
    name = "matmul-backends"
    unit = "terms"
    rounds_per_batch = 4

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed

    def prepare(self) -> None:
        from tensorquire.backends import make_backend

        self.backends = {name: make_backend(name) for name in MATMUL_BACKENDS}
        self._load(0)

    def _load(self, r: int):
        from tensorquire.arrays import DenseArray
        from tensorquire.schedule import SEQUENTIAL, schedule_from_seed

        a, b, seeds = matmul_inputs(self.seed, r)
        n = MATMUL_N
        scheds = [SEQUENTIAL] + [schedule_from_seed(s, n) for s in seeds]
        loaded = {}
        for name, be in self.backends.items():
            av = [be.from_fraction(v) for v in a]
            bv = [be.from_fraction(v) for v in b]
            loaded[name] = (av, bv, DenseArray((n, n), av), DenseArray((n, n), bv))
        return scheds, loaded

    def round(self, r: int, clock: ScaledClock) -> Round:
        from tensorquire.kernels import run_matmul

        scheds, loaded = self._load(r)
        n = MATMUL_N
        out = Round()
        total = scaled = 0.0
        for name, be in self.backends.items():
            av, bv, am, bm = loaded[name]
            outs, census = [], []
            spent = 0.0
            for s in scheds:
                out.attempted += 1
                be.reset_counter()
                try:
                    c, dt, sdt = clock.time(run_matmul, am, bm, be, s)
                except Exception as e:
                    out.failed += 1
                    out.failures.append(f"matmul {name}: {type(e).__name__}: {e}")
                    continue
                spent += dt
                scaled += sdt
                outs.append(c.data)
                census.append(be.roundings)
            total += spent
            out.sample(f"matmul_terms_per_s.{name}", len(outs) * n ** 3 / spent)
            if len(outs) == len(scheds):
                out.errors.extend(check_matmul(name, n, av, bv, outs, census))
        out.add_rate(len(self.backends) * len(scheds) * n ** 3, total, scaled)
        return out

    @staticmethod
    def finish(samples) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# cg-cli


CG_SIZES = (8, 10, 12, 14, 16)
CG_PROCESS_SIZE = 12
CG_SHIFT = 64


def spd_system(seed: int, r: int, n: int):
    """Integer SPD matrix M^T M + 64 I (entries of M in [-3, 3]) and a
    nonzero integer rhs in [-4, 4]."""
    rng = random.Random(f"cg-cli:{seed}:{r}:{n}")
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    a = [sum(m[k][i] * m[k][j] for k in range(n)) + (CG_SHIFT if i == j else 0)
         for i in range(n) for j in range(n)]
    b = [rng.randint(-4, 4) for _ in range(n)]
    if not any(b):
        b[0] = 1
    return a, b


def write_array(path: Path, dims, values) -> None:
    body = "\n".join(" ".join(str(v) for v in values[i:i + dims[-1]])
                     for i in range(0, len(values), dims[-1]))
    path.write_text(f"shape {' '.join(map(str, dims))}\nformat decimal\n{body}\n")


def report_vector(report: str, key: str = "x") -> List[int]:
    out = []
    for line in report.splitlines():
        if line.startswith(f"{key}["):
            out.append(int(line.split("=", 1)[1].split()[0], 16))
    return out


def check_cg(n: int, a, b, reports: Dict[str, str], process_stdout: Optional[str]):
    """Returns (errors, relative error squared of the direct x, or None)."""
    errs: List[str] = []
    xd = report_vector(reports["direct"])
    if len(xd) != n:
        return [f"cg n={n}: direct report has {len(xd)} x entries"], None
    if report_vector(reports["normal"]) != xd:
        errs.append(f"cg n={n}: normal form differs from direct form")
    if report_vector(reports["scheduled"]) != xd:
        errs.append(f"cg n={n}: a seeded schedule changes x")
    if process_stdout is not None and process_stdout != reports["direct"]:
        errs.append(f"cg n={n}: process stdout differs from the in-process report")
    x_exact, resid = ref.fraction_cg([Fraction(v) for v in a], [Fraction(v) for v in b], n)
    if any(resid):
        errs.append(f"cg n={n}: exact CG leaves a nonzero residual")
    got = [ref.ref_decode(v, 32, 2) for v in xd]
    if None in got:
        return errs + [f"cg n={n}: x holds NaR"], None
    err2 = sum((g - e) ** 2 for g, e in zip(got, x_exact))
    norm2 = sum(e * e for e in x_exact)
    return errs, err2 / norm2


class CgCli:
    name = "cg-cli"
    unit = "solves"
    rounds_per_batch = 3

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        import tensorquire.cli  # noqa: F401  (the CLI's import chain)

        self._write(0)

    def _write(self, r: int):
        files = {}
        for n in CG_SIZES:
            a, b = spd_system(self.seed, r, n)
            fa = self.work / f"cg-{r}-{n}-A.arr"
            fb = self.work / f"cg-{r}-{n}-b.arr"
            write_array(fa, (n, n), a)
            write_array(fb, (n,), b)
            files[n] = (a, b, fa, fb)
        return files

    def argv(self, n: int, fa: Path, fb: Path, form: str, schedule=None) -> List[str]:
        args = ["kernel", "cg", "--matrix", str(fa), "--rhs", str(fb),
                "--iters", str(n), "--form", form]
        if schedule is not None:
            args += ["--schedule", str(schedule)]
        return args

    def round(self, r: int, clock: ScaledClock) -> Round:
        from tensorquire.cli import main

        files = self._write(r)
        rng = random.Random(f"cg-cli:schedules:{self.seed}:{r}")
        out = Round()
        total = scaled = 0.0
        solves = 0
        for n in CG_SIZES:
            a, b, fa, fb = files[n]
            reports = {}
            for label, form, sched in (("direct", "direct", None), ("normal", "normal", None),
                                       ("scheduled", "direct", rng.getrandbits(31))):
                buf = io.StringIO()
                out.attempted += 1
                with contextlib.redirect_stdout(buf):
                    code, dt, sdt = clock.time(main, self.argv(n, fa, fb, form, sched))
                if code != 0:
                    out.failed += 1
                    out.failures.append(f"cg n={n} {label}: exit code {code}")
                    continue
                total += dt
                scaled += sdt
                solves += 1
                reports[label] = buf.getvalue()
                if label != "scheduled":
                    out.sample(f"cg_solve_ms.{label}", dt * 1e3)
            stdout = None
            if n == CG_PROCESS_SIZE:
                out.attempted += 1
                cmd = [sys.executable, "-m", "tensorquire.cli"] + self.argv(n, fa, fb, "direct")
                proc, dt, sdt = clock.time(
                    subprocess.run, cmd, capture_output=True, text=True, env=child_env(),
                    cwd=str(ROOT), timeout=120)
                if proc.returncode != 0:
                    out.failed += 1
                    out.failures.append(f"cg process: exit code {proc.returncode}")
                else:
                    total += dt
                    scaled += sdt
                    solves += 1
                    stdout = proc.stdout
                    out.sample("cli_process_ms", dt * 1e3)
            if len(reports) == 3:
                errs, rel2 = check_cg(n, a, b, reports, stdout)
                out.errors.extend(errs)
                if rel2 is not None:
                    out.sample("cg.x_relative_error", float(rel2) ** 0.5)
        out.add_rate(solves, total, scaled)
        for f in self.work.glob(f"cg-{r}-*.arr"):
            f.unlink()
        return out

    @staticmethod
    def finish(samples) -> List[str]:
        errs = samples.get("cg.x_relative_error", [])
        good = sum(1 for e in errs if e <= 1e-6)
        if not errs or good * 100 < 95 * len(errs):
            return [f"cg: only {good} of {len(errs)} systems within 1e-6 relative error"]
        return []


# ---------------------------------------------------------------------------
# plan-search


PLAN_PROBLEMS = (("dot", 720), ("matmul", 16), ("cg", 8))
PLAN_SAMPLE = 3  # random tilings per problem replayed against the plan


def plan_models(seed: int):
    """Three cost models, each with a fixed number of levels; the seed
    picks capacities, line sizes and miss costs.  (capacity, line, miss)."""
    rng = random.Random(f"plan-search:{seed}")
    one = [(rng.choice((32, 64, 128)), rng.choice((8, 16)), 1)]
    two = [(16, 8, 1), (rng.choice((256, 512, 1024)), rng.choice((16, 32)), rng.choice((4, 10)))]
    three = [(rng.choice((16, 32)), 8, 1), (256, 16, rng.choice((5, 10))), (4096, 64, 50)]
    return [one, two, three]


def check_plan(nf, levels, element: int, blocks, cost: int, sample) -> List[str]:
    """The chosen cost equals the replay of the chosen tiling, and no
    sampled tiling replays cheaper."""
    errs = []
    replayed = ref.replay_cost(nf, blocks, levels, element)
    if replayed != cost:
        errs.append(f"plan {blocks}: cost {cost} but the trace replay gives {replayed}")
    for tiles in sample:
        other = ref.replay_cost(nf, tiles, levels, element)
        if other < replayed:
            errs.append(f"plan {blocks}: tiling {tiles} replays cheaper ({other} < {replayed})")
    return errs


class PlanSearch:
    name = "plan-search"
    unit = "plans"
    rounds_per_batch = 2

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.first: Optional[list] = None

    def prepare(self) -> None:
        from tensorquire.planner import CostLevel, CostModel

        self.models = [(lv, CostModel(tuple(CostLevel(*x) for x in lv), 4))
                       for lv in plan_models(self.seed)]

    def round(self, r: int, clock: ScaledClock) -> Round:
        out = Round()
        total = scaled = 0.0
        results = []
        for kind, n in PLAN_PROBLEMS:
            for levels, cm in self.models:
                out.attempted += 1
                try:
                    (nf, lp), dt, sdt = clock.time(_plan, kind, n, cm)
                except Exception as e:
                    out.failed += 1
                    out.failures.append(f"plan {kind} n={n}: {type(e).__name__}: {e}")
                    continue
                total += dt
                scaled += sdt
                out.sample(f"plan_ms.{kind}", dt * 1e3)
                results.append((kind, n, levels, nf, lp.blocks, lp.predicted_cost))
        out.add_rate(len(results), total, scaled)
        if self.first is None:
            self.first = [x[4:] for x in results]
            rng = random.Random(f"plan-search:sample:{self.seed}")
            for kind, n, levels, nf, blocks, cost in results:
                divs = [[d for d in range(1, e + 1) if e % d == 0]
                        for e in ref.occurrence_extents(nf)]
                sample = [tuple(rng.choice(d) for d in divs) for _ in range(PLAN_SAMPLE)]
                out.errors.extend(check_plan(nf, levels, 4, blocks, cost, sample))
        elif [x[4:] for x in results] != self.first:
            out.errors.append("plan: a later round chose a different plan")
        return out

    @staticmethod
    def finish(samples) -> List[str]:
        return []


def _plan(kind: str, n: int, cm):
    """What `tensorquire plan` does: normalize the kernel, then search."""
    from tensorquire.exprs import kernel_expr, normalize
    from tensorquire.planner import plan

    nf = normalize(kernel_expr(kind, n))
    return nf, plan(nf, cm)


WORKLOADS = {w.name: w for w in (DotInvariance, MatmulBackends, CgCli, PlanSearch)}
