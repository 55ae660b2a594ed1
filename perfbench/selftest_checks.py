"""The benchmark's checks must catch wrong answers.

Each test feeds a check the program's real output, which must pass,
and then a deliberately wrong variant, which must fail: a flipped low
bit in a dot, a perturbed matmul entry, a CG x off by one ulp, a plan
cost off by one.  Run with
``python3 -m pytest perfbench/selftest_checks.py``.  The file name keeps
these checks out of the repository's plain ``pytest`` run.
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

from common import use_checkout_package

use_checkout_package()

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tensorquire.arrays import DenseArray  # noqa: E402
from tensorquire.backends import make_backend  # noqa: E402
from tensorquire.cli import main as cli_main  # noqa: E402
from tensorquire.exprs import kernel_expr, normalize  # noqa: E402
from tensorquire.kernels import run_matmul  # noqa: E402
from tensorquire.planner import CostLevel, CostModel, plan  # noqa: E402
from tensorquire.posit import POSIT32, encode_round  # noqa: E402
from tensorquire.quire import exact_dot  # noqa: E402
from tensorquire.schedule import SEQUENTIAL, schedule_from_seed  # noqa: E402


def test_nearest_posit_brackets_and_ties_to_even():
    rng = random.Random(11)
    for _ in range(300):
        x = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) * Fraction(2) ** rng.randint(-130, 130)
        p = encode_round(x, POSIT32)
        assert ref.is_nearest_posit(x, p)
        if x:
            assert not ref.is_nearest_posit(x, (p + 1) & 0xFFFFFFFF)
    tie = ref.ref_decode((6 << 1) | 1, 33, 2)  # halfway between patterns 6 and 7
    assert ref.is_nearest_posit(tie, 6) and not ref.is_nearest_posit(tie, 7)


def test_dot_check_catches_a_flipped_low_bit():
    rng = random.Random(5)
    xs = [rng.getrandbits(32) for _ in range(200)]
    ys = [rng.getrandbits(32) for _ in range(200)]
    good = exact_dot(xs, ys, POSIT32)
    assert wl.check_dot(xs, ys, [good] * 4) is None
    assert wl.check_dot(xs, ys, [good, good, good ^ 1, good]) is not None
    assert wl.check_dot(xs, ys, [good ^ 1] * 4) is not None


def _matmul(name, n=4):
    a, b, seeds = wl.matmul_inputs(3, 0)
    a, b = a[: n * n], b[: n * n]
    be = make_backend(name)
    av = [be.from_fraction(v) for v in a]
    bv = [be.from_fraction(v) for v in b]
    outs, census = [], []
    for s in [SEQUENTIAL] + [schedule_from_seed(x, n) for x in seeds]:
        be.reset_counter()
        outs.append(list(run_matmul(DenseArray((n, n), av), DenseArray((n, n), bv), be, s).data))
        census.append(be.roundings)
    return n, av, bv, outs, census


def test_matmul_checks_catch_a_perturbed_entry():
    for name in ("quire", "rational", "binary64", "binary32"):
        n, av, bv, outs, census = _matmul(name)
        assert wl.check_matmul(name, n, av, bv, outs, census) == []
        bad = [list(o) for o in outs]
        if name == "quire":
            bad[0][5] ^= 1
        elif name == "rational":
            bad[0][5] += Fraction(1, 1 << 40)
        else:
            bad[0][5] = bad[0][5] * (1 + 2.0 ** -20)
        assert wl.check_matmul(name, n, av, bv, bad, census), name
    n, av, bv, outs, census = _matmul("naive")
    assert wl.check_matmul("naive", n, av, bv, outs, census) == []
    assert wl.check_matmul("naive", n, av, bv, outs, [census[0] - 1] + census[1:])


def test_cg_check_catches_x_off_by_one_ulp(tmp_path):
    n = 8
    a, b = wl.spd_system(7, 0, n)
    fa, fb = tmp_path / "A.arr", tmp_path / "b.arr"
    wl.write_array(fa, (n, n), a)
    wl.write_array(fb, (n,), b)
    w = wl.CgCli(7, tmp_path)
    reports = {}
    for label, form, sched in (("direct", "direct", None), ("normal", "normal", None),
                               ("scheduled", "direct", 99)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(w.argv(n, fa, fb, form, sched)) == 0
        reports[label] = buf.getvalue()
    errs, rel2 = wl.check_cg(n, a, b, reports, reports["direct"])
    assert errs == [] and rel2 <= Fraction(1, 10**12)

    x0 = wl.report_vector(reports["direct"])[0]
    line = next(ln for ln in reports["direct"].splitlines() if ln.startswith("x[0]="))
    off = line.replace(f"0x{x0:08x}", f"0x{(x0 + 1) & 0xFFFFFFFF:08x}")
    bad = dict(reports, direct=reports["direct"].replace(line, off))
    errs, _ = wl.check_cg(n, a, b, bad, reports["direct"])
    assert errs


def test_plan_check_catches_a_cost_off_by_one():
    levels = [(16, 8, 1), (256, 16, 10)]
    cm = CostModel(tuple(CostLevel(*lv) for lv in levels), 4)
    nf = normalize(kernel_expr("matmul", 4))
    lp = plan(nf, cm)
    others = [(1, 1, 1), (4, 4, 4), (2, 1, 4)]
    assert wl.check_plan(nf, levels, 4, lp.blocks, lp.predicted_cost, others) == []
    assert wl.check_plan(nf, levels, 4, lp.blocks, lp.predicted_cost + 1, others)
    worse = max(others, key=lambda t: ref.replay_cost(nf, t, levels, 4))
    assert wl.check_plan(nf, levels, 4, worse, ref.replay_cost(nf, worse, levels, 4), [lp.blocks])
