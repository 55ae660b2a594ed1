"""Prepared operands: every quire entry point against the exact route.

Kernels hand the quire operands decoded once, by ``backend.prepare``.
Each quire entry point must still give the bits of the rational backend
run on the same exact values, under the same schedule, and rounded once
by the bisection oracle.  Operands include NaR, zero, minpos and maxpos.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import random_spd_system, ref_decode, ref_encode, ref_round
from tensorquire import posit
from tensorquire.arrays import DenseArray
from tensorquire.backends import PositNaiveBackend, QuireBackend, RationalBackend, make_backend
from tensorquire.exprs import kernel_expr, normalize
from tensorquire.kernels import cg_solve, evaluate_normal_form, run_dot, run_matmul, run_matvec
from tensorquire.posit import POSIT8, POSIT32, PositConfig, arith
from tensorquire.quire import exact_dot, prepare, product_units
from tensorquire.schedule import SEQUENTIAL, schedule_from_seed

FORMATS = [PositConfig(n, es) for n in (8, 16, 32, 64) for es in range(4)]
IDS = [f"p{c.nbits}e{c.es}" for c in FORMATS]
TRIALS = 6


def _specials(cfg: PositConfig) -> list:
    neg = lambda p: (-p) & cfg.mask  # noqa: E731
    return [0, 1, cfg.maxpos_pattern, neg(1), neg(cfg.maxpos_pattern)]


def _patterns(rng: random.Random, cfg: PositConfig, k: int, nar: bool) -> list:
    """k patterns: full-range random ones mixed with the specials, and
    one NaR when ``nar`` is set."""
    pool = _specials(cfg)
    out = [rng.choice(pool) if rng.random() < 0.3 else rng.getrandbits(cfg.nbits) for _ in range(k)]
    out = [cfg.maxpos_pattern if p == cfg.nar_pattern else p for p in out]  # NaR only if asked
    if nar:
        out[rng.randrange(k)] = cfg.nar_pattern
    return out


def _exact(cfg: PositConfig, pats) -> list:
    return [ref_decode(p, cfg) for p in pats]


def _schedule(rng: random.Random, n: int):
    return SEQUENTIAL if rng.random() < 0.25 else schedule_from_seed(rng.getrandbits(31), n)


def _round(cfg: PositConfig, values) -> list:
    return [ref_round(v, cfg) for v in values]


@pytest.mark.parametrize("cfg", FORMATS, ids=IDS)
def test_dot_and_exact_dot_round_the_exact_dot_once(cfg):
    rng = random.Random(f"dot:{cfg}")
    quire, exact = QuireBackend(cfg), RationalBackend()
    for t in range(TRIALS):
        n = rng.randint(1, 12)
        xs = _patterns(rng, cfg, n, nar=t % 3 == 2)
        ys = _patterns(rng, cfg, n, nar=t % 3 == 1)
        s = _schedule(rng, n)
        want = ref_round(run_dot(_exact(cfg, xs), _exact(cfg, ys), exact, s), cfg)
        assert run_dot(xs, ys, quire, s) == want
        assert exact_dot(xs, ys, cfg) == want


@pytest.mark.parametrize("cfg", FORMATS, ids=IDS)
def test_matvec_and_matmul_round_each_exact_entry_once(cfg):
    rng = random.Random(f"matmul:{cfg}")
    quire, exact = QuireBackend(cfg), RationalBackend()
    for t in range(TRIALS):
        m, n, p = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        a = _patterns(rng, cfg, m * n, nar=t % 3 == 2)
        b = _patterns(rng, cfg, n * p, nar=t % 3 == 1)
        x = _patterns(rng, cfg, n, nar=t % 3 == 1)
        s = _schedule(rng, n)
        ea, eb = DenseArray((m, n), _exact(cfg, a)), DenseArray((n, p), _exact(cfg, b))
        got = run_matmul(DenseArray((m, n), a), DenseArray((n, p), b), quire, s)
        assert list(got.data) == _round(cfg, run_matmul(ea, eb, exact, s).data)
        got = run_matvec(DenseArray((m, n), a), x, quire, s)
        assert list(got.data) == _round(cfg, run_matvec(ea, _exact(cfg, x), exact, s).data)


@pytest.mark.parametrize("cfg", FORMATS, ids=IDS)
def test_normal_form_rounds_each_exact_reduction_once(cfg):
    rng = random.Random(f"nf:{cfg}")
    quire, exact = QuireBackend(cfg), RationalBackend()
    for t in range(TRIALS):
        n = rng.randint(1, 4)
        s = _schedule(rng, n)
        for kind, names, size in (("dot", "XY", n), ("matmul", "AB", n * n)):
            nf = normalize(kernel_expr(kind, n))
            pats = {k: _patterns(rng, cfg, size, nar=t % 3 == 1 + i) for i, k in enumerate(names)}
            got = evaluate_normal_form(nf, pats, quire, s)
            want = evaluate_normal_form(nf, {k: _exact(cfg, v) for k, v in pats.items()}, exact, s)
            assert list(got.data) == _round(cfg, want.data)


def test_ref_round_agrees_with_the_table_oracle():
    rng = random.Random(3)
    for nbits, es in ((6, 0), (8, 1), (10, 2), (12, 3)):
        cfg = PositConfig(nbits, es)
        wider = PositConfig(nbits + 1, es)
        # every pattern, every midpoint between neighbours, and samples
        points = [ref_decode(p, wider) for p in range(1 << (nbits + 1))]
        points += [ref_decode(rng.randrange(1, 1 << (nbits - 1)), cfg) * rng.choice((3, 5)) / 4
                   for _ in range(500)]
        for x in points:
            if x is not None:
                assert ref_round(x, cfg) == ref_encode(x, nbits, es)


def test_prepare_decodes_each_pattern_to_its_exact_value():
    cfg = PositConfig(16, 1)
    pats = list(range(1 << 16))
    for p, op in zip(pats, prepare(pats, cfg)):
        v = ref_decode(p, cfg)
        if v is None:
            assert op is None
        else:
            sig, scale = op
            assert posit.scaled_fraction(sig, scale) == v


def test_product_units_is_the_exact_product():
    rng = random.Random(11)
    qcfg = QuireBackend(POSIT32).qcfg
    for _ in range(200):
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        va, vb = ref_decode(a, POSIT32), ref_decode(b, POSIT32)
        got = product_units(a, b, qcfg)
        if va is None or vb is None:
            assert got is None
        else:
            assert posit.scaled_fraction(got, qcfg.lsb_scale) == va * vb


def test_three_factor_terms_round_their_extra_multiply():
    # a*b rounds once, then (a*b)*c feeds the quire fused; prepared
    # operands come in pairs, so a triple is one of raw patterns
    rng = random.Random(5)
    qcfg = QuireBackend(POSIT8).qcfg
    for _ in range(300):
        a, b, c = (rng.getrandbits(8) for _ in range(3))
        want = product_units(arith("mul", a, b, POSIT8), c, qcfg)
        be = QuireBackend(POSIT8)
        assert be.accum_term(be.accum_new(), (a, b, c)) == want
        assert be.roundings == 1


def test_cg_rounding_census_is_pinned():
    # CG at n = 12 rounds its scalar ops and its dots once each.  The
    # normal form hands reduce_terms only pairs; its 180 extra quire
    # roundings are 15 per iteration: 12 inner p.A drains, the num and
    # den drains, and the Div
    n = 12
    a, b = random_spd_system(random.Random(n), n)
    for name, direct, normal in (("quire", 1057, 1237), ("naive", 4775, 8651)):
        be = make_backend(name)
        am = DenseArray((n, n), [be.from_fraction(Fraction(v)) for row in a for v in row])
        bv = [be.from_fraction(Fraction(v)) for v in b]
        xs = []
        for form, want in (("direct", direct), ("normal", normal)):
            be.reset_counter()
            xs.append(cg_solve(am, bv, n, be, form=form).x.data)
            assert be.roundings == want
        assert xs[0] == xs[1]


def test_matmul_rounding_census():
    n = 6
    rng = random.Random(2)
    a = DenseArray((n, n), [rng.getrandbits(32) for _ in range(n * n)])
    b = DenseArray((n, n), [rng.getrandbits(32) for _ in range(n * n)])
    for backend, want in (
        (QuireBackend(POSIT32), n * n),
        (PositNaiveBackend(POSIT32), n * n * (2 * n - 1)),
    ):
        for seed in (None, 1, 2):
            s = SEQUENTIAL if seed is None else schedule_from_seed(seed, n)
            backend.reset_counter()
            run_matmul(a, b, backend, s)
            assert backend.roundings == want


def _tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_quire_matmul_decodes_each_operand_once():
    # counted as the benchmark counts posit.decode_calls_per_term: the
    # decode binding of every package module is replaced by a counter
    tracing = _tracing()
    n = 8
    rng = random.Random(8)
    a = DenseArray((n, n), [rng.getrandbits(32) for _ in range(n * n)])
    b = DenseArray((n, n), [rng.getrandbits(32) for _ in range(n * n)])
    calls = [0]
    decode = posit.decode

    def counted(*args, **kwargs):
        calls[0] += 1
        return decode(*args, **kwargs)

    undo = tracing.replace_everywhere(decode, counted)
    try:
        run_matmul(a, b, QuireBackend(POSIT32))
    finally:
        tracing.restore(undo)
    assert calls[0] == 2 * n * n
