"""Kernel behaviour across backends and schedules.

The headline property: with the exact-accumulator backend the bits of
every reduction are independent of the schedule, while binary32 and the
round-each-step posit backend visibly drift.  Large statistical runs
live in test_acceptance.py; these are the targeted cases.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from oracles import random_spd_system
from tensorquire import kernels
from tensorquire.arrays import DenseArray
from tensorquire.backends import make_backend
from tensorquire.exprs import (
    Affine,
    Mul,
    NormalForm,
    Ref,
    Sum,
    apply_tiling,
    kernel_expr,
    normalize,
)
from tensorquire.kernels import (
    BreakdownError,
    CGState,
    cg_solve,
    cg_step,
    evaluate_normal_form,
    initial_state,
    run_dot,
    run_matmul,
    run_matvec,
    run_outer,
)
from tensorquire.schedule import SEQUENTIAL, reduce_terms, schedule_from_seed


def _vec(backend, values):
    return [backend.from_fraction(Fraction(v)) for v in values]


def _mat(backend, rows):
    n = len(rows)
    flat = [backend.from_fraction(Fraction(v)) for row in rows for v in row]
    return DenseArray((n, len(rows[0])), flat)


BACKENDS = ["quire", "naive", "binary32", "binary64", "rational"]


class TestDot:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_ones(self, name):
        backend = make_backend(name)
        x = _vec(backend, [1, 1, 1, 1])
        got = run_dot(x, x, backend)
        assert backend.to_fraction(got) == 4

    def test_cancellation_quire_vs_binary32(self):
        big = 1 << 24
        exact = make_backend("quire")
        drift = make_backend("binary32")
        for backend, want in ((exact, 1), (drift, 0)):
            x = _vec(backend, [big, 1, -big])
            y = _vec(backend, [1, 1, 1])
            assert backend.to_fraction(run_dot(x, y, backend)) == want

    def test_quire_bits_constant_across_schedules(self):
        backend = make_backend("quire")
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 24)
            x = _vec(backend, [rng.randint(-99, 99) for _ in range(n)])
            y = _vec(backend, [rng.randint(-99, 99) for _ in range(n)])
            base = run_dot(x, y, backend)
            for seed in range(10):
                s = schedule_from_seed(seed, n)
                assert run_dot(x, y, backend, s) == base

    def test_nar_input_propagates(self):
        backend = make_backend("quire")
        x = _vec(backend, [1, 2])
        x[1] = backend.cfg.nar_pattern
        assert run_dot(x, x, backend) == backend.cfg.nar_pattern

    def test_length_mismatch(self):
        backend = make_backend("rational")
        with pytest.raises(ValueError):
            run_dot(_vec(backend, [1]), _vec(backend, [1, 2]), backend)


class TestMatmul:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_golden_2x2(self, name):
        backend = make_backend(name)
        a = _mat(backend, [[1, 2], [3, 4]])
        b = _mat(backend, [[5, 6], [7, 8]])
        c = run_matmul(a, b, backend)
        assert [backend.to_fraction(v) for v in c.data] == [19, 22, 43, 50]

    def test_identity(self):
        backend = make_backend("quire")
        a = _mat(backend, [[2, -3, 5], [0, 1, 4], [7, 7, -2]])
        eye = _mat(backend, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert run_matmul(a, eye, backend).data == a.data

    def test_rectangular(self):
        backend = make_backend("rational")
        a = DenseArray((2, 3), _vec(backend, [1, 2, 3, 4, 5, 6]))
        b = DenseArray((3, 2), _vec(backend, [7, 8, 9, 10, 11, 12]))
        c = run_matmul(a, b, backend)
        assert c.dims == (2, 2)
        assert [int(v) for v in c.data] == [58, 64, 139, 154]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_all_tilings_match_untiled_quire(self, n):
        backend = make_backend("quire")
        rng = random.Random(n)
        nf = normalize(kernel_expr("matmul", n))
        arrays = {
            name: _vec(backend, [rng.randint(-9, 9) for _ in range(ext)])
            for name, ext in nf.operands
        }
        a = DenseArray((n, n), arrays["A"])
        b = DenseArray((n, n), arrays["B"])
        base = run_matmul(a, b, backend)
        divs = [d for d in range(1, n + 1) if n % d == 0]
        for ti, tj, tk in itertools.product(divs, repeat=3):
            tiled = apply_tiling(nf, {"i": ti, "j": tj, "k": tk})
            got = evaluate_normal_form(tiled, arrays, backend)
            assert got.data == base.data

    def test_schedule_invariance(self):
        backend = make_backend("quire")
        a = _mat(backend, [[3, 1, -4], [2, 2, 0], [-1, 5, 9]])
        base = run_matmul(a, a, backend)
        for seed in range(12):
            s = schedule_from_seed(seed, 3)
            assert run_matmul(a, a, backend, s).data == base.data


class TestOuter:
    def test_golden(self):
        backend = make_backend("quire")
        x = _vec(backend, [1, 2, 3, 4])
        y = _vec(backend, [5, 6, 7, 8])
        c = run_outer(x, y, backend)
        assert c.dims == (4, 4)
        assert backend.to_fraction(c.data[0]) == 5
        assert backend.to_fraction(c.data[15]) == 32

    def test_basis_vector_column(self):
        backend = make_backend("rational")
        x = _vec(backend, [9, 8, 7])
        e0 = _vec(backend, [1, 0, 0])
        c = run_outer(x, e0, backend)
        for i in range(3):
            assert c.at(i, 0) == Fraction([9, 8, 7][i])
            assert c.at(i, 1) == 0

    def test_cross_backend_agreement_small_ints(self):
        results = []
        for name in BACKENDS:
            backend = make_backend(name)
            x = _vec(backend, [1, -2, 3])
            y = _vec(backend, [4, 5, -6])
            c = run_outer(x, y, backend)
            results.append([backend.to_fraction(v) for v in c.data])
        assert all(r == results[0] for r in results)


class TestRoundingCensus:
    def test_dot_quire_vs_naive(self):
        for n in (1, 4, 16):
            for name, want in (("quire", 1), ("naive", 2 * n - 1)):
                backend = make_backend(name)
                x = _vec(backend, list(range(1, n + 1)))
                backend.reset_counter()
                run_dot(x, x, backend)
                assert backend.roundings == want

    def test_matmul_quire_vs_naive(self):
        n = 4
        for name, want in (("quire", n * n), ("naive", n * n * (2 * n - 1))):
            backend = make_backend(name)
            a = _mat(backend, [[(i + j) % 5 for j in range(n)] for i in range(n)])
            backend.reset_counter()
            run_matmul(a, a, backend)
            assert backend.roundings == want

    def test_input_conversion_is_not_counted(self):
        backend = make_backend("quire")
        backend.reset_counter()
        _vec(backend, [1, 2, 3])
        assert backend.roundings == 0


class TestCGStep:
    def test_identity_matrix(self):
        for variant in ("standard", "paper"):
            backend = make_backend("quire")
            a = _mat(backend, [[1, 0], [0, 1]])
            st = initial_state(a, _vec(backend, [1, 1]), backend)
            out = cg_step(st, backend, variant)
            assert [backend.to_fraction(v) for v in out.x.data] == [1, 1]
            assert out.k == 1

    def test_variants_diverge_off_identity(self):
        backend = make_backend("rational")
        a = _mat(backend, [[2, 0], [0, 2]])
        st = initial_state(a, _vec(backend, [1, 0]), backend)
        std = cg_step(st, backend, "standard")
        pap = cg_step(st, backend, "paper")
        assert list(std.x.data) == [Fraction(1, 2), 0]
        assert list(pap.x.data) == [Fraction(1), 0]

    def test_direct_equals_normal_bitwise(self):
        backend = make_backend("quire")
        rng = random.Random(404)
        for _ in range(50):
            a_rows, b = random_spd_system(rng, 4)
            a = _mat(backend, a_rows)
            st = initial_state(a, _vec(backend, b), backend)
            d = cg_step(st, backend, "standard", form="direct")
            m = cg_step(st, backend, "standard", form="normal")
            assert d.x.data == m.x.data

    def test_normal_form_text_pins_the_p_direction(self):
        # the flat-index text has no A factor, so form=normal takes the
        # p direction under either variant; A*p shows up only in direct
        backend = make_backend("rational")
        a = _mat(backend, [[2, 0], [0, 2]])
        st = initial_state(a, _vec(backend, [1, 0]), backend)
        via_text = cg_step(st, backend, "paper", form="normal")
        assert via_text.x.data == (Fraction(1, 2), Fraction(0))
        assert via_text.x.data == cg_step(st, backend, "standard", form="direct").x.data
        assert cg_step(st, backend, "paper", form="direct").x.data == (Fraction(1), Fraction(0))

    @pytest.mark.parametrize("form", ["direct", "normal"])
    def test_breakdown_raises_with_iteration(self, form):
        backend = make_backend("rational")
        a = _mat(backend, [[0, 0], [0, 0]])
        st = initial_state(a, _vec(backend, [1, 1]), backend)
        with pytest.raises(BreakdownError) as err:
            cg_step(st, backend, form=form)
        assert err.value.iteration == 0

    def test_state_validation(self):
        backend = make_backend("rational")
        with pytest.raises(ValueError):
            CGState(
                _mat(backend, [[1, 2], [3, 4]]),  # not symmetric
                DenseArray((2,), _vec(backend, [0, 0])),
                DenseArray((2,), _vec(backend, [1, 1])),
                DenseArray((2,), _vec(backend, [1, 1])),
            )


class TestCGSolve:
    def test_identity_converges_first_step(self):
        backend = make_backend("quire")
        a = _mat(backend, [[1, 0], [0, 1]])
        out = cg_solve(a, _vec(backend, [3, -2]), 8, backend)
        assert out.iterations == 1
        assert out.converged
        assert [backend.to_fraction(v) for v in out.x.data] == [3, -2]

    def test_rational_diagonal_exact(self):
        backend = make_backend("rational")
        a = _mat(backend, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
        b = _vec(backend, [1, 1, 1, 1])
        out = cg_solve(a, b, 8, backend)
        assert out.converged
        assert out.iterations <= 4
        assert list(out.x.data) == [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_rational_terminates_within_n(self):
        backend = make_backend("rational")
        rng = random.Random(77)
        for _ in range(10):
            a_rows, b = random_spd_system(rng, 4)
            out = cg_solve(_mat(backend, a_rows), _vec(backend, b), 4, backend)
            assert out.converged
            # residual of the returned x is exactly zero
            x = list(out.x.data)
            for i in range(4):
                assert sum(Fraction(a_rows[i][j]) * x[j] for j in range(4)) == b[i]

    def test_form_normal_matches_direct(self):
        backend = make_backend("quire")
        rng = random.Random(505)
        a_rows, b = random_spd_system(rng, 4)
        a = _mat(backend, a_rows)
        direct = cg_solve(a, _vec(backend, b), 4, backend, form="direct")
        viaform = cg_solve(a, _vec(backend, b), 4, backend, form="normal")
        assert direct.x.data == viaform.x.data
        assert direct.iterations == viaform.iterations

    def test_form_normal_normalizes_once_per_solve(self, monkeypatch):
        calls = []

        def counted(e):
            calls.append(e)
            return normalize(e)

        monkeypatch.setattr(kernels, "normalize", counted)
        backend = make_backend("quire")
        a_rows, b = random_spd_system(random.Random(12), 6)
        out = cg_solve(_mat(backend, a_rows), _vec(backend, b), 6, backend, form="normal")
        assert out.iterations > 1
        assert len(calls) == 1

    def test_paper_variant_differs_but_both_run(self):
        backend = make_backend("binary64")
        a_rows, b = random_spd_system(random.Random(9), 4)
        a = _mat(backend, a_rows)
        std = cg_solve(a, _vec(backend, b), 4, backend, variant="standard")
        pap = cg_solve(a, _vec(backend, b), 4, backend, variant="paper")
        assert std.x.data != pap.x.data

    @pytest.mark.parametrize("form", ["direct", "normal"])
    @pytest.mark.parametrize(
        "rows, rhs, iteration",
        [
            ([[2, 0], [0, 0]], [1, 1], 1),
            ([[0, 1, 0], [1, -1, -2], [0, -2, 0]], [2, -2, -2], 2),
        ],
    )
    def test_breakdown_raises_with_iteration(self, rows, rhs, iteration, form):
        # symmetric but not definite: a later p.A.p is exactly zero
        # while the residual is not
        backend = make_backend("rational")
        a = _mat(backend, rows)
        with pytest.raises(BreakdownError, match=f"iteration {iteration}$") as err:
            cg_solve(a, _vec(backend, rhs), 4, backend, form=form)
        assert err.value.iteration == iteration

    def test_schedule_invariance_quire(self):
        backend = make_backend("quire")
        a_rows, b = random_spd_system(random.Random(10), 4)
        a = _mat(backend, a_rows)
        base = cg_solve(a, _vec(backend, b), 4, backend)
        for seed in range(8):
            s = schedule_from_seed(seed, 4)
            got = cg_solve(a, _vec(backend, b), 4, backend, schedule=s)
            assert got.x.data == base.x.data


class TestNormalFormEvaluator:
    def test_zero_division_policy(self):
        backend = make_backend("quire")
        nf = normalize(kernel_expr("cg", 2))
        arrays = {
            "X": _vec(backend, [0, 0, 0, 0]),
            "P": _vec(backend, [0, 0]),
            "R": _vec(backend, [0, 0]),
            "A": _vec(backend, [1, 0, 0, 1]),
        }
        out = evaluate_normal_form(nf, arrays, backend)
        nar = backend.cfg.nar_pattern
        assert out.data[2] == nar and out.data[3] == nar

    def test_missing_and_missized_operands(self):
        backend = make_backend("rational")
        nf = normalize(kernel_expr("dot", 3))
        with pytest.raises(ValueError):
            evaluate_normal_form(nf, {"X": _vec(backend, [1, 2, 3])}, backend)
        with pytest.raises(ValueError):
            evaluate_normal_form(
                nf,
                {"X": _vec(backend, [1, 2, 3]), "Y": _vec(backend, [1])},
                backend,
            )

    def test_matvec_route(self):
        backend = make_backend("rational")
        a = _mat(backend, [[1, 2], [3, 4]])
        got = run_matvec(a, _vec(backend, [5, 6]), backend)
        assert [int(v) for v in got.data] == [17, 39]


class TestInterpreterEqualsDirectRoutes:
    """The normal-form interpreter gives the bits and the roundings
    count of the direct routes, on every backend and schedule."""

    N = 4

    @pytest.fixture(params=BACKENDS)
    def backend(self, request):
        return make_backend(request.param)

    @pytest.fixture(params=[None, 7], ids=["sequential", "seed-7"])
    def schedule(self, request):
        return SEQUENTIAL if request.param is None else schedule_from_seed(request.param, self.N)

    def _values(self, backend, name, k):
        rng = random.Random(name)
        values = [Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(k)]
        return _vec(backend, values)

    def _check(self, backend, schedule, nf, arrays, direct):
        backend.reset_counter()
        got = evaluate_normal_form(nf, arrays, backend, schedule).data
        roundings = backend.roundings
        backend.reset_counter()
        want = list(direct())
        assert [backend.to_hex(v) for v in got] == [backend.to_hex(v) for v in want]
        assert roundings == backend.roundings

    def test_kernels(self, backend, schedule):
        n = self.N
        x, y = self._values(backend, "X", n), self._values(backend, "Y", n)
        a, b = self._values(backend, "A", n * n), self._values(backend, "B", n * n)
        am, bm = DenseArray((n, n), a), DenseArray((n, n), b)
        dot, matmul, outer = (normalize(kernel_expr(k, n)) for k in ("dot", "matmul", "outer"))
        for nf, arrays, direct in (
            (dot, {"X": x, "Y": y}, lambda: [run_dot(x, y, backend, schedule)]),
            (matmul, {"A": a, "B": b}, lambda: run_matmul(am, bm, backend, schedule).data),
            (
                apply_tiling(matmul, {"i": 2, "j": 1, "k": 2}),
                {"A": a, "B": b},
                lambda: run_matmul(am, bm, backend, schedule).data,
            ),
            (outer, {"X": x, "Y": y}, lambda: run_outer(x, y, backend).data),
        ):
            self._check(backend, schedule, nf, arrays, direct)

    def test_closed_sum_is_reduced_once(self, backend, schedule):
        # C[i] = X[i] * sum(j<n) Y[j]*Y[j]: the Sum has no free variable
        n = self.N
        i, j = Affine.var("i"), Affine.var("j")
        body = Mul((Ref("X", i), Sum((("j", n),), Mul((Ref("Y", j), Ref("Y", j))))))
        nf = NormalForm("C", n, i, (("i", n),), body, (("X", n), ("Y", n)))
        x, y = self._values(backend, "X", n), self._values(backend, "Y", n)

        def direct():
            s = run_dot(y, y, backend, schedule)
            return [backend.mul(xi, s) for xi in x]

        self._check(backend, schedule, nf, {"X": x, "Y": y}, direct)

    def test_hoisted_factor_leaves_one_factor_terms(self, backend, schedule):
        # C[i] = sum(j<n) X[i]*Y[j]: X[i] hoists out of the Sum, whose
        # terms are (Y[j],) and which is reduced once, not once per i
        n = self.N
        i, j = Affine.var("i"), Affine.var("j")
        body = Sum((("j", n),), Mul((Ref("X", i), Ref("Y", j))))
        nf = NormalForm("C", n, i, (("i", n),), body, (("X", n), ("Y", n)))
        x, y = self._values(backend, "X", n), self._values(backend, "Y", n)

        def direct():
            s = reduce_terms(backend, [(yj,) for yj in y], schedule)
            return [backend.mul(xi, s) for xi in x]

        self._check(backend, schedule, nf, {"X": x, "Y": y}, direct)
