"""Normalization goldens, reuse census, tiling, and evaluation equivalence."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from tensorquire.backends import make_backend
from tensorquire.exprs import (
    Affine,
    CGKernel,
    Dot,
    Leaf,
    MatMul,
    Multiply,
    NormalizeError,
    OuterProduct,
    Sum,
    SumReduce,
    apply_tiling,
    children,
    kernel_expr,
    map_children,
    normalize,
    reuse_census,
    scopes,
)
from tensorquire.kernels import evaluate_normal_form
from tensorquire.planner import loop_occurrences


class TestGoldenTexts:
    """The printed normal forms are a stable external interface."""

    def test_dot(self):
        nf = normalize(kernel_expr("dot", 4))
        assert str(nf) == "C[0] = sum(j<4) X[j]*Y[j]"
        assert nf.loops == ()
        assert nf.reduction_depth == 2

    def test_matmul(self):
        nf = normalize(kernel_expr("matmul", 2))
        assert str(nf) == "C[i*2+j] = sum(k<2) A[i*2+k]*B[k*2+j]"
        assert nf.loops == (("i", 2), ("j", 2))
        assert nf.reduction_depth == 1

    def test_outer(self):
        nf = normalize(kernel_expr("outer", 4))
        assert str(nf) == "C[i*4+j] = X[i]*Y[j]"
        assert nf.reduction_depth == 0

    def test_cg(self):
        nf = normalize(kernel_expr("cg", 2))
        assert str(nf) == (
            "X[2+k] = X[k] + P[k]*(sum(j<2) R[j]*R[j])"
            "/(sum(i<2) sum(j<2) P[i]*A[j+i*2]*P[j])"
        )
        # the update for step t targets the lifted slot t*n + k
        assert nf.out_extent == 4
        assert nf.operands == (("A", 4), ("P", 2), ("R", 2), ("X", 4))

    def test_vector_sum_via_reduce_node(self):
        nf = normalize(SumReduce(Leaf("X", (8,))))
        assert str(nf) == "C[0] = sum(j<8) X[j]"

    def test_elementwise_product_and_its_reduction(self):
        x, y = Leaf("X", (4,)), Leaf("Y", (4,))
        assert str(normalize(Multiply(x, y))) == "C[i] = X[i]*Y[i]"
        assert normalize(SumReduce(Multiply(x, y))) == normalize(Dot(x, y))

    def test_deterministic(self):
        a = normalize(kernel_expr("matmul", 3))
        b = normalize(kernel_expr("matmul", 3))
        assert a == b
        assert str(a) == str(b)


class TestNormalizeErrors:
    def test_unsupported_composition_names_node(self):
        bad = Dot(Leaf("X", (2, 2)), Leaf("Y", (2, 2)))
        with pytest.raises(NormalizeError, match="[Dd]ot"):
            normalize(bad)

    def test_shape_mismatch(self):
        with pytest.raises(NormalizeError):
            normalize(Dot(Leaf("X", (3,)), Leaf("Y", (4,))))
        with pytest.raises(NormalizeError):
            normalize(MatMul(Leaf("A", (2, 3)), Leaf("B", (2, 3))))

    def test_unknown_leaf_rank(self):
        with pytest.raises(NormalizeError):
            normalize(SumReduce(Leaf("X", (4, 4))))


class TestReuseCensus:
    def test_dot4(self):
        assert reuse_census("dot", 4) == (1, 4, 2)

    def test_matmul2(self):
        assert reuse_census("matmul", 2) == (2, 8, 1)

    def test_outer4(self):
        assert reuse_census("outer", 4) == (4, 16, 0)

    def test_counts_scale_with_size(self):
        # matmul n: each element read n times, n^3 multiplies, depth log2 n
        rec = reuse_census("matmul", 4)
        assert rec.uses == 4
        assert rec.mults == 64
        assert rec.depth == 2

    def test_expression_input(self):
        e = OuterProduct(Leaf("X", (3,)), Leaf("Y", (3,)))
        assert reuse_census(e) == (3, 9, 0)

    def test_rejects_cg(self):
        with pytest.raises(ValueError):
            reuse_census("cg", 2)


def _rational_arrays(nf, seed):
    import random

    rng = random.Random(seed)
    return {
        name: [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ext)]
        for name, ext in nf.operands
    }


class TestEvaluationEquivalence:
    """Normal forms compute the textbook semantics, element for element."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_dot(self, n):
        backend = make_backend("rational")
        nf = normalize(kernel_expr("dot", n))
        arrays = _rational_arrays(nf, n)
        got = evaluate_normal_form(nf, arrays, backend)
        exact = sum(x * y for x, y in zip(arrays["X"], arrays["Y"]))
        assert got.data == (exact,)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matmul(self, n):
        backend = make_backend("rational")
        nf = normalize(kernel_expr("matmul", n))
        arrays = _rational_arrays(nf, 10 + n)
        got = evaluate_normal_form(nf, arrays, backend)
        a, b = arrays["A"], arrays["B"]
        for i in range(n):
            for j in range(n):
                exact = sum(a[i * n + k] * b[k * n + j] for k in range(n))
                assert got.data[i * n + j] == exact

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_outer(self, n):
        backend = make_backend("rational")
        nf = normalize(kernel_expr("outer", n))
        arrays = _rational_arrays(nf, 20 + n)
        got = evaluate_normal_form(nf, arrays, backend)
        for i in range(n):
            for j in range(n):
                assert got.data[i * n + j] == arrays["X"][i] * arrays["Y"][j]


class TestTiling:
    def test_tiled_matmul_matches_untiled_rational(self):
        backend = make_backend("rational")
        nf = normalize(kernel_expr("matmul", 4))
        arrays = _rational_arrays(nf, 3)
        base = evaluate_normal_form(nf, arrays, backend)
        for ti, tj, tk in itertools.product((1, 2, 4), repeat=3):
            tiled = apply_tiling(nf, {"i": ti, "j": tj, "k": tk})
            assert evaluate_normal_form(tiled, arrays, backend).data == base.data

    def test_tiled_matmul_matches_untiled_quire_bitwise(self):
        backend = make_backend("quire")
        nf = normalize(kernel_expr("matmul", 4))
        arrays = {
            name: [backend.from_fraction(Fraction(((i * 7 + 3) % 11) - 5)) for i in range(ext)]
            for name, ext in nf.operands
        }
        base = evaluate_normal_form(nf, arrays, backend)
        tiled = apply_tiling(nf, {"i": 2, "k": 2})
        assert evaluate_normal_form(tiled, arrays, backend).data == base.data

    def test_tiling_rewrites_index_text(self):
        nf = normalize(kernel_expr("matmul", 4))
        tiled = apply_tiling(nf, {"k": 2})
        assert "sum(ko<2) sum(ki<2)" in str(tiled)
        assert "A[i*4+ko*2+ki]" in str(tiled)

    def test_rejects_bad_blocks(self):
        nf = normalize(kernel_expr("matmul", 4))
        with pytest.raises(ValueError):
            apply_tiling(nf, {"k": 3})
        with pytest.raises(ValueError):
            apply_tiling(nf, {"z": 2})


def _preorder(node) -> list:
    return [node] + [d for c in children(node) for d in _preorder(c)]


class TestWalker:
    def test_walk_order_and_identity_map_on_every_kernel(self):
        forms = []
        for kind in ("dot", "matmul", "outer", "cg"):
            nf = normalize(kernel_expr(kind, 4))
            forms.append(nf)
            if kind != "cg":  # cg reuses the name j, so it cannot be tiled
                forms.append(apply_tiling(nf, {var: 2 for _, var, _ in loop_occurrences(nf)}))
        for nf in forms:
            nodes = [node for node, _ in scopes(nf)]
            assert nodes == _preorder(nf.body), str(nf)
            for node in nodes:
                assert map_children(node, lambda c: c) == node
            sums = [idx for node in nodes if isinstance(node, Sum) for idx in node.indices]
            reductions = loop_occurrences(nf)[len(nf.loops) :]
            assert sums == [(var, ext) for _, var, ext in reductions], str(nf)
        # the cg form comes last: its numerator's j, then the denominator's i and j
        cg_vars = [v for node, _ in scopes(forms[-1]) if isinstance(node, Sum) for v, _ in node.indices]
        assert cg_vars == ["j", "i", "j"]


class TestAffine:
    def test_str_and_eval(self):
        ix = Affine.var("i", 2) + Affine.var("j") + Affine.const(1)
        assert str(ix) == "i*2+j+1"
        assert ix.evaluate({"i": 3, "j": 4}) == 11

    def test_substitute(self):
        ix = Affine.var("k", 3)
        sub = ix.substitute("k", Affine.var("ko", 2) + Affine.var("ki"))
        assert sub.evaluate({"ko": 1, "ki": 1}) == 9
