"""Cost model and layout planner.

The frozen numbers below were derived by hand from the footprint model
(documented in the planner module) and are cross-checked against the
access-trace simulator in oracles.py, which shares nothing with the
implementation beyond the tile-vector contract.
"""

from __future__ import annotations

import itertools

import pytest

from oracles import trace_cost
from tensorquire import planner
from tensorquire.exprs import (
    Affine,
    Leaf,
    Mul,
    NormalForm,
    Ref,
    Sum,
    SumReduce,
    kernel_expr,
    normalize,
    scopes,
)
from tensorquire.planner import (
    CostLevel,
    CostModel,
    format_cost_model,
    loop_occurrences,
    parse_cost_model,
    plan,
    predict_cost,
    ref_paths,
    search,
)

HUGE = 1 << 30


def _cm(levels, element=4):
    return CostModel(tuple(CostLevel(*lv) for lv in levels), element)


def _vector_sum(n):
    return normalize(SumReduce((0,), Leaf("X", (n,))))


def _shadowed():
    """y[i] = sum_i x[2i + 1]: the inner i sets the address."""
    index = Affine((("t", "i", 2), ("c", 1)))
    return NormalForm(
        "y", 4, Affine.var("i"), (("i", 4),), Sum((("i", 6),), Ref("x", index)), (("x", 12),)
    )


class TestCostModelTypes:
    def test_level_validation(self):
        with pytest.raises(ValueError):
            CostLevel(-1, 4, 1)
        with pytest.raises(ValueError):
            CostLevel(16, 0, 1)
        with pytest.raises(ValueError):
            CostLevel(18, 4, 1)  # capacity not a whole number of lines

    def test_model_validation(self):
        with pytest.raises(ValueError):
            _cm([])
        with pytest.raises(ValueError):
            _cm([(32, 4, 1), (16, 4, 10)])  # capacities must grow
        with pytest.raises(ValueError):
            CostModel((CostLevel(16, 4, 1),), 0)

    def test_parse_format_round_trip(self):
        text = "element=4\nlevel capacity=16 line=8 miss=1\nlevel capacity=64 line=8 miss=9\n"
        cm = parse_cost_model(text)
        assert cm.element_size == 4
        assert cm.levels[0] == CostLevel(16, 8, 1)
        assert parse_cost_model(format_cost_model(cm)) == cm

    def test_parse_skips_comments(self):
        cm = parse_cost_model("# toy machine\nelement=8\n\nlevel capacity=32 line=16 miss=2\n")
        assert cm.element_size == 8
        assert cm.levels == (CostLevel(32, 16, 2),)

    @pytest.mark.parametrize(
        "bad",
        [
            "level capacity=16 line=8 miss=1\n",  # element line missing
            "element=4\n",  # no levels
            "element=4\nlevel capacity=16 stride=8 miss=1\n",
            "element=4\nlevel capacity=16 line=8\n",
            "element=x\nlevel capacity=16 line=8 miss=1\n",
            "element=4\nlevel foo\n",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError) as err:
            parse_cost_model(bad)
        if "foo" in bad:  # a field without '=' is named
            assert "'foo'" in str(err.value)


class TestPredictCost:
    def test_vector_sum_streams_whole_lines(self):
        # 4 elements per 16-byte line, everything fits: with the loop as
        # one tile, each line is read once
        cm = _cm([(HUGE, 16, 1)])
        for n in (1, 4, 7, 8, 13, 64):
            nf = _vector_sum(n)
            assert predict_cost(nf, (n,), cm) == -(-n // 4)

    def test_single_element_tiles_pay_per_element(self):
        # blocks of 1 make every element its own tile instance, so line
        # granularity buys nothing
        cm = _cm([(HUGE, 16, 1)])
        nf = _vector_sum(8)
        assert predict_cost(nf, (1,), cm) == 8

    def test_miss_cost_scales(self):
        cm = _cm([(HUGE, 16, 7)])
        nf = _vector_sum(16)
        assert predict_cost(nf, (16,), cm) == 4 * 7

    def test_matmul_blocking_beats_untiled(self):
        cm = _cm([(32, 16, 1)])
        nf = normalize(kernel_expr("matmul", 4))
        untiled = predict_cost(nf, (1, 1, 1), cm)
        tiled = predict_cost(nf, (2, 2, 2), cm)
        assert untiled == 128
        assert tiled == 32
        assert tiled < untiled

    def test_zero_capacity_counts_every_read(self):
        cm = _cm([(0, 4, 1)])
        for n in (2, 4):
            nf = normalize(kernel_expr("matmul", n))
            want = 2 * n**3
            occs = loop_occurrences(nf)
            divs = [d for d in range(1, n + 1) if n % d == 0]
            for tiles in itertools.product(divs, repeat=len(occs)):
                assert predict_cost(nf, tiles, cm) == want

    def test_two_level_model(self):
        cm = _cm([(32, 16, 1), (256, 16, 10)])
        nf = normalize(kernel_expr("matmul", 4))
        assert predict_cost(nf, (2, 2, 2), cm) == 352

    def test_alignment_is_per_instance(self):
        # 3-element tiles straddle line boundaries differently at
        # different offsets; the per-instance walk must see that
        cm = _cm([(HUGE, 8, 1)])
        nf = _vector_sum(9)
        cost = predict_cost(nf, (3,), cm)
        assert cost == trace_cost(nf, (3,), cm)
        assert cost == 6  # tiles (0..2)(3..5)(6..8) touch 2+2+2 lines

    def test_rejects_bad_tiles(self):
        nf = normalize(kernel_expr("matmul", 4))
        with pytest.raises(ValueError):
            predict_cost(nf, (1, 1), _cm([(0, 4, 1)]))
        with pytest.raises(ValueError):
            predict_cost(nf, (3, 1, 1), _cm([(0, 4, 1)]))
        with pytest.raises(ValueError):
            predict_cost(nf, (0, 1, 1), _cm([(0, 4, 1)]))


class TestAgainstTraceSimulator:
    # lines that are not a power of two, or narrower than an element,
    # put each tile's base address on many different line residues
    MODELS = [
        [(0, 4, 1)],
        [(16, 4, 1)],
        [(16, 8, 1)],
        [(32, 16, 1)],
        [(64, 8, 3)],
        [(48, 12, 1)],
        [(16, 8, 1), (64, 16, 10)],
        [(24, 12, 1), (96, 24, 4)],
    ]

    KERNELS = [("dot", 6), ("matmul", 4), ("outer", 4), ("cg", 4)]

    @pytest.mark.parametrize("kind,n", KERNELS)
    def test_all_tilings_all_models(self, kind, n):
        self._check_all_tilings(kind, n, 4)

    @pytest.mark.parametrize("element", [1, 3, 8])
    @pytest.mark.parametrize("kind,n", KERNELS)
    def test_all_tilings_other_element_sizes(self, kind, n, element):
        self._check_all_tilings(kind, n, element)

    def _check_all_tilings(self, kind, n, element):
        nf = normalize(kernel_expr(kind, n))
        occs = loop_occurrences(nf)
        divs = {ext: [d for d in range(1, ext + 1) if ext % d == 0] for _, _, ext in occs}
        for levels in self.MODELS:
            cm = _cm(levels, element)
            for tiles in itertools.product(*(divs[ext] for _, _, ext in occs)):
                assert predict_cost(nf, tiles, cm) == trace_cost(nf, tiles, cm), (
                    kind,
                    tiles,
                    levels,
                    element,
                )

    def test_offsets_reversed_indices_and_shadowed_loops(self):
        # kernels never index with a constant, a negative coefficient or
        # a loop variable that an inner loop shadows; these forms do
        def aff(*atoms):
            return Affine(atoms)

        # y[i] = sum_j A[5 - j + 6i] * x[j + 2]
        a_index = aff(("c", 5), ("t", "j", -1), ("t", "i", 6))
        x_index = aff(("t", "j", 1), ("c", 2))
        shifted = NormalForm(
            "y",
            4,
            aff(("t", "i", 1)),
            (("i", 4),),
            Sum((("j", 6),), Mul((Ref("A", a_index), Ref("x", x_index)))),
            (("A", 24), ("x", 8)),
        )
        for nf in (shifted, _shadowed()):
            occs = loop_occurrences(nf)
            divs = [[d for d in range(1, ext + 1) if ext % d == 0] for _, _, ext in occs]
            for element in (1, 3, 8):
                for levels in ([(16, 4, 1)], [(48, 12, 1)], [(24, 12, 1), (96, 24, 4)]):
                    cm = _cm(levels, element)
                    for tiles in itertools.product(*divs):
                        assert predict_cost(nf, tiles, cm) == trace_cost(nf, tiles, cm), (
                            nf,
                            tiles,
                            levels,
                            element,
                        )


class TestPlan:
    def test_matmul8_blocked_plan(self):
        cm = parse_cost_model("element=4\nlevel capacity=16 line=8 miss=1\n")
        nf = normalize(kernel_expr("matmul", 8))
        lp = plan(nf, cm)
        assert lp.blocks == (2, 2, 2)
        assert lp.predicted_cost == 256
        # each input is lifted along the loops that move its address
        assert set(lp.lifts) == {
            ("A", "i", 2),
            ("A", "k", 2),
            ("B", "k", 2),
            ("B", "j", 2),
        }

    def test_matmul8_narrow_lines(self):
        # line holds one element, two lines of room: small square tiles
        cm = _cm([(8, 4, 1)])
        nf = normalize(kernel_expr("matmul", 8))
        lp = plan(nf, cm)
        assert lp.blocks == (2, 2, 1)
        assert lp.predicted_cost == 512
        # unit blocks produce no lift
        assert set(lp.lifts) == {("A", "i", 2), ("B", "j", 2)}

    def test_everything_fits_untiled_is_minimal(self):
        # whole-loop tiles read each line once, which nothing can beat
        cm = _cm([(HUGE, 16, 1)])
        nf = normalize(kernel_expr("matmul", 8))
        lp = plan(nf, cm)
        table = search(nf, cm)
        best = min(cost for cost, _ in table)
        assert lp.predicted_cost == best
        assert predict_cost(nf, (8, 8, 8), cm) == best
        minima = sorted(blocks for cost, blocks in table if cost == best)
        assert (8, 8, 8) in minima
        assert lp.blocks == minima[0]

    def test_plan_is_exhaustive_minimum(self):
        cm = _cm([(16, 8, 1)])
        for kind, n in [("dot", 8), ("outer", 4), ("cg", 4)]:
            nf = normalize(kernel_expr(kind, n))
            lp = plan(nf, cm)
            table = search(nf, cm)
            assert lp.predicted_cost == min(cost for cost, _ in table)
            assert lp.predicted_cost == table[0][0]

    def test_search_table_sorted_and_complete(self):
        cm = _cm([(16, 8, 1)])
        nf = normalize(kernel_expr("matmul", 4))
        table = search(nf, cm)
        costs = [cost for cost, _ in table]
        assert costs == sorted(costs)
        assert len(table) == 27  # 3 divisors per loop
        assert len({blocks for _, blocks in table}) == 27

    def test_ties_break_to_smallest_blocks(self):
        cm = parse_cost_model("element=4\nlevel capacity=16 line=8 miss=1\n")
        nf = normalize(kernel_expr("matmul", 8))
        table = search(nf, cm)
        best = table[0][0]
        tied = sorted(blocks for cost, blocks in table if cost == best)
        assert plan(nf, cm).blocks == tied[0]

    def test_lifts_only_for_proper_blocks(self):
        # unit and full-extent blocks change no layout, so no lift entry
        cm = _cm([(HUGE, 16, 1)])
        nf = normalize(kernel_expr("matmul", 8))
        lp = plan(nf, cm)
        assert lp.blocks == (8, 8, 4)
        assert set(lp.lifts) == {("A", "k", 4), ("B", "k", 4)}

    def test_search_costs_each_candidate_once(self, monkeypatch):
        # perfbench's tracer and candidates_per_plan count these calls
        calls = []

        def counting(nf, blocks, cm):
            calls.append(blocks)
            return predict_cost(nf, blocks, cm)

        monkeypatch.setattr(planner, "predict_cost", counting)
        cm = _cm([(16, 8, 1), (64, 16, 10)])
        nf = normalize(kernel_expr("matmul", 4))
        table = search(nf, cm)
        assert len(calls) == 27
        assert sorted(calls) == sorted(itertools.product((1, 2, 4), repeat=3))
        assert search(nf, cm) == table
        assert len(calls) == 54

    def test_refuses_oversized_search_space(self):
        nf = _vector_sum(1 << 13)
        with pytest.raises(ValueError):
            search(nf, _cm([(16, 8, 1)]))

    def test_refuses_search_over_the_work_budget(self, monkeypatch):
        # matmul n=120: 16^3 tilings x one level x 2 * 120^2 address points
        calls = []
        monkeypatch.setattr(planner, "predict_cost", lambda *args: calls.append(args))
        nf = normalize(kernel_expr("matmul", 120))
        with pytest.raises(ValueError, match="needs 117964800 address points"):
            search(nf, _cm([(16, 8, 1)]))
        assert calls == []

    def test_work_budget_admits_matmul64_on_three_levels(self, monkeypatch):
        # 7^3 tilings x 3 levels x 2 * 64^2 points = 8.4M, under 1 << 24
        monkeypatch.setattr(planner, "predict_cost", lambda nf, blocks, cm: 0)
        nf = normalize(kernel_expr("matmul", 64))
        table = search(nf, _cm([(16, 8, 1), (256, 16, 5), (4096, 64, 50)]))
        assert len(table) == 7**3

    def test_search_work_counts_only_address_setting_loops(self, monkeypatch):
        # 3 x 4 tilings x one level x the inner i's 6 points; the outer i
        # only repeats the reference, so it adds no address points
        nf = _shadowed()
        monkeypatch.setattr(planner, "SEARCH_BUDGET", 71)
        with pytest.raises(ValueError, match="needs 72 address points"):
            search(nf, _cm([(16, 8, 1)]))
        monkeypatch.setattr(planner, "SEARCH_BUDGET", 72)
        assert len(search(nf, _cm([(16, 8, 1)]))) == 12

    def test_plan_analyses_references_once(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapped(nf):
                calls.append(fn.__name__)
                return fn(nf)

            return wrapped

        monkeypatch.setattr(planner, "ref_paths", counting(ref_paths))
        monkeypatch.setattr(planner, "loop_occurrences", counting(loop_occurrences))
        planner._references.cache_clear()
        nf = normalize(kernel_expr("matmul", 8))
        lp = plan(nf, _cm([(16, 8, 1)]))
        assert len(lp.table) == 64
        assert sorted(calls) == ["loop_occurrences", "ref_paths"]


class TestLoopStructure:
    # a name shadowed on one path, and a Sum with no read beneath it
    FORMS = [
        _shadowed(),
        NormalForm(
            "y", 4, Affine.var("i"), (("i", 4),), Sum((("j", 3), ("k", 2)), Mul(())), ()
        ),
    ]

    @pytest.mark.parametrize("nf", FORMS, ids=["shadowed", "readless"])
    def test_scopes_occurrences_and_ref_paths_agree(self, nf):
        walked = list(scopes(nf))
        occs = loop_occurrences(nf)
        assert [oid for oid, _, _ in occs] == list(range(len(occs)))
        assert set(occs) == {occ for _, path in walked for occ in path}
        assert ref_paths(nf) == tuple((n, p) for n, p in walked if isinstance(n, Ref))
        for _, path in walked:
            assert path == tuple(occs[oid] for oid, _, _ in path)

    def test_shadowed_and_readless_ids(self):
        shadowed, readless = self.FORMS
        assert loop_occurrences(shadowed) == ((0, "i", 4), (1, "i", 6))
        assert [p for _, p in ref_paths(shadowed)] == [((0, "i", 4), (1, "i", 6))]
        assert loop_occurrences(readless) == ((0, "i", 4), (1, "j", 3), (2, "k", 2))
        assert ref_paths(readless) == ()
        assert [p for _, p in scopes(readless)] == [((0, "i", 4),), loop_occurrences(readless)]
        assert predict_cost(readless, (2, 3, 1), _cm([(0, 4, 1)])) == 0
