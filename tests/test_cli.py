"""End-to-end command tests, run in process through main().

Every spec'd command shape appears here once with its golden output
lines, plus the exit-code contract: 0 success, 1 usage error, 2 data
error, 3 numerical breakdown.
"""

from __future__ import annotations

import time

import pytest

from tensorquire.cli import main

CANCEL_X = "shape 3\nformat decimal\n16777216 1 -16777216\n"
ONES_3 = "shape 3\nformat decimal\n1 1 1\n"
EYE_2 = "shape 2 2\nformat decimal\n1 0\n0 1\n"
RHS_2 = "shape 2\nformat decimal\n1 2\n"
SMALL_CM = "element=4\nlevel capacity=16 line=8 miss=1\n"
HUGE_CM = "element=4\nlevel capacity=1073741824 line=16 miss=1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def lines_of(out):
    return dict(ln.split("=", 1) for ln in out.strip().splitlines())


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestPositCommand:
    def test_decode_one(self, capsys):
        code, out, _ = run_cli(capsys, "posit", "decode", "--bits", "0x40000000")
        assert code == 0
        got = lines_of(out)
        assert got["value"] == "1.0"
        assert got["kind"] == "finite"
        assert got["bits"] == "0x40000000"

    def test_decode_nar(self, capsys):
        code, out, _ = run_cli(capsys, "posit", "decode", "--bits", "0x80000000")
        assert code == 0
        got = lines_of(out)
        assert got["kind"] == "nar"
        assert got["value"] == "NaR"

    def test_encode_256_at_8_bits(self, capsys):
        code, out, _ = run_cli(
            capsys, "posit", "encode", "--value", "256", "--n", "8", "--es", "2"
        )
        assert code == 0
        got = lines_of(out)
        assert got["bits"] == "0x70"
        assert got["exact"] == "yes"

    def test_encode_reports_rounding(self, capsys):
        code, out, _ = run_cli(
            capsys, "posit", "encode", "--value", "1/3", "--n", "8", "--es", "2"
        )
        assert code == 0
        got = lines_of(out)
        assert got["exact"] == "no"
        assert got["fraction"] != "1/3"

    @pytest.mark.parametrize(
        "value, bits",
        [
            ("1e999999999", "0x7fffffff"),
            ("-1e999999999", "0x80000001"),
            ("1e-999999999", "0x00000001"),
            ("-25e-999999999", "0xffffffff"),
            ("0e999999999", "0x00000000"),
        ],
    )
    def test_huge_decimal_exponent_saturates_in_bounded_time(self, capsys, value, bits):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "posit", "encode", f"--value={value}")
        assert time.perf_counter() - start < 2
        assert code == 0
        got = lines_of(out)
        assert got["bits"] == bits
        assert got["exact"] == ("yes" if value.startswith("0") else "no")

    def test_malformed_bits_is_data_error(self, capsys):
        for bad in ("0xzz000000", "0x40", "40000000"):
            code, _, err = run_cli(capsys, "posit", "decode", "--bits", bad)
            assert code == 2
            assert err.strip()

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "posit", "decode")
        assert code == 1
        assert "bits" in err


class TestKernelCommand:
    def test_cancellation_quire_vs_binary32(self, capsys, files):
        a = files("x.arr", CANCEL_X)
        b = files("y.arr", ONES_3)
        code, out, _ = run_cli(capsys, "kernel", "dot", "--a", a, "--b", b)
        assert code == 0
        got = lines_of(out)
        assert got["result"].endswith(" 1.0")
        assert got["schedule"] == "result-invariant"
        assert got["roundings"] == "1"

        code, out, _ = run_cli(
            capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", "binary32"
        )
        assert code == 0
        got = lines_of(out)
        assert got["result"].endswith(" 0.0")
        assert got["roundings"] == "5"

    def test_nan_token_loads_without_a_rounding(self, capsys, files):
        a = files("x.arr", "shape 3\nformat decimal\n1 NaR 2\n")
        b = files("y.arr", ONES_3)
        for backend, result, roundings in (
            ("quire", "0x80000000 NaR", "1"),
            ("binary32", "0x7fc00000 nan", "5"),
        ):
            code, out, _ = run_cli(
                capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", backend
            )
            assert code == 0
            got = lines_of(out)
            assert got["result"] == result
            assert got["roundings"] == roundings

    def test_overflowing_decimal_token_is_inf(self, capsys, files):
        a = files("x.arr", "shape 2\nformat decimal\n1e400 1\n")
        b = files("y.arr", "shape 2\nformat decimal\n1 1\n")
        for backend, result in (
            ("binary64", "0x7ff0000000000000 inf"),
            ("binary32", "0x7f800000 inf"),
        ):
            code, out, _ = run_cli(
                capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", backend
            )
            assert code == 0
            assert lines_of(out)["result"] == result

    def test_huge_decimal_exponent_tokens_in_bounded_time(self, capsys, files):
        a = files("x.arr", "shape 3\nformat decimal\n1e999999999 -1e-999999999 1\n")
        b = files("y.arr", ONES_3)
        for backend, result in (
            ("quire", "0x7fffffff 1.329227995784916e+36"),
            ("naive", "0x7fffffff 1.329227995784916e+36"),
            ("binary64", "0x7ff0000000000000 inf"),
            ("binary32", "0x7f800000 inf"),
        ):
            start = time.perf_counter()
            code, out, _ = run_cli(
                capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", backend
            )
            assert time.perf_counter() - start < 2
            assert code == 0
            assert lines_of(out)["result"] == result
        # the rational backend has no range to saturate at: a data error
        start = time.perf_counter()
        code, _, err = run_cli(
            capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", "rational"
        )
        assert time.perf_counter() - start < 2
        assert code == 2
        assert "exponent past the limit" in err

    def test_quire_reports_identical_across_seeds(self, capsys, files):
        a = files("x.arr", CANCEL_X)
        b = files("y.arr", ONES_3)
        outs = set()
        for seed in ("0", "1", "2", "3", "4"):
            code, out, _ = run_cli(
                capsys, "kernel", "dot", "--a", a, "--b", b, "--schedule", seed
            )
            assert code == 0
            # drop the echoed seed; the computed lines must agree bytewise
            outs.add("\n".join(ln for ln in out.splitlines() if not ln.startswith("seed=")))
        assert len(outs) == 1

    def test_rounding_backend_reports_seed_and_expansion(self, capsys, files):
        a = files("x.arr", CANCEL_X)
        b = files("y.arr", ONES_3)
        code, out, _ = run_cli(
            capsys,
            "kernel", "dot", "--a", a, "--b", b,
            "--backend", "binary32", "--schedule", "7",
        )
        assert code == 0
        got = lines_of(out)
        assert got["seed"] == "7"
        assert got["schedule"].startswith("perm=")

    def test_explicit_schedule_spec(self, capsys, files):
        a = files("x.arr", CANCEL_X)
        b = files("y.arr", ONES_3)
        code, out, _ = run_cli(
            capsys,
            "kernel", "dot", "--a", a, "--b", b,
            "--backend", "binary32", "--schedule", "perm=2,1,0;levels=flat;workers=1",
        )
        assert code == 0
        assert lines_of(out)["schedule"] == "perm=2,1,0;levels=flat;workers=1"

    def test_matmul_golden(self, capsys, files):
        a = files("a.arr", "shape 2 2\nformat decimal\n1 2\n3 4\n")
        b = files("b.arr", "shape 2 2\nformat decimal\n5 6\n7 8\n")
        code, out, _ = run_cli(capsys, "kernel", "matmul", "--a", a, "--b", b)
        assert code == 0
        got = lines_of(out)
        assert got["shape"] == "2 2"
        for key, val in (("C[0]", "19.0"), ("C[1]", "22.0"), ("C[2]", "43.0"), ("C[3]", "50.0")):
            assert got[key].endswith(" " + val)

    def test_outer_golden(self, capsys, files):
        a = files("a.arr", "shape 4\nformat decimal\n1 2 3 4\n")
        b = files("b.arr", "shape 4\nformat decimal\n5 6 7 8\n")
        code, out, _ = run_cli(capsys, "kernel", "outer", "--a", a, "--b", b)
        assert code == 0
        got = lines_of(out)
        assert got["schedule"] == "no-reduction"
        assert got["C[0]"].endswith(" 5.0")
        assert got["C[15]"].endswith(" 32.0")
        assert got["roundings"] == "16"

    def test_cg_identity_converges_immediately(self, capsys, files):
        m = files("eye.arr", EYE_2)
        r = files("rhs.arr", RHS_2)
        code, out, _ = run_cli(capsys, "kernel", "cg", "--matrix", m, "--rhs", r)
        assert code == 0
        got = lines_of(out)
        assert got["iterations"] == "1"
        assert got["converged"] == "true"
        assert got["x[0]"].endswith(" 1.0")
        assert got["x[1]"].endswith(" 2.0")
        assert got["residual"].endswith(" 0.0")

    def test_cg_form_normal_matches_direct(self, capsys, files):
        m = files("a.arr", "shape 2 2\nformat decimal\n3 1\n1 2\n")
        r = files("b.arr", RHS_2)
        _, direct, _ = run_cli(capsys, "kernel", "cg", "--matrix", m, "--rhs", r)
        _, vianf, _ = run_cli(
            capsys, "kernel", "cg", "--matrix", m, "--rhs", r, "--form", "normal"
        )
        assert lines_of(direct)["x[0]"] == lines_of(vianf)["x[0]"]
        assert lines_of(direct)["x[1]"] == lines_of(vianf)["x[1]"]

    def test_cg_paper_variant_normal_form_takes_p_direction(self, capsys, files):
        m = files("a.arr", "shape 2 2\nformat decimal\n3 1\n1 2\n")
        r = files("b.arr", RHS_2)
        base = ("kernel", "cg", "--matrix", m, "--rhs", r, "--iters", "1")
        code, paper_nf, _ = run_cli(capsys, *base, "--variant", "paper", "--form", "normal")
        assert code == 0
        _, std, _ = run_cli(capsys, *base)
        _, paper_direct, _ = run_cli(capsys, *base, "--variant", "paper")
        assert lines_of(paper_nf)["x[0]"] == lines_of(std)["x[0]"]
        assert lines_of(paper_nf)["x[1]"] == lines_of(std)["x[1]"]
        assert lines_of(paper_direct)["x[0]"] != lines_of(std)["x[0]"]

    def test_cg_breakdown_is_exit_3(self, capsys, files):
        m = files("zero.arr", "shape 2 2\nformat decimal\n0 0\n0 0\n")
        r = files("rhs.arr", RHS_2)
        code, _, err = run_cli(capsys, "kernel", "cg", "--matrix", m, "--rhs", r)
        assert code == 3
        assert "iteration 0" in err

    def test_flag_combination_usage_errors(self, capsys, files):
        a = files("x.arr", ONES_3)
        m = files("eye.arr", EYE_2)
        code, _, _ = run_cli(capsys, "kernel", "dot", "--a", a)
        assert code == 1
        code, _, _ = run_cli(capsys, "kernel", "dot", "--a", a, "--b", a, "--matrix", m)
        assert code == 1
        code, _, _ = run_cli(capsys, "kernel", "cg", "--matrix", m)
        assert code == 1
        code, _, _ = run_cli(capsys, "kernel", "outer", "--a", a, "--b", a, "--rhs", m)
        assert code == 1

    def test_data_errors(self, capsys, files):
        a = files("x.arr", ONES_3)
        short = files("short.arr", "shape 2\nformat decimal\n1 2\n")
        badhex = files("bad.arr", "shape 1\nformat posit32\n0x1234\n")
        missing = str(files("x.arr", ONES_3)) + ".nope"
        for args in (
            ("kernel", "dot", "--a", a, "--b", short),
            ("kernel", "dot", "--a", a, "--b", badhex),
            ("kernel", "dot", "--a", a, "--b", missing),
            ("kernel", "dot", "--a", a, "--b", a, "--schedule", "perm=0;workers=0"),
        ):
            code, _, err = run_cli(capsys, *args)
            assert code == 2, args
            assert err.strip()

    def test_schedule_error_names_the_field(self, capsys, files):
        a = files("x.arr", ONES_3)
        code, out, err = run_cli(
            capsys, "kernel", "dot", "--a", a, "--b", a, "--schedule", "workers=x"
        )
        assert code == 2
        assert out == ""
        assert err == "error: schedule field 'workers': 'x' is not an integer\n"

    def test_schedule_error_names_the_perm_entry(self, capsys, files):
        a = files("x.arr", ONES_3)
        code, out, err = run_cli(
            capsys, "kernel", "dot", "--a", a, "--b", a, "--schedule", "perm=0,0,0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: perm repeats 0\n"

    def test_huge_worker_count_in_bounded_time(self, capsys, files):
        # chunks past the last term are empty, so any worker count past
        # n gives the bits of workers=n, at once
        a = files("x.arr", CANCEL_X)
        b = files("y.arr", ONES_3)
        for backend in ("quire", "naive", "binary32"):
            results = []
            for workers in ("3", str(10**20)):
                start = time.perf_counter()
                code, out, _ = run_cli(
                    capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", backend,
                    "--schedule", f"workers={workers}",
                )
                assert time.perf_counter() - start < 2
                assert code == 0
                results.append((lines_of(out)["result"], lines_of(out)["roundings"]))
            assert results[0] == results[1]


class TestCensusCommand:
    def test_nan_binary16(self, capsys):
        code, out, _ = run_cli(capsys, "census", "nan", "--format", "binary16")
        assert code == 0
        got = lines_of(out)
        assert got["nan_patterns"] == "2046"
        assert got["total_patterns"] == str(1 << 16)
        assert got["method"] == "exhaustive"

    def test_nan_binary32(self, capsys):
        code, out, _ = run_cli(capsys, "census", "nan", "--format", "binary32")
        assert code == 0
        got = lines_of(out)
        assert got["nan_patterns"] == str(2 * (2**23 - 1))
        assert got["formula"] == "2*(2^23-1)"

    def test_reuse_outer(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "reuse", "--kernel", "outer", "--size", "4"
        )
        assert code == 0
        got = lines_of(out)
        assert (got["uses"], got["mults"], got["depth"]) == ("4", "16", "0")

    def test_reuse_dot(self, capsys):
        code, out, _ = run_cli(capsys, "census", "reuse", "--kernel", "dot", "--size", "4")
        assert code == 0
        got = lines_of(out)
        assert (got["uses"], got["mults"], got["depth"]) == ("1", "4", "2")


class TestPlanCommand:
    def test_forced_small_capacity(self, capsys, files):
        cm = files("cm.txt", SMALL_CM)
        code, out, _ = run_cli(
            capsys, "plan", "--kernel", "matmul", "--n", "8", "--cost-model", cm
        )
        assert code == 0
        got = lines_of(out)
        assert got["blocks"] == "2,2,2"
        assert got["tiles"] == "i:2,j:2,k:2"
        assert got["predicted_cost"] == "256"

    def test_huge_capacity_flat_landscape(self, capsys, files):
        # everything fits: whole-loop tiles are among the minima and the
        # tie-break takes the smallest block that still fills lines
        cm = files("cm.txt", HUGE_CM)
        code, out, _ = run_cli(
            capsys, "plan", "--kernel", "dot", "--n", "64", "--cost-model", cm
        )
        assert code == 0
        got = lines_of(out)
        assert got["blocks"] == "4"
        assert got["predicted_cost"] == "32"  # 2 operands x 16 lines
        assert got["lifts"] == "X:j:4,Y:j:4"

    def test_table_is_sorted(self, capsys, files):
        cm = files("cm.txt", SMALL_CM)
        code, out, _ = run_cli(
            capsys,
            "plan", "--kernel", "matmul", "--n", "4", "--cost-model", cm, "--table",
        )
        assert code == 0
        costs = [
            int(ln.rsplit(":", 1)[1])
            for ln in out.splitlines()
            if ln.startswith("candidate=")
        ]
        assert len(costs) == 27
        assert costs == sorted(costs)

    def test_table_comes_from_the_one_search(self, capsys, files, monkeypatch):
        import tensorquire.cli as cli_mod
        import tensorquire.planner as planner_mod

        original = planner_mod.search
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for mod in (planner_mod, cli_mod):
            if getattr(mod, "search", None) is original:
                monkeypatch.setattr(mod, "search", counted)
        cm = files("cm.txt", SMALL_CM)
        code, out, _ = run_cli(
            capsys,
            "plan", "--kernel", "matmul", "--n", "4", "--cost-model", cm, "--table",
        )
        assert code == 0
        assert len(calls) == 1
        got = lines_of(out)
        first = next(ln for ln in out.splitlines() if ln.startswith("candidate="))
        assert first == f"candidate={got['blocks']}:{got['predicted_cost']}"

    def test_search_over_budget_is_usage_error(self, capsys, files):
        cm = files("cm.txt", SMALL_CM)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "plan", "--kernel", "matmul", "--n", "360", "--cost-model", cm
        )
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "budget" in err

    def test_bad_model_is_data_error(self, capsys, files):
        cm = files("cm.txt", "element=4\n")
        code, _, err = run_cli(
            capsys, "plan", "--kernel", "dot", "--n", "4", "--cost-model", cm
        )
        assert code == 2
        assert "cost model" in err

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "plan", "--kernel", "dot", "--n", "4",
            "--cost-model", str(tmp_path / "nope.txt"),
        )
        assert code == 2


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "reuse", "--size", "0"),
            ("census", "reuse", "--size", "-2"),
            ("plan", "--kernel", "dot", "--n", "0", "--cost-model", "cm.txt"),
            ("plan", "--kernel", "dot", "--n", "5000", "--cost-model", "cm.txt"),
            ("posit", "decode", "--bits", "0x40000000", "--n", "99"),
            ("posit", "decode", "--bits", "0x40000000", "--es", "40"),
            ("kernel", "cg", "--matrix", "eye.arr", "--rhs", "rhs.arr", "--iters", "0"),
            ("kernel", "dot", "--a", "x.arr", "--b", "x.arr", "--n", "2"),
            ("kernel", "dot", "--a", "x.arr", "--b", "x.arr", "--n", "64", "--es", "61"),
        ],
        ids=[
            "size-0", "size-neg", "plan-n-0", "plan-n-5000",
            "posit-n-99", "posit-es-40", "iters-0", "kernel-n-2", "quire-es-61",
        ],
    )
    def test_bad_flag_values_are_usage_errors(self, capsys, files, argv):
        paths = {
            "cm.txt": files("cm.txt", SMALL_CM),
            "eye.arr": files("eye.arr", EYE_2),
            "rhs.arr": files("rhs.arr", RHS_2),
            "x.arr": files("x.arr", ONES_3),
        }
        code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_backend(self, capsys):
        code, _, _ = run_cli(
            capsys, "kernel", "dot", "--a", "x", "--b", "y", "--backend", "float128"
        )
        assert code == 1

    def test_reports_end_with_newline(self, capsys):
        _, out, _ = run_cli(capsys, "census", "reuse")
        assert out.endswith("\n")
