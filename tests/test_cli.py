"""End-to-end command tests, run in process through main().

Every spec'd command shape appears here once with its golden output
lines, plus the exit-code contract: 0 success, 1 usage error, 2 data
error, 3 numerical breakdown.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensorquire.backends import BACKEND_NAMES
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

    @pytest.mark.parametrize(
        "bits,n,es",
        [
            ("0x7fffffffffffffff", "64", "61"),  # 2**(62 * 2**61) cannot be built
            ("0x0000000000000001", "64", "61"),
            ("0x000000000013d1f", "59", "18"),  # 2**-10685316: minutes of printing
        ],
    )
    def test_decode_past_the_printed_scale_is_usage_error(self, capsys, bits, n, es):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "posit", "decode", "--bits", bits, "--n", n, "--es", es)
        assert time.perf_counter() - start < 5
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and "scale" in err

    def test_decode_inside_the_printed_scale_prints_in_full(self, capsys):
        # maxpos of posit(64, 12) is 2**253952, a fraction of 76,448 digits
        code, out, _ = run_cli(
            capsys, "posit", "decode", "--bits", "0x7fffffffffffffff", "--n", "64", "--es", "12"
        )
        assert code == 0
        got = lines_of(out)
        assert got["value"] == "inf"
        assert got["fraction"].endswith("/1") and len(got["fraction"]) == 76_448 + 2

    # every decoded kind, both signs and both ends of the range, at the
    # interchange format and at the narrowest and widest es in use
    @pytest.mark.parametrize(
        "n, es, bits, tail",
        [
            (32, 2, "0x00000000", "kind=zero\nvalue=0.0\nfraction=0/1\n"),
            (32, 2, "0x80000000", "kind=nar\nvalue=NaR\n"),
            (32, 2, "0x40000000", "kind=finite\nvalue=1.0\nfraction=1/1\n"),
            (32, 2, "0xc0000000", "kind=finite\nvalue=-1.0\nfraction=-1/1\n"),
            (32, 2, "0x7fffffff",
             f"kind=finite\nvalue=1.329227995784916e+36\nfraction={2**120}/1\n"),
            (32, 2, "0xffffffff",
             f"kind=finite\nvalue=-7.52316384526264e-37\nfraction=-1/{2**120}\n"),
            (8, 0, "0x00", "kind=zero\nvalue=0.0\nfraction=0/1\n"),
            (8, 0, "0x80", "kind=nar\nvalue=NaR\n"),
            (8, 0, "0x40", "kind=finite\nvalue=1.0\nfraction=1/1\n"),
            (8, 0, "0xc0", "kind=finite\nvalue=-1.0\nfraction=-1/1\n"),
            (8, 0, "0x7f", "kind=finite\nvalue=64.0\nfraction=64/1\n"),
            (8, 0, "0xff", "kind=finite\nvalue=-0.015625\nfraction=-1/64\n"),
            (64, 3, "0x0000000000000000", "kind=zero\nvalue=0.0\nfraction=0/1\n"),
            (64, 3, "0x8000000000000000", "kind=nar\nvalue=NaR\n"),
            (64, 3, "0x4000000000000000", "kind=finite\nvalue=1.0\nfraction=1/1\n"),
            (64, 3, "0xc000000000000000", "kind=finite\nvalue=-1.0\nfraction=-1/1\n"),
            (64, 3, "0x7fffffffffffffff",
             f"kind=finite\nvalue=2.0458691299350887e+149\nfraction={2**496}/1\n"),
            (64, 3, "0xffffffffffffffff",
             f"kind=finite\nvalue=-4.887898181599368e-150\nfraction=-1/{2**496}\n"),
        ],
    )
    def test_decode_bytes(self, capsys, n, es, bits, tail):
        code, out, err = run_cli(capsys, "posit", "decode", "--bits", bits,
                                 "--n", str(n), "--es", str(es))
        assert (code, err) == (0, "")
        assert out == f"command=posit decode\nn={n}\nes={es}\nbits={bits}\n" + tail

    @pytest.mark.parametrize(
        "value, tail",
        [
            ("0", "bits=0x00000000\nrounded=0.0\nfraction=0/1\nexact=yes\n"),
            ("-3/7", "bits=0xca492492\nrounded=-0.4285714291036129\n"
                     "fraction=-115043767/268435456\nexact=no\n"),
        ],
    )
    def test_encode_bytes(self, capsys, value, tail):
        code, out, err = run_cli(capsys, "posit", "encode", f"--value={value}")
        assert (code, err) == (0, "")
        assert out == f"command=posit encode\nn=32\nes=2\nvalue={value}\n" + tail

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
    def test_naive_result_past_binary64_prints_inf(self, capsys, files):
        # posit64 at es = 8 reaches 2**15872; the nearest double is inf
        a = files("x.arr", "shape 2\nformat decimal\n1e300 1e300\n")
        code, out, err = run_cli(
            capsys,
            "kernel", "dot", "--a", a, "--b", a, "--backend", "naive", "--n", "64", "--es", "8",
        )
        assert (code, err) == (0, "")
        assert lines_of(out)["result"] == "0x7fb28759cb8a14bf inf"

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

    def test_rational_report_past_the_digit_limit(self, capsys, files):
        # CPython refuses int-to-decimal conversions past 4,300 digits by
        # default; an exact result that long is still reported whole, and
        # the interpreter's limit is what it was before
        ones = files("ones.arr", ONES_3)
        one = files("one.arr", "shape 1\nformat decimal\n1\n")
        for a, b, fraction in (
            (files("tiny.arr", "shape 3\nformat decimal\n1e-4301 2 3\n"), ones,
             "5" + "0" * 4300 + "1/1" + "0" * 4301),
            (files("huge.arr", "shape 1\nformat decimal\n1e4301\n"), one, "1" + "0" * 4301 + "/1"),
        ):
            limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "kernel", "dot", "--a", a, "--b", b,
                                     "--backend", "rational")
            assert time.perf_counter() - start < 2
            assert (code, err) == (0, "")
            assert lines_of(out)["result"].split()[0] == fraction
            assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_decimal_token_past_the_digit_limit_is_refused(self, capsys, files):
        # the digit limit still guards parsing
        a = files("long.arr", "shape 1\nformat decimal\n" + "7" * 5000 + "\n")
        b = files("one.arr", "shape 1\nformat decimal\n1\n")
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "kernel", "dot", "--a", a, "--b", b, "--backend", "rational")
        assert time.perf_counter() - start < 2
        assert code == 2
        assert "bad decimal token" in err


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

    @pytest.mark.parametrize(
        "model",
        [
            "elementary=4\nlevel capacity=16 line=8 miss=1\n",
            "element=4\nlevels capacity=16 line=8 miss=1\n",
            "element=4\nlevel capacity=16 line=8 miss=1 line=4\n",
            "element=4\nelement=8\nlevel capacity=16 line=8 miss=1\n",
        ],
        ids=["elementary", "levels", "repeated-field", "repeated-element"],
    )
    def test_misspelled_or_repeated_model_is_data_error(self, capsys, files, model):
        cm = files("cm.txt", model)
        code, out, err = run_cli(
            capsys, "plan", "--kernel", "dot", "--n", "4", "--cost-model", cm
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad cost model: ")

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


# ---------------------------------------------------------------------------
# fuzz: no command line ends in a traceback
#
# Each generated input is mostly well formed, so that the kernels, the
# planner and the renderers run on it, and now and then odd: a token,
# line, field or flag value that has broken or stretched a parser.

_ODD_TOKENS = (
    "NaR", "nan", "inf", "-inf", "1/0", "0/0", "1_000", "1e999999999", "-1e-999999999",
    "9" * 5000, "0x", "0xZZZZZZZZ", "0x40000000", "0x4000", "0x3ff0000000000000", "-", "=",
    "\u00e9", "",
)
_ODD_TOKEN = st.one_of(
    st.sampled_from(_ODD_TOKENS), st.text(alphabet="0123456789abcdefxXeE+-./_", max_size=12)
)
# any text a file could hold; lone surrogates cannot be written as UTF-8
_JUNK_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_DECIMAL = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.fractions(max_denominator=10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(("NaR", "nan", "1e9999", "-1e-9999", "1e400", "-1e-400", "1e999999999")),
)
_HEX_WIDTH = {"posit32": 8, "posit16": 4, "binary32": 8, "binary64": 16}


def _hex(width: int):
    return st.integers(0, (1 << 4 * width) - 1).map(f"0x{{:0{width}x}}".format)


def _maybe_odd(draw, good, odd):
    """Mostly ``good``; one draw in eight is ``odd``."""
    return draw(odd if draw(st.integers(0, 7)) == 0 else good)


@st.composite
def _array_text(draw, dims, symmetric=False) -> str:
    """An array file of shape ``dims``; one in four has an odd part."""
    odd = draw(st.sampled_from(("", "", "", "", "", "token", "shape", "format", "text")))
    fmt = draw(st.sampled_from((*_HEX_WIDTH, "decimal")))
    good = _hex(_HEX_WIDTH[fmt]) if fmt in _HEX_WIDTH else _DECIMAL
    token = st.one_of(good, good, good, _ODD_TOKEN) if odd == "token" else good
    count = math.prod(dims)
    tokens = draw(st.lists(token, min_size=count, max_size=count))
    if symmetric:  # so that CG gets past its check of A
        n = dims[0]
        tokens = [tokens[max(i, j) * n + min(i, j)] for i in range(n) for j in range(n)]
    shape = " ".join(map(str, dims))
    if odd == "shape":
        shape = draw(st.sampled_from(("0", "9" * 14, "2 x", f"{shape} 1", "")))
    if odd == "format":
        fmt = draw(st.sampled_from(("posit8", "float", "")))
    if odd == "text":
        return draw(_JUNK_TEXT)
    return f"shape {shape}\nformat {fmt}\n{' '.join(tokens)}\n"


_COST_LEVEL = st.tuples(st.integers(0, 6), st.integers(1, 64), st.integers(0, 100)).map(
    lambda t: (t[1] << t[0], 1 << t[0], t[2])
)
_ODD_CM_LINE = st.one_of(
    st.sampled_from((
        "elementary=4", "levels capacity=16 line=8 miss=1",
        "level capacity=16 line=8 miss=1 line=4",
        "element=4", "level capacity=16 line=8", "level", "level =", "=", "# a comment",
        "level capacity=1000000000000000000000000000000 line=1 miss=1", "element=" + "9" * 5000,
    )),
    _JUNK_TEXT,
)


@st.composite
def _cost_model(draw) -> str:
    levels = sorted(draw(st.lists(_COST_LEVEL, min_size=1, max_size=3, unique_by=lambda lv: lv[0])))
    lines = [f"element={draw(st.integers(1, 16))}"]
    lines += [f"level capacity={c} line={ln} miss={m}" for c, ln, m in levels]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_CM_LINE))
    return "\n".join(lines) + "\n"


@st.composite
def _schedule(draw, n: int) -> str:
    perm = draw(st.permutations(range(n))) if draw(st.booleans()) else None
    spec = ";".join((
        "perm=" + ("identity" if perm is None else ",".join(map(str, perm))),
        "levels=" + (",".join(map(str, draw(st.lists(st.integers(1, 9), max_size=2)))) or "flat"),
        f"workers={draw(st.integers(1, 9))}",
    ))
    odd = st.sampled_from((
        "perm=0,0", "perm=9", "levels=0", "workers=0", "workers=" + "9" * 30, "bogus=1", ";;", "",
    ))
    return _maybe_odd(draw, st.one_of(st.integers(-(2**70), 2**70).map(str), st.just(spec)), odd)


@st.composite
def _posit_flags(draw) -> tuple:
    """(--n/--es flags, the width they name): mostly a posit format."""
    nbits = _maybe_odd(draw, st.sampled_from((8, 16, 32, 64)), st.integers(-1, 70))
    es = _maybe_odd(draw, st.integers(0, 3), st.integers(-1, 64))
    flags = ["--n", str(nbits), "--es", str(es)] if draw(st.booleans()) else []
    return flags, nbits if flags else 32


@st.composite
def _invocation(draw):
    """An argv for main(), and the text of each file it names by a
    placeholder ("@0", "@1", ...)."""
    files = []

    def file(text: str) -> str:
        files.append(text)
        return f"@{len(files) - 1}"

    cmd = draw(st.sampled_from(("posit", "kernel", "census", "plan")))
    if cmd == "posit":
        flags, nbits = draw(_posit_flags())
        if draw(st.booleans()):
            good = _hex((nbits + 3) // 4) if 3 <= nbits <= 64 else _hex(8)
            argv = ["posit", "decode", "--bits", _maybe_odd(draw, good, _ODD_TOKEN)]
        else:
            argv = ["posit", "encode", "--value", _maybe_odd(draw, _DECIMAL, _ODD_TOKEN)]
        argv += flags
    elif cmd == "kernel":
        kind = draw(st.sampled_from(("dot", "matmul", "outer", "cg")))
        argv = ["kernel", kind, "--backend", draw(st.sampled_from(BACKEND_NAMES))]
        n = draw(st.integers(1, 8))
        if kind == "cg":
            symmetric = draw(st.integers(0, 3)) > 0
            argv += ["--matrix", file(draw(_array_text((n, n), symmetric)))]
            argv += ["--rhs", file(draw(_array_text((n,))))]
            argv += ["--iters", str(_maybe_odd(draw, st.integers(1, 8), st.integers(-1, 0)))]
            argv += ["--variant", draw(st.sampled_from(("standard", "paper")))]
            argv += ["--form", draw(st.sampled_from(("direct", "normal")))]
        else:
            dims = (n, n) if kind == "matmul" else (n,)
            m = _maybe_odd(draw, st.just(n), st.integers(1, 8))  # a length that may not match
            other = (m, m) if kind == "matmul" else (m,)
            argv += ["--a", file(draw(_array_text(dims))), "--b", file(draw(_array_text(other)))]
        if draw(st.booleans()):
            argv += ["--schedule", draw(_schedule(n))]
        argv += draw(_posit_flags())[0]
    elif cmd == "census":
        if draw(st.booleans()):
            # binary32 reads no text, and its census fills 64 MB arrays
            fmt = _maybe_odd(draw, st.just("binary16"), st.just("binary64"))
            argv = ["census", "nan", "--format", fmt]
        else:
            kernel = _maybe_odd(draw, st.sampled_from(("dot", "matmul", "outer")), st.just("cg"))
            size = _maybe_odd(draw, st.integers(1, 64), st.integers(-2, 0))
            argv = ["census", "reuse", "--kernel", kernel, "--size", str(size)]
    else:
        kernel = draw(st.sampled_from(("dot", "matmul", "outer", "cg")))
        n = _maybe_odd(draw, st.integers(1, 64), st.integers(-1, 0))
        argv = ["plan", "--kernel", kernel, "--n", str(n)]
        argv += ["--cost-model", file(draw(_cost_model()))]
        argv += ["--table"] if draw(st.booleans()) else []
    if draw(st.integers(0, 15)) == 0:  # now and then a word goes missing
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, files


class TestNoTraceback:
    @settings(
        max_examples=200,
        deadline=None,  # the host drifts, so the time bound is checked in the test
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_invocation())
    def test_main_returns_an_exit_code(self, invocation):
        argv, files = invocation
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for i, text in enumerate(files):
                paths[f"@{i}"] = path = Path(tmp) / f"{i}.txt"
                path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(paths.get(a, a)) for a in argv])
            elapsed = time.perf_counter() - start
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert elapsed < 5, (argv, elapsed)
