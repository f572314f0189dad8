"""End-to-end checks of the command-line front end via main(argv)."""

import argparse
import inspect
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import pytest

from heunzeros import cli
from heunzeros.cli import build_spec, main, make_parser
from heunzeros.scalars import QQi, exact_value, parse_scalar, scalar_to_json

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestPoly:
    def test_json_keeps_exact_fractions(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "lame", "--n", "2",
                           "--s", "1/100", "--m", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "heunzeros-family/1"
        # leading coefficient of c_4 is 1 / prod_{k<4} (k+1)(k+1/2)
        assert doc["coeffs"][4][-1] == ["2/315", "0"]
        assert doc["coeffs"][0] == [["1", "0"]]

    def test_text_factored_at_s0(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "rcheun", "--gamma",
                           "1/2", "--delta", "1/2", "--s", "0", "--m", "3")
        assert code == 0
        assert "c_3(B): [0, 16/45, 4/9, 4/45]" in out

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "poly", "--family", "mathieu", "--q", "2",
                           "--m", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,k,coefficient"
        # c_0 = 1, c_1 has two terms, c_2 has three
        assert len(lines) == 1 + 1 + 2 + 3


class TestZeros:
    def test_text_output_with_labels(self, capsys):
        code, out, _ = run(capsys, "zeros", "--family", "mathieu", "--q", "i",
                           "--m", "8")
        assert code == 0
        assert "zeros of c_8(B)" in out
        assert "[ReducedConfluentHeun]" in out
        assert "-0.1431861828" in out
        assert "k=  0" in out

    def test_csv_header_and_degree(self, capsys):
        code, out, _ = run(capsys, "zeros", "--family", "lame", "--n", "2",
                           "--s", "1/2", "--m", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,residual,label_k"
        assert len(lines) == 5
        assert lines[1].startswith("-0.316987298")

    def test_whittaker_hill_needs_no_a0(self, capsys):
        # A0 fixes only B, which zeros solves for
        code, out, err = run(capsys, "zeros", "--family", "whill", "--A1",
                             "9/100", "--h", "1/200", "--m", "4")
        assert code == 0, err
        assert "[ConfluentHeun]" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "zeros", "--family", "lame", "--n", "2",
                           "--s", "1/2", "--m", "4", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "heunzeros-zeros/1"
        assert doc["m"] == 4
        assert len(doc["zeros"]) == 4
        assert doc["zeros"][0]["label_k"] == 0


class TestTable:
    def test_row_cells_to_displayed_digits(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "lame", "--n", "2",
                           "--s", "1/2", "--m", "40", "--k-max", "3")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        k3 = next(r for r in rows if r and r[0] == "3")
        assert k3 == ["3", "-9", "-7.125000000", "-6.939508929",
                      "-6.869999689"]

    def test_second_order_missing_only_at_the_edge(self, capsys):
        # at top degree 4 the estimates are for c_4, which has no
        # second-order formula at its edge indices k = 2, 3
        code, out, _ = run(capsys, "table", "--family", "lame", "--n", "2",
                           "--s", "1/2", "--m", "4", "--k-max", "3",
                           "--format", "json")
        assert code == 0
        for row in json.loads(out)["rows"]:
            cells = [row["order0"], row["order1"], row["order2"],
                     row["zeros"]["4"]]
            missing = [i for i, cell in enumerate(cells) if cell == "-"]
            assert missing == ([2] if row["k"] >= 2 else [])

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "lame", "--n", "2",
                           "--s", "1/100", "--m", "8,12", "--k-max", "2",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "heunzeros-table/1"
        assert [row["k"] for row in doc["rows"]] == [0, 1, 2]
        assert set(doc["rows"][0]["zeros"]) == {"8", "12"}

    def test_inexact_input_keeps_its_digits(self, capsys):
        # 5e-1 is a 256-bit float, 1/2 stays exact; 30 digits of the
        # estimate and of the zero must agree
        tables = []
        for s in ("5e-1", "1/2"):
            code, out, _ = run(capsys, "table", "--family", "lame", "--n",
                               "2", "--s", s, "--m", "8", "--k-max", "2",
                               "--digits", "30")
            assert code == 0
            tables.append(out.splitlines()[3].split())
        assert tables[0] == tables[1]
        assert tables[0][3] == "-3.30937500000000000000000000000"
        assert tables[0][4] == "-3.40417995499327825798568889025"


class TestTrack:
    def test_text_summary_line(self, capsys):
        code, out, _ = run(capsys, "track", "--family", "lame", "--n", "2",
                           "--s", "1/100", "--m", "16,20", "--digits", "6")
        assert code == 0
        assert "degrees (16, 20): n_stable(6) = " in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "track", "--family", "lame", "--n", "2",
                           "--s", "1/100", "--m", "16,20", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "heunzeros-report/1"
        assert doc["m_list"] == [16, 20]
        assert doc["n_stable"] >= 8

    @pytest.mark.parametrize("fmt,digits", [("csv", "30"), ("json", "12")])
    def test_zeros_print_as_zeros_prints_them(self, capsys, fmt, digits):
        # track's JSON gives 17 digits, as zeros does at --digits 12;
        # its CSV gives digits + 5, as zeros does
        family = ("--family", "mathieu", "--q", "2")
        _, track, _ = run(capsys, "track", *family, "--m", "8,12",
                          "--digits", digits, "--format", fmt)
        _, zeros, _ = run(capsys, "zeros", *family, "--m", "12",
                          "--digits", digits, "--format", fmt)
        if fmt == "csv":
            got = {tuple(line.split(",")[1:3])
                   for line in track.splitlines()[1:]}
            want = {tuple(line.split(",")[:2])
                    for line in zeros.splitlines()[1:]}
        else:
            got = {tuple(t["entries"]["12"])
                   for t in json.loads(track)["tracks"]}
            want = {(z["re"], z["im"]) for z in json.loads(zeros)["zeros"]}
        assert got == want


class TestD2:
    def test_s0_closed_form_is_consistent(self, capsys):
        code, out, _ = run(capsys, "d2", "--family", "mathieu", "--q", "0",
                           "--B", "-0.25")
        assert code == 0
        assert "d2 estimate  = 1.000000000" in out
        assert "closed form  = 1.000000000" in out

    def test_search_finds_nearby_zero(self, capsys):
        code, out, _ = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                           "--B", "1.4", "--search", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "heunzeros-d2/1"
        assert doc["zero_search"]["B"] == "1.378489221"

    def test_search_result_in_csv(self, capsys):
        argv = ("d2", "--family", "mathieu", "--q", "2", "--B", "1.4",
                "--search")
        _, out, _ = run(capsys, *argv, "--format", "csv")
        header, row = out.strip().splitlines()
        assert header == ("B,K,estimate,tail,error_indicator,search_B,"
                          "search_d2,search_iterations,search_K_used")
        cells = dict(zip(header.split(","), row.split(",")))
        _, out, _ = run(capsys, *argv, "--format", "json")
        for key, value in json.loads(out)["zero_search"].items():
            assert cells[f"search_{key}"] == str(value)
        assert cells["search_B"] == "1.378489221"

    def test_search_runs_the_tail_at_the_start_once(self, capsys,
                                                    monkeypatch):
        # the printed tail at B0 is the search's first point: one kernel
        # run at B0's fixed-point z, the other at the normaliser's z = 0
        from heunzeros import rootfind, tracking
        from heunzeros.scalars import _to_fixed, to_mpc, working_precision

        zs, kernel = [], rootfind._continuant_kernel

        def counting(rows, F, z, stops, derivative=False, real=False,
                     start=None):
            zs.append(z)
            return kernel(rows, F, z, stops, derivative, real, start)

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        monkeypatch.setattr(tracking, "_d2_tail", (None, ()))
        monkeypatch.setattr(tracking, "_d2_normaliser", (None, ()))
        code, out, _ = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                           "--B", "1.4", "--search")
        assert code == 0 and "zero search  : B = 1.378489221" in out
        with working_precision(256):
            b0 = _to_fixed(to_mpc(QQi(Fraction(7, 5))),
                           256 + rootfind._KERNEL_GUARD)
        assert zs[:2] == [b0, (0, 0)]
        assert zs.count(b0) == 1

    def test_midpoint_route_included(self, capsys):
        code, out, _ = run(capsys, "d2", "--family", "mathieu", "--q", "1/2",
                           "--B", "1", "--midpoint", "--format", "json")
        doc = json.loads(out)
        est = float(doc["estimate"].split("+")[0].strip("()"))
        mid = float(doc["midpoint"].split("+")[0].strip("()"))
        assert abs(est - mid) < 1e-8


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "recurrence")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    # recurrence runs in test_single_suite_passes
    @pytest.mark.parametrize("suite", ["perturbation", "rootfind", "tracking",
                                       "oracle"])
    def test_other_suites_pass(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out

    DECIMAL_EXPONENT_SPEC = ("--family", "cheun", "--gamma", "1/3",
                             "--delta", "1e-1", "--alpha", "2", "--s", "1/5")

    def test_every_suite_runs_on_a_decimal_exponent_spec(self, capsys):
        # delta = 1e-1 is the exact value of its 256-bit float, so every
        # check runs and compares with ==.  The label check fails here as
        # it does at the exact delta = 1/10: match_zeros pairs the top
        # zero of c_12 (label 11) with the label-12 zero of c_16, the
        # nearer one
        code, out, _ = run(capsys, "verify", *self.DECIMAL_EXPONENT_SPEC)
        assert code == 1, out
        lines = out.splitlines()
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL  [tracking] cross-degree matching preserves labels "
            "[ConfluentHeun]",
            "1 check(s) failed",
        ]
        assert len(lines) == 14

    def test_decimal_exponent_spec_catches_a_2_to_the_minus_200_nudge(
            self, capsys, monkeypatch):
        real = cli.eval_sequence

        def nudged(*args, **kwargs):
            seq = real(*args, **kwargs)
            seq[5] *= 1 + QQi(Fraction(1, 2 ** 200))
            return seq
        monkeypatch.setattr(cli, "eval_sequence", nudged)
        code, out, _ = run(capsys, "verify", *self.DECIMAL_EXPONENT_SPEC,
                           "--suite", "recurrence")
        assert code == 1
        assert ("FAIL  [recurrence] series matches the defining equation "
                "[ConfluentHeun]") in out.splitlines()

    def test_label_check_catches_a_swapped_pair(self, capsys, monkeypatch):
        real = cli.match_zeros

        def swapped(za, zb):
            pairs = real(za, zb).pairs
            (a0, b0, d0), (a1, b1, d1) = pairs[:2]
            return SimpleNamespace(pairs=[(a0, b1, d0), (a1, b0, d1)]
                                   + list(pairs[2:]))
        monkeypatch.setattr(cli, "match_zeros", swapped)
        code, out, _ = run(capsys, "verify", "--suite", "tracking",
                           "--family", "mathieu", "--q", "2")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL  [tracking] cross-degree matching preserves labels "
            "[ReducedConfluentHeun]")

    def test_estimate_seeds_that_meet_fail_the_check(self, capsys):
        # at s = 1/2 two perturbative estimates polish to one zero of c_8:
        # the seeding check fails with the reason, and the suite goes on
        code, out, _ = run(capsys, "verify", "--suite", "rootfind",
                           "--family", "lame", "--n", "2", "--s", "1/2")
        assert code == 1
        assert out.splitlines() == [
            "FAIL  [rootfind] seeding strategies agree on c_8 zeros [Heun]  "
            "(estimate seeds: the disks of 2 of 8 polished seeds overlap "
            "(indices [3, 4]))",
            "PASS  [rootfind] zero residuals below tolerance [Heun]",
            "1 check(s) failed",
        ]

    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_precision_flag_reaches_every_solve(self, capsys, monkeypatch,
                                                bits):
        seen = {}

        def spy(name, real):
            def call(*args, **kwargs):
                bound = inspect.signature(real).bind(*args, **kwargs)
                bound.apply_defaults()
                seen.setdefault(name, set()).add(
                    bound.arguments["precision_bits"])
                return real(*args, **kwargs)
            return call

        names = ("solve_zeros", "convergence_report", "find_all_roots",
                 "ode_residual", "d2_sequence", "d2_closed_form_s0",
                 "d2_by_midpoint_matching")
        for name in names:
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        code, out, _ = run(capsys, "verify", "--precision-bits", str(bits))
        assert code == 0, out
        assert "FAIL" not in out
        assert seen == {name: {bits} for name in names}


class TestExitCodes:
    def test_argparse_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--family", "lame", "--n", "2", "--s", "1/2"])
        assert exc.value.code == 2

    def test_invalid_parameters_are_4(self, capsys):
        code, out, err = run(capsys, "zeros", "--family", "rcheun", "--gamma",
                             "0", "--delta", "1/2", "--s", "1", "--m", "4")
        assert code == 4
        assert out == ""
        assert json.loads(err)["code"] == 4

    def test_a_repeated_degree_is_4_and_named(self, capsys):
        code, out, err = run(capsys, "track", "--family", "mathieu", "--q",
                             "2", "--m", "30,30")
        assert (code, out) == (4, "")
        assert json.loads(err) == {
            "error": "m_list needs at least two distinct degrees, got "
                     "30, 30", "code": 4}

    # delta - 1 = 2^-60: delta is an integer at 53 bits, but not at 256
    @pytest.mark.parametrize("extra,want", [
        ([], 0), (["--precision-bits", "53"], 4),
    ], ids=["default-bits", "53-bits"])
    def test_d2_checks_delta_at_the_precision(self, capsys, extra, want):
        code, out, err = run(capsys, "d2", "--family", "rcheun", "--gamma",
                             "1/2", "--delta",
                             "1152921504606846977/1152921504606846976",
                             "--s", "1/10", "--B", "1", "--K", "100", *extra)
        assert code == want, err
        if want:
            assert out == ""
            assert "non-integer gamma and delta" in json.loads(err)["error"]
        else:
            assert "(K = 100)" in out

    # at s = 9/10 the z = 1 series has radius |1 - 1/s| = 1/9; at
    # s = 2/3 exactly 1/2, so it cannot be trusted at w = 1/2 either
    @pytest.mark.parametrize("s,K,radius", [
        ("9/10", "1600", "|1 - 1/s| = 0.111"),
        ("2/3", "100", "|1 - 1/s| = 0.5"),
    ], ids=["s-9/10", "s-2/3"])
    def test_midpoint_outside_a_series_disk_is_4(self, capsys, s, K, radius):
        code, out, err = run(capsys, "d2", "--family", "heun", "--gamma",
                             "1/2", "--delta", "1/2", "--alpha", "3/2",
                             "--beta=-1", "--s", s, "--B=-2.3786", "--K", K,
                             "--midpoint")
        assert code == 4
        assert out == ""
        error = json.loads(err)["error"]
        assert "outside the disk of the z = 1 series" in error
        assert radius in error

    def test_nonconvergence_is_3(self, capsys):
        # near the exceptional point q = 1.468768613785141992i two zeros
        # of c_30 lie 6e-10 apart, inside the 2^-26 disk floor of 53 bits
        code, out, err = run(capsys, "zeros", "--family", "mathieu", "--q",
                             "1.468768613785141992i", "--m", "30",
                             "--precision-bits", "53")
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == 3
        assert "the disks of 2 of 30 polished seeds overlap" in doc["error"]

    def test_unresolvable_zeros_fail_fast_with_3(self, capsys, monkeypatch):
        # at 64 bits the 100 zeros cannot be resolved to the default
        # tolerance: both rungs of the seed ladder fail and are named,
        # after a bounded number of polynomial evaluations
        from heunzeros import rootfind

        calls = []
        kernel = rootfind._continuant_kernel

        def counting(rows, F, z, stops, derivative=False,
                     real=False):
            calls.append(z)
            return kernel(rows, F, z, stops, derivative, real)

        monkeypatch.setattr(rootfind, "_continuant_kernel", counting)
        code, out, err = run(capsys, "zeros", "--family", "cheun", "--gamma",
                             "1/2", "--delta", "1/2", "--alpha", "5",
                             "--s=-20", "--m", "100", "--precision-bits",
                             "64")
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == 3
        assert "degree-100 polynomial: 53 bits: " in doc["error"]
        assert "; 64 bits: " in doc["error"]
        assert doc["error"].endswith("precision_bits = 64 is too low; "
                                     "raise it")
        rungs = 2
        assert len(calls) <= rungs * 100 * (rootfind._POLISH_STEPS + 2)

    def test_secant_iteration_cap_is_3(self, capsys, monkeypatch):
        from heunzeros import tracking

        monkeypatch.setattr(tracking, "_D2_MAX_STEPS", 1)
        code, out, err = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                             "--B", "1.4", "--search")
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["code"] == 3
        assert "did not settle in 1 iterations from B0 = " in doc["error"]

    def test_tol_below_the_double_range_is_read_at_the_precision(self,
                                                                 capsys):
        # 1e-400 underflows a double; 2048 bits resolve it, and the
        # secant goes on until d2 is far below the double range too
        code, out, err = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                             "--B", "1.4", "--K", "100", "--search",
                             "--precision-bits", "2048", "--tol", "1e-400",
                             "--format", "json")
        assert code == 0, err
        search = json.loads(out)["zero_search"]
        assert search["B"] == "1.378489221"
        assert abs(mp.mpf(search["d2"])) < mp.mpf("1e-400")

    def test_exact_tol_is_accepted(self, capsys):
        code, out, err = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                             "--B", "1.4", "--K", "400", "--search",
                             "--tol", "1/10000000000")
        assert code == 0, err
        assert "B = 1.378489221" in out

    @pytest.mark.parametrize("tol", ["0", "-1e-5", "1+2i"],
                             ids=lambda tol: f"d2-{tol}")
    def test_tol_must_be_positive_and_real(self, capsys, tol):
        code, out, err = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                             "--B", "1.4", "--search", f"--tol={tol}")
        assert code == 4
        assert out == ""
        assert "--tol" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ["zeros", "--family", "mathieu", "--q", "2", "--m", "4",
         "--seed-policy", "circles"],
        ["poly", "--family", "mathieu", "--q", "2", "--tol", "1e-5"],
        ["track", "--family", "mathieu", "--q", "2", "--order", "1"],
        ["verify", "--format", "json"],
        ["zeros", "--family", "mathieu", "--q", "2", "--m", "4", "--a", "3"],
        ["verify", "--family", "whill", "--A0", "1", "--A1", "1", "--h", "1"],
        ["zeros", "--family", "mathieu", "--q", "2", "--m", "4", "--prec",
         "64"],
        ["zeros", "--family", "mathieu", "--q", "2", "--m", "4", "--order",
         "2"],
        ["table", "--family", "mathieu", "--q", "2", "--m", "4", "--order",
         "2"],
        ["zeros", "--family", "mathieu", "--q", "2", "--m", "4", "--tol",
         "1e-5"],
    ], ids=["deleted-seeding-option", "poly-tol", "track-order",
            "verify-format", "zeros-a", "verify-A0", "abbreviated-option",
            "zeros-order", "table-order", "zeros-tol"])
    def test_unread_option_is_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", [
        ["--digits", "0"], ["--digits=-3"], ["--precision-bits=-5"],
        ["--precision-bits", "0"], ["--digits", "2.5"],
    ], ids=["digits-0", "digits-negative", "bits-negative", "bits-0",
            "digits-fraction"])
    def test_counts_must_be_positive_integers(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--family", "mathieu", "--q", "2", "--m", "2",
                  *option])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", ["-1", "1.5"])
    def test_k_max_must_be_a_non_negative_integer(self, capsys, k_max):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "mathieu", "--q", "2", "--m", "4",
                  f"--k-max={k_max}"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        # k-max 0 is the table's first row alone
        code, out, _ = run(capsys, "table", "--family", "mathieu", "--q",
                           "2", "--m", "4", "--k-max", "0")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["k", "0"]

    @pytest.mark.parametrize("m", ["-1", "1.5"])
    def test_poly_degree_must_be_a_non_negative_integer(self, capsys, m):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--family", "mathieu", "--q", "2", f"--m={m}"])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        # degree 0 is c_0 = 1 alone
        code, out, _ = run(capsys, "poly", "--family", "mathieu", "--q",
                           "2", "--m", "0")
        assert code == 0
        assert out.splitlines() == ["c_0(B): [1]"]

    @pytest.mark.parametrize("command,m", [
        ("zeros", "0"), ("zeros", "-1"), ("table", "8,-3"),
        ("track", "0,4"),
    ])
    def test_solved_degrees_must_be_positive_integers(self, capsys,
                                                      command, m):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "mathieu", "--q", "2", f"--m={m}"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("K", ["1", "-3", "0", "2.5"])
    def test_d2_tail_length_must_be_at_least_2(self, capsys, K):
        with pytest.raises(SystemExit) as exc:
            main(["d2", "--family", "mathieu", "--q", "2", "--B", "1.4",
                  f"--K={K}"])
        assert exc.value.code == 2
        assert "K >= 2" in capsys.readouterr().err
        # K = 2 is the shortest tail
        code, out, err = run(capsys, "d2", "--family", "mathieu", "--q",
                             "2", "--B", "1.4", "--K", "2")
        assert code == 0, err
        assert "(K = 2)" in out

    @pytest.mark.parametrize("family", [
        ["--family", "lame", "--n", "2", "--s", "1/2", "--eta", "8"],
        ["--family", "mathieu", "--q", "2", "--a", "1"],
        ["--family", "whill", "--A0", "1", "--A1", "1", "--h", "1"],
    ], ids=["lame-eta", "mathieu-a", "whill-A0"])
    def test_b_given_twice_is_4(self, capsys, family):
        code, out, err = run(capsys, "d2", *family, "--B", "1")
        assert code == 4
        assert out == ""
        assert "not both" in json.loads(err)["error"]

    @pytest.mark.parametrize("family,message", [
        (["--family", "mathieu", "--q", "2"], "d2 needs --B or --a"),
        (["--family", "rcheun", "--gamma", "1/2", "--delta", "1/2",
          "--s", "2"], "d2 needs --B"),
    ], ids=["mathieu", "rcheun"])
    def test_d2_without_b_names_the_flags_that_give_it(self, capsys, family,
                                                       message):
        code, out, err = run(capsys, "d2", *family)
        assert code == 4
        assert out == ""
        assert json.loads(err)["error"] == message

    def test_parameter_the_family_does_not_read_is_4(self, capsys):
        code, out, err = run(capsys, "zeros", "--family", "lame", "--n", "2",
                             "--s", "1/2", "--q", "3", "--m", "4")
        assert code == 4
        assert out == ""
        assert "--q" in json.loads(err)["error"]
        # verify without --family runs its own specs and reads no parameter
        code, out, err = run(capsys, "verify", "--suite", "recurrence",
                             "--q", "3")
        assert code == 4
        assert out == ""
        assert "--family" in json.loads(err)["error"]

    def test_missing_family_parameter_is_4(self, capsys):
        code, _, err = run(capsys, "zeros", "--family", "lame", "--n", "2",
                           "--m", "4")
        assert code == 4
        assert "error" in json.loads(err)


class TestScalarParsing:
    def test_exponent_input_uses_requested_precision(self):
        x = parse_scalar("1e-1", 256)
        with mp.workprec(256):
            assert x == mp.mpf(1) / 10
        assert parse_scalar("1e-1", 64) != x
        with mp.workprec(64):
            assert parse_scalar("1e-1", 64) == mp.mpf(1) / 10

    def test_precision_flag_reaches_the_spec(self):
        args = make_parser().parse_args(
            ["zeros", "--family", "mathieu", "--q", "1e-1", "--m", "4",
             "--precision-bits", "200"])
        spec, _ = build_spec(args)
        with mp.workprec(200):
            assert spec.s == mp.mpf(1) / 10

    @pytest.mark.parametrize("argv,names", [
        (["--family", "lame", "--n", "3e-1", "--s", "1/2"], ("alpha", "beta")),
        (["--family", "whill", "--A0", "1", "--A1", "3e-1", "--h", "1/10"],
         ("B",)),
        (["--family", "mathieu", "--q", "2", "--a", "3e-1"], ("B",)),
    ])
    @pytest.mark.parametrize("bits", [256, 512])
    def test_derived_parameters_keep_the_requested_precision(self, argv,
                                                             names, bits):
        # each value the family map derives from an input with an
        # exponent is exact, with a denominator as wide as the input's
        # rounded to bits, not a double's 53
        spec, B = build_spec(make_parser().parse_args(
            ["d2", *argv, "--precision-bits", str(bits)]))
        for name in names:
            x = B if name == "B" else getattr(spec, name)
            assert isinstance(x, QQi), name
            assert x.re.denominator.bit_length() > bits - 8, name

    def test_complex_exponent_input(self):
        z = parse_scalar("1.5e-3+2i", 256)
        with mp.workprec(256):
            assert z == mp.mpc(mp.mpf(15) / 10000, 2)
        assert parse_scalar("2e1-i", 256) == mp.mpc(20, -1)
        assert parse_scalar("-2.5e1i", 256) == mp.mpc(0, -25)

    def test_decimals_stay_exact_and_exponents_do_not(self):
        assert parse_scalar("0.3") == QQi("3/10")
        assert isinstance(parse_scalar("0.3"), QQi)
        # an exponent rounds to the precision: 3e-1 is the 256-bit float
        # nearest 3/10, read exactly
        near = parse_scalar("3e-1", 256)
        assert isinstance(near, QQi) and near != QQi("3/10")
        assert abs(near.re - Fraction(3, 10)) < Fraction(1, 2 ** 257)
        assert parse_scalar("5e-1", 256) == QQi("1/2")

    @pytest.mark.parametrize("argv", [
        ["zeros", "--family", "mathieu", "--q", "nan", "--m", "4"],
        ["d2", "--family", "mathieu", "--q", "2", "--B", "nan"],
        ["zeros", "--family", "mathieu", "--q=-inf", "--m", "4"],
    ], ids=["q-nan", "B-nan", "q-inf"])
    def test_non_finite_is_invalid(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "not a finite number" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv", [
        ["zeros", "--family", "mathieu", "--q", "1e999999999999", "--m", "4"],
        ["d2", "--family", "mathieu", "--q", "2", "--B", "1e999999999999"],
    ], ids=["zeros-q", "d2-B"])
    def test_magnitudes_beyond_the_double_range_are_invalid(self, capsys,
                                                            argv):
        # refused as read, before a fixed-point kernel tries to hold the
        # value in an int of about 3.3e12 bits
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "magnitude 2^1024 or more" in json.loads(err)["error"]

    @pytest.mark.parametrize("bits", ["1", "2"])
    def test_d2_runs_at_one_and_two_bits(self, capsys, bits):
        code, out, err = run(capsys, "d2", "--family", "mathieu", "--q", "2",
                             "--B", "1.3", "--precision-bits", bits)
        assert code == 0, err
        assert out.startswith("d2 estimate")

    def test_garbage_is_invalid(self, capsys):
        code, _, err = run(capsys, "zeros", "--family", "mathieu", "--q",
                           "1e-3+", "--m", "4")
        assert code == 4
        assert "cannot parse scalar" in json.loads(err)["error"]

    @pytest.mark.parametrize("q", ["1_0", "1e3_0", "1_0+2i", "1/0"])
    def test_underscores_and_zero_denominators_are_invalid(self, capsys, q):
        code, out, err = run(capsys, "poly", "--family", "mathieu",
                             f"--q={q}", "--m", "1")
        assert code == 4
        assert out == ""
        assert "cannot parse scalar" in json.loads(err)["error"]

    def test_an_exponent_in_any_part_makes_a_big_float(self, capsys):
        # every part is rounded to a 64-bit float, and the spec holds
        # that float's exact value
        code, out, _ = run(capsys, "poly", "--family", "mathieu", "--q",
                           "1/3+1e-3i", "--m", "1", "--format", "json",
                           "--precision-bits", "64")
        assert code == 0
        spec = json.loads(out)["spec"]
        assert spec["field"] == "exact"
        with mp.workprec(64):
            want = mp.mpc(mp.mpf(1) / 3, mp.mpf(1) / 1000)
        assert spec["s"] == scalar_to_json(exact_value(want))

    def test_a_tiny_exponent_is_invalid_at_once(self, capsys):
        # as an exact value, 1e-1000000000 has a denominator of 415 MB
        start = time.monotonic()
        code, out, err = run(capsys, "zeros", "--family", "mathieu",
                             "--q", "1e-1000000000", "--m", "4")
        assert time.monotonic() - start < 1
        assert code == 4
        assert out == ""
        assert "nonzero magnitude below 2^-1280" in json.loads(err)["error"]

    def test_a_small_exponent_still_solves(self, capsys):
        code, out, err = run(capsys, "zeros", "--family", "mathieu", "--q",
                             "1e-300", "--m", "4")
        assert code == 0, err
        assert out.startswith("zeros of c_4(B)")


class TestOneField:
    """A decimal with an exponent and the fraction it rounds to exactly
    make one spec, so every output is the same."""

    LAME = ("--family", "lame", "--n", "2")
    ARGV = [
        ("zeros", "--m", "8"),
        ("table", "--m", "8,12", "--k-max", "3"),
        ("track", "--m", "8,12"),
        ("d2", "--B=-3.1", "--K", "100", "--midpoint"),
    ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", ARGV, ids=[a[0] for a in ARGV])
    def test_exponent_and_fraction_print_the_same(self, capsys, argv, fmt):
        outs = []
        for s in ("5e-1", "1/2"):
            code, out, err = run(capsys, argv[0], *self.LAME, "--s", s,
                                 *argv[1:], "--format", fmt)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]


def test_option_surface():
    parser = make_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert not parser.allow_abbrev
    assert all(not parser.allow_abbrev for parser in commands.values())
    flags = {name: {flag for action in parser._actions
                    for flag in action.option_strings}
             for name, parser in commands.items()}
    for flag in ("--B", "--eta", "--a", "--A0"):
        assert [name for name in commands if flag in flags[name]] == ["d2"]
    spec_flags = {f"--{param}" for params, _, _ in cli._FAMILIES.values()
                  for param in params}
    for name in commands:
        assert "--family" in flags[name]
        assert spec_flags <= flags[name], name
    settable = sum(len(names - {"-h", "--help"}) for names in flags.values())
    assert settable == 95


def test_two_calls_build_one_parser(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    make_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        code, out, _ = run(capsys, "poly", "--family", "mathieu", "--q", "2",
                           "--m", "1")
        assert code == 0 and out.startswith("c_0(B): [1]")
    assert built.count("heunzeros") == 1


def _numpy_and_scipy_loaded_by(probe: str) -> str:
    """The sorted list of numpy and scipy among the modules a fresh
    interpreter has loaded after running probe, as printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe += "; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip()


def test_cli_import_loads_no_numpy_or_scipy():
    assert _numpy_and_scipy_loaded_by("import sys, heunzeros.cli") == "[]"


def test_one_solve_loads_no_numpy_or_scipy():
    # the solve path keeps the memory of a bare solve_zeros caller low
    probe = ("import sys, heunzeros.cli; "
             "from heunzeros.families import FamilyKind, RecurrenceSpec; "
             "from heunzeros.tracking import solve_zeros; "
             "solve_zeros(RecurrenceSpec(kind=FamilyKind.CONFLUENT, "
             "gamma='1/2', delta='1/2', s=-20, alpha=5), 16)")
    assert _numpy_and_scipy_loaded_by(probe) == "[]"


@pytest.mark.parametrize("argv", [
    ["track", "--family", "mathieu", "--q", "2", "--m", "30,40"],
    ["verify"],
], ids=["track", "verify"])
def test_matching_commands_load_no_numpy_or_scipy(argv):
    # both commands match zero sets (match_zeros)
    probe = ("import sys, contextlib, io, heunzeros.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = heunzeros.cli.main({argv!r})\n"
             "assert code == 0, code")
    assert _numpy_and_scipy_loaded_by(probe) == "[]"


class TestOutputAndConfig:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_output_file(self, capsys, tmp_path, fmt):
        # --output writes exactly what stdout would have shown
        argv = ("zeros", "--family", "lame", "--n", "2", "--s", "1/2",
                "--m", "4", "--format", fmt)
        _, shown, _ = run(capsys, *argv)
        target = tmp_path / f"zeros.{fmt}"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == shown
        if fmt == "json":
            doc = json.loads(target.read_text())
            assert doc["schema"] == "heunzeros-zeros/1"

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_output_is_4(self, capsys, tmp_path, where):
        target = tmp_path if where == "directory" else tmp_path / "no" / "x"
        code, out, err = run(capsys, "poly", "--family", "mathieu", "--q",
                             "2", "--m", "1", "--output", str(target))
        assert code == 4
        assert out == ""
        doc = json.loads(err)
        assert doc["code"] == 4
        assert repr(str(target)) in doc["error"]
