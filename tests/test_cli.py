"""End-to-end checks of the command-line front end via main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from heunzeros.cli import build_spec, main, make_parser, parse_cli_scalar
from heunzeros.scalars import QQi

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

    def test_nonconvergence_is_3(self, capsys):
        code, _, err = run(capsys, "zeros", "--family", "lame", "--n", "2",
                           "--s", "1/2", "--m", "8", "--precision-bits", "64",
                           "--tol", "1e-70")
        assert code == 3
        assert json.loads(err)["code"] == 3

    def test_missing_family_parameter_is_4(self, capsys):
        code, _, err = run(capsys, "zeros", "--family", "lame", "--n", "2",
                           "--m", "4")
        assert code == 4
        assert "error" in json.loads(err)


class TestScalarParsing:
    def test_exponent_input_uses_requested_precision(self):
        x = parse_cli_scalar("1e-1", 256)
        with mp.workprec(256):
            assert x == mp.mpf(1) / 10
        assert parse_cli_scalar("1e-1", 64) != x
        with mp.workprec(64):
            assert parse_cli_scalar("1e-1", 64) == mp.mpf(1) / 10

    def test_precision_flag_reaches_the_spec(self):
        args = make_parser().parse_args(
            ["zeros", "--family", "mathieu", "--q", "1e-1", "--m", "4",
             "--precision-bits", "200"])
        spec, _ = build_spec(args)
        with mp.workprec(200):
            assert spec.s == mp.mpf(1) / 10

    def test_complex_exponent_input(self):
        z = parse_cli_scalar("1.5e-3+2i", 256)
        with mp.workprec(256):
            assert z == mp.mpc(mp.mpf(15) / 10000, 2)
        assert parse_cli_scalar("2e1-i") == mp.mpc(20, -1)
        assert parse_cli_scalar("-2.5e1i") == mp.mpc(0, -25)

    def test_decimals_stay_exact_and_exponents_do_not(self):
        assert parse_cli_scalar("0.3") == QQi("3/10")
        assert isinstance(parse_cli_scalar("0.3"), QQi)
        half = parse_cli_scalar("5e-1")
        assert isinstance(half, mp.mpf) and half == mp.mpf("0.5")

    def test_garbage_is_invalid(self, capsys):
        code, _, err = run(capsys, "zeros", "--family", "mathieu", "--q",
                           "1e-3+", "--m", "4")
        assert code == 4
        assert "cannot parse scalar" in json.loads(err)["error"]


def test_cli_import_loads_no_numpy_or_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = ("import sys, heunzeros.cli; "
             "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestOutputAndConfig:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "zeros.json"
        code, out, _ = run(capsys, "zeros", "--family", "lame", "--n", "2",
                           "--s", "1/2", "--m", "4", "--format", "json",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["schema"] == "heunzeros-zeros/1"
