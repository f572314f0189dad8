"""The README's examples and the scripts run as documented."""

import json
import re
import runpy
from pathlib import Path

import pytest

from heunzeros.cli import main
from heunzeros.rootfind import NonConvergenceError

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "stable zeros" in capsys.readouterr().out


README_COMMANDS = re.findall(r"```\n\$ heunzeros (.*?)\n(.*?)```",
                             (ROOT / "README.md").read_text(), re.S)


def test_readme_has_every_command_example():
    assert [cmd.split()[0] for cmd, _ in README_COMMANDS] == [
        "poly", "zeros", "table", "track", "d2", "verify"]


@pytest.mark.parametrize("command,shown", README_COMMANDS,
                         ids=[cmd.split()[0] for cmd, _ in README_COMMANDS])
def test_readme_command_prints_what_is_shown(capsys, command, shown):
    # a "..." line elides the rest of the output
    shown = shown.splitlines()
    cut = next((i for i, line in enumerate(shown) if line.strip() == "..."),
               None)
    assert main(command.split()) == 0
    assert capsys.readouterr().out.splitlines()[:cut] == shown[:cut]


def test_zero_tables_script_matches_cli_table(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "zero_tables.py"))
    assert script["main"](["lame-1/2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("== "))
    end = next(i for i, line in enumerate(lines) if line.startswith("tail "))
    table = lines[start + 1:end]
    assert table[4].split() == ["3", "-9", "-7.125000000", "-6.939508929",
                                "-14.96416340", "-7.875606843",
                                "-6.870001746", "-6.869999689"]
    assert main(["table", "--family", "lame", "--n", "2", "--s", "1/2",
                 "--m", "4,8,30,40", "--k-max", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == table


@pytest.mark.parametrize("error,reported", [
    (NonConvergenceError("flat d2 sequence"), True),
    (RuntimeError("a bug in the search"), False),
])
def test_d2_zero_hunt_reports_only_nonconvergence(capsys, monkeypatch,
                                                  error, reported):
    script = runpy.run_path(str(ROOT / "scripts" / "d2_zero_hunt.py"))

    def failing_search(*args, **kwargs):
        raise error

    monkeypatch.setitem(script["main"].__globals__, "d2_zero_search",
                        failing_search)
    argv = ["--m", "8,12", "--digits", "6"]
    if reported:
        assert script["main"](argv) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert rows
        assert all(row.endswith("search failed: flat d2 sequence")
                   for row in rows)
    else:
        with pytest.raises(RuntimeError, match="a bug in the search"):
            script["main"](argv)


@pytest.mark.parametrize("script,argv,code", [
    ("d2_zero_hunt.py", ["--fam", "mathieu", "--m", "4,8"], 2),
    ("d2_zero_hunt.py", ["--m", "4,8", "--dig", "3"], 2),
    ("d2_zero_hunt.py", ["--digits=-2"], 2),
    ("d2_zero_hunt.py", ["--precision-bits", "0"], 2),
    ("d2_zero_hunt.py", ["--family", "mathieu", "--q", "2", "--m", "0,4"], 2),
    ("d2_zero_hunt.py", ["--m", "x"], 2),
    ("d2_zero_hunt.py", ["--K", "1"], 2),
    ("d2_zero_hunt.py", ["--family", "mathieu", "--q", "2", "--m", "4"], 4),
    ("d2_zero_hunt.py", ["--tol", "abc", "--m", "4,8"], 4),
    ("d2_zero_hunt.py", ["--s", "1e-2", "--m", "4,8"], 0),
    ("zero_tables.py", ["mathieu-2", "--digits", "0"], 2),
    ("zero_tables.py", ["mathieu-2", "--prec", "64"], 2),
    ("zero_tables.py", ["mathieu-2", "--precision-bits=-5"], 2),
], ids=["hunt-abbreviated-family", "hunt-abbreviated-digits",
        "hunt-digits-negative", "hunt-bits-0", "hunt-degree-0",
        "hunt-degree-not-integer", "hunt-K-1", "hunt-one-degree",
        "hunt-tol-not-a-number", "hunt-s-exponent",
        "tables-digits-0", "tables-abbreviated-bits", "tables-bits-negative"])
def test_scripts_parse_options_as_the_cli_does(capsys, script, argv, code):
    # exit 2 for what argparse refuses, 4 for what the library refuses;
    # a refused run prints nothing to stdout
    main_ = runpy.run_path(str(ROOT / "scripts" / script))["main"]
    try:
        got = main_(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    out, err = capsys.readouterr()
    assert (out == "") is (code != 0)
    if code == 4:
        assert json.loads(err)["code"] == 4


def test_hunt_names_a_repeated_degree(capsys):
    # the report drops the repeat, so the message names what was given
    main_ = runpy.run_path(str(ROOT / "scripts" / "d2_zero_hunt.py"))["main"]
    assert main_(["--m", "30,30"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == \
        "m_list needs at least two distinct degrees, got 30, 30"
