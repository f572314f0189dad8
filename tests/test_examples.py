"""The README's library example and the table script run as documented."""

import re
import runpy
from pathlib import Path

from heunzeros.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert "stable zeros" in capsys.readouterr().out


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
