"""Every name a library module, script or test module imports is used
there, library modules import each other at module level, and the CLI
decides output formats in one place."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ imports names only to re-export them
MODULES = sorted(
    [p for p in (ROOT / "src" / "heunzeros").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def local_package_imports(source: str) -> list:
    """Lines of imports of a heunzeros module inside a function body."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                # a relative import can only reach the package itself
                modules = ["heunzeros" if node.level else node.module]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[0] == "heunzeros" for m in modules):
                found.append(node.lineno)
    return sorted(set(found))


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport json\njson.dumps(1)\n") \
        == [(1, "math")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_a_function_local_package_import():
    source = ("import json\n"
              "def f():\n"
              "    from scipy.optimize import linear_sum_assignment\n"
              "    from .oracle import series_solution\n"
              "    import heunzeros.tracking\n")
    assert local_package_imports(source) == [4, 5]


# oracle.py is the one module kept out of the one-route clean-up: it
# must stay independent of the production recurrence
@pytest.mark.parametrize(
    "path",
    sorted(p for p in (ROOT / "src" / "heunzeros").glob("*.py")
           if p.name != "oracle.py"),
    ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    assert local_package_imports(path.read_text()) == []


def _is_json_dumps(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "dumps"
            and isinstance(node.value, ast.Name) and node.value.id == "json")


def test_output_formats_are_decided_in_render():
    tree = ast.parse((ROOT / "src" / "heunzeros" / "cli.py").read_text())
    functions = {fn.name: fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    for name, fn in functions.items():
        if not name.startswith("cmd_"):
            continue
        names = {node.id for node in ast.walk(fn)
                 if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute)}
        assert not {"fmt", "csv"} & (names | attrs), name
    dumps = {name: [node for node in ast.walk(fn) if _is_json_dumps(node)]
             for name, fn in functions.items()}
    assert {name for name, found in dumps.items() if found} \
        == {"render", "main"}
    # main serializes only its error objects
    in_handlers = [node for handler in ast.walk(functions["main"])
                   if isinstance(handler, ast.ExceptHandler)
                   for node in ast.walk(handler) if _is_json_dumps(node)]
    assert len(in_handlers) == len(dumps["main"])
    # nothing at module level serializes either
    assert not [node for stmt in tree.body
                if not isinstance(stmt, ast.FunctionDef)
                for node in ast.walk(stmt) if _is_json_dumps(node)]


def test_tracking_builds_no_output_records():
    tree = ast.parse((ROOT / "src" / "heunzeros" / "tracking.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    assert "json" not in imported
