"""Every name a library module, script or test module imports is used
there, every private helper of the package is used by the package or a
script, library modules import each other at module level, the package
imports no third-party module it does not declare, the CLI decides
output formats in one place, and every package name the benchmark
tracer wraps or reads still exists."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from heunzeros.families import FamilyKind, RecurrenceSpec
from heunzeros.recurrence import build_family
from heunzeros.tracking import solve_zeros

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


def dead_helpers(sources: list) -> list:
    """The module-level private functions defined in sources that no
    source names (as a name, an attribute or an imported name) outside
    their own def."""
    trees = [ast.parse(source) for source in sources]
    defined = {fn.name for tree in trees for fn in tree.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
               and fn.name.startswith("_") and not fn.name.endswith("__")}
    named = set()
    for stmt in (stmt for tree in trees for stmt in tree.body):
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
            elif isinstance(node, ast.alias):
                here.add(node.name.split(".")[-1])
        here.discard(getattr(stmt, "name", None))
        named |= here
    return sorted(defined - named)


def test_scan_finds_a_dead_helper():
    first = ("from .second import _imported\n"
             "def _called():\n    return _imported()\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "def public():\n    return _called\n")
    second = ("import first\n"
              "def _imported():\n    return first._by_attribute\n"
              "def _by_attribute():\n    pass\n"
              "def _dead():\n    return _dead\n")
    assert dead_helpers([first, second]) == ["_dead", "_recursive"]


def test_no_dead_helpers():
    paths = (sorted((ROOT / "src" / "heunzeros").glob("*.py"))
             + sorted((ROOT / "scripts").glob("*.py")))
    assert dead_helpers([p.read_text() for p in paths]) == []


def package_imports(source: str) -> set:
    """(function, module, name, line) for each name source imports from
    a heunzeros module, with function None at module level and module
    the last part of the module's dotted name (`from . import x`
    imports module x)."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.ImportFrom):
                if not child.level and child.module.split(".")[0] \
                        != "heunzeros":
                    continue
                for alias in child.names:
                    module = (child.module or alias.name).split(".")[-1]
                    found.add((where, module, alias.name, child.lineno))
            elif isinstance(child, ast.Import):
                found.update((where, alias.name.split(".")[-1], None,
                              child.lineno)
                             for alias in child.names
                             if alias.name.split(".")[0] == "heunzeros")
            else:
                visit(child, where)

    visit(ast.parse(source), None)
    return found


def local_package_imports(source: str) -> list:
    """Lines of imports of a heunzeros module inside a function body."""
    return sorted({line for where, _, _, line in package_imports(source)
                   if where is not None})


def imports_re(source: str) -> bool:
    """Whether source imports the standard `re` module, in any form."""
    return any(
        (isinstance(node, ast.Import)
         and any(alias.name == "re" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "re"
            and not node.level)
        for node in ast.walk(ast.parse(source)))


def test_scan_finds_an_re_import():
    assert imports_re("import json, re as regex\n")
    assert imports_re("def f():\n    from re import fullmatch\n")
    assert not imports_re("import resource\nfrom .re import x\n"
                          "from .scalars import parse_scalar\n")


# scalars.parse_scalar holds the one grammar for typed values; a regex
# anywhere else in the package or the scripts would be a second one
def test_only_scalars_imports_re():
    paths = (sorted((ROOT / "src" / "heunzeros").glob("*.py"))
             + sorted((ROOT / "scripts").glob("*.py")))
    assert [p.name for p in paths if imports_re(p.read_text())] \
        == ["scalars.py"]


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
              "    from itertools import permutations\n"
              "    from .oracle import series_solution\n"
              "    import heunzeros.tracking\n")
    assert local_package_imports(source) == [4, 5]


def third_party_imports(source: str) -> set:
    """Top-level names of the absolute imports in source that are not
    in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "heunzeros"}


def test_scan_finds_third_party_imports():
    source = ("import json, mpmath\n"
              "from . import scalars\n"
              "import heunzeros.tracking\n"
              "def f():\n"
              "    from scipy.optimize import linear_sum_assignment\n")
    assert third_party_imports(source) == {"mpmath", "scipy"}


def test_package_imports_exactly_its_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(p.read_text()) for p in
                             (ROOT / "src" / "heunzeros").glob("*.py")))
    assert "mpmath" in imported
    assert imported == declared


def test_scan_finds_package_imports():
    source = ("import json\n"
              "from .families import RecurrenceSpec\n"
              "from . import tracking\n"
              "import heunzeros.rootfind\n"
              "def f():\n"
              "    if True:\n"
              "        from .recurrence import eval_sequence\n")
    assert package_imports(source) == {
        (None, "families", "RecurrenceSpec", 2),
        (None, "tracking", "tracking", 3), (None, "rootfind", None, 4),
        ("f", "recurrence", "eval_sequence", 7)}


# oracle.py is the one module kept out of the one-route clean-up: it
# must stay independent of the production recurrence, so it imports
# from .families and .scalars at module level and only eval_sequence,
# for ode_residual, from anywhere else
def test_oracle_shares_no_stepping_code():
    found = package_imports(
        (ROOT / "src" / "heunzeros" / "oracle.py").read_text())
    assert {module for where, module, _, _ in found if where is None} \
        <= {"families", "scalars"}
    assert {entry[:3] for entry in found if entry[0] is not None} \
        == {("ode_residual", "recurrence", "eval_sequence")}


# the one local import of oracle.py is checked above
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


def layer_functions(source: str) -> tuple:
    """The (module, function) pairs of LAYER_FUNCTIONS in source, the
    text of perfbench/tracer.py, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [
                t.id for t in node.targets if isinstance(t, ast.Name)] \
                == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYER_FUNCTIONS assignment")


def unresolved(names) -> list:
    """The (module, dotted attribute) pairs that do not resolve in the
    heunzeros package."""
    out = []
    for module, path in names:
        try:
            obj = importlib.import_module(f"heunzeros.{module}")
            for part in path.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            out.append((module, path))
    return out


def test_scan_finds_a_missing_benchmark_name():
    source = ("X = 1\n"
              "LAYER_FUNCTIONS = (\n"
              "    ('rootfind', 'find_all_roots'),\n"
              "    ('rootfind', 'no_such_function'),\n"
              ")\n")
    names = layer_functions(source) + (("no_such_module", "f"),
                                       ("rootfind", "ZeroSet.converged"),
                                       ("rootfind", "ZeroSet.no_such"))
    assert unresolved(names) == [("rootfind", "no_such_function"),
                                 ("no_such_module", "f"),
                                 ("rootfind", "ZeroSet.no_such")]


# the benchmark wraps these functions and reads ZeroSet.converged from
# outside the package; deleting one would break its traced passes
def test_benchmark_tracer_names_resolve():
    names = layer_functions((ROOT / "perfbench" / "tracer.py").read_text())
    assert len(names) >= 10
    assert unresolved(names + (("rootfind", "ZeroSet.converged"),)) == []


# what the benchmark reads from results: tracer.py names a build's layer
# by PolynomialFamily.field.kind, and worker.py checks ZeroSet.converged
def test_benchmark_reads_the_result_attributes_it_expects():
    loader = importlib.util.spec_from_file_location(
        "benchmark_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    build = tracer.wrap("recurrence.build_family", build_family)
    spec = RecurrenceSpec(kind=FamilyKind.REDUCED, gamma="1/2", delta="1/2",
                          s=2)
    for s in (2, 0.1):
        assert build(spec.with_s(s), 3).field.kind == "exact"
    assert tracer.summary()["functions"][
        "recurrence.build_family.exact"]["calls"] == 2
    zs = solve_zeros(spec, 4)
    assert list(zs.converged) == [True] * 4
