"""Source hygiene: no module or script imports a name it never uses, no
private module-level helper of the package is left without a reader, no
public name of the package is read only by the tests, every code name the
README mentions exists, every quadrature result of the package passes the
convergence gate, the CLI's command table and its parser name the same
commands, and the package needs nothing beyond the standard library (scipy
and numpy stay out of its import graph).

relspec/__init__.py is exempt from the import scan, since its imports are
the package's public re-exports.
"""

import argparse
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

import relspec
from relspec import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "relspec").glob("*.py"))
SOURCES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py")))


def unused_imports(source):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == [
        (1, "math")]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_names(modules, readers, private):
    """Private (or public) module-level functions, classes and constants of
    modules (name -> source) that no source in readers reads; dunder names
    are neither.

    A name counts as read when it is loaded, taken as an attribute or
    imported by name.
    """
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(module, node.lineno, name) for name in names
                       if not name.startswith("__")
                       and name.startswith("_") == private
                       and name not in read]
    return sorted(unread)


def test_scan_finds_a_dead_private_helper():
    source = ("_LIMIT = 3\n_UNREAD = 4\n"
              "def _used():\n    return _LIMIT\n"
              "def _dead():\n    pass\n"
              "class _Orphan:\n    pass\n"
              "def public():\n    return _used()\n")
    assert unread_names({"m.py": source}, [source], private=True) == [
        ("m.py", 2, "_UNREAD"), ("m.py", 5, "_dead"), ("m.py", 7, "_Orphan")]


def package_and_scripts():
    """The package's modules (path -> source) and the sources of scripts/."""
    modules = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in PACKAGE}
    scripts = [p.read_text(encoding="utf-8")
               for p in (ROOT / "scripts").glob("*.py")]
    return modules, scripts


def test_no_dead_private_helpers():
    # the tests are not readers
    modules, scripts = package_and_scripts()
    assert unread_names(modules, list(modules.values()) + scripts,
                        private=True) == []


def test_scan_finds_a_public_name_only_tests_read():
    source = ("LIMIT = 3\nUNREAD = 4\n"
              "def used():\n    return LIMIT\n"
              "def only_tested():\n    pass\n"
              "class Orphan:\n    pass\n"
              "def _private():\n    return used()\n")
    reexport = "from .m import only_tested, Orphan\n"
    test = "from m import UNREAD\nassert only_tested() is None\n"
    # neither the test nor the re-export is passed as a reader
    assert unread_names({"m.py": source}, [source], private=False) == [
        ("m.py", 2, "UNREAD"), ("m.py", 5, "only_tested"),
        ("m.py", 7, "Orphan")]
    # a name is read where a reader imports it
    assert unread_names({"m.py": source}, [source, reexport, test],
                        private=False) == []


def test_no_public_name_only_tests_read():
    # what the package exports should be what it runs: every public name
    # is read by the package itself or by scripts/, not only by the tests
    # or by the re-exports of relspec/__init__.py
    modules, scripts = package_and_scripts()
    readers = [source for path, source in modules.items()
               if not path.endswith("__init__.py")] + scripts
    assert unread_names(modules, readers, private=False) == []


QUADRATURES = {"integrate_to_infinity"}
GATE = {"require_converged"}


def _calls(node, names):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.id if isinstance(func, ast.Name)
            else getattr(func, "attr", None)) in names


def ungated_quadratures(source):
    """Lines of quadrature calls whose result skips require_converged.

    A call is gated when it is an argument of require_converged, or is
    assigned to a name that a require_converged call in the same function
    reads.
    """
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    ungated = []
    for node in ast.walk(tree):
        if not _calls(node, QUADRATURES):
            continue
        up = parent[node]
        if _calls(up, GATE) and node in up.args:
            continue
        if isinstance(up, ast.Assign) and isinstance(up.targets[0], ast.Name):
            scope = up
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parent[scope]
            name = up.targets[0].id
            if any(_calls(n, GATE) and any(isinstance(a, ast.Name)
                                           and a.id == name for a in n.args)
                   for n in ast.walk(scope)):
                continue
        ungated.append(node.lineno)
    return ungated


def test_scan_finds_an_ungated_quadrature():
    source = ("def inline(f):\n"
              "    return require_converged(\n"
              "        quad.integrate_to_infinity(f, 0))\n"
              "def named(f):\n"
              "    res = integrate_to_infinity(f, 0.0)\n"
              "    return require_converged(res, 'piece'), res.evaluations\n"
              "def unread(f):\n"
              "    res = integrate_to_infinity(f, 0.0)\n"
              "    return res.value\n"
              "def elsewhere(f):\n"
              "    return require_converged(res)\n"
              "def bare(f):\n"
              "    return integrate_to_infinity(f, 1.0).value\n")
    assert ungated_quadratures(source) == [8, 13]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_quadrature_passes_the_convergence_gate(path):
    assert ungated_quadratures(path.read_text(encoding="utf-8")) == []


def readme_names():
    """Backticked README tokens that name code: identifiers with an
    underscore (and no dot), and script files (*.py)."""
    tokens = re.findall(r"`([^`\n]+)`",
                        (ROOT / "README.md").read_text(encoding="utf-8"))
    names = sorted({t for t in tokens if "_" in t and "." not in t})
    scripts = sorted({t.split()[-1] for t in tokens if t.endswith(".py")})
    return names, scripts


def test_readme_names_exist():
    names, scripts = readme_names()
    modules = [relspec] + [importlib.import_module(f"relspec.{p.stem}")
                           for p in PACKAGE if p.name != "__init__.py"]
    assert [n for n in names
            if not any(hasattr(m, n) for m in modules)] == []
    assert [s for s in scripts
            if not (ROOT / "scripts" / pathlib.Path(s).name).is_file()] == []


def test_command_table_matches_the_parser():
    # main builds the flags of the command a _COMMANDS key names, so the
    # table and the parser must name the same commands
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(cli._COMMANDS) == set(subparsers.choices)
    handlers = {name for name in vars(cli) if name.startswith("cmd_")}
    assert handlers == {f.__name__ for f in cli._COMMANDS.values()}


HEAVY = ("scipy", "numpy")


def imported_roots(source):
    """Top-level package names that import statements in source load."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_scan_finds_a_heavy_import():
    assert imported_roots("import scipy.special\nfrom numpy import pi\n"
                          "from .quad import MAX_TOL\nimport math\n") == {
        "scipy", "numpy", "math"}


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_no_scipy_or_numpy(path):
    assert imported_roots(path.read_text(encoding="utf-8")) & set(HEAVY) \
        == set()


def test_cli_run_loads_no_scipy_or_numpy():
    code = ("import sys, relspec.cli; relspec.cli.build_parser(); "
            "relspec.cli.main(['verify']); "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in "
            f"{HEAVY!r}))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
