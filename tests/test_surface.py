"""Every top-level def or class in the package has a reader.

A name, public or private, counts as read when it appears in code (a
Name or an Attribute, not inside a string) in another package module
other than ``__init__.py``, in ``scripts/*.py``, ``perfbench/*.py`` or
the acceptance gate, or in another top-level statement of its own
module.  A name that only tests read belongs in the tests, and a
private helper outlives what it served once nothing calls it.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "firstphoton"
READERS = [*sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def code_names(tree: ast.AST) -> set[str]:
    """Identifiers that appear as names or attributes in code."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unread_names(private: bool) -> list[str]:
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = {path: code_names(ast.parse(path.read_text())) for path in READERS}
    unread = []
    for path, tree in modules.items():
        elsewhere = set().union(
            *readers.values(),
            *(code_names(other) for p, other in modules.items()
              if p != path and p.name != "__init__.py"))
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_") != private:
                continue
            own = set().union(*(code_names(other) for other in tree.body
                                if other is not stmt))
            if stmt.name not in elsewhere | own:
                unread.append(f"{path.stem}.{stmt.name}")
    return unread


def test_every_public_name_has_a_reader():
    assert unread_names(private=False) == []


def test_every_private_helper_has_a_reader():
    assert unread_names(private=True) == []


def test_importing_one_module_loads_only_what_it_imports():
    # the package __init__ imports no submodule, so the Monte Carlo layer
    # comes without the solvers it never calls
    code = ("import sys, firstphoton.montecarlo; "
            "print(sorted(m for m in sys.modules if m.startswith('firstphoton')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    loaded = ast.literal_eval(proc.stdout)
    assert "firstphoton.montecarlo" in loaded
    assert "firstphoton.wavefunction" not in loaded
    assert "firstphoton.kinetics" not in loaded
