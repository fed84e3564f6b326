"""
Every name a module of ``minuscule`` imports is used in that module, and
every name it exports exists.

No linter ships with the toolkit, so this reads each module's syntax tree.
A name counts as used when it is read anywhere in the module, appears in a
quoted annotation, or is re-exported through ``__all__``.  ``__init__.py``
and ``__future__`` imports are skipped.  Since ``__all__`` counts as a use,
each of its entries must name an attribute of the imported module.

Importing the package loads neither ``dataclasses`` nor ``inspect``, whose
import and code generation would cost every command line start-up.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minuscule"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    for annotation in filter(None, annotations):
        for e in ast.walk(annotation):
            if isinstance(e, ast.Constant) and isinstance(e.value, str):
                quoted = ast.parse(e.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


@pytest.mark.parametrize(
    "name", ["__init__"] + [path.stem for path in MODULES], ids=lambda name: name
)
def test_every_export_exists(name):
    module = importlib.import_module("minuscule" if name == "__init__" else f"minuscule.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {', '.join(missing)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "import itertools\nfrom typing import Optional\n"
        "def f(x: 'Optional[int]') -> None:\n    return x\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"itertools"}


@pytest.mark.parametrize("module", ["minuscule", "minuscule.cli"])
def test_importing_loads_neither_dataclasses_nor_inspect(module):
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
