"""Every name a module of the package imports is referenced in that module.

The check is a plain walk over each module's syntax tree: an imported name
counts as used when it appears as a bare name anywhere in the module,
annotations included. ``__init__.py`` is left out, since it imports names
only to re-export them. A second check imports the whole package in a fresh
interpreter and requires that no scipy module gets loaded: numpy is the one
runtime dependency.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fpverify"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = (
        "import math\n"
        "from .core import CorePoint, MinutiaeSet\n"
        "def f(s: MinutiaeSet):\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["CorePoint"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_module_imports_without_scipy():
    modules = ", ".join(["fpverify"] + [f"fpverify.{p.stem}" for p in MODULES])
    code = f"import sys, {modules}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
