"""The package needs nothing at run time but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

import isotn

PACKAGE = Path(isotn.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def top_level_imports(path):
    """The top-level module of each absolute import in ``path``; a relative
    import names the package itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "isotn" if node.level else node.module.partition(".")[0]


def test_every_module_is_read():
    assert {p.name for p in MODULES} >= {"__init__.py", "network.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    allowed = sys.stdlib_module_names | {"numpy", "isotn"}
    assert sorted(set(top_level_imports(path)) - allowed) == []
