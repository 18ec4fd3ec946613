"""No module of the library imports a name it never uses.

No linter ships with the toolchain, so this is the check: every name a
module under ``src/varelax`` binds by ``import`` must be read somewhere in
that module.  ``__init__.py`` is exempt: its imports are the package's
public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "varelax"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import sys\nfrom .errors import SchemaError, VarelaxError\nraise VarelaxError\n"
    assert unused_imports(source) == ["sys (line 1)", "SchemaError (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
