"""No private helper of the library is left without a reader.

Beside ``test_unused_imports.py``: every module-level function or class
under ``src/varelax`` whose name starts with ``_`` must be read somewhere
in ``src/varelax`` outside its own definition, by name or as an
attribute.  A rewrite that stops calling a helper orphans it; this check
finds it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "varelax"


def unread_helpers(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes of ``sources`` (module
    name -> source text) that no code outside their own definition reads."""
    helpers, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            owner = node.name if named else None
            if named and node.name.startswith("_"):
                helpers.append((module, node.name))
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name):
                    reads.append((module, owner, inner.id))
                elif isinstance(inner, ast.Attribute):
                    reads.append((module, owner, inner.attr))
    return [
        f"{module}.{name}"
        for module, name in helpers
        if not any(
            read == name and (where, owner) != (module, name) for where, owner, read in reads
        )
    ]


def test_the_check_finds_an_unread_helper():
    sources = {
        "a": "def _used():\n    pass\n\ndef _orphan():\n    return _orphan()\n",
        "b": "from .a import _used\n\ndef f():\n    return _used()\n",
    }
    assert unread_helpers(sources) == ["a._orphan"]


def test_every_private_helper_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_helpers(sources) == []
