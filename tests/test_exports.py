"""Every function the package exports has a caller outside the library: the
CLI, the acceptance suite or the benchmark, which calls some through a
table of attributes.  A function with none of them is either dead or
tested only against itself."""

import ast
import inspect
import re
from pathlib import Path

import varelax

ROOT = Path(__file__).resolve().parents[1]
CALLERS = (
    ROOT / "src" / "varelax" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
)


def test_every_exported_function_has_a_caller():
    text = "\n".join(path.read_text(encoding="utf-8") for path in CALLERS)
    functions = [name for name, obj in vars(varelax).items() if inspect.isfunction(obj)]
    uncalled = [name for name in functions if not re.search(rf"\b{name}\s*\(|\.{name}\b", text)]
    assert functions and uncalled == []


def test_perfbench_traced_names_exist():
    """The traced CLI run swaps these names on ``varelax.cli`` and
    ``varelax.io`` by getattr/setattr; a dropped import would break it."""
    import varelax.cli
    import varelax.io

    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    tables = {
        target.id: ast.literal_eval(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("CLI_NAMES", "IO_NAMES")
    }
    assert set(tables) == {"CLI_NAMES", "IO_NAMES"}
    for module, names in ((varelax.cli, tables["CLI_NAMES"]), (varelax.io, tables["IO_NAMES"])):
        assert names and [n for n in names if not hasattr(module, n)] == []
