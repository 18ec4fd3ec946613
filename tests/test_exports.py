"""Every function the package exports has a caller outside the library: the
CLI, the acceptance suite or the benchmark, which calls some through a
table of attributes.  A function with none of them is either dead or
tested only against itself."""

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
