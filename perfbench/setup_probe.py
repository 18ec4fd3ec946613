"""Fresh-interpreter set-up probe: import varelax, parse problem files.

Usage: python3 setup_probe.py ROOT [PROBLEM.json ...]

Prints ``time.monotonic()`` once everything is imported and parsed; the
caller subtracts the moment it launched the interpreter.
"""

import sys
import time

sys.path.insert(0, sys.argv[1] + "/src")

import varelax  # noqa: E402

for path in sys.argv[2:]:
    varelax.parse_problem(path)
print(repr(time.monotonic()))
