"""Benchmark of the certify -> relax -> verify -> reconstruct pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cli-shipped,fine-grid,budget-sweep}
                             --seed N --seconds S --trace {0,1}

One client, one operation in flight (closed loop).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The inputs are fixed files and
grids, so the seed changes nothing but the record.  See README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy starts its thread pools
    os.environ[_var] = "1"
# numpy advises transparent huge pages for arrays of 4 MiB and more, and
# whether the host grants them depends on its memory at the time.  With
# the advice off, resident memory and speed do not depend on that.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle_selftest  # noqa: E402
from workloads import BUDGET_SWEEP, FINE_GRID, WORKLOADS, cli_pass, problem_files  # noqa: E402

DEADLINE_S = 170  # the whole run, set-up and checks included
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
MB = 1024.0  # ru_maxrss is in KiB on Linux


class Children:
    """Every process this run starts; all are stopped and reaped on exit."""

    def __init__(self, env: dict):
        self.env = env
        self.live: list[subprocess.Popen] = []

    def wait(self, argv: list[str], **kwargs) -> tuple[int, float]:
        """Run to completion; (exit code, peak RSS in MB) of that child."""
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, **kwargs)
        self.live.append(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / MB

    def output(self, argv: list[str]) -> tuple[str, str]:
        proc = subprocess.Popen(
            argv, env=self.env, cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.live.append(proc)
        out, err = proc.communicate()
        self.live.remove(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited {proc.returncode}: {err.strip()[-400:]}")
        return out, err

    def stop(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def _on_signal(signum, frame):
    """SIGALRM (the run's deadline) or SIGTERM: unwind so children are stopped."""
    if signum == signal.SIGALRM:
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")
    raise SystemExit(128 + signum)


def setup_seconds(kids: Children, files: list[Path]) -> list[float]:
    """Launch-to-parsed wall times of fresh interpreters (one untimed first)."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *map(str, files)]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        launched = time.monotonic()
        out, _ = kids.output(argv)
        if k:
            samples.append(float(out.split()[-1]) - launched)
    return samples


def import_seconds(kids: Children) -> dict[str, float]:
    """``import varelax`` and the scipy share of it, from ``-X importtime``."""
    argv = [sys.executable, "-X", "importtime", str(HERE / "setup_probe.py"), str(ROOT)]
    total, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        _, err = kids.output(argv)
        names: list[str] = []  # enclosing module per depth, read bottom-up
        cum_varelax, cum_scipy = 0, 0
        for line in reversed(err.splitlines()):
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, field = line[len("import time:"):].split("|")
            name = field.strip()
            depth = (len(field) - len(field.lstrip()) - 1) // 2
            del names[depth:]
            parent = names[-1] if names else ""
            names.append(name)
            if depth == 0 and name == "varelax":
                cum_varelax = int(cum)
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                cum_scipy += int(cum)
        total.append(cum_varelax / 1e6)
        scipy.append(cum_scipy / 1e6)
    return {"import.varelax_s": statistics.median(total), "import.scipy_s": statistics.median(scipy)}


def cli_passes(kids: Children, out: Path, seconds: float):
    """Whole passes of ``python -m varelax.cli`` commands, one at a time.

    Raw wall time: ``speed.reference()`` run in this process does not
    track the speed of fresh child interpreters."""
    passes, peak = [], 0.0
    with open(out / "stderr.log", "w", encoding="utf-8") as log:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            directory = out / f"pass{len(passes)}"
            directory.mkdir()
            codes, rss_mb = [], []
            t0 = time.perf_counter()
            for name, command, argv in cli_pass(ROOT, directory):
                code, rss = kids.wait(
                    [sys.executable, "-m", "varelax.cli", *argv],
                    stdout=subprocess.DEVNULL, stderr=log,
                )
                codes.append((name, command, code))
                rss_mb.append(rss)
            wall = time.perf_counter() - t0
            peak = max(peak, *rss_mb)
            passes.append({
                "seconds": wall, "wall_seconds": wall, "dir": directory, "codes": codes,
                "rss_mb": rss_mb,
            })
    return passes, peak


def worker(kids: Children, workload: str, seconds: float, trace: int, out: Path):
    argv = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", workload, "--seconds", repr(seconds), "--trace", str(trace),
        "--out", str(out),
    ]
    code, rss = kids.wait(argv)
    if code != 0:
        raise RuntimeError(f"worker exited {code}")
    return json.loads((out / "worker.json").read_text(encoding="utf-8")), rss


def check(workload: str, passes: list[dict]) -> tuple[int, list[str]]:
    """(failed operations, first few failure messages) over every pass."""
    refs = checks.References(ROOT)
    failed, notes = 0, []
    for p in passes:
        if workload == "cli-shipped":
            labels = [f"{c}:{n}" for n, c, _ in p["codes"]]
            verdicts = checks.check_cli_pass(refs, Path(p["dir"]), p["codes"])
        else:
            ops = FINE_GRID if workload == "fine-grid" else BUDGET_SWEEP
            labels = [op.label for op in ops]
            verdicts = checks.check_grid_pass(refs, ops, p["ops"])
        for label, bad in zip(labels, verdicts):
            if bad:
                failed += 1
                if len(notes) < 8:
                    notes.append(f"{label}: {'; '.join(bad)}")
    return failed, notes


def versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def run(args, kids: Children, out: Path) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    setup: list[float] = []
    if args.trace:
        metrics.update((k, (v, "s")) for k, v in import_seconds(kids).items())
    else:
        setup = setup_seconds(kids, problem_files(ROOT, args.workload))
        metrics["setup_s"] = (statistics.median(setup), "s")
    if args.workload == "cli-shipped" and not args.trace:
        passes, peak = cli_passes(kids, out, args.seconds)
    else:
        result, peak = worker(kids, args.workload, args.seconds, args.trace, out)
        passes = result["passes"]
    failed, notes = check(args.workload, passes)
    plain = [p["seconds"] for p in passes if not p.get("traced")]
    if args.trace:
        for name, value in result["layers"].items():
            unit = "MB" if name.endswith("_mb") else "count" if not name.endswith("_s") else "s"
            metrics[name] = (value, unit)
        spans = out / "spans.json"
        spans.replace(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics["pass_s"] = (statistics.median(plain), "s")
        metrics["peak_rss_mb"] = (peak, "MB")
    attempted = sum(len(p.get("codes") or p["ops"]) for p in passes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_seconds": [p["seconds"] for p in passes],
        "pass_wall_seconds": [p["wall_seconds"] for p in passes],
        "op_seconds": [p.get("op_seconds") for p in passes],
        "child_rss_mb": [p.get("rss_mb") for p in passes],
        "setup_seconds": setup,
        "failures": notes,
        "versions": versions(),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    ap.add_argument("--seconds", type=float, default=15.0, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "varelax" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: {ROOT} holds no varelax sources (src/varelax, problems/)", file=sys.stderr)
        return 2
    oracle_selftest.run()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    kids = Children(env)
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.alarm(DEADLINE_S)
    try:
        record = run(args, kids, out)
    finally:
        signal.alarm(0)
        kids.stop()
        shutil.rmtree(out, ignore_errors=True)  # the run's CSVs and reports
    with open(HERE / "out" / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    info = {k: v for k, v in record.items() if k != "result"}
    print(json.dumps(info))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
