"""Summarise two perfbench result files as a ``BENCH_*.json`` comparison.

    python3 tools/bench_summary.py PARENT_JSONL CHANGE_JSONL --parent-commit SHA \
        [--out BENCH.json] [--benchmark BENCHMARK.json]

Each input is a ``perfbench/out/results.jsonl`` written by runs of one
tree: the parent commit's, or the change's.  Only untraced records
(``--trace 0``) count.  A pair is the parent's and the change's record of
the same (workload, seed); when a file holds a key twice, its later record
wins.  For each end-to-end metric that ``BENCHMARK.json`` declares, the
summary gives each side's quartiles over its paired runs, how many pairs
the change won in the metric's better direction, and the ratio of the
medians; each workload also gives each side's operations attempted per
run, as quartiles, since ``peak_rss_mb`` grows with them, and an
in-process workload gives each side's quartiles of each operation's
per-run median ``op_seconds``, keyed by its ``GridOp.label`` in
``perfbench/workloads.py``, to show where a change of ``pass_s`` sits
(``cli-shipped`` times no operation alone).  Each metric
also applies the acceptance rules: whether the medians differ in the
better direction by more than the parent's interquartile range, whether
the change won at least nine pairs in ten, and whether the change's
median is within the metric's relative ``bound`` of the parent's.  The
JSON goes to ``--out``, or to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
from perfbench.workloads import BUDGET_SWEEP, FINE_GRID  # noqa: E402

# the operations of each in-process workload, in the order a pass times them
GRID_OPS = {"fine-grid": FINE_GRID, "budget-sweep": BUDGET_SWEEP}
WHAT = (
    "perfbench end-to-end metrics of the parent commit and of the commit that adds "
    "this file, run in alternating pairs (the side that runs first alternates), each "
    "side in its own copy of the tree"
)


def untraced_records(path: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> the last untraced record of that key in the file."""
    records = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                records[(record["workload"], record["seed"])] = record
    return records


def quartile_cuts(values: list[float]) -> list[float]:
    """Inclusive (q1, median, q3) of the values."""
    if len(values) > 1:
        return statistics.quantiles(values, n=4, method="inclusive")
    return values * 3


def quartiles(values: list[float], digits: int = 4) -> dict[str, float]:
    cuts = quartile_cuts(values)
    return {name: round(v, digits) for name, v in zip(("q1", "median", "q3"), cuts)}


def iqr(values: list[float]) -> float:
    """Distance between the inclusive quartiles; 0 for a single value."""
    q1, _, q3 = quartile_cuts(values)
    return q3 - q1


def summarise(parent: dict, change: dict, benchmark: dict, parent_commit: str) -> dict:
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise ValueError("the two files share no (workload, seed) pair of untraced runs")
    workloads = {}
    for spec in benchmark["workloads"]:
        name = spec["name"]
        seeds = [seed for workload, seed in keys if workload == name]
        if not seeds:
            continue
        sides = {
            side: [records[(name, seed)] for seed in seeds]
            for side, records in (("parent", parent), ("change", change))
        }
        entry = {"pairs": len(seeds), "seeds": seeds}
        for side, runs in sides.items():
            entry[f"{side}_attempted"] = sum(r["result"]["attempted"] for r in runs)
            entry[f"{side}_failed"] = sum(r["result"]["failed"] for r in runs)
        # a worker keeps every pass's outputs, so peak_rss_mb grows with
        # the operations a run fits into its seconds: show them side by side
        entry["attempted_per_run"] = {
            side: quartiles([r["result"]["attempted"] for r in runs])
            for side, runs in sides.items()
        }
        if name in GRID_OPS:
            entry["op_seconds"] = {
                op.label: {
                    side: quartiles(
                        [statistics.median(p[k] for p in r["op_seconds"]) for r in runs], 5
                    )
                    for side, runs in sides.items()
                }
                for k, op in enumerate(GRID_OPS[name])
            }
        metrics = {}
        for metric in benchmark["end_to_end"]:
            values = {
                side: [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
                for side, runs in sides.items()
            }
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(
                sign * c < sign * p for p, c in zip(values["parent"], values["change"])
            )
            medians = {side: statistics.median(v) for side, v in values.items()}
            parent_iqr = iqr(values["parent"])
            metrics[metric["name"]] = {
                "unit": metric["unit"],
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_better_in_pairs": wins,
                "median_ratio": round(medians["change"] / medians["parent"], 4),
                "parent_iqr": round(parent_iqr, 4),
                # the acceptance rules: a claimed gain must beat the parent's
                # spread and win nine pairs in ten; no metric may get worse
                # than its relative bound
                "median_gain_exceeds_parent_iqr": (
                    sign * (medians["parent"] - medians["change"]) > parent_iqr
                ),
                "change_won_9_of_10_pairs": 10 * wins >= 9 * len(seeds),
                "bound": metric["bound"],
                "within_bound": (
                    sign * medians["change"]
                    <= sign * medians["parent"] * (1.0 + sign * metric["bound"])
                ),
            }
        entry["metrics"] = metrics
        workloads[name] = entry
    first = change[keys[0]]
    versions = first["versions"]
    return {
        "what": WHAT,
        "command": (
            "python3 perfbench/run.py --workload <name> --seed <n> "
            f"--seconds {first['seconds']:g} --trace 0"
        ),
        "parent_commit": parent_commit,
        "quartiles": (
            "statistics.quantiles(n=4, method='inclusive') over the value each run reports"
        ),
        "machine": {
            "cpus": versions["nproc"],
            "python": versions["python"],
            "numpy": versions["numpy"],
            "scipy": versions["scipy"],
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="results.jsonl of the parent's runs")
    ap.add_argument("change", type=Path, help="results.jsonl of the change's runs")
    ap.add_argument("--parent-commit", required=True, help="the parent commit's hash")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    ap.add_argument("--out", type=Path, help="where to write the summary (default: stdout)")
    args = ap.parse_args(argv)
    try:
        summary = summarise(
            untraced_records(args.parent),
            untraced_records(args.change),
            json.loads(args.benchmark.read_text(encoding="utf-8")),
            args.parent_commit,
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(summary, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
