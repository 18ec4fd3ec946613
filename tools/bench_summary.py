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
run, as quartiles, since ``peak_rss_mb`` grows with them.  The JSON goes to ``--out``, or to standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
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


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) > 1:
        cuts = statistics.quantiles(values, n=4, method="inclusive")
    else:
        cuts = values * 3
    return {name: round(v, 4) for name, v in zip(("q1", "median", "q3"), cuts)}


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
            metrics[metric["name"]] = {
                "unit": metric["unit"],
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_better_in_pairs": wins,
                "median_ratio": round(medians["change"] / medians["parent"], 4),
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
