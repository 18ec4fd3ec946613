"""The BENCH summariser pairs untraced runs by (workload, seed) and reports
quartiles, pair wins and median ratios per end-to-end metric, and applies
the acceptance rules to them; traced runs give each side's per-layer
figures."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

BENCHMARK = {
    "workloads": [{"name": "fine-grid"}, {"name": "budget-sweep"}],
    "end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.24},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.08},
    ],
}


def record(workload, seed, pass_s, rss, trace=0, attempted=10, failed=0, ops=((1, 2, 3),)):
    """A run's record; ``ops`` holds each pass's seconds per operation."""
    metrics = {
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": 15.0,
        "trace": trace,
        "op_seconds": [list(times) for times in ops],
        "versions": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_summary_of_synthetic_runs(tmp_path):
    parent = write(
        tmp_path / "parent.jsonl",
        [record("fine-grid", s, float(s), 50.0) for s in (1, 2, 3, 4)]
        + [
            record("fine-grid", 1, 9.0, 99.0, trace=1),  # traced: not paired
            record("budget-sweep", 7, 0.5, 36.0),  # no partner: ignored
        ],
    )
    change = write(
        tmp_path / "change.jsonl",
        [
            record("fine-grid", 1, 5.0, 51.0),  # superseded by the later record
            record("fine-grid", 1, 0.5, 49.0, failed=1),
            record("fine-grid", 2, 2.5, 49.0, attempted=12, ops=[(1, 2, 3), (3, 1, 3)]),
            record("fine-grid", 3, 2.0, 51.0, attempted=14, ops=[(1, 1, 3)] * 3),
            record("fine-grid", 4, 3.0, 50.0, attempted=16, ops=[(0.5, 1, 3)]),
        ],
    )
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--parent-commit", "abc1234", "--benchmark", str(bench)]
    assert bench_summary.main(argv + ["--out", str(out)]) == 0
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["parent_commit"] == "abc1234"
    assert summary["machine"] == {
        "cpus": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"
    }
    assert "--seconds 15 --trace 0" in summary["command"]
    assert list(summary["workloads"]) == ["fine-grid"]
    fine = summary["workloads"]["fine-grid"]
    assert fine["pairs"] == 4 and fine["seeds"] == [1, 2, 3, 4]
    assert (fine["parent_attempted"], fine["parent_failed"]) == (40, 0)
    assert (fine["change_attempted"], fine["change_failed"]) == (52, 1)
    # operations per run, beside peak_rss_mb: inclusive quartiles of 10, 12, 14, 16
    assert fine["attempted_per_run"] == {
        "parent": {"q1": 10, "median": 10, "q3": 10},
        "change": {"q1": 11.5, "median": 13, "q3": 14.5},
    }
    # each operation's per-run median, by its label: the change's runs
    # have medians 1, 2, 1, 0.5 / 2, 1.5, 1, 1 / 3, 3, 3, 3
    labels = [
        "pipeline:doublewell@256x512",
        "pipeline:doublewell_timevarying@384x385",
        "pipeline:doublewell_concave@512x257",
    ]
    assert list(fine["op_seconds"]) == labels
    assert [fine["op_seconds"][label]["parent"] for label in labels] == [
        {"q1": v, "median": v, "q3": v} for v in (1.0, 2.0, 3.0)
    ]
    assert [fine["op_seconds"][label]["change"] for label in labels] == [
        {"q1": 0.875, "median": 1.0, "q3": 1.25},
        {"q1": 1.0, "median": 1.25, "q3": 1.625},
        {"q1": 3.0, "median": 3.0, "q3": 3.0},
    ]
    pass_s = fine["metrics"]["pass_s"]
    # inclusive quartiles of 1, 2, 3, 4 and of 0.5, 2, 2.5, 3
    assert pass_s["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert pass_s["change"] == {"q1": 1.625, "median": 2.25, "q3": 2.625}
    assert pass_s["change_better_in_pairs"] == 3
    assert pass_s["median_ratio"] == 0.9
    assert pass_s["unit"] == "s"
    # a gain of 0.25 inside the parent's IQR of 1.5, 3 wins in 4 pairs
    assert pass_s["parent_iqr"] == 1.5
    assert pass_s["median_gain_exceeds_parent_iqr"] is False
    assert pass_s["change_won_9_of_10_pairs"] is False
    assert (pass_s["bound"], pass_s["within_bound"]) == (0.24, True)
    rss = fine["metrics"]["peak_rss_mb"]
    assert rss["change_better_in_pairs"] == 2  # a tie is no win
    assert rss["median_ratio"] == 0.99  # 49.5 / 50
    assert rss["parent_iqr"] == 0.0
    assert rss["median_gain_exceeds_parent_iqr"] is True


def test_per_layer_figures_of_traced_runs(tmp_path):
    # traced runs are not paired: each side's per-layer figures are that
    # side's quartiles over its traced runs of the workload
    def traced(workload, seed, layers):
        rec = record(workload, seed, 1.0, 1.0, trace=1)
        rec["result"]["metrics"] = {
            name: {"value": v, "unit": "count" if name.endswith("_count") else "s"}
            for name, v in layers.items()
        }
        return rec

    sweep = record("budget-sweep", 1, 1.0, 50.0, ops=[(1, 2, 3, 4)])
    parent = write(
        tmp_path / "parent.jsonl",
        [record("fine-grid", 1, 1.0, 50.0), sweep]
        + [traced("fine-grid", s, {"solve.relaxed_s": 0.03 + 0.001 * s}) for s in (8, 9)],
    )
    change = write(
        tmp_path / "change.jsonl",
        [record("fine-grid", 1, 1.0, 50.0), sweep]
        + [
            traced("fine-grid", 7, {"solve.relaxed_s": 0.05}),  # superseded
            traced("fine-grid", 7, {"solve.relaxed_s": 0.02, "reconstruct.split_count": 4}),
        ],
    )
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--parent-commit", "abc", "--benchmark", str(bench)]
    assert bench_summary.main(argv + ["--out", str(out)]) == 0
    workloads = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    assert "per_layer" not in workloads["budget-sweep"]  # no traced run
    assert workloads["fine-grid"]["per_layer"] == {
        "traced_runs": {"parent": 2, "change": 1},
        "figures": {
            "reconstruct.split_count": {
                "unit": "count", "parent": None, "change": {"q1": 4, "median": 4, "q3": 4}
            },
            "solve.relaxed_s": {
                "unit": "s",
                "parent": {"q1": 0.03825, "median": 0.0385, "q3": 0.03875},
                "change": {"q1": 0.02, "median": 0.02, "q3": 0.02},
            },
        },
    }
    # the untraced pair's figures are as without the traced runs
    assert workloads["fine-grid"]["metrics"]["pass_s"]["parent"]["median"] == 1.0


def test_no_shared_pair_is_an_error(tmp_path, capsys):
    parent = write(tmp_path / "parent.jsonl", [record("fine-grid", 1, 1.0, 50.0)])
    change = write(tmp_path / "change.jsonl", [record("fine-grid", 2, 1.0, 50.0)])
    assert bench_summary.main([str(parent), str(change), "--parent-commit", "abc"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def summary_of(tmp_path, benchmark, parent_values, change_values):
    """The fine-grid metrics of ten pairs whose runs report only the given
    metric values, one dict per run."""
    def runs(values):
        out = []
        for seed, metrics in enumerate(values, 1):
            rec = record("fine-grid", seed, 1.0, 1.0)
            rec["result"]["metrics"] = {
                name: {"value": v, "unit": "s"} for name, v in metrics.items()
            }
            out.append(rec)
        return out

    parent = write(tmp_path / "parent.jsonl", runs(parent_values))
    change = write(tmp_path / "change.jsonl", runs(change_values))
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(benchmark), encoding="utf-8")
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--parent-commit", "abc", "--benchmark", str(bench)]
    assert bench_summary.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["workloads"]["fine-grid"]["metrics"]


def test_acceptance_rules(tmp_path):
    benchmark = {
        "workloads": [{"name": "fine-grid"}],
        "end_to_end": [
            {"name": "fast", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "slower", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }
    parent = [10.0, 10.5, 11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5]
    # fast: nine pairs won, median 8.25 against 12.25, IQR 2.25
    fast = [v - 4.0 for v in parent[:9]] + [15.0]
    # slower: every pair lost, median 10% + 0.01 above the parent's
    slower = [v * 1.1 + 0.01 for v in parent]
    # rate: higher is better; a 9% drop stays within its 10% bound
    rate = [v * 0.91 for v in parent]
    metrics = summary_of(
        tmp_path,
        benchmark,
        [{"fast": p, "slower": p, "rate": p} for p in parent],
        [{"fast": f, "slower": s, "rate": r} for f, s, r in zip(fast, slower, rate)],
    )
    assert metrics["fast"]["parent_iqr"] == 2.25
    assert metrics["fast"]["change_better_in_pairs"] == 9
    assert metrics["fast"]["median_gain_exceeds_parent_iqr"] is True
    assert metrics["fast"]["change_won_9_of_10_pairs"] is True
    assert metrics["fast"]["within_bound"] is True
    assert metrics["slower"]["change_better_in_pairs"] == 0
    assert metrics["slower"]["median_gain_exceeds_parent_iqr"] is False
    assert metrics["slower"]["change_won_9_of_10_pairs"] is False
    assert metrics["slower"]["within_bound"] is False
    assert metrics["rate"]["median_gain_exceeds_parent_iqr"] is False
    assert metrics["rate"]["within_bound"] is True
