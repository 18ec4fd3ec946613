"""The BENCH summariser pairs untraced runs by (workload, seed) and reports
quartiles, pair wins and median ratios per end-to-end metric."""

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


def record(workload, seed, pass_s, rss, trace=0, attempted=10, failed=0):
    metrics = {
        "pass_s": {"value": pass_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": 15.0,
        "trace": trace,
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
            record("fine-grid", 1, 9.0, 99.0, trace=1),  # traced: ignored
            record("budget-sweep", 7, 0.5, 36.0),  # no partner: ignored
        ],
    )
    change = write(
        tmp_path / "change.jsonl",
        [
            record("fine-grid", 1, 5.0, 51.0),  # superseded by the later record
            record("fine-grid", 1, 0.5, 49.0, failed=1),
            record("fine-grid", 2, 2.5, 49.0, attempted=12),
            record("fine-grid", 3, 2.0, 51.0, attempted=14),
            record("fine-grid", 4, 3.0, 50.0, attempted=16),
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
    pass_s = fine["metrics"]["pass_s"]
    # inclusive quartiles of 1, 2, 3, 4 and of 0.5, 2, 2.5, 3
    assert pass_s["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert pass_s["change"] == {"q1": 1.625, "median": 2.25, "q3": 2.625}
    assert pass_s["change_better_in_pairs"] == 3
    assert pass_s["median_ratio"] == 0.9
    assert pass_s["unit"] == "s"
    rss = fine["metrics"]["peak_rss_mb"]
    assert rss["change_better_in_pairs"] == 2  # a tie is no win
    assert rss["median_ratio"] == 0.99  # 49.5 / 50


def test_no_shared_pair_is_an_error(tmp_path, capsys):
    parent = write(tmp_path / "parent.jsonl", [record("fine-grid", 1, 1.0, 50.0)])
    change = write(tmp_path / "change.jsonl", [record("fine-grid", 2, 1.0, 50.0)])
    assert bench_summary.main([str(parent), str(change), "--parent-commit", "abc"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
