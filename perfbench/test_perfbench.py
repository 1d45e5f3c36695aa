"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The output checks must count a NaN row, a missing summary file and a
1-worker/2-worker digest mismatch as failed runs, and a traced run's
per-layer self times must add up to no more than its wall time.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ROWS = [("toy", "", 4, "", 0, 1.0), ("toy", "", 4, "", 1, 3.0)]


def write_outputs(out_dir, rows=ROWS, summary=None, json_checks=()):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "toy.csv"), "w") as fh:
        fh.write(",".join(checks.CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    payload = {"summary": {"mean(j=4)": 2.0} if summary is None else summary,
               "checks": list(json_checks)}
    with open(os.path.join(out_dir, "toy_summary.json"), "w") as fh:
        json.dump(payload, fh)


def test_clean_outputs_pass(tmp_path):
    write_outputs(tmp_path, json_checks=[
        {"name": "ks_decreasing", "value": [0.1, 0.2], "threshold": "", "passed": False}])
    failures, uncounted = checks.check_outputs(str(tmp_path), "toy", {})
    assert failures == []
    assert [c["name"] for c in uncounted] == ["ks_decreasing"]


def test_nan_row_fails(tmp_path):
    write_outputs(tmp_path, rows=ROWS + [("toy", "", 4, "", 2, "nan")])
    failures, _ = checks.check_outputs(str(tmp_path), "toy", {})
    assert len(failures) == 1 and "not finite" in failures[0]


def test_missing_summary_fails(tmp_path):
    write_outputs(tmp_path)
    os.remove(tmp_path / "toy_summary.json")
    failures, _ = checks.check_outputs(str(tmp_path), "toy", {})
    assert failures == ["missing output toy_summary.json"]


def test_bias_check_counts_and_summary_must_match_rows(tmp_path):
    write_outputs(tmp_path, summary={"mean(j=4)": 2.5}, json_checks=[
        {"name": "bias_fraction<=0.01", "value": 0.02, "threshold": 0.01, "passed": False}])
    failures, uncounted = checks.check_outputs(str(tmp_path), "toy", {})
    assert len(failures) == 2 and uncounted == []


def test_limit_mean_far_from_oracle_fails(tmp_path):
    rows = [("x/limit", "", "", 1.0, r, 1.0 + 0.01 * (r % 2)) for r in range(100)]
    write_outputs(tmp_path, rows=rows, summary={})
    near = checks.check_outputs(str(tmp_path), "toy", {"limit_mean_oracle": {"1.0": 1.005}})
    far = checks.check_outputs(str(tmp_path), "toy", {"limit_mean_oracle": {"1.0": 1.1}})
    assert near[0] == [] and len(far[0]) == 1


def test_worker_digest_mismatch_fails(tmp_path, monkeypatch):
    """A 2-worker run whose bytes differ from the 1-worker run of the same
    input is a failed run."""
    def fake_child(argv, seed, mode, run_dir, deadline):
        out_dir = os.path.join(run_dir, "out")
        value = 1.0 + 1e-12 * (run.workers_of(argv) - 1)  # last digit depends on workers
        write_outputs(out_dir, rows=[("toy", "", 4, "", 0, value)], summary={})
        return {"out_dir": out_dir}

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setitem(run.WORKLOADS, "toy", ["toy", "--workers", "2"])
    bench = run.Run("toy", seed=7, seconds=0, trace=False)
    first = bench.experiment_run(["toy", "--workers", "2"], 7, "run", "a")
    assert first["failures"] == [] and bench.failed == 0
    again = bench.experiment_run(["toy", "--workers", "2"], 7, "run", "b")
    assert again["failures"] == []
    single = bench.experiment_run(["toy"], 7, "run", "c")
    assert single["failures"] and "differ" in single["failures"][0]
    assert (bench.attempted, bench.failed) == (3, 1)


def _traced_run(tmp_path, extra):
    record = tmp_path / "record.json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), str(record), "trace", "--",
           "theorem-main", "--log-n", "50", "--j", "3", "--u", "1", "--replicas", "100",
           "--out", str(tmp_path / "out"), *extra]
    subprocess.run(cmd, check=True, capture_output=True, cwd=os.path.dirname(HERE))
    rec = json.loads(record.read_text())
    labels = {threshold: label for threshold, label in rec["thresholds"]}
    return rec, spans.layer_metrics([tuple(s) for s in rec["spans"]], labels)


@pytest.mark.parametrize("workers", [1, 2])
def test_traced_self_times_fit_in_wall_time(tmp_path, workers):
    rec, metrics = _traced_run(tmp_path, ["--workers", str(workers)])
    wall = rec["t_main_end"] - rec["t_main"]
    self_total = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    assert 0.0 < self_total <= workers * wall
    assert metrics["harness.self_s"] >= 0.0
    assert metrics["occupancy.expand_tree.calls"] == 100
    assert metrics["occupancy.expand_tree.ns_per_node.logn50"] > 0.0
    assert metrics["distributions.sample_w_pair.draws"] > 0
    assert metrics["harness.rows"] == 10000 + 100
    failures, _ = checks.check_outputs(str(tmp_path / "out"), "theorem-main", rec)
    assert failures == []


def test_union_length_merges_overlaps():
    assert spans._union_length([(0, 2), (1, 3), (5, 6)]) == 4
