"""Self-tests for the benchmark: reduced runs, the gate, self-time arithmetic.

    python3 -m pytest perfbench

The tier-1 suite does not collect these (pyproject limits it to tests/).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_check()

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 21  # instance 5


def _bench(workload: str, trace: int) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKERS))
def test_reduced_run_prints_end_to_end_metrics(workload):
    code, record, result = _bench(workload, 0)
    assert code == 0, record["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["failed_frac"] == 0.0
    assert record["env"]["KOLBOUNDS_WORKERS"] == str(run.WORKERS[workload])
    assert record["env"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", sorted(run.WORKERS))
def test_reduced_traced_run_reports_every_layer(workload):
    code, record, result = _bench(workload, 1)
    assert code == 0, record["failures"]
    assert list(result["metrics"]) == list(tracing.PER_LAYER)
    modules = {name.split(".")[0] for name in result["metrics"]} - {"trace", "failed_frac"}
    assert modules == set(tracing.MODULES) and len(modules) == 11
    trace_file = run.ROOT / record["trace_file"]
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert len(spans) == record["spans"] > 0
    assert {"id", "parent", "name", "start", "end", "run"} <= set(spans[0])


def _one_pass(workload: str, jobs_filter, refs=None, **job_overrides) -> run.Runner:
    refs = refs or workloads.load_references()[workload][str(SEED % workloads.POOL)]
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        jobs = [j for j in workloads.WORKLOADS[workload](True) if jobs_filter(j)]
        for job in jobs:
            for key, value in job_overrides.items():
                setattr(job, key, value)
            job.prepare(SEED % workloads.POOL, Path(tmp))
        runner = run.Runner(jobs, refs)
        runner.one_pass(0)
    return runner


def test_gate_counts_corrupt_chaos_verify():
    runner = _one_pass("desk-reports", lambda j: isinstance(j, workloads.ChaosVerify), corrupt=True)
    assert runner.attempted == 1 and len(runner.failures) == 1
    assert "exit code 4, expected 0" in runner.failures[0]
    assert runner.cli_errors == 1


def test_gate_counts_perturbed_exact_reference():
    refs = workloads.load_references()["exact-large"][str(SEED % workloads.POOL)]
    refs = json.loads(json.dumps(refs))
    refs["certify-asym-n7"]["exact"]["master_bound.total"] *= 1.0 + 1e-7
    runner = _one_pass("exact-large", lambda j: j.name.startswith("certify-asym"), refs)
    assert runner.attempted == 1 and len(runner.failures) == 1
    assert "master_bound.total" in runner.failures[0]


def test_gate_counts_perturbed_empirical_reference():
    refs = workloads.load_references()["mc-sweep"][str(SEED % workloads.POOL)]
    refs = json.loads(json.dumps(refs))
    refs["ustat-three-point-n30-d3"]["empirical"]["empirical_kdist"] += 0.05
    runner = _one_pass("mc-sweep", lambda j: j.name.startswith("ustat"), refs)
    assert len(runner.failures) == 1 and "DKW radius" in runner.failures[0]


def test_gate_accepts_changes_within_tolerance():
    outcome = workloads.Outcome(seconds=1.0, work=1, exact={"a": 1.0 + 1e-12}, empirical={"e": (0.11, 0.02)})
    ref = {"exact": {"a": 1.0}, "empirical": {"e": 0.1}}
    assert workloads.gate(outcome, ref) == []
    assert workloads.gate(outcome, {"exact": {"a": 1.0, "b": 2.0}, "empirical": {"e": 0.1}}) == [
        "b: missing from the output"
    ]


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, None, "outer", 0.0, 10.0, "r", None),
        S(2, 1, "a", 1.0, 4.0, "r", None),
        S(3, 1, "b", 3.0, 6.0, "r", None),  # overlaps a, as worker threads do
        S(4, 2, "c", 1.5, 2.0, "r", None),
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5}


def test_fill_pass_runs_only_the_jobs_that_still_fit():
    class Instant(workloads.Job):
        quick = True

        def __init__(self, name):
            self.name = name

        def run(self):
            return workloads.Outcome(seconds=0.0, work=1)

    runner = run.Runner([Instant("short"), Instant("long")], {"short": {}, "long": {}})
    runner.job_seconds = {"short": [0.01], "long": [60.0]}
    runner.one_pass(1, until=time.monotonic() + 30.0)
    assert runner.job_seconds == {"short": [0.01, 0.0], "long": [60.0]}
    assert runner.attempted == 1 and runner.failures == []
