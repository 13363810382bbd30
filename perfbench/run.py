"""kolbounds benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload exact-large --seed 3 --seconds 40 --trace 0

Run from anywhere; the package is imported from the src/ directory beside
this one and nowhere else. --trace 0 runs untraced passes and reports the
end-to-end metrics (wall_s, setup_s, peak_rss_mib; failed_frac goes into the
run record, since it is zero on a correct program). --trace 1 runs one
untraced pass, then traced passes, and reports the per-layer metrics. Every
job's output goes through the gate in workloads.py; the exit code is 1 if any
job failed it, 2 if the benchmark could not run at all.

Stdout ends with two lines: the run record (environment, calibration, every
pass) and the result object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Monte Carlo chunk threads per workload; two workers fill a two-core machine.
WORKERS = {"exact-large": 1, "desk-reports": 1, "mc-sweep": 2}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, wrong package, bad input)."""


def _import_check() -> None:
    """Import kolbounds.cli from SRC, refusing a copy from anywhere else."""
    if not (SRC / "kolbounds" / "cli.py").is_file():
        raise BenchError(f"no kolbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kolbounds.cli

    where = Path(kolbounds.cli.__file__).resolve()
    if SRC not in where.parents:
        raise BenchError(f"kolbounds was imported from {where}, not from {SRC}")


_SETUP_PROBE = (
    "import time\n"
    "import kolbounds.cli\n"
    "t = time.monotonic()\n"
    "print(repr(t), kolbounds.cli.__file__)\n"
)


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to kolbounds.cli imported,
    once per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise BenchError(f"the import probe failed: {proc.stderr.strip()}")
        stamp, where = proc.stdout.split(maxsplit=1)
        if SRC not in Path(where.strip()).resolve().parents:
            raise BenchError(f"the import probe loaded kolbounds from {where.strip()}")
        out.append(float(stamp) - t0)
    return out


def calibrate() -> float:
    """A fixed numpy kernel (matrix products and a sort), timed as a host-speed
    diagnostic; it is not part of any metric."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    v = rng.standard_normal(1 << 20)
    t0 = time.perf_counter()
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    np.sort(v)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read from .git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(workload: str, seed: int, instance: int, inputs_sha: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "KOLBOUNDS_WORKERS": os.environ.get("KOLBOUNDS_WORKERS"),
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "instance": instance,
        "inputs_sha256": inputs_sha,
        "loadavg": os.getloadavg(),
    }


def quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


class Runner:
    """Runs passes over one workload's jobs and keeps the gate's tally."""

    def __init__(self, jobs, refs):
        self.jobs = jobs
        self.refs = refs
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.cli_errors = 0
        self.work = 0
        self.job_seconds: dict[str, list[float]] = {}

    def median_pass(self) -> float:
        """One pass's time from each job's median over the passes so far, so a
        slow spell on the shared host that hits one job is discarded."""
        return sum(statistics.median(ts) for ts in self.job_seconds.values())

    def one_pass(self, index: int, until: float | None = None) -> float:
        """Run every job once; returns the summed time of the timed calls.
        With `until`, a job runs only if its slowest time so far would still
        end by that monotonic time, so the pass may leave jobs out."""
        import workloads

        wall = 0.0
        work = 0
        for job in self.jobs:
            if until is not None and time.monotonic() + max(self.job_seconds.get(job.name, [0.0])) > until:
                continue
            if self.tracer is not None:
                self.tracer.run = f"{index}/{job.name}"
            self.attempted += 1
            try:
                outcome = job.run()
            except Exception:  # a job that raises is a failed job, not a crash
                self.failures.append(f"pass {index} {job.name}: raised\n{traceback.format_exc()}")
                self.cli_errors += isinstance(job, workloads.CliJob)
                continue
            wall += outcome.seconds
            self.job_seconds.setdefault(job.name, []).append(outcome.seconds)
            work += outcome.work
            if isinstance(job, workloads.CliJob) and any(p.startswith("exit code") for p in outcome.problems):
                self.cli_errors += 1
            if job.name in self.refs:
                problems = workloads.gate(outcome, job.expected(self.refs[job.name]))
            else:
                problems = ["no reference recorded for this job"]
            if problems:
                self.failures.append(f"pass {index} {job.name}: " + "; ".join(problems))
        if until is None:
            self.work = work
        return wall


def untraced_passes(runner: Runner, deadline: float, record: dict) -> dict[str, float]:
    # One set-up probe before each pass, topped up at the end, so the probes
    # sample the host across the whole run rather than in one burst.
    setup: list[float] = []
    walls: list[float] = []
    while True:
        setup += measure_setup(1)
        walls.append(runner.one_pass(len(walls)))
        record["calibration_s"].append(calibrate())
        if time.monotonic() + max(walls) > deadline:
            break
    # The rest of the run goes to the jobs that still fit, leaving time for
    # the set-up probes still owed.
    owed = max(SETUP_REPEATS - len(setup), 0)
    attempted = runner.attempted
    runner.one_pass(len(walls), until=deadline - owed * max(setup))
    record["fill_pass_jobs"] = runner.attempted - attempted
    setup += measure_setup(owed)
    record.update(passes=len(walls), pass_wall_s=walls, pass_wall_s_quartiles=quartiles(walls), setup_s_all=setup,
                  job_seconds=runner.job_seconds)
    return {
        "wall_s": runner.median_pass(),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_passes(runner: Runner, deadline: float, record: dict, workload: str, trace_file: Path):
    import tracing

    base_wall = runner.one_pass(0)
    record["calibration_s"].append(calibrate())
    runner.job_seconds = {}
    runner.tracer = tracer = tracing.Tracer()
    per_pass, walls, spans_all = [], [], []
    tracer.install()
    try:
        while True:
            errors_before = runner.cli_errors
            walls.append(runner.one_pass(len(walls) + 1))
            spans = tracer.take()
            spans_all += spans
            per_pass.append(tracing.pass_metrics(spans, runner.cli_errors - errors_before))
            if len(walls) == 1:
                record["design"] = tracing.design_check(workload, tracing.shares(spans, walls[0]), spans)
            if time.monotonic() + max(walls) > deadline:
                break
    finally:
        tracer.uninstall()
    record["calibration_s"].append(calibrate())
    tracing.Tracer.write(trace_file, spans_all)
    record.update(untraced_wall_s=base_wall, traced_pass_wall_s=walls, spans=len(spans_all),
                  trace_file=str(trace_file.relative_to(ROOT)))
    metrics = tracing.median_metrics(per_pass)
    metrics["trace.wall_s"] = runner.median_pass()
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base_wall
    return metrics, {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}


def run(args) -> tuple[dict, dict]:
    import workloads

    instance = args.seed % workloads.POOL
    refs = workloads.load_references().get(args.workload, {}).get(str(instance))
    if refs is None:
        raise BenchError(f"no references for {args.workload} instance {instance}")
    deadline = time.monotonic() + args.seconds

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        jobs, inputs_sha = workloads.prepare(args.workload, instance, Path(tmp), args.reduced)
        record = {
            "env": environment(args.workload, args.seed, instance, inputs_sha),
            "reduced": args.reduced,
            "calibration_s": [calibrate()],
        }
        runner = Runner(jobs, refs)
        if args.trace:
            trace_file = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, units = traced_passes(runner, deadline, record, args.workload, trace_file)
        else:
            metrics, units = untraced_passes(runner, deadline, record), END_TO_END

    failed = len(runner.failures)
    metrics["failed_frac"] = failed / runner.attempted
    record.update(
        work_per_pass={"count": runner.work, "unit": workloads.WORK_UNIT[args.workload]},
        failed_frac=metrics["failed_frac"],
        calibration_s_median=statistics.median(record["calibration_s"]),
        failures=runner.failures[:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="a short job list, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    # Threads are fixed before numpy loads: BLAS single-threaded everywhere,
    # Monte Carlo chunk workers only where the workload asks for them.
    for key in BLAS_ENV:
        os.environ[key] = "1"
    os.environ["KOLBOUNDS_WORKERS"] = str(WORKERS[args.workload])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        _import_check()
        record, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in record["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
