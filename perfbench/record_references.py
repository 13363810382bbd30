"""Record the gate's references: every job of every workload, every instance.

    python3 perfbench/record_references.py

Run this only on a commit whose outputs are trusted; it overwrites
references.json beside this file. Each job runs once per instance, with the
same inputs, streams and worker counts as the benchmark gives it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    for key in run.BLAS_ENV:
        os.environ[key] = "1"
    run._import_check()
    import workloads

    refs: dict = {}
    for workload in run.WORKERS:
        os.environ["KOLBOUNDS_WORKERS"] = str(run.WORKERS[workload])
        refs[workload] = {}
        for instance in range(workloads.POOL):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
                jobs, _ = workloads.prepare(workload, instance, Path(tmp), reduced=False)
                entry = {}
                for job in jobs:
                    outcome = job.run()
                    if outcome.problems:
                        raise SystemExit(f"{workload} {instance} {job.name}: {outcome.problems}")
                    entry[job.name] = workloads.reference_entry(outcome)
            refs[workload][str(instance)] = entry
            print(f"{workload} instance {instance}: {len(entry)} jobs", flush=True)
    text = json.dumps(refs, sort_keys=True, indent=1) + "\n"
    (HERE / "references.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
