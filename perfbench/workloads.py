"""The three benchmark workloads: generated inputs, timed jobs, output gate.

A workload is a fixed list of jobs. Each job writes or builds its inputs once
(untimed), then each pass runs it and times only the calls into kolbounds.
Inputs come from the instance number (seed mod POOL) and the job's name, so
a reduced run, which keeps a subset of the jobs and shortens sweeps to a
prefix of their rows, sees exactly the inputs and streams of the full run.

Every checked quantity has a reference in references.json, recorded per
instance by record_references.py on the code the benchmark was defined on:

* closed-form and exact quantities must match within REL_TOL relative;
* empirical distances must lie within their reported DKW radius of the
  reference distance, so re-keyed streams or last-ulp changes in sums do
  not fail the gate, while a wrong sampler does;
* invariants hold without a reference: the exit code is the expected one,
  every master bound is at least its exact distance, and so on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kolbounds import bounds, chaos, cli, mc
from kolbounds.dist import Distribution, three_point
from kolbounds.space import OutcomeSpace

POOL = 16
REL_TOL = 1e-9
ABS_TOL = 1e-12

ASYM_ATOMS = [[-1.0, 0.5], [0.0, 0.25], [2.0, 0.25]]
LAWS = {
    "rademacher": Distribution.rademacher(),
    "three-point": three_point(),
    "asym": Distribution.finite(ASYM_ATOMS),
}


def job_rng(instance: int, name: str) -> np.random.Generator:
    return np.random.default_rng([instance, zlib.crc32(name.encode("utf-8"))])


@dataclass
class Outcome:
    """What one timed job produced, ready for the gate."""

    seconds: float
    work: int
    exact: dict[str, float] = field(default_factory=dict)
    empirical: dict[str, tuple[float, float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * max(abs(got), abs(ref)) + ABS_TOL


def gate(outcome: Outcome, ref: dict) -> list[str]:
    """Problems of one job's outcome against its reference entry."""
    problems = list(outcome.problems)
    ref_exact = ref.get("exact", {})
    ref_emp = ref.get("empirical", {})
    for key in sorted(set(ref_exact) | set(outcome.exact)):
        if key not in outcome.exact:
            problems.append(f"{key}: missing from the output")
        elif key not in ref_exact:
            problems.append(f"{key}: not in the reference")
        elif not _close(outcome.exact[key], ref_exact[key]):
            problems.append(f"{key}: {outcome.exact[key]!r} != reference {ref_exact[key]!r}")
    for key in sorted(set(ref_emp) | set(outcome.empirical)):
        if key not in outcome.empirical:
            problems.append(f"{key}: missing from the output")
        elif key not in ref_emp:
            problems.append(f"{key}: not in the reference")
        else:
            value, radius = outcome.empirical[key]
            if not abs(value - ref_emp[key]) <= radius:
                problems.append(
                    f"{key}: empirical {value!r} lies beyond the DKW radius {radius!r} "
                    f"of reference {ref_emp[key]!r}"
                )
    return problems


def reference_entry(outcome: Outcome) -> dict:
    return {
        "exact": dict(sorted(outcome.exact.items())),
        "empirical": {k: v for k, (v, _) in sorted(outcome.empirical.items())},
    }


class Job:
    """A named unit of work: prepare() builds inputs, run() times one call."""

    name: str
    quick: bool  # kept in reduced runs

    def expected(self, ref: dict) -> dict:
        """The part of the reference entry this job's configuration covers."""
        return ref


# ------------------------------------------------------------ library jobs


def _unit_functional_values(law: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random values on the n-fold grid, centred and scaled to unit variance."""
    probs = np.ones(())
    for _ in range(n):
        probs = np.multiply.outer(probs, law.probs_array())
    v = rng.standard_normal((law.n_atoms,) * n)
    v = v - np.sum(v * probs)
    return v / math.sqrt(np.sum(v * v * probs))


class Certify(Job):
    """exact_kdist, master_bound and fourth_moment_check on one functional."""

    def __init__(self, law: str, n: int, quick: bool):
        self.name = f"certify-{law}-n{n}"
        self.law = LAWS[law]
        self.n = n
        self.quick = quick

    def prepare(self, instance: int, workdir: Path) -> bytes:
        self.values = _unit_functional_values(self.law, self.n, job_rng(instance, self.name))
        return self.values.tobytes()

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        X = OutcomeSpace.iid(self.law, self.n).functional(self.values)
        dk = mc.exact_kdist(X).value
        mb = bounds.master_bound(X)
        fm = bounds.fourth_moment_check(X)
        out = Outcome(time.perf_counter() - t0, work=X.space.size)
        out.exact = {
            "exact_kdist": dk,
            "master_bound.total": mb.total,
            "master_bound.variance_term": mb.variance_term,
            "master_bound.gradient_fourth_term": mb.gradient_fourth_term,
            "master_bound.squared_gradient_term": mb.squared_gradient_term,
            "fourth_moment.lhs": fm.lhs,
            "fourth_moment.rhs": fm.rhs,
        }
        if not mb.total >= dk:
            out.problems.append(f"master bound {mb.total!r} below the exact distance {dk!r}")
        if not fm.holds:
            out.problems.append(f"fourth-moment check fails: {fm.lhs!r} > {fm.rhs!r}")
        return out


class SingleOrder(Job):
    """A pure order-d multiple integral through single_order_bounds."""

    def __init__(self, law: str, n: int, order: int, quick: bool):
        self.name = f"single-order-{law}-n{n}-d{order}"
        self.law = LAWS[law]
        self.n = n
        self.order = order
        self.quick = quick

    def prepare(self, instance: int, workdir: Path) -> bytes:
        rng = job_rng(instance, self.name)
        m = self.law.n_atoms
        self.tables = {
            sub: rng.standard_normal((m,) * self.order)
            for sub in itertools.combinations(range(self.n), self.order)
        }
        return b"".join(t.tobytes() for t in self.tables.values())

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        space = OutcomeSpace.iid(self.law, self.n)
        kernel = chaos.ChaosKernel(space, self.order, self.tables, raw=True).canonical()
        X = kernel.integral()
        Z = X * (1.0 / math.sqrt(X.variance()))
        dk = mc.exact_kdist(Z).value
        first, second = bounds.single_order_bounds(Z, self.order)
        out = Outcome(time.perf_counter() - t0, work=space.size)
        out.exact = {"exact_kdist": dk, "single_order.first": first, "single_order.second": second}
        if not min(first, second) >= dk:
            out.problems.append(f"single-order bounds {first!r}, {second!r} below {dk!r}")
        return out


# ---------------------------------------------------------------- CLI jobs


def _write_json(path: Path, obj) -> bytes:
    text = json.dumps(obj, sort_keys=True).encode("utf-8")
    path.write_bytes(text)
    return text


def _law_arg(law: str, workdir: Path) -> tuple[str, bytes]:
    """The --law argument; the asymmetric law travels as a JSON file."""
    if law != "asym":
        return law, law.encode("utf-8")
    path = workdir / "asym-law.json"
    return str(path), _write_json(path, {"type": "finite", "atoms": ASYM_ATOMS})


class CliJob(Job):
    """One cli.main call whose report lands in the work directory; it must
    exit 0. work counts reports, or draws where the call samples."""

    def __init__(self, name: str, quick: bool, work: int = 1):
        self.name = name
        self.quick = quick
        self.work = work

    def prepare(self, instance: int, workdir: Path) -> bytes:
        self.out = workdir / f"{self.name}.report.json"
        self.argv = self.inputs(instance, workdir) + ["--out", str(self.out)]
        return self.input_bytes + " ".join(self.argv).encode("utf-8")

    def run(self) -> Outcome:
        if self.out.exists():
            self.out.unlink()
        t0 = time.perf_counter()
        try:
            code = cli.main(self.argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        out = Outcome(time.perf_counter() - t0, work=self.work)
        if code != 0:
            out.problems.append(f"exit code {code}, expected 0")
            return out
        report = json.loads(self.out.read_text(encoding="utf-8"))
        self.read(report["results"], out)
        return out

    def inputs(self, instance: int, workdir: Path) -> list[str]:
        raise NotImplementedError

    def read(self, results: dict, out: Outcome) -> None:
        raise NotImplementedError


def _symmetric(rng: np.random.Generator, n: int, zero_diag: bool) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return np.triu(A, 1) + np.triu(A, 1).T + (0.0 if zero_diag else np.diag(np.diag(A)))


class QformReport(CliJob):
    """qform --matrix with --samples 0: analysis, rates, chain, exact distance."""

    def __init__(self, law: str, n: int, zero_diag: bool, quick: bool):
        super().__init__(f"qform-{law}-n{n}", quick)
        self.law, self.n, self.zero_diag = law, n, zero_diag

    def inputs(self, instance: int, workdir: Path) -> list[str]:
        A = _symmetric(job_rng(instance, self.name), self.n, self.zero_diag)
        path = workdir / f"{self.name}.csv"
        text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in A)
        path.write_text(text, encoding="utf-8")
        law, law_bytes = _law_arg(self.law, workdir)
        self.input_bytes = text.encode("utf-8") + law_bytes
        return ["qform", "--matrix", str(path), "--law", law, "--seed", str(instance), "--samples", "0"]

    def read(self, results: dict, out: Outcome) -> None:
        for k in ("fourth_standardized", "influence", "lambda1", "sigma2", "tr_a4"):
            out.exact[f"analysis.{k}"] = results["analysis"][k]
        for k, v in results["rates"].items():
            out.exact[f"rates.{k}"] = v
        for step in results["chain"]:
            out.exact[f"chain.{step['name']}.lhs"] = step["lhs"]
            out.exact[f"chain.{step['name']}.rhs"] = step["rhs"]
            if not step["lhs"] <= step["rhs"] * (1.0 + REL_TOL) + ABS_TOL:
                out.problems.append(f"chain step {step['name']} fails: {step['lhs']!r} > {step['rhs']!r}")
        if "exact" in results:
            out.exact["exact_kdist"] = results["exact"]["value"]


def _weights_json(rng: np.random.Generator, n: int, order: int) -> dict:
    entries = [
        {"subset": list(sub), "value": float(rng.standard_normal())}
        for sub in itertools.combinations(range(n), order)
    ]
    return {"n": n, "order": order, "entries": entries}


class UstatReport(CliJob):
    """ustat --weights: variance, rate, and the exact or empirical distance."""

    def __init__(self, law: str, n: int, order: int, samples: int, quick: bool):
        super().__init__(f"ustat-{law}-n{n}-d{order}", quick, work=max(samples, 1))
        self.law, self.n, self.order, self.samples = law, n, order, samples

    def inputs(self, instance: int, workdir: Path) -> list[str]:
        path = workdir / f"{self.name}.weights.json"
        self.input_bytes = _write_json(path, _weights_json(job_rng(instance, self.name), self.n, self.order))
        law, law_bytes = _law_arg(self.law, workdir)
        self.input_bytes += law_bytes
        return ["ustat", "--weights", str(path), "--law", law, "--seed", str(instance),
                "--samples", str(self.samples)]

    def read(self, results: dict, out: Outcome) -> None:
        out.exact["sigma2"] = results["sigma2"]
        out.exact["rate"] = results["rate"]
        if "exact" in results:
            out.exact["exact_kdist"] = results["exact"]["value"]
        if "empirical" in results:
            emp = results["empirical"]
            out.exact["dkw"] = emp["dkw"]
            out.empirical["empirical_kdist"] = (emp["value"], emp["dkw"])


class ChaosVerify(CliJob):
    """chaos-verify: every identity and inequality check must pass."""

    corrupt = False  # the self-tests set it to see the gate catch exit 4

    def __init__(self, index: int, quick: bool):
        super().__init__(f"chaos-verify-{index}", quick)
        self.index = index

    def inputs(self, instance: int, workdir: Path) -> list[str]:
        self.input_bytes = b""
        argv = ["chaos-verify", "--seed", str(POOL * self.index + instance)]
        return argv + ["--corrupt"] if self.corrupt else argv

    def read(self, results: dict, out: Outcome) -> None:
        out.exact["checks"] = float(len(results["checks"]))
        for check in results["checks"]:
            if not check["passed"]:
                out.problems.append(f"check {check['name']} failed")


class Sweep(CliJob):
    """A --sweep CLI call; rows are checked one by one against the CSV too."""

    def __init__(self, name: str, config: dict, reduced_config: dict, reduced: bool):
        self.config = reduced_config if reduced else config
        super().__init__(name, quick=True, work=self.config["samples"] * len(self.row_keys()))

    def prepare(self, instance: int, workdir: Path) -> bytes:
        self.sweep_path = workdir / f"{self.name}.sweep.json"
        self.input_bytes = _write_json(self.sweep_path, self.config)
        return super().prepare(instance, workdir)

    def expected(self, ref: dict) -> dict:
        rows = set(self.row_keys())
        return {part: {k: v for k, v in entries.items() if k.rpartition(".")[0] in rows}
                for part, entries in ref.items()}

    def read(self, results: dict, out: Outcome) -> None:
        rows = results["rows"]
        csv_path = Path(str(self.out) + ".csv")
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        columns = results["csv_columns"]
        if lines[0] != ",".join(columns) or len(lines) != len(rows) + 1:
            out.problems.append("the CSV does not match the report rows")
        else:
            for line, row in zip(lines[1:], rows):
                if [float(x) for x in line.split(",")] != [float(row[c]) for c in columns]:
                    out.problems.append(f"CSV row {line!r} differs from the report")
        if [self.row_key(r) for r in rows] != self.row_keys():
            out.problems.append("sweep rows do not cover the configured grid")
        for row in rows:
            key = self.row_key(row)
            for col in self.exact_columns:
                out.exact[f"{key}.{col}"] = row[col]
            out.exact[f"{key}.dkw"] = row["dkw"]
            out.empirical[f"{key}.dk_emp"] = (row["dk_emp"], row["dkw"])


class QformSweep(Sweep):
    exact_columns = ("rate_r1", "rate_r2")

    def __init__(self, sizes: list[int], reduced_sizes: list[int], samples: int, reduced: bool):
        cfg = {"delta": 0.01, "samples": samples}
        super().__init__("qform-sweep", {**cfg, "sizes": sizes}, {**cfg, "sizes": reduced_sizes}, reduced)

    def inputs(self, instance: int, workdir: Path) -> list[str]:
        return ["qform", "--sweep", str(self.sweep_path), "--law", "rademacher", "--seed", str(instance)]

    def row_key(self, row: dict) -> str:
        return f"n{row['n']}"

    def row_keys(self) -> list[str]:
        return [f"n{n}" for n in self.config["sizes"]]


class GraphSweep(Sweep):
    exact_columns = ("rg_rate",)

    def __init__(self, template: str, edges: list, law: str, ns: list[int], reduced_ns: list[int],
                 ps: list[float], samples: int, reduced: bool):
        cfg = {"delta": 0.01, "samples": samples, "p": ps}
        super().__init__(f"graph-{template}", {**cfg, "n": ns}, {**cfg, "n": reduced_ns}, reduced)
        self.edges, self.law = edges, law

    def inputs(self, instance: int, workdir: Path) -> list[str]:
        graph = workdir / f"{self.name}.graph.json"
        self.input_bytes += _write_json(graph, {"vertices": 1 + max(max(e) for e in self.edges), "edges": self.edges})
        law, law_bytes = _law_arg(self.law, workdir)
        self.input_bytes += law_bytes
        return ["graph", "--graph", str(graph), "--law", law, "--sweep", str(self.sweep_path),
                "--seed", str(instance)]

    def row_key(self, row: dict) -> str:
        return f"n{row['n']}-p{row['p']}"

    def row_keys(self) -> list[str]:
        return [f"n{n}-p{float(p)}" for n in self.config["n"] for p in self.config["p"]]


# --------------------------------------------------------------- workloads

TRIANGLE = [[0, 1], [0, 2], [1, 2]]
FOUR_CYCLE = [[0, 1], [1, 2], [2, 3], [0, 3]]
K4 = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def exact_large(reduced: bool) -> list:
    jobs = [
        Certify("rademacher", 10, True),
        Certify("rademacher", 11, False),
        Certify("rademacher", 12, False),
        Certify("three-point", 8, True),
        Certify("three-point", 9, False),
        Certify("asym", 7, True),
        Certify("asym", 8, False),
        SingleOrder("three-point", 9, 3, True),
    ]
    return [j for j in jobs if j.quick or not reduced]


def desk_reports(reduced: bool) -> list:
    jobs: list = []
    for law, zero_diag in (("rademacher", True), ("three-point", False), ("asym", False)):
        for n in (4, 6, 8, 10, 12):
            jobs.append(QformReport(law, n, zero_diag, quick=law == "rademacher"))
    for n in (16, 24, 32, 48, 64, 96, 128):
        jobs.append(QformReport("rademacher", n, True, quick=n <= 32))
    jobs += [
        UstatReport("rademacher", 6, 2, 0, True),
        UstatReport("three-point", 8, 3, 0, True),
        UstatReport("asym", 10, 2, 0, False),
        UstatReport("three-point", 10, 3, 0, False),
        UstatReport("rademacher", 40, 2, 0, True),
        UstatReport("three-point", 40, 3, 0, False),
    ]
    jobs += [ChaosVerify(i, quick=i == 0) for i in range(5)]
    return [j for j in jobs if j.quick or not reduced]


def mc_sweep(reduced: bool) -> list:
    return [
        QformSweep([16, 32, 64, 128], [16, 32], samples=100_000, reduced=reduced),
        GraphSweep("triangle", TRIANGLE, "rademacher", [20, 40, 80], [20], [0.3, 0.5], 2_000, reduced),
        GraphSweep("four-cycle", FOUR_CYCLE, "three-point", [20, 40, 80], [20], [0.3, 0.5], 2_000, reduced),
        GraphSweep("k4", K4, "rademacher", [20], [20], [0.5], 1_000, reduced),
        UstatReport("three-point", 30, 3, 5_000, True),
    ]


WORKLOADS = {"exact-large": exact_large, "desk-reports": desk_reports, "mc-sweep": mc_sweep}

# What one unit of a pass's work counts, per workload.
WORK_UNIT = {"exact-large": "exact points certified", "desk-reports": "reports emitted",
             "mc-sweep": "Monte Carlo draws"}


def prepare(workload: str, instance: int, workdir: Path, reduced: bool) -> tuple[list, str]:
    """Build the job list and its inputs; returns the jobs and an input hash."""
    jobs = WORKLOADS[workload](reduced)
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(job.name.encode("utf-8"))
        digest.update(job.prepare(instance, workdir))
    return jobs, digest.hexdigest()


def load_references() -> dict:
    path = Path(__file__).with_name("references.json")
    return json.loads(path.read_text(encoding="utf-8"))
