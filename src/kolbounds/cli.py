"""Command line front end: deterministic JSON reports for the rate evaluators.

Subcommands
-----------
qform         rates, conditions and the comparison chain for a symmetric
              matrix under a centered law; optional empirical distance and
              size sweeps over generated sign matrices
ustat         variance and rate for a weighted symmetric statistic with the
              product kernel of the law
graph         template-weight rate sweeps over an (n, p) grid, product
              weight convention
chaos-verify  the seeded identity and inequality suite

Every report is JSON with sorted keys and embeds the package version, the
seed, a sha256 over the resolved configuration (file contents, not paths)
and a constant_free flag per reported quantity. Identical inputs produce
byte-identical reports; Monte Carlo sections draw from counter-based
streams in fixed chunks, so KOLBOUNDS_WORKERS changes speed, never output.

Exit codes: 0 success, 2 bad input, 3 degenerate variance, 4 an identity
check failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, graphweigh, mc, qform, tol, ustat, verify
from .dist import Distribution, three_point
from .errors import (
    DegenerateError,
    DomainError,
    InputError,
    SpaceTooLargeError,
)
from .space import SIZE_CAP

MIN_EMPIRICAL_SAMPLES = 100

# Stream-id layout: generated sweep matrices draw from one block, sample
# chunks for sweep row i start at i * stride. A row may use at most stride
# chunks and a qform sweep at most base / stride rows; sweeps beyond either
# limit are refused, because their stream ids would collide.
_MATRIX_STREAM_BASE = 500_000
_SWEEP_STREAM_STRIDE = 10_000
_MAX_SWEEP_SAMPLES = _SWEEP_STREAM_STRIDE * mc.DRAW_CHUNK
_MAX_QFORM_SWEEP_SIZES = _MATRIX_STREAM_BASE // _SWEEP_STREAM_STRIDE

_QFORM_FLAGS = {"chain": True, "exact": True, "r1": False, "r2": False, "spectral": False}
_USTAT_FLAGS = {"exact": True, "rate": False, "sigma2": True}
_GRAPH_FLAGS = {"min_scale": True, "rate": False}
_VERIFY_FLAGS = {"explicit_bounds": True, "identities": True}


# ------------------------------------------------------------------ helpers


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_law(text: str) -> Distribution:
    key = text.strip().lower().replace("_", "-")
    if key == "rademacher":
        return Distribution.rademacher()
    if key == "three-point":
        return three_point()
    return Distribution.load(text)


def _law_json(law: Distribution) -> dict:
    atoms = [[float(v), float(p)] for v, p in zip(law.values_array(), law.probs_array())]
    return {"atoms": atoms}


def _validate_common(args: argparse.Namespace) -> None:
    if args.seed < 0:
        raise InputError("--seed must be a nonnegative integer")
    samples = getattr(args, "samples", 0)
    if samples != 0 and samples < MIN_EMPIRICAL_SAMPLES:
        raise InputError(f"--samples must be 0 or at least {MIN_EMPIRICAL_SAMPLES}")
    delta = getattr(args, "delta", 0.01)
    if not 0.0 < delta < 1.0:
        raise InputError("--delta must lie strictly between 0 and 1")
    constant = getattr(args, "constant", None)
    if constant is not None and not constant > 0.0:
        raise InputError("--constant must be positive when given")


def _emit(args: argparse.Namespace, config: dict, flags: dict, results: dict) -> int:
    """Write the report (its command is config["command"]) and return exit code 0."""
    cfg_text = json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False)
    report = {
        "command": config["command"],
        "config": config,
        "config_sha256": hashlib.sha256(cfg_text.encode("utf-8")).hexdigest(),
        "constant": getattr(args, "constant", None),
        "constant_free": flags,
        "results": results,
        "seed": args.seed,
        "version": __version__,
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row[c]) for c in columns) + "\n")


def _number_list(obj, what: str, kind: type) -> list:
    """A sweep field as a list of kind (int or float); an int field takes integral floats."""
    if not isinstance(obj, list):
        raise InputError(f"sweep field {what!r} must be a list")
    out = []
    for v in obj:
        fractional = isinstance(v, float) and not v.is_integer()
        if isinstance(v, bool) or not isinstance(v, (int, float)) or (kind is int and fractional):
            raise InputError(f"sweep field {what!r} must hold {'integers' if kind is int else 'numbers'}, got {v!r}")
        out.append(kind(v))
    return out


def _sweep_config(args: argparse.Namespace) -> dict:
    if not args.out:
        raise InputError("sweeps require --out; the CSV lands next to it")
    cfg = _load_json(args.sweep)
    if not isinstance(cfg, dict):
        raise InputError("the sweep config must be a JSON object")
    return cfg


def _sweep_samples(cfg: dict, args: argparse.Namespace) -> int:
    samples = cfg.get("samples", args.samples)
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise InputError("sweep field 'samples' must be an integer")
    if samples < MIN_EMPIRICAL_SAMPLES:
        raise InputError(f"sweeps need at least {MIN_EMPIRICAL_SAMPLES} samples per point")
    if samples > _MAX_SWEEP_SAMPLES:
        raise InputError(
            f"sweeps take at most {_MAX_SWEEP_SAMPLES} samples per point "
            f"({_SWEEP_STREAM_STRIDE} streams of {mc.DRAW_CHUNK} draws)"
        )
    return samples


def _sweep_delta(cfg: dict, args: argparse.Namespace) -> float:
    delta = float(cfg.get("delta", args.delta))
    if not 0.0 < delta < 1.0:
        raise InputError("sweep field 'delta' must lie strictly between 0 and 1")
    return delta


def sign_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix with zero diagonal and entries +-1/sqrt(n)."""
    if n < 2:
        raise InputError("sign matrices need n >= 2")
    A = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    A[iu] = np.where(rng.random(iu[0].size) < 0.5, -1.0, 1.0)
    return (A + A.T) / math.sqrt(n)


def _scaled_draw(sample, scale: float, rng: np.random.Generator, size: int) -> np.ndarray:
    return sample(rng, size) / scale


def _emit_distances(
    args: argparse.Namespace, config: dict, flags: dict, results: dict, outcomes: int, exact, sample, scale: float
) -> int:
    """Add the distance sections of statistic / scale to results and emit the report.

    The exact section enumerates exact() (the statistic on the whole space)
    when its outcomes fit SIZE_CAP; the empirical one draws --samples values
    through sample(rng, size) from streams 0, 1, ... of --seed.
    """
    if outcomes <= SIZE_CAP:
        results["exact"] = mc.exact_kdist(exact() * (1.0 / scale)).to_json()
    if args.samples:
        draws = mc.chunked_draws(functools.partial(_scaled_draw, sample, scale), args.samples, seed=args.seed)
        results["empirical"] = mc.empirical_kdist(draws, delta=args.delta, seed=(args.seed, 0)).to_json()
    return _emit(args, config, flags, results)


def _run_sweep(args: argparse.Namespace, config: dict, flags: dict, fields: list[str], rows: list[dict], draws: list) -> int:
    """Sample every row through one pooled run, then write the CSV and the report.

    rows[i] holds row i's fields (already checked), draws[i] its draw
    function; row i draws config["samples"] values from the streams starting
    at _SWEEP_STREAM_STRIDE * i and gains the dk_emp and dkw columns.
    """
    draw_rows = [(draw, config["samples"], _SWEEP_STREAM_STRIDE * i) for i, draw in enumerate(draws)]
    for row, (_, _, first), values in zip(rows, draw_rows, mc.pooled_draws(draw_rows, args.seed)):
        rep = mc.empirical_kdist(values, delta=config["delta"], seed=(args.seed, first))
        row.update(dk_emp=rep.value, dkw=rep.dkw_radius)
    columns = fields + ["dk_emp", "dkw"]
    _write_csv(args.out + ".csv", columns, rows)
    return _emit(args, config, flags, {"csv_columns": columns, "rows": rows})


# ------------------------------------------------------------------- qform


def _sigma_step_valid(m, diag2: float) -> bool:
    return diag2 == 0.0 or 2.0 * m.mu[2] ** 2 - m.mu[4] <= tol.INPUT * tol.scale(m.mu[4])


def _run_qform(args: argparse.Namespace) -> int:
    _validate_common(args)
    law = _load_law(args.law)
    m = law.moments()
    if args.sweep is not None:
        if args.matrix is not None:
            raise InputError("--sweep generates its own matrices; drop --matrix")
        return _run_qform_sweep(args, law)
    if args.matrix is None:
        raise InputError("qform needs --matrix unless --sweep is given")
    A = qform.load_matrix_csv(args.matrix)
    config = {
        "command": "qform",
        "constant": args.constant,
        "delta": args.delta,
        "law": _law_json(law),
        "matrix": [[float(x) for x in row] for row in A],
        "samples": args.samples,
        "seed": args.seed,
    }
    q = qform.analyze(A, m)
    rates = {
        "r1": qform.bound_r1(q),
        "r2": qform.bound_r2(q),
        "spectral": qform.rate_gt(q, m),
    }
    dj = qform.dejong_check(q)
    chain = qform.trace_chain(q, m if _sigma_step_valid(m, q.diag2) else None)
    results: dict = {
        "analysis": {
            "fourth_standardized": q.fourth_standardized,
            "gamma": q.gamma,
            "influence": q.influence,
            "lambda1": q.lambda1,
            "n": q.n,
            "sigma2": q.sigma2,
            "tr_a4": q.tr_a4,
        },
        "chain": [{"lhs": s.lhs, "name": s.name, "rhs": s.rhs} for s in chain],
        "dejong": {
            "fourth_gap": dj.fourth_gap,
            "influence_ratio": dj.influence_ratio,
            "trace_ratio": dj.trace_ratio,
        },
        "rates": rates,
    }
    if args.constant is not None:
        results["scaled_rates"] = {k: args.constant * v for k, v in rates.items()}
    exact = functools.partial(qform.q_functional, A, law)
    sample = functools.partial(qform.q_samples, A, law)
    return _emit_distances(args, config, _QFORM_FLAGS, results, law.n_atoms**q.n, exact, sample, math.sqrt(q.sigma2))


def _sweep_matrix(seed: int, idx: int, n: int) -> np.ndarray:
    return sign_matrix(n, mc.stream(seed, _MATRIX_STREAM_BASE + idx))


def _sweep_q_draw(
    seed: int, idx: int, n: int, law: Distribution, scale: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    # Each chunk regenerates its row's matrix from the row's stream, so the
    # queued rows hold no n x n matrices; that costs O(n^2) per chunk of
    # O(chunk * n^2) work.
    return qform.q_samples(_sweep_matrix(seed, idx, n), law, rng, size) / scale


def _run_qform_sweep(args: argparse.Namespace, law: Distribution) -> int:
    cfg = _sweep_config(args)
    sizes = _number_list(cfg.get("sizes", []), "sizes", int)
    if len(sizes) > _MAX_QFORM_SWEEP_SIZES:
        raise InputError(
            f"qform sweeps take at most {_MAX_QFORM_SWEEP_SIZES} sizes; "
            "more would reuse the matrix streams"
        )
    samples = _sweep_samples(cfg, args)
    delta = _sweep_delta(cfg, args)
    m = law.moments()
    config = {
        "command": "qform-sweep",
        "constant": args.constant,
        "delta": delta,
        "law": _law_json(law),
        "samples": samples,
        "seed": args.seed,
        "sizes": sizes,
    }
    # Every size is generated and analysed before the first row samples, so a
    # bad or degenerate size refuses the sweep before any row runs.
    rows, draws = [], []
    for idx, n in enumerate(sizes):
        q = qform.analyze(_sweep_matrix(args.seed, idx, n), m)
        rows.append({"n": n, "rate_r1": qform.bound_r1(q), "rate_r2": qform.bound_r2(q)})
        draws.append(functools.partial(_sweep_q_draw, args.seed, idx, n, law, math.sqrt(q.sigma2)))
    return _run_sweep(args, config, _QFORM_FLAGS, ["n", "rate_r1", "rate_r2"], rows, draws)


# ------------------------------------------------------------------- ustat


def _run_ustat(args: argparse.Namespace) -> int:
    _validate_common(args)
    w = ustat.WeightTensor.load(args.weights)
    law = _load_law(args.law)
    g = ustat.UKernel.product(law, w.order)
    config = {
        "command": "ustat",
        "constant": args.constant,
        "delta": args.delta,
        "law": _law_json(law),
        "samples": args.samples,
        "seed": args.seed,
        "weights": w.to_json(),
    }
    sigma2 = ustat.ustat_variance(w, g)
    if sigma2 <= 0.0:
        raise DegenerateError("the weighted statistic has zero variance")
    results: dict = {"n": w.n, "order": w.order, "sigma2": sigma2}
    if w.order >= 2:
        results["rate"] = ustat.ustat_rate(w, g)
        if args.constant is not None:
            results["scaled_rate"] = args.constant * results["rate"]
    else:
        results["rate"] = None
    exact = functools.partial(ustat.ustat_functional, w, g)
    sample = functools.partial(ustat.ustat_sample, w, g)
    return _emit_distances(args, config, _USTAT_FLAGS, results, law.n_atoms**w.n, exact, sample, math.sqrt(sigma2))


# ------------------------------------------------------------------- graph


def _run_graph(args: argparse.Namespace) -> int:
    _validate_common(args)
    cfg = _sweep_config(args)
    G = graphweigh.GraphSpec.load(args.graph)
    law = _load_law(args.law)
    ns = _number_list(cfg.get("n", []), "n", int)
    ps = _number_list(cfg.get("p", []), "p", float)
    combine = cfg.get("combine", "product")
    if combine != "product":
        raise InputError(
            "graph sweeps standardize by the exact variance, which only the "
            f"product convention has; combine must be 'product', got {combine!r}"
        )
    grid = [(n, p) for n in ns for p in ps]
    delta = _sweep_delta(cfg, args)
    samples = _sweep_samples(cfg, args) if grid else 0
    # Every point is checked before the first one samples, so a point out of
    # the domain or over the copy cap refuses the sweep before any row runs.
    rows, draws = [], []
    for n, p in grid:
        rate = graphweigh.rg_rate(G, n, p, law)
        _, var = graphweigh.exact_weight_moments(G, n, p, law)
        if var <= 0.0:
            raise DegenerateError(f"zero weight variance at n={n}, p={p}")
        if G.kind == "generic":
            graphweigh.check_copy_cap(G, n)
        rows.append({"n": n, "p": p, "rg_rate": rate})
        sample = functools.partial(graphweigh.simulate_weight, G, n, p, law)
        draws.append(functools.partial(_scaled_draw, sample, math.sqrt(var)))
    config = {
        "combine": combine,
        "command": "graph",
        "constant": args.constant,
        "delta": delta,
        "graph": G.to_json(),
        "law": _law_json(law),
        "n": ns,
        "p": ps,
        "samples": samples,
        "seed": args.seed,
    }
    return _run_sweep(args, config, _GRAPH_FLAGS, ["n", "p", "rg_rate"], rows, draws)


# ------------------------------------------------------------ chaos-verify


def _run_chaos_verify(args: argparse.Namespace) -> int:
    _validate_common(args)
    checks = verify.run_suite(seed=args.seed, corrupt=args.corrupt)
    config = {
        "command": "chaos-verify",
        "corrupt": bool(args.corrupt),
        "n_kernels": verify.N_KERNELS,
        "seed": args.seed,
    }
    results = {"checks": [c.to_json() for c in checks], "corrupt": bool(args.corrupt)}
    _emit(args, config, _VERIFY_FLAGS, results)
    failing = [c.name for c in checks if not c.passed]
    if failing:
        print("identity failure: " + ", ".join(failing), file=sys.stderr)
        return 4
    return 0


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolbounds",
        description="normal-approximation rates and identity checks for "
        "functionals of independent discrete randomness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, empirical: bool = True) -> None:
        sp.add_argument("--seed", type=int, default=0, help="base seed for every stream (default 0)")
        sp.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        if empirical:
            sp.add_argument(
                "--samples",
                type=int,
                default=0,
                help=f"Monte Carlo draws; 0 disables, otherwise at least {MIN_EMPIRICAL_SAMPLES}",
            )
            sp.add_argument("--delta", type=float, default=0.01, help="DKW confidence parameter (default 0.01)")
            sp.add_argument(
                "--constant",
                type=float,
                default=None,
                help="explicit constant to scale the constant-carrying rates; echoed, never invented",
            )

    q = sub.add_parser("qform", help="rates and comparison chain for a symmetric matrix")
    q.add_argument("--matrix", default=None, help="CSV file holding a symmetric square matrix")
    q.add_argument("--law", required=True, help="'rademacher', 'three-point', or a law JSON file")
    q.add_argument("--sweep", default=None, help="JSON config {sizes, samples, delta} for a size sweep")
    add_common(q)
    q.set_defaults(handler=_run_qform)

    u = sub.add_parser("ustat", help="variance and rate for a weighted symmetric statistic")
    u.add_argument("--weights", required=True, help="weight tensor JSON file")
    u.add_argument("--law", required=True, help="'rademacher', 'three-point', or a law JSON file")
    add_common(u)
    u.set_defaults(handler=_run_ustat)

    g = sub.add_parser("graph", help="template-weight rate sweep over an (n, p) grid")
    g.add_argument("--graph", required=True, help="template JSON file with vertices and edges")
    g.add_argument("--law", required=True, help="'rademacher', 'three-point', or a law JSON file")
    g.add_argument(
        "--sweep",
        required=True,
        help="JSON config {n, p, samples, delta}; combine, if given, must be \"product\"",
    )
    add_common(g)
    g.set_defaults(handler=_run_graph)

    v = sub.add_parser("chaos-verify", help="run the seeded identity and inequality suite")
    v.add_argument("--corrupt", action="store_true", help="deliberately break one kernel first")
    add_common(v, empirical=False)
    v.set_defaults(handler=_run_chaos_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputError, DomainError, SpaceTooLargeError, OSError, ValueError) as exc:
        print(f"kolbounds: {exc}", file=sys.stderr)
        return 2
    except DegenerateError as exc:
        print(f"kolbounds: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
