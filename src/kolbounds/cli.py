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
A report that draws records the layout of its draws as stream_scheme.

The report text is byte for byte json.dumps(report, sort_keys=True,
indent=2, allow_nan=False) + "\n", and config_sha256 hashes the UTF-8 of
json.dumps(config, sort_keys=True, separators=(",", ":"), allow_nan=False).
_json_texts writes both texts in one walk of config. A list whose items
share one shape (a matrix's rows, weight entries, sweep rows) is written a
slice at a time by filling a template built once per shape, and each leaf
column formats one repr per distinct value, so an echoed symmetric matrix
formats each off-diagonal entry once. A non-finite value exits 2 and writes
no --out file.

Exit codes: 0 success, 2 bad input, 3 degenerate variance, 4 an identity
check failed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import operator
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
from .space import SIZE_CAP, check_bytes

MIN_EMPIRICAL_SAMPLES = 100

# Stream-id layout: generated sweep matrices draw from one block, sample
# chunks for sweep row i start at i * stride. A row may use at most stride
# chunks, and the row-bytes cap keeps it there: space.BYTE_CAP // 8 draws
# (2^25) take 672 chunks. A qform sweep takes at most base / stride rows;
# longer sweeps are refused, because their stream ids would collide.
_MATRIX_STREAM_BASE = 500_000
_SWEEP_STREAM_STRIDE = 10_000
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


def _config(args: argparse.Namespace, command: str, law: Distribution | None = None, **fields) -> dict:
    """The resolved configuration a report hashes: command and seed; with a law also the constant, delta,
    law and samples (fields may set the last two, as a sweep does); then fields."""
    config = {"command": command, "seed": args.seed}
    if law is not None:
        config.update(constant=args.constant, delta=args.delta, law=_law_json(law), samples=args.samples)
    config.update(fields)
    return config


def _validate_common(args: argparse.Namespace) -> None:
    if not 0 <= args.seed < 2**64:
        raise InputError("--seed must be an integer in [0, 2**64): Philox keys are 64-bit words")
    samples = getattr(args, "samples", 0)
    if samples != 0 and samples < MIN_EMPIRICAL_SAMPLES:
        raise InputError(f"--samples must be 0 or at least {MIN_EMPIRICAL_SAMPLES}")
    check_bytes(8 * samples, f"a row of {samples} draws")
    delta = getattr(args, "delta", 0.01)
    if not 0.0 < delta < 1.0:
        raise InputError("--delta must lie strictly between 0 and 1")
    constant = getattr(args, "constant", None)
    if constant is not None and not constant > 0.0:
        raise InputError("--constant must be positive when given")


# JSON text of each Python type json.dumps accepts, through one C function
# per value (the string one is json's own).
_quote = json.encoder.encode_basestring_ascii
_LITERAL = {None: "null", False: "false", True: "true"}.__getitem__
_REPR = {bool: _LITERAL, type(None): _LITERAL, str: _quote, int: int.__repr__, float: float.__repr__}
_KINDS = frozenset(_REPR) | {list, tuple, dict}
# Items per slice: a long list is written a slice at a time, so the texts of
# its leaves (small strings, held until the slice is filled) never all live
# at once. With whole lists the desk-reports ustat n = 40, d = 3 report
# raised the process high-water mark by about 1 MiB.
_SLICE = 1024
# Leaf columns at least this long format one repr per distinct value;
# shorter ones format each value, which costs less than sorting them.
_DISTINCT = 32


def _kind(t: type) -> type | None:
    """The type json.dumps writes a value of type t as (a subclass as its base), or None."""
    return t if t in _KINDS else next((k for k in t.__mro__ if k in _KINDS), None)


def _check_finite(column: list) -> None:
    if not all(map(math.isfinite, column)):
        bad = next(x for x in column if not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {float.__repr__(bad)}")


def _json_texts(obj, pad: str) -> tuple[str, str]:
    """The (indented, compact) JSON texts of obj, whose line is indented by pad.

    Texts match json.dumps(obj, sort_keys=True, allow_nan=False) with
    indent=2 and with separators=(",", ":"). A list whose items share one
    shape (container types, list lengths, sorted key sets and leaf types
    alike at every position: a matrix's rows, weight entries, sweep rows) is
    written _SLICE items at a time. Each slice fills one indented and one
    compact template, the literal pieces between an item's leaves, built
    once per shape and joined with the slice's leaf texts in one call. Each
    leaf column formats one repr per distinct value, keyed by the int64 bit
    pattern (so -0.0 and 0.0 stay apart): a symmetric matrix formats each
    off-diagonal entry once. Any other value (a dict, a list of mixed items,
    a leaf) takes the general path, one value at a time.
    Non-finite floats raise ValueError and other types TypeError, as json
    does; dict keys must be strings.
    """
    kind = _kind(type(obj))
    if kind in _REPR:
        if kind is float:
            _check_finite([obj])
        text = _REPR[kind](obj)
        return text, text
    inner = pad + "  "
    if kind is dict:
        keys = sorted(obj)
        return _dict_texts(keys, [_json_texts(obj[k], inner) for k in keys], pad)
    if kind not in (list, tuple):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]", "[]"
    indented, compact, templates = [], [], {}
    for start in range(0, len(obj), _SLICE):
        items = obj[start : start + _SLICE]
        shaped = _shape(items)
        if shaped is None:
            parts = [_json_texts(x, inner) for x in items]
            indented += [i for i, _ in parts]
            compact += [c for _, c in parts]
            continue
        shape, texts = shaped
        if shape not in templates:
            templates[shape] = [
                (pieces[0], np.array([sep + pieces[0]] + pieces[1:], dtype=object))
                for sep, pieces in zip((",\n" + inner, ","), (t.split("\0") for t in _template(shape, inner)))
            ]
        # Row i reads: piece 0 (after a separator), leaf 0, piece 1, ..., leaf K-1, piece K.
        filled = np.empty((len(items), 2 * texts.shape[1] + 1), dtype=object)
        filled[:, 1::2] = texts
        for out, (first, pieces) in zip((indented, compact), templates[shape]):
            filled[:, ::2] = pieces
            filled[0, 0] = first
            out.append("".join(filled.ravel().tolist()))
    return _container("[]", indented, compact, pad)


def _container(brackets: str, indented, compact, pad: str) -> tuple[str, str]:
    """The (indented, compact) texts of a non-empty container from its items' texts, each iterated once."""
    inner = pad + "  "
    return (
        brackets[0] + "\n" + inner + (",\n" + inner).join(indented) + "\n" + pad + brackets[1],
        brackets[0] + ",".join(compact) + brackets[1],
    )


def _dict_texts(keys, parts: list, pad: str) -> tuple[str, str]:
    """The (indented, compact) texts of a dict from its sorted keys and their values' texts."""
    if not keys:
        return "{}", "{}"
    names = list(map(_quote, keys))
    indented = (f"{k}: {i}" for k, (i, _) in zip(names, parts))
    return _container("{}", indented, (f"{k}:{c}" for k, (_, c) in zip(names, parts)), pad)


def _shape(column: list):
    """(shape, texts) when the values of column share one shape, else None.

    shape is hashable: a leaf's type, ("list", length, element shape) or
    ("dict", sorted keys, value shapes). texts is an object array with one
    row per value, holding its leaf texts in document order.
    """
    kinds = set(map(type, column))
    kind = _kind(kinds.pop()) if len(kinds) == 1 else None
    if kind in _REPR:
        return kind, _leaf_texts(kind, column)[:, None]
    if kind is dict:
        # Equal sizes and a value for each of the first item's keys mean equal
        # key sets; a dict subclass could answer a key it lacks (__missing__).
        keys = column[0].keys()
        if type(column[0]) is not dict or not all(isinstance(k, str) for k in keys):
            return None
        if set(map(len, column)) != {len(keys)}:
            return None
        keys = sorted(keys)
        try:
            values = [list(map(operator.itemgetter(k), column)) for k in keys]
        except KeyError:
            return None
        parts = list(map(_shape, values))
        if None in parts:
            return None
        texts = np.hstack([t for _, t in parts]) if parts else np.empty((len(column), 0), dtype=object)
        return ("dict", tuple(keys), tuple(s for s, _ in parts)), texts
    if kind in (list, tuple):
        lengths = set(map(len, column))
        if len(lengths) != 1:
            return None
        length = lengths.pop()
        if not length:
            return ("list", 0, None), np.empty((len(column), 0), dtype=object)
        items = _shape(list(itertools.chain.from_iterable(column)))
        if items is None:
            return None
        return ("list", length, items[0]), items[1].reshape(len(column), length * items[1].shape[1])
    return None


def _template(shape, pad: str) -> tuple[str, str]:
    """The (indented, compact) texts of one value of shape, whose line is indented by pad, with NUL
    for each leaf: JSON text holds no raw NUL, so splitting at it gives the pieces between the leaves."""
    if not isinstance(shape, tuple):
        return "\0", "\0"
    tag, size, sub = shape
    inner = pad + "  "
    if tag == "dict":
        return _dict_texts(size, [_template(s, inner) for s in sub], pad)
    if not size:
        return "[]", "[]"
    indented, compact = _template(sub, inner)
    return _container("[]", [indented] * size, [compact] * size, pad)


def _leaf_texts(kind: type, column: list) -> np.ndarray:
    """The texts of column's values, all of kind, as an object array.

    A long int or float column formats one repr per distinct int64 bit
    pattern (ints beyond int64 format each value).
    """
    values = None
    if kind in (int, float) and len(column) >= _DISTINCT:
        try:
            values = np.array(column, dtype=np.int64 if kind is int else np.float64)
        except OverflowError:
            pass
    if values is None:
        if kind is float:
            _check_finite(column)
        return np.array(list(map(_REPR[kind], column)), dtype=object)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    distinct = distinct.view(values.dtype)
    if kind is float and not np.isfinite(distinct).all():
        _check_finite(column)
    return np.array(list(map(_REPR[kind], distinct.tolist())), dtype=object)[inverse]


def _emit(args: argparse.Namespace, config: dict, flags: dict, results: dict) -> int:
    """Write the report (its command is config["command"]) and return exit code 0.

    One walk of config gives its indented text and the compact text that
    config_sha256 hashes. The whole report is built before --out is opened,
    so a value JSON refuses leaves no file.
    """
    config_text, config_compact = _json_texts(config, "  ")
    fields = {
        "command": config["command"],
        "config_sha256": hashlib.sha256(config_compact.encode("utf-8")).hexdigest(),
        "constant": getattr(args, "constant", None),
        "constant_free": flags,
        "results": results,
        "seed": args.seed,
        "version": __version__,
    }
    texts = {k: _json_texts(v, "  ")[0] for k, v in fields.items()}
    texts["config"] = config_text
    text = "{\n" + ",\n".join(f"  {_quote(k)}: {texts[k]}" for k in sorted(texts)) + "\n}\n"
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
    check_bytes(8 * samples, f"a row of {samples} draws")
    return samples


def _sweep_delta(cfg: dict, args: argparse.Namespace) -> float:
    delta = cfg.get("delta", args.delta)
    if isinstance(delta, bool) or not isinstance(delta, (int, float)) or not 0.0 < delta < 1.0:
        raise InputError("sweep field 'delta' must be a number strictly between 0 and 1")
    return float(delta)


def sign_pattern(n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix S with zero diagonal and entries +-1; a qform sweep reads A = S / sqrt(n).

    S + S.T is exactly symmetric, so the sweep passes it on unvalidated.
    """
    if n < 2:
        raise InputError("sign matrices need n >= 2")
    check_bytes(8 * n * n, f"a {n} x {n} sign matrix")
    S = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    S[iu] = np.where(rng.random(iu[0].size) < 0.5, -1.0, 1.0)
    return S + S.T


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
        results["stream_scheme"] = mc.STREAM_SCHEME
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
    return _emit(args, config, flags, {"csv_columns": columns, "rows": rows, "stream_scheme": mc.STREAM_SCHEME})


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
    config = _config(args, "qform", law, matrix=A.tolist())
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


def _sweep_pattern(seed: int, idx: int, n: int) -> np.ndarray:
    return sign_pattern(n, mc.stream(seed, _MATRIX_STREAM_BASE + idx))


def _sweep_q_draw(
    seed: int, idx: int, n: int, law: Distribution, scale: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draws of Q / scale for A = S / sqrt(n): c Q_S / scale, with Q_S the form of the sign pattern S.

    c = fl(1/sqrt(n)). Q_S of an integer law is exact (q_samples runs it in
    float32), and at every power-of-4 n c is a power of two, so c Q_S is
    then the float64 form of A bit for bit, under any law. Each chunk
    regenerates its row's pattern from the row's stream, so the queued rows
    hold no n x n matrices; that costs O(n^2) per chunk of O(chunk * n^2)
    work.
    """
    draws = qform.q_samples(_sweep_pattern(seed, idx, n), law, rng, size)
    draws *= 1.0 / math.sqrt(n)
    draws /= scale
    return draws


def _run_qform_sweep(args: argparse.Namespace, law: Distribution) -> int:
    cfg = _sweep_config(args)
    sizes = _number_list(cfg.get("sizes", []), "sizes", int)
    if len(sizes) > _MAX_QFORM_SWEEP_SIZES:
        raise InputError(
            f"qform sweeps take at most {_MAX_QFORM_SWEEP_SIZES} sizes; "
            "more would reuse the matrix streams"
        )
    samples = _sweep_samples(cfg, args)
    config = _config(args, "qform-sweep", law, delta=_sweep_delta(cfg, args), samples=samples, sizes=sizes)
    m = law.moments()
    # Every size is generated and analysed before the first row samples, so a
    # bad or degenerate size refuses the sweep before any row runs.
    rows, draws = [], []
    for idx, n in enumerate(sizes):
        q = qform.analyze(_sweep_pattern(args.seed, idx, n) / math.sqrt(n), m)
        rows.append({"n": n, "rate_r1": qform.bound_r1(q), "rate_r2": qform.bound_r2(q)})
        draws.append(functools.partial(_sweep_q_draw, args.seed, idx, n, law, math.sqrt(q.sigma2)))
    return _run_sweep(args, config, _QFORM_FLAGS, ["n", "rate_r1", "rate_r2"], rows, draws)


# ------------------------------------------------------------------- ustat


def _run_ustat(args: argparse.Namespace) -> int:
    _validate_common(args)
    w = ustat.WeightTensor.load(args.weights)
    law = _load_law(args.law)
    g = ustat.UKernel.product(law, w.order)
    config = _config(args, "ustat", law, weights=w.to_json())
    sigma2 = ustat.ustat_variance(w, g)
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
    # the domain or over a counter cap refuses the sweep before any row runs.
    rows, draws = [], []
    for n, p in grid:
        rate = graphweigh.rg_rate(G, n, p, law)
        _, var = graphweigh.exact_weight_moments(G, n, p, law)
        if var <= 0.0:
            raise DegenerateError(f"zero weight variance at n={n}, p={p}")
        graphweigh.check_counter(G, n)
        rows.append({"n": n, "p": p, "rg_rate": rate})
        sample = functools.partial(graphweigh.simulate_weight, G, n, p, law)
        draws.append(functools.partial(_scaled_draw, sample, math.sqrt(var)))
    config = _config(args, "graph", law, combine=combine, delta=delta, graph=G.to_json(), n=ns, p=ps, samples=samples)
    return _run_sweep(args, config, _GRAPH_FLAGS, ["n", "p", "rg_rate"], rows, draws)


# ------------------------------------------------------------ chaos-verify


def _run_chaos_verify(args: argparse.Namespace) -> int:
    _validate_common(args)
    checks = verify.run_suite(seed=args.seed, corrupt=args.corrupt)
    config = _config(args, "chaos-verify", corrupt=bool(args.corrupt), n_kernels=verify.N_KERNELS)
    results = {"checks": [c.to_json() for c in checks], "corrupt": bool(args.corrupt)}
    _emit(args, config, _VERIFY_FLAGS, results)
    failing = [c.name for c in checks if not c.passed]
    if failing:
        print("identity failure: " + ", ".join(failing), file=sys.stderr)
        return 4
    return 0


# ------------------------------------------------------------------ parser


@functools.cache
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
            sp.add_argument("--law", required=True, help="'rademacher', 'three-point', or a law JSON file")
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
    q.add_argument("--sweep", default=None, help="JSON config {sizes, samples, delta} for a size sweep")
    add_common(q)
    q.set_defaults(handler=_run_qform)

    u = sub.add_parser("ustat", help="variance and rate for a weighted symmetric statistic")
    u.add_argument("--weights", required=True, help="weight tensor JSON file")
    add_common(u)
    u.set_defaults(handler=_run_ustat)

    g = sub.add_parser("graph", help="template-weight rate sweep over an (n, p) grid")
    g.add_argument("--graph", required=True, help="template JSON file with vertices and edges")
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
