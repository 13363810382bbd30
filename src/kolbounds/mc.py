"""Kolmogorov distances (exact and empirical), the normal CDF, RNG streams.

The normal CDF goes through the C library's complementary error function,
whose absolute error is a few ulp (far below the 1e-12 budget documented
here); the build tests validate it against a large trapezoid quadrature.
Randomness uses counter-based Philox streams keyed by (seed, stream_id), so
a stream's output never depends on scheduling or on other streams.
Monte Carlo rows are drawn in fixed chunks, one stream per chunk, and
pooled_draws runs the chunks of every row of a sweep through one pool of
KOLBOUNDS_WORKERS threads; chunked_draws is its one-row case.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InputError
from .space import RandomFunctional

WORKERS_ENV = "KOLBOUNDS_WORKERS"

NORMAL_CDF_MAX_ABS_ERROR = 1e-12  # documented budget; actual error is ~1e-16

DRAW_CHUNK = 50_000  # draws per stream in chunked_draws

_erfc_vec = np.frompyfunc(math.erfc, 1, 1)


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """A reproducible generator: same (seed, stream_id) means same draws."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def normal_cdf(x):
    """Standard normal CDF, scalar or vectorized; absolute error below 1e-12."""
    if np.isscalar(x) or getattr(x, "ndim", 0) == 0:
        return 0.5 * math.erfc(-float(x) / math.sqrt(2.0))
    arr = np.asarray(x, dtype=float)
    return (0.5 * _erfc_vec(-arr / math.sqrt(2.0))).astype(float)


def worker_count() -> int:
    """Thread count from the KOLBOUNDS_WORKERS variable; unset or empty is 1."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return n


def chunked_draws(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    total: int,
    seed: int,
    first_stream: int = 0,
    chunk: int = DRAW_CHUNK,
) -> np.ndarray:
    """Fill a length-total vector by calling draw(rng, size) chunk by chunk.

    Chunk i always draws from stream(seed, first_stream + i), so the output
    is a pure function of (seed, first_stream, chunk) and does not change
    with the worker count. This is the one-row case of pooled_draws.
    """
    (out,) = pooled_draws([(draw, total, first_stream)], seed, chunk)
    return out


def pooled_draws(
    rows: Iterable[tuple[Callable[[np.random.Generator, int], np.ndarray], int, int]],
    seed: int,
    chunk: int = DRAW_CHUNK,
) -> Iterator[np.ndarray]:
    """Yield the draws of each (draw, total, first_stream) row, in row order.

    Every chunk of every row goes through one pool of worker_count() threads,
    so rows shorter than the pool no longer leave workers idle. Chunk i of a
    row draws from stream(seed, first_stream + i), exactly as chunked_draws
    draws that row alone, so each row is a pure function of its triple, the
    seed and chunk, whatever the worker count. All chunks of a row are queued
    at once; before queueing a row, the oldest rows are yielded once done, or
    waited for while more than worker_count() rows are queued, so a sweep
    holds a few rows' draws at a time even if one chunk straggles. Threads
    help because the heavy draw paths release the interpreter lock inside the
    array kernels; with one worker everything runs in the calling thread.
    """
    rows = list(rows)
    if chunk < 1:
        raise InputError("chunk size must be positive")
    if any(total < 0 for _, total, _ in rows):
        raise InputError("total draw count cannot be negative")

    def fill(out: np.ndarray, start: int, draw, rng: np.random.Generator) -> None:
        size = min(chunk, out.size - start)
        out[start : start + size] = draw(rng, size)

    workers = worker_count()
    if workers == 1:
        for draw, total, first in rows:
            out = np.empty(total)
            for i, start in enumerate(range(0, total, chunk)):
                fill(out, start, draw, stream(seed, first + i))
            yield out
        return
    pending: deque[tuple[np.ndarray, list[Future]]] = deque()

    def finished(out: np.ndarray, futures: list[Future]) -> np.ndarray:
        for fut in futures:
            fut.result()
        return out

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for draw, total, first in rows:
            while pending and (len(pending) > workers or all(f.done() for f in pending[0][1])):
                yield finished(*pending.popleft())
            out = np.empty(total)
            futures = [
                pool.submit(fill, out, start, draw, stream(seed, first + i))
                for i, start in enumerate(range(0, total, chunk))
            ]
            pending.append((out, futures))
        while pending:
            yield finished(*pending.popleft())
    finally:
        # A failed chunk or an abandoned generator drops the chunks still queued.
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class KDistReport:
    """One Kolmogorov-distance evaluation against the standard normal."""

    value: float
    method: str  # "exact" or "empirical"
    n_samples: int | None = None
    dkw_radius: float = 0.0
    delta: float | None = None
    seed: tuple[int, int] | None = None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "n": self.n_samples,
            "dkw": self.dkw_radius,
            "delta": self.delta,
            "seed": list(self.seed) if self.seed is not None else None,
        }


def exact_kdist(X: RandomFunctional) -> KDistReport:
    """sup_x |P(X <= x) - Phi(x)| by scanning the atoms with left limits.

    Ties among atom values are merged first; at each atom a the scan takes
    max(|F(a) - Phi(a)|, |Phi(a) - F(a-)|), which realizes the supremum for a
    step CDF against a continuous one.
    """
    probs = X.space.joint_probs.reshape(-1)
    values, inverse = np.unique(X.values, return_inverse=True)
    mass = np.bincount(inverse, weights=probs, minlength=values.size)
    cdf = np.cumsum(mass)
    cdf[-1] = 1.0
    phi = normal_cdf(values)
    left = np.concatenate(([0.0], cdf[:-1]))
    d = float(np.max(np.maximum(np.abs(cdf - phi), np.abs(phi - left))))
    return KDistReport(value=d, method="exact")


def empirical_kdist(
    samples: np.ndarray,
    delta: float = 0.01,
    seed: tuple[int, int] | None = None,
) -> KDistReport:
    """One-sample Kolmogorov statistic against the standard normal, plus the
    two-sided DKW radius sqrt(log(2/delta) / (2 N)) at confidence 1 - delta."""
    x = np.sort(np.asarray(samples, dtype=float).reshape(-1))
    n = x.size
    if n == 0:
        raise InputError("empirical distance needs at least one sample")
    if not 0.0 < delta < 1.0:
        raise InputError("delta must lie in (0, 1)")
    phi = normal_cdf(x)
    hi = np.arange(1, n + 1) / n - phi
    lo = phi - np.arange(0, n) / n
    d = float(np.max(np.maximum(hi, lo)))
    radius = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return KDistReport(
        value=d, method="empirical", n_samples=n, dkw_radius=radius, delta=delta, seed=seed
    )


# ------------------------------------------------------------- sample dumps


def write_samples(path: str, samples: np.ndarray) -> None:
    """Binary dump: 8-byte little-endian count, then little-endian doubles."""
    arr = np.asarray(samples, dtype="<f8").reshape(-1)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", arr.size))
        fh.write(arr.tobytes())


def read_samples(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise InputError(f"{path}: truncated sample dump header")
        (count,) = struct.unpack("<Q", header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != count:
        raise InputError(f"{path}: header says {count} samples, file holds {data.size}")
    return data.astype(float)


def write_samples_csv(path: str, samples: np.ndarray) -> None:
    arr = np.asarray(samples, dtype=float).reshape(-1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample\n")
        for v in arr.tolist():
            fh.write(f"{v!r}\n")


def read_samples_csv(path: str) -> np.ndarray:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "sample":
            raise InputError(f"{path}: expected a 'sample' header line")
        for line in fh:
            line = line.strip()
            if line:
                out.append(float(line))
    return np.asarray(out, dtype=float)
