"""Kolmogorov distances (exact and empirical), the normal CDF, RNG streams.

The normal CDF goes through the C library's complementary error function,
whose absolute error is a few ulp (far below the 1e-12 budget documented
here); the build tests validate it against a large trapezoid quadrature.
Randomness uses counter-based Philox streams keyed by (seed, stream_id), so
a stream's output never depends on scheduling or on other streams.
"""

from __future__ import annotations

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

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
    with the worker count. Threads help because the heavy draw paths release
    the interpreter lock inside the array kernels.
    """
    if total < 0:
        raise InputError("total draw count cannot be negative")
    if chunk < 1:
        raise InputError("chunk size must be positive")
    out = np.empty(total)
    starts = list(range(0, total, chunk))

    def fill(item: tuple[int, int]) -> None:
        i, start = item
        size = min(chunk, total - start)
        out[start : start + size] = draw(stream(seed, first_stream + i), size)

    workers = worker_count()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, enumerate(starts)))
    else:
        for item in enumerate(starts):
            fill(item)
    return out


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
