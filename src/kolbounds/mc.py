"""Kolmogorov distances (exact and empirical), the normal CDF, RNG streams.

The normal CDF is 0.5 erfc(-x / sqrt 2), with erfc vectorised in numpy from
Cody's (1969) rational approximations. Its absolute error is about 1e-16,
far below the 1e-12 budget documented here; the tests check it against a
large trapezoid quadrature and against scipy.special.ndtr.
Randomness uses counter-based Philox streams keyed by (seed, stream_id), so
a stream's output never depends on scheduling or on other streams, and
jump_ahead skips k words of one in O(1), which lets a sampler read two
parts of its stream block by block. STREAM_SCHEME names the layout of the
draws, and every report that draws records it.
Monte Carlo rows are drawn in fixed chunks, one stream per chunk, and
pooled_draws runs the chunks of every row of a sweep through one pool of
KOLBOUNDS_WORKERS threads (one when unset); chunked_draws is its one-row
case.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .space import RandomFunctional, stack_chunks

WORKERS_ENV = "KOLBOUNDS_WORKERS"

DRAW_CHUNK = 50_000  # draws per stream in chunked_draws

# Version of the draw layout. Scheme 1 spent one uniform on every value;
# scheme 2 reads dyadic laws from b-bit fields of raw words (dist.draw_atoms);
# scheme 3 reads graph retention flags at a non-dyadic p from one byte each,
# with a tie word for one flag in 256 (dist.draw_below).
STREAM_SCHEME = 3

# Cody's rational approximations P/Q (highest power first, Q monic) to erf(x)/x
# in x^2 for |x| <= 0.46875, to erfc(x) exp(x^2) in x up to 4 and to the
# asymptotic series beyond in 1/x^2; erfc is zero from _ERFC_ZERO on.
_ERF = ((1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
         3.20937758913846947e03),
        (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03, 2.84423683343917062e03))
_ERFC = ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
          2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03, 2.05107837782607147e03,
          1.23033935479799725e03),
         (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02, 1.62138957456669019e03,
          3.29079923573345963e03, 4.36261909014324716e03, 3.43936767414372164e03, 1.23033935480374942e03))
_TAIL = ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
          1.60837851487422766e-2, 6.58749161529837803e-4),
         (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1, 6.05183413124413191e-2,
          2.33520497626869185e-3))
_ERFC_ZERO = 26.543
# Values per normal_cdf block: the erfc temporaries stay at a fixed size
# (128 KiB each) however many values come in.
_CDF_BLOCK = 16_384


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """A reproducible generator: same (seed, stream_id) means same draws."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def jump_ahead(rng: np.random.Generator, k: int) -> np.random.Generator:
    """A generator whose words are those rng gives after its next k; rng is untouched.

    A word is one uniform of rng.random or one value of random_raw. Philox is
    counter-based, so the jump costs O(1) (Salmon et al., SC 2011):
    the 4 - buffer_pos values left in rng's 4-value buffer are skipped,
    advance() moves the counter past whole buffers of the rest, and the last
    (rest mod 4) are drawn and dropped. The cached 32-bit half is kept as
    rng has it, so the result equals drawing k words and discarding them.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.Philox):
        raise InputError(f"jump_ahead needs a Philox generator, got {type(bits).__name__}")
    if k < 0:
        raise InputError("cannot jump a generator backwards")
    state = bits.state
    twin = np.random.Philox(key=state["state"]["key"])
    twin.state = state
    left = 4 - state["buffer_pos"]
    if k <= left:
        state["buffer_pos"] += k
    else:
        twin.advance((k - left) // 4)
        np.random.Generator(twin).random((k - left) % 4)
        moved = twin.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        state = moved
    twin.state = state
    return np.random.Generator(twin)


def _horner(z: np.ndarray, c: tuple[float, ...]) -> np.ndarray:
    """c[0] z^(len(c) - 1) + ... + c[-1] by Horner's rule in place, in one array of z's shape."""
    y = np.full(z.shape, c[0])
    for a in c[1:]:
        y *= z
        y += a
    return y


def _rational(z: np.ndarray, coeffs: tuple[tuple[float, ...], tuple[float, ...]]) -> np.ndarray:
    """P(z) / Q(z) by Horner's rule from the leading coefficient: np.polyval's operations, bit for bit on
    finite z (its zeros_like start adds 0 * z), in place and without its per-call array conversions."""
    num, den = (_horner(z, c) for c in coeffs)
    num /= den
    return num


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of a float array as Cody's CALERF: exp(-y^2) is exp(-t^2) exp(-(y - t)(y + t))
    with t = y rounded down to 1/16, so no rounding error enters its argument."""
    y = np.abs(x)
    out = np.full(x.shape, np.nan)
    small = y <= 0.46875
    xs = x[small]
    out[small] = 1.0 - xs * _rational(xs * xs, _ERF)
    large = y > 0.46875
    yl = np.minimum(y[large], _ERFC_ZERO)
    ratio = _rational(yl, _ERFC)
    tail = yl > 4.0
    yt = yl[tail]
    inv_sq = 1.0 / (yt * yt)
    ratio[tail] = (1.0 / math.sqrt(math.pi) - inv_sq * _rational(inv_sq, _TAIL)) / yt
    t = np.trunc(yl * 16.0) / 16.0
    ratio *= np.exp(-t * t) * np.exp(-(yl - t) * (yl + t))
    ratio[yl >= _ERFC_ZERO] = 0.0
    out[large] = np.where(x[large] < 0.0, 2.0 - ratio, ratio)
    return out


def normal_cdf(x):
    """Standard normal CDF, scalar or vectorized; absolute error below 1e-12."""
    arr = np.asarray(x, dtype=float)
    phi = np.empty(arr.shape)
    flat, out = arr.reshape(-1), phi.reshape(-1)
    for lo in range(0, flat.size, _CDF_BLOCK):
        out[lo : lo + _CDF_BLOCK] = 0.5 * _erfc(-flat[lo : lo + _CDF_BLOCK] / math.sqrt(2.0))
    return float(phi) if phi.ndim == 0 else phi


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
    chunk: int = DRAW_CHUNK,
) -> np.ndarray:
    """Fill a length-total vector by calling draw(rng, size) chunk by chunk.

    Chunk i always draws from stream(seed, i), so the output is a pure
    function of (seed, chunk) and does not change with the worker count.
    This is the one-row case of pooled_draws.
    """
    (out,) = pooled_draws([(draw, total, 0)], seed, chunk)
    return out


def pooled_draws(
    rows: Iterable[tuple[Callable[[np.random.Generator, int], np.ndarray], int, int]],
    seed: int,
    chunk: int = DRAW_CHUNK,
) -> Iterator[np.ndarray]:
    """Yield the draws of each (draw, total, first_stream) row, in row order.

    Every chunk of every row goes through one pool of worker_count() threads,
    so rows shorter than the pool no longer leave workers idle. Chunk i of a
    row draws from stream(seed, first_stream + i), so each row is a pure
    function of its triple, the seed and chunk, whatever the worker count.
    All chunks of a row are queued at once; before queueing a row, the oldest
    rows are yielded once done, or waited for while more than worker_count()
    rows are queued, so a sweep holds a few rows' draws at a time even if one
    chunk straggles. Threads help because the heavy draw paths release the
    interpreter lock inside the array kernels; one worker is a pool of one
    thread.
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


def exact_kdist(X: RandomFunctional | Sequence[RandomFunctional]):
    """sup_x |P(X <= x) - Phi(x)| by scanning the atoms with left limits.

    Ties among atom values are merged first; at each atom a the scan takes
    max(|F(a) - Phi(a)|, |Phi(a) - F(a-)|), which realizes the supremum for a
    step CDF against a continuous one. X is one functional (one report) or a
    sequence of them (a list of reports, in order). A sequence is read in the
    bounds' chunks, space.stack_chunks: runs of at most space.STACK_CAP
    outcomes in all, or one functional, with one sort per functional and one
    normal_cdf call over the atoms of a chunk, whose arrays are dropped
    before the next chunk.
    """
    if isinstance(X, RandomFunctional):
        return _exact_chunk([X])[0]
    return [report for chunk in stack_chunks(X) for report in _exact_chunk(chunk)]


def _exact_chunk(Xs: list[RandomFunctional]) -> list[KDistReport]:
    """The exact distances of a chunk of functionals, with one normal_cdf call."""
    atoms, cdfs = [], []
    for Y in Xs:
        values, inverse = np.unique(Y.values, return_inverse=True)
        cdf = np.cumsum(np.bincount(inverse, weights=Y.space.joint_probs.reshape(-1), minlength=values.size))
        cdf[-1] = 1.0
        atoms.append(values)
        cdfs.append(cdf)
    phis = np.split(normal_cdf(np.concatenate(atoms)), np.cumsum([len(a) for a in atoms[:-1]]))
    reports = []
    for cdf, phi in zip(cdfs, phis):
        left = np.concatenate(([0.0], cdf[:-1]))
        d = float(np.max(np.maximum(np.abs(cdf - phi), np.abs(phi - left))))
        reports.append(KDistReport(value=d, method="exact"))
    return reports


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
