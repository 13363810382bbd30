"""Finite discrete laws and their moment tables.

A Distribution is a finite list of (value, probability) atoms in strictly
increasing value order. Moments up to order eight are computed exactly by
direct summation; they feed every closed-form rate in the package.

Sampling goes through draw_atoms, a fixed block of values at a time, so a
draw of N values holds the N outputs plus one block of temporaries. A law
whose cdf steps are all multiples of 2^-b, b in (1, 2, 4, 8), is dyadic: its
values read b-bit fields of raw Philox words, 64 / b values per word, in the
spirit of Knuth & Yao (1976). Every other law is inverse-CDF on one uniform
per value, and is bit-identical to one searchsorted over all N uniforms.
draw_below draws flags u < p in that lazy spirit too: one byte per flag, and
a second word only for the one flag in 256 that the byte leaves tied.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import tol
from .errors import InputError

# Values per draw_atoms block. Successive rng.random calls continue one
# stream, and a dyadic block of _DRAW_BLOCK values fills whole words for every
# field width, so the blocking never changes the draws or the generator state.
_DRAW_BLOCK = 32_768

# Field widths of dyadic laws, tried in this order; a field of b bits draws
# from a law whose cdf steps are multiples of 2^-b exactly.
_PACKED_BITS = (1, 2, 4, 8)

# Laws with at most this many atoms turn a block of uniforms into codes by one
# comparison pass per cdf step; larger laws binary-search the steps. Timed per
# 32 768-uniform block (np.take included; 2 cores, numpy 2.4.6), the passes
# take about 0.06 ms at 3 atoms, 0.4 ms at 40 and 1.2-1.6 ms at 128, the search
# 0.46, 1.6 and 2.1-2.4 ms. The two cross between 208 atoms (passes still
# faster in every run) and 224. The cut keeps the codes within a byte.
_COMPARE_MAX_ATOMS = 208


@dataclass(frozen=True)
class MomentTable:
    """Exact moments of a finite law.

    mu[k] is E[X^k] for k = 0..8 (mu[0] = 1). mu_tilde4/6/8 are the centered
    square moments E[(X^2 - mu2)^k] for k = 2, 3, 4, and abs3 is E[|X|^3].
    centered is the law's Distribution.is_centered.
    """

    mu: tuple[float, ...]
    mu_tilde4: float
    mu_tilde6: float
    mu_tilde8: float
    abs3: float
    centered: bool


@dataclass(frozen=True)
class Distribution:
    """A finite discrete law: atoms in strictly increasing value order."""

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.probs) or not self.values:
            raise InputError("a law needs matching, non-empty value and probability lists")
        for name, xs in (("values", self.values), ("probabilities", self.probs)):
            if not all(math.isfinite(x) for x in xs):
                raise InputError(f"atom {name} must be finite numbers, got {list(xs)!r}")
        if any(p <= 0.0 for p in self.probs):
            raise InputError("atom probabilities must be strictly positive")
        total = float(sum(self.probs))
        if abs(total - 1.0) > tol.INPUT * tol.scale(self.probs):
            raise InputError(f"atom probabilities sum to {total!r}, not 1")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InputError("atom values must be strictly increasing; use finite() to sort/merge")
        if abs(total - 1.0) > 0.0:
            # Kill the residual drift so downstream exact sums stay clean.
            object.__setattr__(self, "probs", tuple(p / total for p in self.probs))

    # ------------------------------------------------------------------ build

    @staticmethod
    def finite(atoms: Iterable[tuple[float, float]]) -> "Distribution":
        """Build from (value, prob) pairs; sorts by value and merges duplicates."""
        merged: dict[float, float] = {}
        for v, p in atoms:
            v = float(v)
            merged[v] = merged.get(v, 0.0) + float(p)
        vals = tuple(sorted(merged))
        return Distribution(vals, tuple(merged[v] for v in vals))

    @staticmethod
    def rademacher() -> "Distribution":
        """The symmetric two-point law on {-1, +1}."""
        return Distribution((-1.0, 1.0), (0.5, 0.5))

    @staticmethod
    def from_json(obj: object) -> "Distribution":
        """Parse {"type": "finite", "atoms": [[v, p], ...]} or {"type": "rademacher"}.

        Probabilities may be numbers or decimal strings; strings are resolved
        through Fraction so "1/3"-style and "0.25"-style entries stay exact.
        """
        if not isinstance(obj, dict) or "type" not in obj:
            raise InputError("law JSON must be an object with a 'type' field")
        kind = obj["type"]
        if kind == "rademacher":
            return Distribution.rademacher()
        if kind != "finite":
            raise InputError(f"unknown law type {kind!r}")
        raw = obj.get("atoms")
        if not isinstance(raw, list) or not raw:
            raise InputError("finite law JSON needs a non-empty 'atoms' list")
        pairs = []
        for entry in raw:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError(f"bad atom entry {entry!r}; expected [value, prob]")
            v, p = entry
            pairs.append((_as_float(v), _as_float(p)))
        return Distribution.finite(pairs)

    @staticmethod
    def load(path: str) -> "Distribution":
        with open(path, "r", encoding="utf-8") as fh:
            return Distribution.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {"type": "finite", "atoms": [[v, p] for v, p in zip(self.values, self.probs)]}

    # ------------------------------------------------------------------ query

    @property
    def n_atoms(self) -> int:
        return len(self.values)

    def values_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def cdf_array(self) -> np.ndarray:
        """Cumulative probabilities, with the last entry pinned to exactly 1."""
        cdf = np.cumsum(self.probs_array())
        cdf[-1] = 1.0
        return cdf

    def mean(self) -> float:
        return float(np.dot(self.values_array(), self.probs_array()))

    def moments(self) -> MomentTable:
        """Moments mu_1..mu_8, the centered-square moments, and E|X|^3."""
        v = self.values_array()
        p = self.probs_array()
        mu = [1.0] + [float(np.dot(v**k, p)) for k in range(1, 9)]
        sq = v**2 - mu[2]
        return MomentTable(
            mu=tuple(mu),
            mu_tilde4=float(np.dot(sq**2, p)),
            mu_tilde6=float(np.dot(sq**3, p)),
            mu_tilde8=float(np.dot(sq**4, p)),
            abs3=float(np.dot(np.abs(v) ** 3, p)),
            centered=self.is_centered(),
        )

    def centered(self) -> "Distribution":
        """The same law shifted to mean zero."""
        m = self.mean()
        return Distribution(tuple(v - m for v in self.values), self.probs)

    def is_centered(self) -> bool:
        """|mean| <= tol.INPUT * scale(values)."""
        return abs(self.mean()) <= tol.INPUT * tol.scale(self.values)

    # ----------------------------------------------------------------- sample

    def sample(self, rng: np.random.Generator, size: int | tuple[int, ...] | None = None):
        """Draw(s) through draw_atoms; deterministic given the generator state."""
        out = draw_atoms(rng, self.cdf_array(), self.values_array(), np.empty(1 if size is None else size))
        return out if size is not None else float(out[0])


def draw_scratch(cdf: np.ndarray, values: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """The buffers draw_atoms reads for draws of at most size values of the law (cdf, values).

    The last is always the intp index that np.take reads without a copy of
    its own, and a dyadic law gets it alone: its bytes go straight into it.
    Any other law gets the uniform, comparison and code buffers before it.
    The comparison passes count codes in uint8, which is three times faster
    than counting them in intp at 40 atoms and more; the codes then go once
    into the index.
    """
    rows = min(_DRAW_BLOCK, size)
    index = np.empty(rows, dtype=np.intp)
    if _packing(cdf, np.asarray(values))[1] is not None:
        return (index,)
    return np.empty(rows), np.empty(rows, dtype=bool), np.empty(rows, dtype=np.uint8), index


@functools.lru_cache(maxsize=64)
def _byte_table(steps: bytes, values: bytes, dtype: str) -> tuple[int, np.ndarray] | None:
    """(b, table) for a dyadic law, None otherwise; the arguments are arrays' bytes.

    b is the first width in _PACKED_BITS at which every cdf step times 2^b is
    an integer t_j. Row k of the (256, 8 // b) table holds the atoms that the
    8 // b fields of the byte k take, low bits first: a field f becomes atom
    #{j : f >= t_j}.
    """
    cuts, atoms = np.frombuffer(steps), np.frombuffer(values, dtype=dtype)
    for b in _PACKED_BITS:
        scaled = cuts * (1 << b)
        if np.array_equal(scaled, np.floor(scaled)):
            shifts = b * np.arange(8 // b)
            fields = (np.arange(256)[:, None] >> shifts) & ((1 << b) - 1)
            table = atoms[(fields[..., None] >= scaled).sum(axis=-1)]
            table.flags.writeable = False
            return b, table
    return None


def _packing(cdf: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, tuple[int, np.ndarray] | None]:
    """The cdf steps draw_atoms reads and the byte table of the law, if it is dyadic."""
    steps = np.ascontiguousarray(cdf, dtype=float)[: len(values) - 1]
    return steps, _byte_table(steps.tobytes(), values.tobytes(), values.dtype.str)


def draw_words(cdf: np.ndarray, values: np.ndarray, size: int) -> int:
    """The 64-bit words draw_atoms takes from its generator for size values.

    A dyadic law of field width b takes ceil(size * b / 64) words; any other
    law takes one word per value.
    """
    _, packed = _packing(cdf, np.asarray(values))
    return size if packed is None else -(-size * packed[0] // 64)


def draw_atoms(
    rng: np.random.Generator,
    cdf: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
    scratch: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Fill out with draws of the atoms values and return it.

    cdf holds the cumulative probabilities of the atoms; its last entry is
    never read. The values come _DRAW_BLOCK at a time, in C order of out.
    - A dyadic law (every step a multiple of 2^-b, b the first of
      _PACKED_BITS that works) gives value i of a block bits
      [b*i, b*i + b) of the block's rng.bit_generator.random_raw words, read
      as one little-endian bit string. The field f becomes values[c] with
      c = #{j : f >= cdf[j] * 2^b}. A block starts on a fresh word and
      takes ceil(size * b / 64) of them (draw_words), so a draw split into
      calls of multiples of 64 values equals one whole draw bit for bit.
    - Any other law gives value i the i-th uniform u of rng and becomes
      values[c] with c = #{j < len(values) - 1 : u >= cdf[j]}, which is
      searchsorted(cdf, u, side="right") clipped to the last atom. Up to
      _COMPARE_MAX_ATOMS atoms, c is counted by one comparison pass per
      step; above it, by a searchsorted on the block.
    The atoms go through np.take straight into out, so nothing of size out
    is allocated. out must be C-contiguous with the dtype of values. A
    caller that draws repeatedly passes scratch, draw_scratch(cdf, values, k)
    for some k >= out.size, and reuses it; without it the buffers are
    allocated here. A dyadic law reads only the index, scratch[-1].
    """
    values = np.asarray(values)
    steps, packed = _packing(cdf, values)
    flat = out.reshape(-1)
    scratch = draw_scratch(cdf, values, flat.size) if scratch is None else scratch
    for lo in range(0, flat.size, _DRAW_BLOCK):
        block = flat[lo : lo + _DRAW_BLOCK]
        if packed is not None:
            _packed_block(rng, *packed, block, scratch[-1])
            continue
        u, at_or_above, codes, index = scratch
        ub = rng.random(out=u[: block.size])
        if len(values) <= _COMPARE_MAX_ATOMS:
            counted = codes[: ub.size]
            counted.fill(0)
            for step in steps:
                np.greater_equal(ub, step, out=at_or_above[: ub.size])
                counted += at_or_above[: ub.size]
            cb = index[: ub.size]
            np.copyto(cb, counted)
        else:
            cb = np.searchsorted(steps, ub, side="right")
        np.take(values, cb, out=block, mode="clip")
    return out


def draw_below(rng: np.random.Generator, ties: np.random.Generator, p: float, out: np.ndarray) -> np.ndarray:
    """Fill the bool array out with flags K < T, T = ceil(p * 2^53), one uniform 53-bit integer K each, and return it.

    That is the law of u < p for the 53-bit uniform u of rng.random, read
    lazily (Knuth & Yao, 1976). Flag i, in C order of out, takes byte i of
    ceil(out.size / 8) rng.bit_generator.random_raw words, as little-endian
    bytes, for the top 8 bits of K. Against h = T >> 45, a byte below h
    keeps the flag, a byte above drops it, and a byte equal to h is a tie:
    the next word w of ties then gives the low 45 bits of K, and the flag is
    kept iff (w >> 19) < T mod 2^45. The ties take their words in flag order,
    so calls over successive parts of a draw, each but the last a multiple
    of 8 flags, draw what one call over the whole draw would.
    """
    cut = math.ceil(p * 2.0**53)
    high, low = cut >> 45, cut & ((1 << 45) - 1)
    flat = out.reshape(-1)
    words = rng.bit_generator.random_raw(-(-flat.size // 8))
    octets = words.astype("<u8", copy=False).view(np.uint8)[: flat.size]
    np.less(octets, high, out=flat)
    tied = np.flatnonzero(octets == high)
    flat[tied] = (ties.bit_generator.random_raw(tied.size) >> 19) < low
    return out


def draw_rows(
    rng: np.random.Generator, cdf: np.ndarray, values: np.ndarray, n: int, size: int, block: int, evaluate: Callable
) -> np.ndarray:
    """evaluate's value for each of size rows of n iid atoms, drawn block rows at a time by draw_atoms,
    with one set of its scratch buffers (draw_scratch: the index alone for a dyadic law), into one reused
    (block, n) buffer of the dtype of values. With block * n a multiple of 64 the draws are those of one
    whole draw of size * n values, dyadic laws included."""
    drawn = np.empty((min(block, size), n), dtype=values.dtype)
    scratch = draw_scratch(cdf, values, drawn.size)
    out = np.empty(size)
    for lo in range(0, size, block):
        rows = min(block, size - lo)
        out[lo : lo + rows] = evaluate(draw_atoms(rng, cdf, values, drawn[:rows], scratch))
    return out


def _packed_block(rng: np.random.Generator, b: int, table: np.ndarray, block: np.ndarray, index: np.ndarray) -> None:
    """Fill block from ceil(block.size * b / 64) raw words through the byte table of its law.

    Each byte of the words, as little-endian bytes, is one row of the table
    (8 // b values); the bytes pass through the intp index buffer so np.take
    makes no index copy, and a last partial byte gives its leading fields.
    """
    per_byte = 8 // b
    words = rng.bit_generator.random_raw(-(-block.size * b // 64))
    octets = words.astype("<u8", copy=False).view(np.uint8)[: -(-block.size // per_byte)]
    rows = index[: octets.size]
    np.copyto(rows, octets)
    whole = block.size - block.size % per_byte
    np.take(table, rows[: whole // per_byte], axis=0, out=block[:whole].reshape(-1, per_byte), mode="clip")
    if whole < block.size:
        block[whole:] = table[rows[-1], : block.size - whole]


def _as_float(x: object) -> float:
    if isinstance(x, str):
        try:
            return float(Fraction(x))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse numeric string {x!r}") from exc
    if isinstance(x, (int, float)):
        return float(x)
    raise InputError(f"expected a number, got {type(x).__name__}")


def three_point() -> Distribution:
    """The law {-1: 1/4, 0: 1/2, +1: 1/4}; handy because mu4 = 2*mu2^2 exactly."""
    return Distribution((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25))
