"""Finite discrete laws and their moment tables.

A Distribution is a finite list of (value, probability) atoms in strictly
increasing value order. Moments up to order eight are computed exactly by
direct summation; they feed every closed-form rate in the package.

Sampling is inverse-CDF through draw_atoms: uniforms are drawn a fixed block
at a time and mapped to atom codes by counting the cdf steps at or below
them, so a draw of N values holds the N outputs plus one block of
temporaries, and is bit-identical to one searchsorted over all N uniforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import tol
from .errors import InputError

# Uniforms per draw_atoms block. Successive rng.random calls continue one
# stream, so the blocking never changes the draws or the generator state.
_DRAW_BLOCK = 32_768

# Laws with at most this many atoms turn a block into codes by one comparison
# pass per cdf step; larger laws binary-search the steps. Timed per 32 768-
# uniform block (np.take included; 2 cores, numpy 2.4.6), the passes take
# about 0.06 ms at 3 atoms, 0.4 ms at 40 and 1.2-1.6 ms at 128, the search
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
        """Inverse-CDF draw(s) through draw_atoms; deterministic given the generator state."""
        out = draw_atoms(rng, self.cdf_array(), self.values_array(), np.empty(1 if size is None else size))
        return out if size is not None else float(out[0])


def draw_scratch(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform, comparison and code buffers of draw_atoms for draws of at most size values."""
    rows = min(_DRAW_BLOCK, size)
    return np.empty(rows), np.empty(rows, dtype=bool), np.empty(rows, dtype=np.uint8)


def draw_atoms(
    rng: np.random.Generator,
    cdf: np.ndarray,
    values: np.ndarray,
    out: np.ndarray,
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fill out with inverse-CDF draws of the atoms values and return it.

    cdf holds the cumulative probabilities of the atoms; its last entry is
    never read. The k-th element of out (in C order) takes the k-th uniform u
    of rng and becomes values[c] with c = #{j < len(values) - 1 : u >= cdf[j]},
    which is searchsorted(cdf, u, side="right") clipped to the last atom.
    Up to _COMPARE_MAX_ATOMS atoms, c is counted by one comparison pass per
    step; above it, by a searchsorted on the block.
    The uniforms come _DRAW_BLOCK at a time and the codes go through np.take
    straight into out, so nothing of size out is allocated. out must be
    C-contiguous with the dtype of values. A caller that draws repeatedly
    passes scratch, draw_scratch(k) for some k >= out.size, and reuses it;
    without it the buffers are allocated here.
    """
    steps = np.asarray(cdf, dtype=float)[: len(values) - 1]
    flat = out.reshape(-1)
    u, at_or_above, codes = draw_scratch(flat.size) if scratch is None else scratch
    for lo in range(0, flat.size, _DRAW_BLOCK):
        ub = rng.random(out=u[: flat.size - lo])
        if len(values) <= _COMPARE_MAX_ATOMS:
            cb = codes[: ub.size]
            cb.fill(0)
            for step in steps:
                np.greater_equal(ub, step, out=at_or_above[: ub.size])
                cb += at_or_above[: ub.size]
        else:
            cb = np.searchsorted(steps, ub, side="right")
        np.take(values, cb, out=flat[lo : lo + ub.size], mode="clip")
    return out


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
