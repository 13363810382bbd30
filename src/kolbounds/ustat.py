"""Degenerate weighted U-statistics over iid coordinates.

The statistic is

    U = binom(n, d)^{-1} sum_{k1 < ... < kd} w(k1, ..., kd) g(X_k1, ..., X_kd)

with a symmetric weight tensor w vanishing whenever two indices coincide, and
a kernel g whose conditional mean in each slot is zero. Under those two
assumptions U sits in the top Hoeffding grade, its variance is a product of
a kernel norm and a weight norm, and its distance to normal is controlled by
weight contractions. Everything here is exact summation; nothing is sampled
except ustat_sample.

Enumeration and draws never walk the C(n, d) subsets: with w symmetric and
diagonal-free, a product kernel f x ... x f sums to W[x, ..., x] / d! at
x = f(X), and any other kernel is its atom expansion over one-hot rows
against w on increasing tuples, both through qform.multilinear_form.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from . import tol
from .chaos import center_slots, slot_mean_max
from .dist import Distribution, draw_rows
from .errors import DegenerateError, DomainError, InputError
from .qform import Q_BLOCK, multilinear_form
from .space import BYTE_CAP, OutcomeSpace, RandomFunctional, check_bytes, law_expect, power


class WeightTensor:
    """Symmetric order-d array of real weights, zero on every diagonal.

    Stored dense as shape (n,) * d. Diagonal-free storage means unrestricted
    tensor contractions agree with the distinct-index sums they stand for.
    """

    def __init__(self, table: np.ndarray):
        T = np.asarray(table, dtype=float)
        if T.ndim < 1:
            raise InputError("weight tensor needs at least one axis")
        n = T.shape[0]
        if any(s != n for s in T.shape):
            raise InputError(f"weight tensor must be cubical, got shape {T.shape}")
        tol.check_symmetric(
            T,
            "weights must be finite numbers, got {!r}",
            "weight tensor asymmetry {gap:.3e} between axes {ax},{next}",
            "weight tensor must vanish when indices repeat",
        )
        self.table = T
        self.n = n
        self.order = T.ndim

    @staticmethod
    def from_json(obj: object) -> "WeightTensor":
        """Each entry sets every ordering of its subset; a later entry for the same set wins.

        The dense tensor's 8 n^d bytes are checked against space.BYTE_CAP as
        soon as n and order are read. The entries are then checked as arrays:
        one list per field, one type scan per list, and one flattened index
        array for the lengths, ranges and repeats. The first bad entry names
        the rejection.
        """
        if not isinstance(obj, dict):
            raise InputError("weight JSON must be an object")
        # JSON gives exact types, so type() tells integers from bools, floats
        # and strings.
        n, order, entries = obj.get("n"), obj.get("order"), obj.get("entries")
        if type(n) is not int or type(order) is not int or not isinstance(entries, list):
            raise InputError("weight JSON needs integer n, order and an entries list")
        if order < 1 or n < order:
            raise InputError(f"need 1 <= order <= n, got order={order}, n={n}")
        what = f"the dense weight tensor of order {order} at n = {n}"
        # n^order is formed only below 2^1000: an absurd order would make the
        # power slow and the byte count too long to print.
        if order * (n.bit_length() - 1) > 1000:
            raise InputError(f"{what} would take more than 2^1000 bytes, past the {BYTE_CAP}-byte cap")
        check_bytes(8 * n**order, what)
        try:
            subs = list(map(dict.__getitem__, entries, itertools.repeat("subset")))
            values = list(map(dict.__getitem__, entries, itertools.repeat("value")))
        except (KeyError, TypeError):
            raise InputError("each weight entry needs a subset and a value") from None
        flat = list(itertools.chain.from_iterable(subs)) if set(map(type, subs)) <= {list} else None
        if flat is None or set(map(type, flat)) - {int}:
            raise InputError("weight subsets must be lists of integer indices")
        # A string value goes through float(), so "nan" meets the finiteness check.
        if set(map(type, values)) - {int, float, str}:
            raise InputError("weight values must be numbers")
        vals = np.fromiter(map(float, values), float, len(values))
        short = np.flatnonzero(np.fromiter(map(len, subs), np.intp, len(subs)) != order)
        if short.size:
            raise InputError(f"weight subset {subs[short[0]]} must hold {order} distinct indices")
        try:
            idx = np.array(flat, dtype=np.int64).reshape(-1, order)
        except OverflowError:  # an index beyond int64, which the range check refuses
            idx = np.array(flat, dtype=object).reshape(-1, order)
        srt = np.sort(idx, axis=1)
        repeats = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        bad = repeats | (srt[:, 0] < 0) | (srt[:, -1] >= n)
        if bad.any():
            i = int(np.argmax(bad))
            why = f"must hold {order} distinct indices" if repeats[i] else f"out of range for n={n}"
            raise InputError(f"weight subset {subs[i]} {why}")
        # One write per axis permutation; each sorted subset keeps its last
        # entry, since numpy leaves open which of repeated writes wins.
        srt = srt.astype(np.intp, copy=False)
        keys = np.ravel_multi_index(tuple(srt.T), (n,) * order)
        last = len(keys) - 1 - np.unique(keys[::-1], return_index=True)[1]
        srt, vals = srt[last], vals[last]
        T = np.zeros((n,) * order)
        for perm in itertools.permutations(range(order)):
            T[tuple(srt[:, perm].T)] = vals
        return WeightTensor(T)

    @staticmethod
    def load(path: str) -> "WeightTensor":
        with open(path, "r", encoding="utf-8") as fh:
            return WeightTensor.from_json(json.load(fh))

    def increasing(self) -> np.ndarray:
        """Boolean mask of the index tuples with k1 < k2 < ... < kd."""
        mask = np.ones(self.table.shape, dtype=bool)
        axes = np.indices(self.table.shape, sparse=True)
        for lower, upper in zip(axes, axes[1:]):
            mask &= lower < upper
        return mask

    def to_json(self) -> dict:
        """Nonzero weights on increasing tuples, in lexicographic order."""
        nonzero = np.nonzero(self.increasing() & (self.table != 0.0))
        entries = [
            {"subset": sub, "value": val}
            for sub, val in zip(np.stack(nonzero, axis=1).tolist(), self.table[nonzero].tolist())
        ]
        return {"n": self.n, "order": self.order, "entries": entries}

    def total_sq_sum(self) -> float:
        """sum of w^2 over all ordered index tuples (d! times the sorted sum)."""
        return float(np.sum(self.table**2))

    def sorted_sq_sum(self, c: float = 1.0) -> float:
        """sum of (w / c)^2 over sorted index tuples, squared in one temporary."""
        scaled = self.table / c
        return float(np.sum(np.square(scaled, out=scaled))) / math.factorial(self.order)

    def contraction_sq(self, l: int) -> float:
        """sum_{k, r} (sum_m w(k, m) w(r, m))^2 with |m| = l shared indices.

        All tuples run unrestricted; the zero diagonals make that equal to
        the distinct-tuple sum the rate calls for. With A the table as an
        n^(d-l) x n^l matrix this is ||A A^T||_F^2 = ||A^T A||_F^2, formed
        through the smaller of the two Gram matrices.
        """
        d = self.order
        if not 1 <= l <= d - 1:
            raise DomainError(f"contraction depth must lie in 1..{d - 1}, got {l}")
        A = self.table.reshape(self.n ** (d - l), self.n**l)
        G = A @ A.T if A.shape[0] <= A.shape[1] else A.T @ A
        return float(np.sum(G * G))

    def weight_factor(self) -> float:
        """sup_l sqrt(contraction_sq(l)) / total_sq_sum, the matrix part of the rate."""
        d = self.order
        if d < 2:
            raise DomainError("the weight factor needs order >= 2")
        denom = self.total_sq_sum()
        if denom <= 0.0:
            raise DegenerateError("all-zero weight tensor")
        return max(math.sqrt(self.contraction_sq(l)) for l in range(1, d)) / denom


class UKernel:
    """Kernel table over the law's atoms, conditionally centered in each slot."""

    def __init__(self, law: Distribution, table: np.ndarray, raw: bool = False):
        T = np.asarray(table, dtype=float)
        m = law.n_atoms
        if T.ndim < 1 or any(s != m for s in T.shape):
            raise InputError(
                f"kernel table shape {T.shape} does not match the {m}-atom law"
            )
        self.law = law
        self.table = T
        self.order = T.ndim
        self.factor: np.ndarray | None = None  # f of a product kernel f x ... x f
        self._probs = law.probs_array()
        if not raw:
            worst = self.slot_mean_max()
            if worst > tol.CENTRING * tol.scale(T):
                raise DomainError(
                    f"kernel is not conditionally centered (worst slot mean {worst:.3e}); "
                    "use canonical() first"
                )

    def slot_mean_max(self) -> float:
        return slot_mean_max(self.table, [self._probs] * self.order)

    def canonical(self) -> "UKernel":
        """Project onto the top grade by removing each slot's conditional mean."""
        return UKernel(self.law, center_slots(self.table, [self._probs] * self.order))

    def moment(self, k: int) -> float:
        return law_expect(power(self.table, k), [self._probs] * self.order)

    def l2_sq(self) -> float:
        return self.moment(2)

    def l4_norm_sq(self) -> float:
        """The squared L4 norm of g, i.e. sqrt of the plain fourth moment."""
        return math.sqrt(self.moment(4))

    @staticmethod
    def product(law: Distribution, order: int) -> "UKernel":
        """g(x_1, ..., x_d) = x_1 ... x_d; needs a centered law."""
        if not law.is_centered():
            raise DomainError("product kernels are degenerate only for centered laws")
        if order < 1:
            raise InputError("kernel order must be positive")
        v = law.values_array()
        T = v.copy()
        for _ in range(order - 1):
            T = np.multiply.outer(T, v)
        g = UKernel(law, T)
        g.factor = v
        return g

    @staticmethod
    def from_json(obj: object) -> "UKernel":
        if not isinstance(obj, dict):
            raise InputError("kernel JSON must be an object")
        try:
            law = Distribution.from_json(obj["law"])
            order = int(obj["order"])
            arr = np.asarray(obj["array"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("kernel JSON needs law, order and a row-major array") from exc
        m = law.n_atoms
        if arr.size != m**order:
            raise InputError(f"kernel array has {arr.size} entries, expected {m}^{order}")
        return UKernel(law, arr.reshape((m,) * order))


def _check_pair(w: WeightTensor, g: UKernel) -> None:
    if w.order != g.order:
        raise InputError(f"weight order {w.order} != kernel order {g.order}")


def ustat_variance(w: WeightTensor, g: UKernel) -> float:
    """binom(n,d)^-2 ||g||_2^2 sum_{sorted tuples} w^2, through tol.guarded_variance: the largest sums,
    the contraction sums, are at most n^(2d) max|w|^4, and from order 2 on the rate reads max|w|^4."""
    _check_pair(w, g)
    n, d = w.n, w.order
    scale = float(np.max(np.abs(w.table)))
    return tol.guarded_variance(
        lambda c: math.comb(n, d) ** -2 * g.l2_sq() * w.sorted_sq_sum(c),
        scale,
        2.0 * d * math.log2(n),
        f"weight scale max|w| = {scale:.3g} at n = {n}, order {d}",
        "weights",
        "the weighted statistic has zero variance",
        small=d >= 2,
    )


def ustat_rate(w: WeightTensor, g: UKernel) -> float:
    """Rate for U/sigma: (||g||_L4^2 / ||g||_L2^2) times the weight factor, once ustat_variance accepts
    the statistic. The order-dependent constant in front is deliberately not applied."""
    ustat_variance(w, g)
    if w.order < 2:
        raise DomainError("the rate needs order >= 2; order 1 is a plain weighted sum")
    return g.l4_norm_sq() / g.l2_sq() * w.weight_factor()


def _labels(g: UKernel) -> np.ndarray:
    """Per-atom labels _subset_sums reads: f(atom) for a product kernel, else the index."""
    return g.factor if g.factor is not None else np.arange(g.law.n_atoms)


def _subset_sums(w: WeightTensor, g: UKernel, labels: np.ndarray) -> np.ndarray:
    """sum_{k1 < ... < kd} w(k) g(X_k1, ..., X_kd) for each row of labels."""
    if g.factor is not None:
        return multilinear_form(w.table, labels) / math.factorial(w.order)
    onehot = (labels[:, None, :] == np.arange(g.law.n_atoms)[:, None]).astype(float)
    return multilinear_form(np.where(w.increasing(), w.table, 0.0), onehot, g.table)


def ustat_functional(w: WeightTensor, g: UKernel) -> RandomFunctional:
    """U on the n-fold product space (small n only), at most qform.Q_BLOCK outcomes at a time."""
    _check_pair(w, g)
    space = OutcomeSpace.iid(g.law, w.n)
    labels = _labels(g)
    vals = space.evaluate(lambda codes: _subset_sums(w, g, labels[codes]), Q_BLOCK)
    vals /= math.comb(w.n, w.order)
    return space.functional(vals)


def ustat_sample(
    w: WeightTensor,
    g: UKernel,
    rng: np.random.Generator,
    size: int,
    batch: int = 20_480,
) -> np.ndarray:
    """Monte Carlo draws of U (unnormalized): dist.draw_rows' batches of b x n atom labels (8·b·n bytes; a
    general kernel's one-hot rows take m times that again). The default batch is a multiple of 64, so the
    labels are those of one whole law.sample(rng, size * n) bit for bit, dyadic laws included."""
    _check_pair(w, g)
    labels = _labels(g)
    out = draw_rows(rng, g.law.cdf_array(), labels, w.n, size, batch, lambda X: _subset_sums(w, g, X))
    out *= 1.0 / math.comb(w.n, w.order)
    return out
