"""Finite chaos calculus: kernels, multiple sums, gradients, operator powers.

Conventions, fixed once for the whole package:

* A kernel of order d assigns to every sorted d-subset J of coordinates an
  array over the product of those coordinates' supports. Kernels are
  "canonical": every slot average under the slot's law vanishes. Admission
  re-centers any table that misses this by more than tol.CENTRING (scaled,
  per slot, applied to every slot): it replaces the kernel by its canonical
  part, which in general changes the multiple sum. decompose slices its
  kernels out of hoeffding.project's one (mean | centred) table and admits
  them raw (centred by construction); multiply builds its product kernels in
  that layout, re-centres them there and admits them raw too. Slot means,
  kernel norms and gradients average with space.law_mean / law_expect, one
  BLAS matrix-vector product per axis with the law as the vector; only
  multiply's fold (its paired-slot weights) and the expectations
  gradient_integrals keeps as floats (the joint law, or coordinate k's law
  over per-atom expectations) take laws as operands.
* The multiple sum of a kernel is I_d(f) = d! * sum over subsets J of
  f_J(coordinates on J). Its covariance identity reads
  E[I_d(f) I_d(g)] = d! * <f, g> with <f, g> = d! * sum_J E[f_J g_J].
* Integrals over the replacement variable come in two weights. Each
  coordinate carries total weight 2 in a full-weight integral
  (sum_k 2 * E_{t ~ nu_k}) and weight 1 in a half-weight one
  (sum_k E_{t ~ nu_k}). All explicit constants in the bound evaluators are
  calibrated to this pairing; the product formula pairs slots with weight 1.
* The discrete gradient at (k, t) is
  grad_{k,t} X(w) = X(w with coordinate k set to t) - E_{s ~ nu_k} X(w with k set to s),
  a functional that does not depend on coordinate k itself. gradient(X, k)
  stacks it over the atoms t; gradient_integrals walks the coordinates once,
  one coordinate's stacks alive at a time, and serves every gradient bound.
* Operator powers act gradewise: the order-d part of X is scaled by d**alpha.
  Negative powers require a centered input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import hoeffding, tol
from .errors import DomainError, InputError, SpaceTooLargeError
from .space import SIZE_CAP, OutcomeSpace, RandomFunctional, law_expect, law_mean


def _subset_shape(space: OutcomeSpace, subset: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(space.shape[j] for j in subset)


def slot_mean_max(table: np.ndarray, probs: list[np.ndarray]) -> float:
    """Largest |average of table over one slot|, slot (axis) k averaged under probs[k]."""
    means = (law_mean(table, axis, p) for axis, p in enumerate(probs))
    return max((float(np.max(np.abs(m))) for m in means), default=0.0)


def center_slots(table: np.ndarray, probs: list[np.ndarray]) -> np.ndarray:
    """table with each slot's average under probs[k] removed, slot by slot."""
    out = table
    for axis, p in enumerate(probs):
        out = out - law_mean(out, axis, p)
    return out


class ChaosKernel:
    """A canonical order-d kernel, stored per sorted coordinate subset."""

    def __init__(
        self,
        space: OutcomeSpace,
        order: int,
        tables: dict[tuple[int, ...], np.ndarray],
        raw: bool = False,
    ):
        if order < 1:
            raise InputError("kernel order must be at least 1")
        self.space = space
        self.order = order
        clean: dict[tuple[int, ...], np.ndarray] = {}
        for subset, table in tables.items():
            subset = tuple(subset)
            if len(subset) != order or list(subset) != sorted(set(subset)):
                raise InputError(f"subset {subset} is not a sorted {order}-set")
            for j in subset:
                space.check_coordinate(j)
            arr = np.asarray(table, dtype=float)
            want = _subset_shape(space, subset)
            if arr.shape != want:
                raise InputError(f"table for subset {subset} has shape {arr.shape}, expected {want}")
            clean[subset] = arr
        self.tables = clean
        if not raw and self.degeneracy_violation() > tol.CENTRING * tol.scale(self.max_abs()):
            self.tables = self.canonical().tables

    def _probs(self, subset: tuple[int, ...]) -> list[np.ndarray]:
        return [self.space.probs[block] for block in subset]

    def degeneracy_violation(self) -> float:
        """Largest absolute slot average over all subsets and slots."""
        return max((slot_mean_max(t, self._probs(s)) for s, t in self.tables.items()), default=0.0)

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(t))) for t in self.tables.values()), default=0.0)

    def canonical(self) -> "ChaosKernel":
        tables = {s: center_slots(t, self._probs(s)) for s, t in self.tables.items()}
        return ChaosKernel(self.space, self.order, tables, raw=True)

    # ---------------------------------------------------------------- algebra

    def inner_product(self, other: "ChaosKernel") -> float:
        """<f, g> = d! * sum_J E_(nu on J)[f_J g_J]; orders must match."""
        if other.order != self.order or other.space != self.space:
            raise DomainError("inner product needs kernels of one order on one space")
        total = 0.0
        for subset, table in self.tables.items():
            t2 = other.tables.get(subset)
            if t2 is not None:
                total += law_expect(table * t2, self._probs(subset))
        return math.factorial(self.order) * total

    def integral(self) -> RandomFunctional:
        """The multiple sum I_d(f) = d! * sum_J f_J(omega on J) as a functional."""
        space = self.space
        total = np.zeros((1,) * space.n)
        for subset, table in self.tables.items():
            newshape = [1] * space.n
            for j in subset:
                newshape[j] = space.shape[j]
            total = total + table.reshape(newshape)
        total *= math.factorial(self.order)
        return space.expand(total)


@dataclass
class ChaosDecomposition:
    """mean + sum over orders d of I_d(f_d)."""

    space: OutcomeSpace
    mean: float
    kernels: dict[int, ChaosKernel] = field(default_factory=dict)

    def reconstruct(self) -> RandomFunctional:
        out = self.space.constant(self.mean)
        for d in sorted(self.kernels):
            out = out + self.kernels[d].integral()
        return out


def _subsets(n: int) -> Iterator[tuple[int, ...]]:
    """Every nonempty subset of range(n), sorted, in bit-mask order."""
    return (tuple(k for k in range(n) if mask >> k & 1) for mask in range(1, 1 << n))


def _at(subset: tuple[int, ...], n: int) -> tuple:
    """Where a subset's kernel table sits in a (mean | centred) table: atom slots on it, the mean slot elsewhere."""
    return tuple(slice(1, None) if k in subset else 0 for k in range(n))


def _table(kern: ChaosKernel) -> np.ndarray:
    """A kernel's tables in one (mean | centred) table, zero at every entry of another order."""
    space = kern.space
    T = np.zeros(tuple(m + 1 for m in space.shape))
    for subset, table in kern.tables.items():
        T[_at(subset, space.n)] = table
    return T


def decompose(X: RandomFunctional) -> ChaosDecomposition:
    """Exact chaos decomposition of a functional on its whole space.

    Each kernel table is a slice of hoeffding.project's table divided by d!:
    the centred slots on the axes of J and the mean slot on every other axis.
    Terms no larger than tol.DROP (scaled) are dropped.
    """
    T = hoeffding.project(X)
    space = X.space
    cut = tol.DROP * tol.scale(X.values)
    mean = X.expectation()
    per_order: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for subset in _subsets(space.n):
        table = T[_at(subset, space.n)]
        if float(np.max(np.abs(table))) <= cut:
            continue
        d = len(subset)
        per_order.setdefault(d, {})[subset] = table / math.factorial(d)
    # Hoeffding terms are centred by construction: admission would only find round-off.
    kernels = {d: ChaosKernel(space, d, tables, raw=True) for d, tables in per_order.items()}
    return ChaosDecomposition(space, mean, kernels)


# ------------------------------------------------------------------ gradient


def gradient(X: RandomFunctional, k: int) -> np.ndarray:
    """The stack of grad_{k,t} X over the atoms t of coordinate k.

    Row t is grad_{k,t} X as a grid with axis k of length one: the grid
    centred along k by law_mean, k moved to a leading atom axis, C-ordered.
    """
    space = X.space
    space.check_coordinate(k)
    grid = X.grid
    return np.subtract(grid[None].swapaxes(0, k + 1), law_mean(grid, k, space.probs[k])[None], order="C")


def _atom_average(space: OutcomeSpace, k: int, T: np.ndarray) -> float:
    """E_{t ~ nu_k} E[T[t]] for per-atom grids T (atoms leading, axis k of length one) or per-atom expectations."""
    if T.ndim == 1:
        return float(np.dot(T, space.probs[k]))
    # Stack row t weighs the outcomes with coordinate k at atom t: the joint
    # law with axis k read as the stack's atom axis.
    m, rest = space.shape[k], math.prod(space.shape[k + 1 :])
    weights = space.joint_probs.reshape(-1, m, rest)
    return float(np.einsum("tab,atb->", T.reshape(m, -1, rest), weights))


def gradient_integrals(
    Xs: Sequence[RandomFunctional],
    terms: Sequence[Callable[..., np.ndarray]],
    expected: Sequence[Callable[..., np.ndarray]] = (),
) -> list:
    """sum_k E_{t ~ nu_k}[term(*stacks_k)] for each term, at weight 1 per coordinate.

    stacks_k holds gradient(X, k) for every X in Xs; each term maps them
    entrywise (atoms on the leading axis) to one array of their shape. The
    integrals of terms come back as functionals; of each expected term only
    the expectation of its integral is kept, as a float, so it holds no grid.
    An expected term returns, atoms on the leading axis, either arrays of the
    stacks' shape or their expectations (one value per atom). One pass over
    the coordinates keeps a single coordinate's stacks alive; the full-weight
    integral is twice the result.
    """
    space = Xs[0].space
    if any(X.space != space for X in Xs):
        raise DomainError("gradients live on different spaces")
    outs = [np.zeros(space.shape) for _ in terms]
    means = [0.0 for _ in expected]
    for k in range(space.n):
        stacks = [gradient(X, k) for X in Xs]
        for out, term in zip(outs, terms):
            out += law_mean(term(*stacks), 0, space.probs[k])[0]
        for i, term in enumerate(expected):
            means[i] += _atom_average(space, k, term(*stacks))
        del stacks
    return [RandomFunctional(space, out.reshape(-1)) for out in outs] + means


# ------------------------------------------------------------ operator power


def apply_L_power(X: RandomFunctional, alpha: float) -> RandomFunctional:
    """Gradewise power of the number operator: order d scaled by d**alpha.

    alpha = 0 is the identity. For alpha < 0 the input must be centered
    (the order-0 part has no inverse).
    """
    n = X.space.n
    if alpha == 0.0:
        return X
    if alpha < 0.0:
        tol.check_centred(X.expectation(), X.values, "negative operator powers need a centered functional")
    coeffs = [0.0] + [float(d) ** alpha for d in range(1, n + 1)]
    return hoeffding.scale_grades(X, coeffs)


def covariance_identity_check(X: RandomFunctional, Y: RandomFunctional, alpha: float) -> float:
    """Residual of the gradient representation of the covariance.

    For centered X, Y and any real alpha,
    Cov(X, Y) = sum_k E E_t[(grad_{k,t} A)(grad_{k,t} B)] with
    A = (number operator)^(alpha-1) X and B = (number operator)^(-alpha) Y.
    Returns the absolute difference of the two sides.
    """
    for Z, name in ((X, "X"), (Y, "Y")):
        tol.check_centred(Z.expectation(), Z.values, f"covariance identity needs centered input {name}")
    A = apply_L_power(X, alpha - 1.0)
    B = apply_L_power(Y, -alpha)
    rhs = gradient_integrals([A, B], [np.multiply])[0].expectation()
    lhs = (X * Y).expectation()
    return abs(lhs - rhs)


# -------------------------------------------------------------- multiplication


def _lift_and_fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lift (m + 1 -> 2m + 1 slots) and fold (2m + 1 -> m + 1 slots) of one axis with law p.

    The lift keeps f_0 and f_t and appends f_0 + f_t. After the pointwise
    product the fold sends the mean slot to P_0 + sum_t p_t P_t (neither
    kernel, or the two paired) and atom t to P_(m+t) - P_0 (one kernel's own
    slot, or both sharing it).
    """
    m = len(p)
    lift = np.zeros((2 * m + 1, m + 1))
    lift[: m + 1] = np.eye(m + 1)
    lift[m + 1 :, 0] = 1.0
    lift[m + 1 :, 1:] = np.eye(m)
    fold = np.zeros((m + 1, 2 * m + 1))
    fold[0, 0] = 1.0
    fold[0, 1 : m + 1] = p
    fold[1:, 0] = -1.0
    fold[1:, m + 1 :] = np.eye(m)
    return lift, fold


def _per_axis(T: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """T with mats[k] applied along axis k: each step reads the leading axis and appends the new one."""
    for M in mats:
        T = (T.reshape(M.shape[1], -1).T @ M.T).reshape(T.shape[1:] + M.shape[:1])
    return T


def multiply(f: ChaosKernel, g: ChaosKernel) -> ChaosDecomposition:
    """Chaos decomposition of the pointwise product I_n(f) * I_m(g).

    Both kernels go into a (mean | centred) table in hoeffding.project's
    layout (slot 0 off the subset, slot 1 + t at atom t), and three passes
    over the axes give every contraction at once: a lift, a pointwise
    product and a fold (_lift_and_fold). An entry with r atom slots is
    scaled by n! m! / r!, what the combinatorial weights
    k! C(m,k) C(n,k) C(k,i) s! fo! go! / r! times l! come to; the entry with
    none is the mean. The lifted
    tables have prod (2 m_k + 1) entries, refused before they are allocated
    when that exceeds space.SIZE_CAP. Entries no larger than tol.DROP
    (scaled) are cut. Re-centring every atom slot along each axis then
    replaces each kernel by its canonical part: for canonical inputs it
    removes from each shared slot the mean that the paired term already
    carries, and only then is the result the product.
    """
    if f.space != g.space:
        raise DomainError("product needs kernels on one space")
    space = f.space
    n = space.n
    size = math.prod(2 * a + 1 for a in space.shape)
    if size > SIZE_CAP:
        raise SpaceTooLargeError(f"lifted product table of {space!r} has {size} entries, cap is {SIZE_CAP}")
    lifts, folds = zip(*(_lift_and_fold(p) for p in space.probs))
    P = _per_axis(_table(f), lifts)
    P *= _per_axis(_table(g), lifts)
    R = _per_axis(P, folds)
    del P
    coeff = [math.factorial(f.order) * math.factorial(g.order) / math.factorial(r) for r in range(n + 1)]
    peaks = {K: coeff[len(K)] * float(np.max(np.abs(R[_at(K, n)]))) for K in _subsets(n)}
    cut = tol.DROP * tol.scale(list(peaks.values()))
    for k, p in enumerate(space.probs):
        atoms = R[(slice(None),) * k + (slice(1, None),)]
        atoms -= law_mean(atoms, k, p)
    per_order: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for K, peak in peaks.items():
        if peak > cut:
            per_order.setdefault(len(K), {})[K] = coeff[len(K)] * R[_at(K, n)]
    kernels = {r: ChaosKernel(space, r, tables, raw=True) for r, tables in per_order.items()}
    kernels = {r: kern for r, kern in kernels.items() if kern.max_abs() > cut}
    return ChaosDecomposition(space, coeff[0] * float(R[(0,) * n]), kernels)


# ------------------------------------------------------------------ utilities


def random_kernel(space: OutcomeSpace, order: int, rng: np.random.Generator) -> ChaosKernel:
    """A random canonical kernel: normal tables on every order-set, slotwise re-centered."""
    if order > space.n:
        raise DomainError(f"no {order}-sets among {space.n} coordinates")
    tables = {
        subset: rng.standard_normal(_subset_shape(space, subset))
        for subset in itertools.combinations(range(space.n), order)
    }
    return ChaosKernel(space, order, tables, raw=True).canonical()
