"""Hoeffding (ANOVA) decompositions and the rates built from them.

Every functional X of n independent coordinates splits uniquely as
X = sum over subsets J of W_J, where W_J depends only on the coordinates in J
and E[W_J | coordinates in K] = 0 whenever J is not contained in K.

One per-axis change of basis serves every term and every grade, which is
Yates' algorithm for factorial designs generalised to any finite law. The
split matrix S_k of coordinate k puts the average under its law at the slot
of its most likely atom r (the mean slot) and value_t minus that average at
every other slot t; the centred part at r is implied, since the centred
parts average to zero. The join J_k = S_k^-1 has the closed form
J_k[t] = e_t + e_r (t != r) and J_k[r] = e_r - sum_{t != r} (p_t / p_r) e_t.
In the split basis every grid entry is the coefficient of a product of mean
and centred factors; the entries whose centred axes are exactly J make up
W_J, and the number of centred axes is the entry's order.

The matrices act on tensor factors of their own, so consecutive coordinates
whose atom counts multiply to at most BLOCK form one Kronecker block and
kron(S_a, ..., S_b) is applied to the whole grid as one gemm: the grid,
flattened, is read as (rest, block), multiplied from the left and written
back block-first (Van Loan's Kronecker-vector product). Each step so rotates
the block it treats to the front, between the grid and one spare buffer,
and after every block, and a leading batch (an identity block, a transposed
copy), has had its turn the layout is the original one. A coordinate with
more than BLOCK atoms is a block of its own and never gets a matrix: it takes
the rank-one step (its law's average out, then the centred parts). An axis
of length one (a reduced grid, constant along it) is skipped. A direction
costs at most 2 BLOCK |Omega| flops per block and one spare grid of memory.
The plan (blocks, their matrices and the int8 order of every entry) is built
once per space.

project keeps the split grid and reads each order from the plan. A term W_J
is the sub-block with every other axis at its mean slot, joined back over the
axes in J alone; the order-d part is the grid masked to order d and joined
back; grade_sweep scales each entry by its order's coefficient between the
split and the join. Terms come out in reduced (keepdims) form, one axis per
coordinate with non-member axes collapsed to length one, and are expanded to
full functionals (OutcomeSpace.expand) on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tol
from .errors import DomainError, InputError
from .space import OutcomeSpace, RandomFunctional, law_expect, law_mean

# Largest Kronecker block, in grid entries along the block (the gemm's inner
# size). grade_sweep on one gradient stack (2 cores, one BLAS thread) takes
# 0.07 / 1.3 / 4.4 ms at Rademacher n = 12 / 16 / 18 and 0.23 / 2.9 ms at
# three-point n = 9 / 11 with 16; 8, 32 and 64 are within 10% at n <= 16 and
# 11-55% slower at Rademacher n = 18 and three-point.
BLOCK = 16


def _mask_of(subset: Sequence[int], n: int) -> int:
    mask = 0
    for k in subset:
        if not 0 <= k < n:
            raise InputError(f"coordinate {k} outside 0..{n - 1}")
        if mask & (1 << k):
            raise InputError(f"repeated coordinate {k} in subset")
        mask |= 1 << k
    return mask


def _subset_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(k for k in range(n) if mask & (1 << k))


def _axis_matrix(p: np.ndarray, r: int, join: bool) -> np.ndarray:
    """S_k (split) or J_k = S_k^-1 (join) for a law p with mean slot r."""
    if join:
        J = np.eye(len(p))
        J[:, r] = 1.0
        J[r] = -p / p[r]
        J[r, r] = 1.0
        return J
    S = np.eye(len(p)) - p
    S[r] = p
    return S


def _rank_one(p: np.ndarray, r: int, V: np.ndarray, W: np.ndarray, join: bool) -> None:
    """W = S_k V (split) or J_k V (join) for one wide axis, leading in V, without forming S_k.

    V may be overwritten.
    """
    if join:
        mean = V[r].copy()
        V[r] = 0.0
        np.add(V, mean, out=W)
        W[r] = mean - (p @ V) / p[r]
    else:
        mean = p @ V
        np.subtract(V, mean, out=W)
        W[r] = mean


class _Basis:
    """The change-of-basis plan of one space; OutcomeSpace.basis caches it.

    blocks lists the Kronecker blocks, consecutive coordinates with more than
    one atom; order is the order of every entry of a full split grid, int8
    and read-only. A kron matrix is built once per direction and sequence of
    laws along the block's kept axes, so iid blocks share theirs.
    """

    def __init__(self, space: OutcomeSpace):
        self.laws = space.laws
        self.probs = space.probs
        self.refs = tuple(int(p.argmax()) for p in space.probs)
        self.blocks: list[list[int]] = []
        size = BLOCK + 1
        for k, m in enumerate(space.shape):
            if m == 1:
                continue
            if size * m > BLOCK:
                self.blocks.append([k])
                size = m
            else:
                self.blocks[-1].append(k)
                size *= m
        order = np.zeros(space.shape, dtype=np.int8)
        for k, (m, r) in enumerate(zip(space.shape, self.refs)):
            order += (np.arange(m) != r).reshape((m,) + (1,) * (space.n - 1 - k))
        order.flags.writeable = False
        self.order = order
        self._kron: dict[tuple[tuple, bool], np.ndarray] = {}

    def order_of(self, shape: Sequence[int]) -> np.ndarray:
        """The order grid of a grid of this shape: a view at the mean slot of each reduced axis."""
        return self.order[tuple(slice(None) if m > 1 else slice(r, r + 1) for m, r in zip(shape, self.refs))]

    def _matrix(self, axes: tuple[int, ...], join: bool) -> np.ndarray:
        key = (tuple(self.laws[k] for k in axes), join)
        K = self._kron.get(key)
        if K is None:
            K = np.ones((1, 1))
            for k in axes:
                A = _axis_matrix(self.probs[k], self.refs[k], join)
                K = (K[:, None, :, None] * A[None, :, None, :]).reshape(len(K) * len(A), -1)
            self._kron[key] = K
        return K

    def apply(self, T: np.ndarray, spare: np.ndarray, join: bool) -> tuple[np.ndarray, np.ndarray]:
        """Split (or join) every coordinate axis of T; returns (result, free buffer).

        T and spare are C-ordered float arrays of one size; T's last n axes
        follow the space's coordinates and its leading axes are a batch. The
        result is T or spare in T's shape; both are overwritten.
        """
        shape = T.shape[T.ndim - len(self.refs) :]
        src, dst = T, spare
        moved = False
        for block in reversed(self.blocks):
            axes = tuple(k for k in block if shape[k] > 1)
            if not axes:
                continue
            size = math.prod(shape[k] for k in axes)
            V = src.reshape(-1, size).T
            W = dst.reshape(size, -1)
            if size > BLOCK:
                (k,) = axes
                _rank_one(self.probs[k], self.refs[k], V, W, join)
            else:
                np.matmul(self._matrix(axes, join), V, out=W)
            src, dst = dst, src
            moved = True
        batch = T.size // math.prod(shape)
        if moved and batch > 1:
            np.copyto(dst.reshape(batch, -1), src.reshape(-1, batch).T)
            src, dst = dst, src
        return src, dst

    def join(self, T: np.ndarray) -> np.ndarray:
        """T joined back, in T itself or in a new array of its shape."""
        return self.apply(T, np.empty_like(T), join=True)[0]


def _basis(space: OutcomeSpace) -> _Basis:
    if space.basis is None:
        space.basis = _Basis(space)
    return space.basis


class HoeffdingDecomposition:
    """The full subset decomposition of one functional.

    coef is the functional's grid in the split basis; every term and grade
    is read back from it with the space's change-of-basis plan.
    """

    def __init__(self, space: OutcomeSpace, coef: np.ndarray):
        self.space = space
        self._coef = coef
        self._basis = _basis(space)

    # ------------------------------------------------------------------ views

    def subsets(self) -> list[tuple[int, ...]]:
        n = self.space.n
        return [_subset_of(m, n) for m in sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))]

    def term(self, subset: Sequence[int]) -> RandomFunctional:
        return self.space.expand(self.term_grid(_mask_of(subset, self.space.n)))

    def term_grid(self, mask: int) -> np.ndarray:
        """W_J for the coordinate set J given as a bit mask, in reduced form.

        Cost O(|J| prod_{k in J} m_k): the sub-block with every axis outside
        J at its mean slot, with the mean slot of each axis in J zeroed,
        joined back.
        """
        refs = self._basis.refs
        block = self._coef[tuple(slice(None) if mask >> k & 1 else slice(r, r + 1) for k, r in enumerate(refs))].copy()
        for k, r in enumerate(refs):
            if mask >> k & 1:
                block[(slice(None),) * k + (r,)] = 0.0
        return self._basis.join(block)

    def reconstruct(self) -> RandomFunctional:
        return RandomFunctional(self.space, self._basis.join(self._coef.copy()).reshape(-1))

    def max_order(self) -> int:
        return max(self.orders_present(), default=0)

    def orders_present(self) -> list[int]:
        """Orders holding a coefficient above tol.DROP, scaled by the largest one."""
        live = np.abs(self._coef) > tol.DROP * tol.scale(self._coef)
        return np.flatnonzero(np.bincount(self._basis.order[live])).tolist()

    def grade(self, d: int) -> RandomFunctional:
        """The sum of all order-d terms as one functional."""
        masked = np.where(self._basis.order == d, self._coef, 0.0)
        return RandomFunctional(self.space, self._basis.join(masked).reshape(-1))

    def second_moment(self) -> float:
        """E[X^2], the sum of the terms' second moments by orthogonality."""
        return self.reconstruct().moment(2)

    def scaled(self, c: float) -> "HoeffdingDecomposition":
        return HoeffdingDecomposition(self.space, c * self._coef)


def project(X: RandomFunctional) -> HoeffdingDecomposition:
    """Decompose X into its Hoeffding terms, exactly.

    One split of X's grid (see grade_sweep for its cost) into a copy and one
    spare buffer; the terms are read from it on demand.
    """
    basis = _basis(X.space)
    coef, _ = basis.apply(X.grid.copy(), np.empty(X.space.shape), join=False)
    return HoeffdingDecomposition(X.space, coef)


def grade_sweep(space: OutcomeSpace, grid: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Replace grid in place by sum over d of coeffs[d] * (its order-d part) and return it.

    grid is a C-ordered float array whose last n axes follow the space's
    coordinates, each of its coordinate's length or of length one (a reduced
    grid, constant along it, skipped); any leading axes are a batch and are
    carried through untouched. Each entry of the split grid lies in the order
    counted by its centred axes; it is scaled by that order's coefficient and
    the axes are joined back.

    Cost: each direction is one gemm per Kronecker block (see the module
    docstring), 2 M N flops for a block of M entries on a grid of N, so
    8 n N at Rademacher, whose blocks hold four coordinates, plus one
    transposed copy for a batch. Memory: one spare buffer of grid's size,
    which also holds the per-entry coefficients; callers that keep the input
    pass a copy.
    """
    n = space.n
    if len(coeffs) != n + 1:
        raise InputError(f"need {n + 1} grade coefficients, got {len(coeffs)}")
    if grid.ndim < n:
        raise InputError(f"grid has {grid.ndim} axes, the space needs at least {n}")
    if grid.dtype != float or not grid.flags.c_contiguous:
        raise InputError("grade_sweep scales a C-ordered float array in place")
    shape = grid.shape[grid.ndim - n :]
    if any(m not in (1, full) for m, full in zip(shape, space.shape)):
        raise InputError(f"grid axes {shape} do not fit the space's {space.shape}")
    basis = _basis(space)
    coef, free = basis.apply(grid, np.empty_like(grid), join=False)
    order = basis.order_of(shape)
    scale = free.reshape(-1)[: order.size].reshape(order.shape)
    # np.take casts its indices to intp, so it gets them one nditer buffer
    # at a time rather than as a grid of its own.
    table = np.asarray(coeffs, dtype=float)
    with np.nditer([order, scale], ["external_loop", "buffered"], [["readonly"], ["writeonly"]]) as chunks:
        for index, out in chunks:
            np.take(table, index, out=out, mode="clip")
    coef *= scale
    # The join takes as many steps as the split, so the result is back in grid.
    return basis.apply(coef, free, join=True)[0]


def scale_grades(X: RandomFunctional, coeffs: Sequence[float]) -> RandomFunctional:
    """Return sum over d of coeffs[d] * (order-d part of X), in one sweep.

    coeffs has length n + 1, indexed by order. This is the workhorse behind
    operator powers: it never materializes the per-subset terms, only one
    coefficient per entry after a per-axis change of basis (see grade_sweep).
    """
    return RandomFunctional(X.space, grade_sweep(X.space, X.grid.copy(), coeffs))


# --------------------------------------------------------------------- rates


@dataclass(frozen=True)
class SubsetRateReport:
    """The square-rooted three-family bracket over Hoeffding terms."""

    value: float
    family_diag: float
    family_cross: float
    family_low: float
    normalized: bool


def _family(space: OutcomeSpace, terms: dict[int, np.ndarray], family: list) -> float:
    """sum over (J, pairs) of E[(sum over pairs (A, B) of E[W_A W_B | F_J])^2].

    Pairs with a missing (zero) term are skipped, and a J whose pairs are all
    skipped adds nothing.
    """
    total = 0.0
    for J, pairs in family:
        acc = None
        for A, B in pairs:
            a = terms.get(A)
            b = terms.get(B)
            if a is None or b is None:
                continue
            c = space.average(a * b, _subset_of(J, space.n))
            acc = c if acc is None else acc + c
        if acc is not None:
            total += law_expect(acc * acc, space.probs)
    return total


def subset_rate_report(H: HoeffdingDecomposition) -> SubsetRateReport:
    """Evaluate the three-family conditional-moment bracket for centered X.

    With W_J the Hoeffding terms of X and d its maximal order, the bracket is

      sum_{0<=l<i<=d} sum_{|J|=i-l} E[( sum_{|K|=l, K cap J empty}
                                        E[W_{J u K}^2 | F_J] )^2]
    + sum_{1<=l<i<=d} sum_{ordered (J1,J2) disjoint, |J1|=|J2|=i-l}
            E[( sum_{|K|=l, K cap (J1 u J2) empty}
                E[W_{J1 u K} W_{J2 u K} | F_{J1 u J2}] )^2]
    + sum_{1<=l<i<=d} sum_{|J|=i-l} E[( sum_{|K|=l, K cap J empty}
                                        E[W_K W_{J u K} | F_J] )^2]

    and the rate is its square root. Inputs are normalized to E[X^2] = 1
    first; the report records whether that rescaling was a no-op.
    """
    space = H.space
    n = space.n
    tol.check_centred(H.term_grid(0).item(), H._coef, "subset rate needs a centered functional (order-0 term present)")
    second = H.second_moment()
    if second <= 0.0:
        raise DomainError("subset rate needs a non-degenerate functional")
    normalized = abs(second - 1.0) <= tol.DROP
    Hn = H if normalized else H.scaled(1.0 / np.sqrt(second))
    d = Hn.max_order()
    if d > 4:
        raise DomainError(f"subset rate is desk-scale only (max order 4, got {d})")

    # Every term the bracket reads has at most d coordinates; each is built once.
    cut = tol.DROP * tol.scale(Hn._coef)
    by_size: dict[int, list[int]] = {}
    terms: dict[int, np.ndarray] = {}
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if size > d:
            continue
        by_size.setdefault(size, []).append(mask)
        g = Hn.term_grid(mask)
        if np.max(np.abs(g)) > cut:
            terms[mask] = g

    # Each family is a list of (J, pairs): the sum over pairs (A, B) of
    # E[W_A W_B | F_J] is squared and averaged. K runs over the l-sets
    # disjoint from J; at l = 0 only the diagonal family has a term (K empty).
    diag, cross, low = [], [], []
    for i in range(1, d + 1):
        for l in range(0, i):
            js = by_size.get(i - l, [])
            ks = by_size.get(l, []) if l > 0 else [0]
            diag += [(J, [(J | K, J | K) for K in ks if not K & J]) for J in js]
            if l > 0:
                # Cross: ordered disjoint pairs (J1, J2) given J1 u J2. Low: the bare W_K against W_{J u K}.
                pairs = [(J1, J2) for J1 in js for J2 in js if not J1 & J2]
                cross += [(J1 | J2, [(J1 | K, J2 | K) for K in ks if not K & (J1 | J2)]) for J1, J2 in pairs]
                low += [(J, [(K, J | K) for K in ks if not K & J]) for J in js]
    fam_diag, fam_cross, fam_low = (_family(space, terms, fam) for fam in (diag, cross, low))
    value = float(np.sqrt(fam_diag + fam_cross + fam_low))
    return SubsetRateReport(value, fam_diag, fam_cross, fam_low, normalized)


def rate_degenerate(H: HoeffdingDecomposition) -> tuple[float, float]:
    """Conditional-moment ingredients of the degenerate-projection bound.

    For W with Hoeffding terms all of one order d, returns

      var_term    = Var( sum_k E[(W - E[W | rest_k])^2 | rest_k] )
      fourth_term = sum_k E[(W - E[W | rest_k])^4]

    where rest_k is the sigma-field of all coordinates but k. The certified
    bound for unit-variance W is sqrt(var_term) + 24 * sqrt(2 * fourth_term).
    """
    orders = H.orders_present()
    if len(orders) != 1:
        raise DomainError(f"degenerate rate needs a single-order input, found orders {orders}")
    space = H.space
    grid = H.reconstruct().grid
    sum_cond = np.zeros((1,) * space.n)
    fourth = 0.0
    for k in range(space.n):
        delta = grid - law_mean(grid, k, space.probs[k])
        sq = delta * delta
        sum_cond = sum_cond + law_mean(sq, k, space.probs[k])
        fourth += law_expect(sq * sq, space.probs)
    mean = law_expect(sum_cond, space.probs)
    var = max(law_expect(sum_cond * sum_cond, space.probs) - mean * mean, 0.0)
    return var, fourth
