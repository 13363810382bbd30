"""Hoeffding (ANOVA) decompositions and gradewise scaling.

Every functional X of n independent coordinates splits uniquely as
X = sum over subsets J of W_J, where W_J depends only on the coordinates in J
and E[W_J | coordinates in K] = 0 whenever J is not contained in K.

project gives every term in one pass over the axes, with no change of basis.
Axis k of the grid is split by space.law_mean into its average under the law
(slot 0) and the centred remainder (slots 1 .. m_k), the per-axis projectors
(mean, I - mean); over all axes that is their tensor product. In the table,
the entry with slot 0 on every axis outside J and slot 1 + t_k on each axis k
in J is W_J(t_J). It has prod (m_k + 1) entries, and is refused before it is
allocated when that exceeds space.SIZE_CAP.

Gradewise scaling runs on one per-axis change of basis instead, which is
Yates' algorithm for factorial designs generalised to any finite law. The
basis of coordinate k is orthonormal under its law p: the constant function
and m - 1 centred functionals. With H_k the Householder reflector that swaps
e_r and -sqrt(p) (r the most likely atom, the mean slot), the split is
A_k = -H_k diag(sqrt p): row r is p, so the mean slot holds the average under
the law, and every other row pairs the grid with one centred basis function.
A_k diag(1/p) A_k^T = I, and the join is A_k^-1 = -diag(1/sqrt p) H_k. In the
split basis every grid entry is the coefficient of a product of basis
functions; the number of its non-mean axes is the entry's order, and by
Parseval the second moment of any sum of entries is the sum of their squared
coefficients.

The matrices act on tensor factors of their own, so consecutive coordinates
whose atom counts multiply to at most BLOCK form one Kronecker block and
kron(A_a, ..., A_b) is applied to the whole grid as one gemm: the grid,
flattened, is read as (rest, block), multiplied from the left and written
back block-first (Van Loan's Kronecker-vector product). Each step so rotates
the block it treats to the front, between the grid and one spare buffer,
and after every block, and a leading batch (an identity block, a transposed
copy), has had its turn the layout is the original one. A coordinate with
more than BLOCK atoms is a block of its own and never gets a matrix: it takes
the reflector as a rank-one step on sqrt(p) times the grid, with sqrt(p)
written into whichever buffer is free at the time. An axis of length one (a
reduced grid, constant along it) is skipped. A direction costs at most
2 BLOCK |Omega| flops per block and one spare grid of memory. The plan
(blocks, their matrices and the int8 order of every entry) is built once per
sequence of laws and shared by every space with those laws; the plans of the
last _PLANS_KEPT sequences are kept.

grade_sweep scales each entry by its order's coefficient between the split
and the join, and grade_energy sums the squared, weighted entries after the
split alone, reading the batch where the split leaves it (last), with no
transposed copy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dist import Distribution
from .errors import InputError, SpaceTooLargeError
from .space import SIZE_CAP, OutcomeSpace, RandomFunctional, law_mean

# Largest Kronecker block, in grid entries along the block (the gemm's inner
# size). With 16, grade_energy on one gradient stack (2 cores, one BLAS
# thread) takes 0.05 / 0.42 / 4.4 ms at Rademacher n = 12 / 16 / 18 and
# 0.14 / 1.6 ms at three-point n = 9 / 11; 32 and 64 are within 8% of that,
# up to 11% faster at three-point n = 11, and 8 is 5-110% slower.
BLOCK = 16


def _axis_matrix(p: np.ndarray, r: int, join: bool) -> np.ndarray:
    """A = -H diag(sqrt p) (split) or A^-1 = -diag(1/sqrt p) H (join) for a law p with mean slot r.

    -H = u u^T / u_r - I with u = sqrt(p) + e_r, so -H e_r = sqrt(p).
    """
    root = np.sqrt(p)
    u = root.copy()
    u[r] += 1.0
    U = np.outer(u, u / u[r])
    U[np.diag_indices(len(p))] -= 1.0
    return U / root[:, None] if join else U * root


def _wide_step(p: np.ndarray, r: int, src: np.ndarray, dst: np.ndarray, join: bool) -> None:
    """One wide axis, last in src, split (or joined) into dst block-first, without forming A.

    With V = src read as (atoms, rest), the split row r is the mean p V and
    row t != r is sqrt(p_t) (c - V_t), c = (p V + sqrt(p_r) V_r) / (1 + sqrt(p_r)).
    The join row r is a / sqrt(p_r) and row t != r is d - V_t / sqrt(p_t),
    a = sqrt(p) V and d = (a + V_r) / (1 + sqrt(p_r)). sqrt(p) goes into the
    head of src once the split has read it, or of dst before the join writes
    it, so no atom-sized array is allocated; src is overwritten.
    """
    m = len(p)
    V = src.reshape(-1, m).T
    W = dst.reshape(m, -1)
    if join:
        root = np.sqrt(p, out=dst.reshape(-1)[:m])
        root_r = float(root[r])
        a = root @ V
        d = (a + V[r]) / (1.0 + root_r)
        V /= root[:, None]
        np.subtract(d, V, out=W)
        W[r] = a / root_r
    else:
        root_r = math.sqrt(p[r])
        mean = p @ V
        np.subtract((mean + root_r * V[r]) / (1.0 + root_r), V, out=W)
        W *= np.sqrt(p, out=src.reshape(-1)[:m])[:, None]
        W[r] = mean


class _Basis:
    """The change-of-basis plan of one sequence of laws; _basis shares it.

    blocks lists the Kronecker blocks, consecutive coordinates with more than
    one atom; order is the order of every entry of a full split grid, int8
    and read-only. A kron matrix is built once per direction and sequence of
    laws along the block's kept axes, so iid blocks share theirs; the space's
    law_ids number the distinct laws, so that sequence is keyed by small integers.
    """

    def __init__(self, space: OutcomeSpace):
        self.law_ids = space.law_ids
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
        key = (tuple(self.law_ids[k] for k in axes), join)
        K = self._kron.get(key)
        if K is None:
            K = np.ones((1, 1))
            for k in axes:
                A = _axis_matrix(self.probs[k], self.refs[k], join)
                K = (K[:, None, :, None] * A[None, :, None, :]).reshape(len(K) * len(A), -1)
            self._kron[key] = K
        return K

    def apply(
        self, T: np.ndarray, spare: np.ndarray, join: bool, batch_last: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Split (or join) every coordinate axis of T; returns (result, free buffer).

        T and spare are C-ordered float arrays of one size; T's last n axes
        follow the space's coordinates and its leading axes are a batch. The
        result is T or spare in T's shape, or with batch_last in the
        (coordinates, batch) layout the blocks leave, without the transposed
        copy; both are overwritten.
        """
        shape = T.shape[T.ndim - len(self.refs) :]
        src, dst = T, spare
        moved = False
        for block in reversed(self.blocks):
            axes = tuple(k for k in block if shape[k] > 1)
            if not axes:
                continue
            size = math.prod(shape[k] for k in axes)
            if size > BLOCK:
                (k,) = axes
                _wide_step(self.probs[k], self.refs[k], src, dst, join)
            else:
                np.matmul(self._matrix(axes, join), src.reshape(-1, size).T, out=dst.reshape(size, -1))
            src, dst = dst, src
            moved = True
        batch = T.size // math.prod(shape)
        if moved and batch > 1 and not batch_last:
            np.copyto(dst.reshape(batch, -1), src.reshape(-1, batch).T)
            src, dst = dst, src
        return src, dst


# Plans by sequence of laws, oldest first; _PLANS_KEPT bounds what they hold
# (an int8 order grid of at most SIZE_CAP bytes each, and their matrices).
_plans: dict[tuple[Distribution, ...], _Basis] = {}
_PLANS_KEPT = 8


def _basis(space: OutcomeSpace) -> _Basis:
    """The plan of space's laws, built on first use and shared by every space with equal laws."""
    plan = _plans.get(space.laws)
    if plan is None:
        if len(_plans) >= _PLANS_KEPT:
            del _plans[next(iter(_plans))]
        plan = _plans[space.laws] = _Basis(space)
    return plan


def project(X: RandomFunctional) -> np.ndarray:
    """Every Hoeffding term of X in one table, exactly (layout in the module docstring).

    Raises SpaceTooLargeError, before allocating, when the table's
    prod (m_k + 1) entries exceed space.SIZE_CAP. The pass peaks below three
    tables: at the last axis, the previous table, its mean and centred part,
    and the new table.
    """
    space = X.space
    size = math.prod(m + 1 for m in space.shape)
    if size > SIZE_CAP:
        raise SpaceTooLargeError(f"Hoeffding table of {space!r} has {size} entries, cap is {SIZE_CAP}")
    T = X.grid
    for k, p in enumerate(space.probs):
        mean = law_mean(T, k, p)
        T = np.concatenate([mean, T - mean], axis=k)
    return T


def _check_grid(space: OutcomeSpace, grid: np.ndarray, coeffs: Sequence[float]) -> tuple[int, ...]:
    """The coordinate shape of a grid that grade_sweep and grade_energy accept."""
    n = space.n
    if len(coeffs) != n + 1:
        raise InputError(f"need {n + 1} grade coefficients, got {len(coeffs)}")
    if grid.ndim < n:
        raise InputError(f"grid has {grid.ndim} axes, the space needs at least {n}")
    if grid.dtype != float or not grid.flags.c_contiguous:
        raise InputError("grade_sweep and grade_energy take a C-ordered float array and overwrite it")
    shape = grid.shape[grid.ndim - n :]
    if any(m not in (1, full) for m, full in zip(shape, space.shape)):
        raise InputError(f"grid axes {shape} do not fit the space's {space.shape}")
    return shape


def _by_order(basis: _Basis, shape: Sequence[int], table: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """table[order] for every entry of a grid of this shape, written into the head of spare."""
    order = basis.order_of(shape)
    out = spare.reshape(-1)[: order.size].reshape(order.shape)
    # np.take casts its indices to intp, so it gets them one nditer buffer
    # at a time rather than as a grid of its own.
    with np.nditer([order, out], ["external_loop", "buffered"], [["readonly"], ["writeonly"]]) as chunks:
        for index, chunk in chunks:
            np.take(table, index, out=chunk, mode="clip")
    return out


def grade_sweep(space: OutcomeSpace, grid: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Replace grid in place by sum over d of coeffs[d] * (its order-d part) and return it.

    grid is a C-ordered float array whose last n axes follow the space's
    coordinates, each of its coordinate's length or of length one (a reduced
    grid, constant along it, skipped); any leading axes are a batch and are
    carried through untouched. Each entry of the split grid lies in the order
    counted by its non-mean axes; it is scaled by that order's coefficient
    and the axes are joined back.

    Cost: each direction is one gemm per Kronecker block (see the module
    docstring), 2 M N flops for a block of M entries on a grid of N, so
    8 n N at Rademacher, whose blocks hold four coordinates, plus one
    transposed copy for a batch. Memory: one spare buffer of grid's size,
    which also holds the per-entry coefficients; callers that keep the input
    pass a copy.
    """
    shape = _check_grid(space, grid, coeffs)
    basis = _basis(space)
    coef, free = basis.apply(grid, np.empty_like(grid), join=False)
    coef *= _by_order(basis, shape, np.asarray(coeffs, dtype=float), free)
    # The join takes as many steps as the split, so the result is back in grid.
    return basis.apply(coef, free, join=True)[0]


def grade_energy(
    space: OutcomeSpace, grid: np.ndarray, coeffs: Sequence[float], spare: np.ndarray | None = None
) -> np.ndarray:
    """sum over d of coeffs[d]^2 E[(order-d part)^2] for each batch row of grid, overwriting grid.

    This is E[Y^2] for Y = grade_sweep(space, grid, coeffs), row by row, from
    the split alone: the grades are orthogonal and the basis orthonormal, so
    E[Y^2] is the sum over entries of (coeffs[order] * coefficient)^2. grid is
    as for grade_sweep; the result has one entry per batch row (the product
    of the leading axes, 1 without a batch), in the batch's order. The split
    leaves the batch last, and the sums read it there, so the batch layout is
    never restored. Cost: one direction of grade_sweep and one gemv. Memory:
    one spare buffer of grid's size, which also holds the per-entry weights;
    it is spare when given (a C-ordered float array of grid's size, which is
    overwritten), else new.
    """
    shape = _check_grid(space, grid, coeffs)
    basis = _basis(space)
    spare = np.empty_like(grid) if spare is None else spare
    coef, free = basis.apply(grid, spare, join=False, batch_last=True)
    weights = _by_order(basis, shape, np.square(np.asarray(coeffs, dtype=float)), free)
    np.square(coef, out=coef)
    # An unmoved grid has one entry per batch row, so both layouts agree.
    return weights.reshape(-1) @ coef.reshape(weights.size, -1)


def scale_grades(X: RandomFunctional, coeffs: Sequence[float]) -> RandomFunctional:
    """Return sum over d of coeffs[d] * (order-d part of X), in one sweep.

    coeffs has length n + 1, indexed by order. This is the workhorse behind
    operator powers: it never materializes the per-subset terms, only one
    coefficient per entry after a per-axis change of basis (see grade_sweep).
    """
    return RandomFunctional(X.space, grade_sweep(X.space, X.grid.copy(), coeffs))
