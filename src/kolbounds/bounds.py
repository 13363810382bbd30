"""Explicit-constant normal-approximation bounds, evaluated exactly.

Every function here returns a certified upper bound for the Kolmogorov
distance between a (near) unit-variance centered functional and the standard
normal, computed term by term from discrete gradients and gradewise operator
powers. Constants are fixed by the package's weight convention (each
coordinate carries weight 2 in full-weight integrals, weight 1 in half-weight
ones, so a full-weight integral is twice the half-weight one; see the chaos
module docstring) and are not adjustable.

Each bound takes one functional, or a sequence of functionals on one space
(a stack), and returns one result per functional; one functional is the
stack of one. A stack is read in space.stack_chunks, max(1, STACK_CAP //
|Omega|) functionals at a time, each in one chaos.gradient_integrals pass
over the coordinates that runs each gradient term once over the chunk. In
grids of 8 |Omega| bytes, a chunk of F functionals peaks near 8 F in
master_bound (X copied into the stack, L^-1 X, two integrals kept as grids,
the gradient buffer and its spare) and 4 F in the others, and one
functional, whose grid is not copied, near 7; so any stack peaks near
8 * 8 * STACK_CAP bytes (16 MiB), or 7 grids for one functional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import hoeffding, tol
from .chaos import apply_L_power, gradient_integrals
from .errors import DomainError, InputError
from .space import OutcomeSpace, RandomFunctional, power, stack_chunks


def _per_functional(X: RandomFunctional | Sequence[RandomFunctional], evaluate: Callable[..., list], *args):
    """evaluate(space, stack, *args) for X, or for each chunk of a sequence of functionals on one space.

    One functional is a stack of one, its grid as a view, and gets its
    result alone; a sequence gets a list, in order.
    """
    if isinstance(X, RandomFunctional):
        return evaluate(X.space, X.grid[None], *args)[0]
    Xs = list(X)
    if not Xs:
        return []
    space = Xs[0].space
    if any(Y.space != space for Y in Xs):
        raise DomainError("functionals live on different spaces")
    return [r for chunk in stack_chunks(Xs) for r in evaluate(space, np.stack([Y.grid for Y in chunk]), *args)]


def _moments(space: OutcomeSpace, stack: np.ndarray, *ks: int) -> list[list[float]]:
    """E[X^k] for each functional X of the stack, for each k: one dot per functional, as
    RandomFunctional.moment takes it, so a functional's moments do not depend on its stack."""
    flat, joint = stack.reshape(len(stack), -1), space.joint_probs.reshape(-1)
    return [[float(np.dot(row, joint)) for row in (flat if k == 1 else power(flat, k))] for k in ks]


def _variances(space: OutcomeSpace, stack: np.ndarray) -> list[float]:
    """Var(X) = max(E[X^2] - E[X]^2, 0) for each functional X of the stack, as RandomFunctional.variance."""
    means, squares = _moments(space, stack, 1, 2)
    return [max(square - mean * mean, 0.0) for mean, square in zip(means, squares)]


def _check_centred(space: OutcomeSpace, stack: np.ndarray, message: str) -> None:
    (means,) = _moments(space, stack, 1)
    for mean, values in zip(means, stack):
        tol.check_centred(mean, values, message)


def _square_and_quartic(space: OutcomeSpace, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each functional's half-weight integral of (grad X)^2, as a flat grid, and E of its (grad X)^4 one."""
    # The square goes into G itself, which the quartic term squares again.
    sq, quartic = gradient_integrals(
        space, [stack], [lambda G, spare: np.square(G, out=G)], [lambda G, spare: np.square(G, out=G)]
    )
    return sq.reshape(len(stack), -1), quartic


@dataclass(frozen=True)
class FourthMomentCheck:
    """lhs = E[X^4]; rhs = 36 a + 15 b + 2 c with the gradient ingredients."""

    lhs: float
    rhs: float
    grad_sq_term: float
    grad_quartic_term: float
    second_moment_sq: float

    @property
    def holds(self) -> bool:
        return self.lhs - self.rhs <= tol.SLACK * tol.scale(self.rhs)


def fourth_moment_check(X: RandomFunctional | Sequence[RandomFunctional]):
    """E[X^4] against 36 E[(full-weight grad square integral)^2]
    + 15 E[full-weight grad quartic integral] + 2 (E[X^2])^2.

    One FourthMomentCheck for one functional, a list for a sequence."""
    return _per_functional(X, _fourth_moment_checks)


def _fourth_moment_checks(space: OutcomeSpace, stack: np.ndarray) -> list[FourthMomentCheck]:
    sq, quartic = _square_and_quartic(space, stack)
    (a,) = _moments(space, 2.0 * sq, 2)
    m2, m4 = _moments(space, stack, 2, 4)
    return [
        FourthMomentCheck(x4, 36.0 * a_f + 15.0 * (2.0 * q) + 2.0 * x2**2, a_f, 2.0 * q, x2**2)
        for a_f, q, x2, x4 in zip(a, quartic.tolist(), m2, m4)
    ]


@dataclass(frozen=True)
class MasterBound:
    """The four-term general bound; total is their sum."""

    total: float
    second_moment_gap: float
    variance_term: float
    gradient_fourth_term: float
    squared_gradient_term: float

    def terms(self) -> dict[str, float]:
        return {
            "second_moment_gap": self.second_moment_gap,
            "variance_term": self.variance_term,
            "gradient_fourth_term": self.gradient_fourth_term,
            "squared_gradient_term": self.squared_gradient_term,
        }


def master_bound(X: RandomFunctional | Sequence[RandomFunctional]):
    """Certified Kolmogorov-distance bound for any centered functional.

    total = |1 - E[X^2]|
          + sqrt(Var(half-weight integral of grad X * grad X1))
          + (3/2) sqrt(E int (grad X)^4 full) *
              [ (E[X^4] E[(int (grad X1)^2 full)^2])^(1/4)
                + (sqrt(pi)/2) sqrt(E[X_half^2]) ]
          + 4 (shifted-square factor of X * shifted-square factor of X1)^(1/4)

    with X1 the inverse number operator applied to X and X_half the
    inverse square-root power. One MasterBound for one functional, a list
    for a sequence. X and X1 go into one gradient pass, one gradient buffer
    (as two stacks, so one X is not copied), and their shifted squares into
    one grade_energy split.
    """
    return _per_functional(X, _master_bounds)


def _master_bounds(space: OutcomeSpace, stack: np.ndarray) -> list[MasterBound]:
    _check_centred(space, stack, "the master bound needs a centered functional")
    F = len(stack)
    # L^-1 X one functional at a time: a batched sweep multiplies by other
    # BLAS kernels, and the variance term would carry their round-off apart.
    inverse = np.stack([apply_L_power(RandomFunctional(space, grid), -1.0).grid for grid in stack])
    # E[(L^{-1/2} X)^2] = E[X L^{-1} X]: both are sum_d E[X_d^2] / d.
    (cross,) = _moments(space, stack * inverse, 1)
    m2, m4 = _moments(space, stack, 2, 4)
    shift = [1.0 + 2.0 * math.sqrt(d) for d in range(space.n + 1)]

    def shifted_squares(G: np.ndarray, spare: np.ndarray) -> np.ndarray:
        # E[((I + 2 sqrt(number op)) grad^2)^2] for every atom of X and of
        # L^-1 X at once; the split skips the buffer's own (reduced) axis k.
        np.square(G, out=G)
        return hoeffding.grade_energy(space, G, shift, spare).reshape(len(G), -1)

    pair, sq_inverse, quartic, shifted = gradient_integrals(
        space,
        [stack, inverse],
        [
            lambda G, spare: np.multiply(G[:F], G[F:], out=spare[:F]),
            lambda G, spare: np.square(G[F:], out=spare[:F]),
        ],
        [lambda G, spare: np.square(np.square(G[:F], out=spare[:F]), out=spare[:F]), shifted_squares],
    )
    pair_var = _variances(space, pair)
    (b2_sq,) = _moments(space, 2.0 * sq_inverse, 2)
    bounds = []
    columns = (m2, m4, cross, pair_var, b2_sq, quartic.tolist(), shifted[:F].tolist(), shifted[F:].tolist())
    for x2, x4, xz, pv, b2, q, s, s_inv in zip(*columns):
        t1 = abs(1.0 - x2)
        t2 = math.sqrt(pv)
        q4 = 2.0 * q
        t3 = 1.5 * math.sqrt(q4) * ((x4 * b2) ** 0.25 + (math.sqrt(math.pi) / 2.0) * math.sqrt(max(xz, 0.0)))
        t4 = 4.0 * ((2.0 * s) * (2.0 * s_inv)) ** 0.25
        bounds.append(MasterBound(t1 + t2 + t3 + t4, t1, t2, t3, t4))
    return bounds


def single_order_bounds(X: RandomFunctional | Sequence[RandomFunctional], d: int | Sequence[int]):
    """The two certified bounds for a pure order-d multiple sum.

    first  = gap + (1/d) sqrt(Var(int (grad X)^2 half))
                + ((12 + 5 E[X^4]^(1/4)) / sqrt(d)) sqrt(E int (grad X)^4 full)
    second = gap + sqrt(Var(int (grad X)^2 half)) + 24 sqrt(E int (grad X)^4 full)

    X must be centered. At unit variance second is also the
    conditional-moment form sqrt(var_term) + 24 sqrt(2 fourth_term), with
    D_k = X - E[X | every coordinate but k], var_term = Var(sum_k E[D_k^2 |
    every coordinate but k]) and fourth_term = sum_k E[D_k^4]; the oracle
    _conditional_moment_terms in tests/test_bounds.py evaluates that form.
    One (first, second) pair for one functional, a list for a sequence; d is
    one order for all, or one per functional of a sequence.
    """
    single = isinstance(X, RandomFunctional)
    orders = list(d) if isinstance(d, Sequence) else None
    if any(order < 1 for order in ([d] if orders is None else orders)):
        raise DomainError("order must be at least 1")
    parts = _per_functional(X, _single_order_parts)
    parts = [parts] if single else parts
    orders = [d] * len(parts) if orders is None else orders
    if len(orders) != len(parts):
        raise InputError(f"{len(orders)} orders for {len(parts)} functionals")
    pairs = []
    for (gap, var_half, q4, x4), order in zip(parts, orders):
        first = gap + var_half / order + (12.0 + 5.0 * x4**0.25) / math.sqrt(order) * q4
        pairs.append((first, gap + var_half + 24.0 * q4))
    return pairs[0] if single else pairs


def _single_order_parts(space: OutcomeSpace, stack: np.ndarray) -> list[tuple[float, float, float, float]]:
    """(gap, sqrt(Var(int (grad X)^2 half)), sqrt(E int (grad X)^4 full), E[X^4]) for each functional."""
    _check_centred(space, stack, "the single-order bounds need a centered functional")
    sq, quartic = _square_and_quartic(space, stack)
    m2, m4 = _moments(space, stack, 2, 4)
    return [
        (abs(1.0 - x2), math.sqrt(v), math.sqrt(2.0 * q), x4)
        for x2, x4, v, q in zip(m2, m4, _variances(space, sq), quartic.tolist())
    ]
