"""Explicit-constant normal-approximation bounds, evaluated exactly.

Every function here returns a certified upper bound for the Kolmogorov
distance between a (near) unit-variance centered functional and the standard
normal, computed term by term from discrete gradients and gradewise operator
powers. Each bound makes one chaos.gradient_integrals call, one pass over
the coordinates for all of its gradient integrals. Constants are fixed by the
package's weight convention (each coordinate carries weight 2 in full-weight
integrals, weight 1 in half-weight ones, so a full-weight integral is twice
the half-weight one; see the chaos module docstring) and are not adjustable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hoeffding, tol
from .chaos import apply_L_power, gradient_integrals
from .errors import DomainError
from .space import RandomFunctional, power


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


def fourth_moment_check(X: RandomFunctional) -> FourthMomentCheck:
    """E[X^4] against 36 E[(full-weight grad square integral)^2]
    + 15 E[full-weight grad quartic integral] + 2 (E[X^2])^2."""
    sq, quartic = gradient_integrals([X], [np.square], [lambda g: power(g, 4)])
    a = (2.0 * sq).moment(2)
    b = 2.0 * quartic
    c = X.moment(2) ** 2
    return FourthMomentCheck(
        lhs=X.moment(4),
        rhs=36.0 * a + 15.0 * b + 2.0 * c,
        grad_sq_term=a,
        grad_quartic_term=b,
        second_moment_sq=c,
    )


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


def master_bound(X: RandomFunctional) -> MasterBound:
    """Certified Kolmogorov-distance bound for any centered functional.

    total = |1 - E[X^2]|
          + sqrt(Var(half-weight integral of grad X * grad X1))
          + (3/2) sqrt(E int (grad X)^4 full) *
              [ (E[X^4] E[(int (grad X1)^2 full)^2])^(1/4)
                + (sqrt(pi)/2) sqrt(E[X_half^2]) ]
          + 4 (shifted-square factor of X * shifted-square factor of X1)^(1/4)

    with X1 the inverse number operator applied to X and X_half the
    inverse square-root power.
    """
    tol.check_centred(X.expectation(), X.values, "the master bound needs a centered functional")
    space = X.space
    Xm1 = apply_L_power(X, -1.0)
    shift = [1.0 + 2.0 * math.sqrt(d) for d in range(space.n + 1)]

    def shifted_square(g: np.ndarray) -> np.ndarray:
        # E[((I + 2 sqrt(number op)) grad^2)^2] for every atom of the stack at
        # once; the split skips the stack's own (reduced) coordinate axis.
        return hoeffding.grade_energy(space, np.square(g), shift)

    pair, sq_m1, quartic, shifted, shifted_m1 = gradient_integrals(
        [X, Xm1],
        [np.multiply, lambda g, h: np.square(h)],
        [lambda g, h: power(g, 4), lambda g, h: shifted_square(g), lambda g, h: shifted_square(h)],
    )
    t1 = abs(1.0 - X.moment(2))
    t2 = math.sqrt(max(pair.variance(), 0.0))
    q4 = 2.0 * quartic
    b2 = 2.0 * sq_m1
    # E[(L^{-1/2} X)^2] = E[X L^{-1} X]: both are sum_d E[X_d^2] / d.
    t3 = 1.5 * math.sqrt(q4) * (
        (X.moment(4) * b2.moment(2)) ** 0.25
        + (math.sqrt(math.pi) / 2.0) * math.sqrt(max((X * Xm1).expectation(), 0.0))
    )
    t4 = 4.0 * ((2.0 * shifted) * (2.0 * shifted_m1)) ** 0.25
    return MasterBound(
        total=t1 + t2 + t3 + t4,
        second_moment_gap=t1,
        variance_term=t2,
        gradient_fourth_term=t3,
        squared_gradient_term=t4,
    )


def single_order_bounds(X: RandomFunctional, d: int) -> tuple[float, float]:
    """The two certified bounds for a pure order-d multiple sum.

    first  = gap + (1/d) sqrt(Var(int (grad X)^2 half))
                + ((12 + 5 E[X^4]^(1/4)) / sqrt(d)) sqrt(E int (grad X)^4 full)
    second = gap + sqrt(Var(int (grad X)^2 half)) + 24 sqrt(E int (grad X)^4 full)
    """
    if d < 1:
        raise DomainError("order must be at least 1")
    sq, quartic = gradient_integrals([X], [np.square], [lambda g: power(g, 4)])
    gap = abs(1.0 - X.moment(2))
    var_half = math.sqrt(max(sq.variance(), 0.0))
    q4 = math.sqrt(2.0 * quartic)
    first = gap + var_half / d + (12.0 + 5.0 * X.moment(4) ** 0.25) / math.sqrt(d) * q4
    second = gap + var_half + 24.0 * q4
    return first, second


def degenerate_gradient_bound(X: RandomFunctional) -> float:
    """sqrt(Var(int (grad X)^2 half)) + 24 sqrt(E int (grad X)^4 full).

    Valid as a Kolmogorov bound for unit-variance single-order X; equals the
    conditional-moment form sqrt(var_term) + 24 sqrt(2 fourth_term) from
    hoeffding.rate_degenerate.
    """
    if abs(X.moment(2) - 1.0) > tol.CENTRING:
        raise DomainError("degenerate bound needs a unit-variance input")
    sq, quartic = gradient_integrals([X], [np.square], [lambda g: power(g, 4)])
    return math.sqrt(max(sq.variance(), 0.0)) + 24.0 * math.sqrt(2.0 * quartic)
