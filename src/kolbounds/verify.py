"""Seeded identity and inequality suite on a small exact space.

Runs the package's core algebraic identities (isometry, product formula,
covariance identity, decomposition round trip) and its explicit-constant
inequalities (fourth-moment bound, the full distance bound, the two
single-order bounds) against exact enumeration on a four-coordinate
three-point space. Each kernel's multiple sum is computed once and shared by
every check that reads it; the isometry reads them as one Gram matrix
(OutcomeSpace.gram), the covariance identity in one batched call over its 36
triples. The inequalities take their functionals as stacks: one
fourth_moment_check call on the 15 random functionals, one master_bound and
one exact_kdist call on the 10 unit ones, one single_order_bounds and one
exact_kdist call on the pure multiple sums, drawn in the same rng order as
one at a time. Every check reports its worst residual; inequalities report
the worst violation, so zero means they held with slack.

The corrupt switch deliberately breaks the first kernel's slotwise centering,
through ChaosKernel._made, so downstream consumers can test their failure paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, chaos, mc, tol
from .dist import three_point
from .errors import DomainError
from .space import OutcomeSpace, RandomFunctional


N_KERNELS = 50  # random kernels of orders 1, 2, 3 in turn


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual <= tol.SLACK

    def to_json(self) -> dict:
        # A residual of inf marks a check whose hypotheses already failed;
        # JSON has no inf, so it becomes null with passed=false.
        return {
            "name": self.name,
            "residual": self.residual if math.isfinite(self.residual) else None,
            "tolerance": tol.SLACK,
            "passed": bool(self.passed),
        }


def _normalized(X: RandomFunctional) -> RandomFunctional:
    Xc = X.centered()
    v = Xc.variance()
    if v <= 0.0:
        raise ValueError("cannot normalize a constant functional")
    return Xc * (1.0 / np.sqrt(v))


def run_suite(seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    law = three_point()
    space = OutcomeSpace.iid(law, 4)
    rng = np.random.default_rng(seed)
    kernels = [chaos.random_kernel(space, 1 + (i % 3), rng) for i in range(N_KERNELS)]
    if corrupt:
        tables = dict(kernels[0].tables)
        first = min(tables)
        tables[first] = tables[first] + 0.75
        kernels[0] = chaos.ChaosKernel._made(space, kernels[0].order, tables)
    integrals = [f.integral() for f in kernels]

    results: list[CheckResult] = []

    worst = 0.0
    gram = space.gram(np.stack([I.values for I in integrals]))
    for i, f in enumerate(kernels):
        j = (7 * i + 3) % len(kernels)
        lhs, g = float(gram[i, j]), kernels[j]
        rhs = float(math.factorial(f.order)) * f.inner_product(g) if f.order == g.order else 0.0
        worst = max(worst, abs(lhs - rhs) / tol.scale([lhs, rhs]))
    results.append(CheckResult("isometry", worst))

    worst = 0.0
    pair_idx = [(0, 1), (1, 2), (2, 4), (4, 5), (5, 8), (3, 7)]
    for a, b in pair_idx:
        truth = integrals[a] * integrals[b]
        got = chaos.multiply(kernels[a], kernels[b]).reconstruct()
        worst = max(worst, float(np.max(np.abs(truth.values - got.values))) / tol.scale(truth.values))
    results.append(CheckResult("multiplication", worst))

    triples = [(i, i + 1, alpha) for i in range(12) for alpha in (0.0, 0.5, 1.0)]
    try:
        worst = max(chaos.covariance_identity_check(integrals[:13], triples))
    except DomainError:
        # A non-degenerate kernel yields an uncentered integral; that is
        # itself a failure of the identity's hypotheses.
        worst = math.inf
    results.append(CheckResult("covariance_identity", worst))

    worst = 0.0
    for i in range(10):
        X = space.functional(rng.standard_normal(space.shape)).centered()
        back = chaos.decompose(X).reconstruct()
        worst = max(worst, float(np.max(np.abs(back.values - X.values))) / tol.scale(X.values))
    results.append(CheckResult("decomposition_roundtrip", worst))

    fourth = [space.functional(rng.standard_normal(space.shape)).centered() for _ in range(15)]
    worst = max(max(0.0, chk.lhs - chk.rhs) / tol.scale(chk.rhs) for chk in bounds.fourth_moment_check(fourth))
    results.append(CheckResult("fourth_moment_bound", worst))

    unit = [_normalized(space.functional(rng.standard_normal(space.shape))) for _ in range(10)]
    dks = [report.value for report in mc.exact_kdist(unit)]
    worst = max(max(0.0, dk - mb.total) for dk, mb in zip(dks, bounds.master_bound(unit)))
    results.append(CheckResult("distance_bound", worst))

    pure, orders = [], []
    for f, Xd in zip(kernels[:12], integrals):
        v = Xd.variance()
        if v > tol.DROP * tol.scale(Xd.values):
            pure.append(Xd * (1.0 / np.sqrt(v)))
            orders.append(f.order)
    try:
        caps = bounds.single_order_bounds(pure, orders)
    except DomainError:
        # The scaled integral of a non-degenerate kernel is uncentered,
        # which the bounds' hypotheses exclude; count that as a failure.
        worst = math.inf
    else:
        dks = [report.value for report in mc.exact_kdist(pure)]
        worst = max((max(0.0, dk - rhs) for dk, pair in zip(dks, caps) for rhs in pair), default=0.0)
    results.append(CheckResult("single_order_bounds", worst))

    return results
