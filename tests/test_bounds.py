"""Explicit-constant distance and moment bounds, checked against enumeration."""

import math
import tracemalloc

import numpy as np
import pytest

from hoeffding_terms import grades
from kolbounds import bounds, chaos, mc
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError
from kolbounds.space import OutcomeSpace, law_expect, law_mean


def _normalized(X):
    Xc = X.centered()
    return Xc * (1.0 / math.sqrt(Xc.variance()))


def test_fourth_moment_inequality_on_random_functionals():
    rng = np.random.default_rng(51)
    space = OutcomeSpace.iid(three_point(), 4)
    for _ in range(40):
        X = space.functional(rng.standard_normal(space.size)).centered()
        chk = bounds.fourth_moment_check(X)
        assert chk.lhs <= chk.rhs * (1.0 + 1e-12) + 1e-12
        assert chk.rhs == pytest.approx(
            36.0 * chk.grad_sq_term + 15.0 * chk.grad_quartic_term + 2.0 * chk.second_moment_sq,
            rel=1e-13,
        )


def test_fourth_moment_check_ingredients_for_a_single_coordinate():
    # For X equal to one Rademacher coordinate every replacement gradient is
    # +-1, so the full-weight square integral is the constant 2 (squared
    # expectation 4) and the full-weight quartic integral is 2 as well.
    space = OutcomeSpace.iid(Distribution.rademacher(), 1)
    X = space.coordinate(0)
    chk = bounds.fourth_moment_check(X)
    assert chk.lhs == pytest.approx(1.0, abs=1e-14)
    assert chk.grad_sq_term == pytest.approx(4.0, abs=1e-12)
    assert chk.grad_quartic_term == pytest.approx(2.0, abs=1e-12)
    assert chk.second_moment_sq == pytest.approx(1.0, abs=1e-14)


def test_master_bound_dominates_exact_distance():
    rng = np.random.default_rng(52)
    space = OutcomeSpace.iid(three_point(), 4)
    for _ in range(15):
        X = _normalized(space.functional(rng.standard_normal(space.size)))
        mb = bounds.master_bound(X)
        dk = mc.exact_kdist(X).value
        assert dk <= mb.total + 1e-12
        assert mb.total == pytest.approx(sum(mb.terms().values()), rel=1e-13)


def test_master_bound_reaches_rademacher_fourteen():
    rng = np.random.default_rng(55)
    space = OutcomeSpace.iid(Distribution.rademacher(), 14)
    X = _normalized(space.functional(rng.standard_normal(space.size)))
    mb = bounds.master_bound(X)
    assert mc.exact_kdist(X).value <= mb.total


def test_shifted_square_factor_matches_per_component_projection():
    # The squared-gradient term is 4 (S(X) S(L^{-1} X))^(1/4), where S(Y) is
    # sum over (k, t) of 2 nu_k(t) E[((I + 2 sqrt(L)) (grad_{k,t} Y)^2)^2]:
    # each component built per atom and projected grade by grade.
    rng = np.random.default_rng(56)
    space = OutcomeSpace([three_point(), Distribution.rademacher(), three_point(), Distribution.rademacher()])
    X = _normalized(space.functional(rng.standard_normal(space.size)))
    Xm1 = space.functional(sum(g / d for d, g in enumerate(grades(X)) if d > 0))

    def factor(Y):
        total = 0.0
        for k in range(space.n):
            takes = [np.take(Y.grid, [t], axis=k) for t in range(space.shape[k])]
            mean = sum(p * take for p, take in zip(space.probs[k], takes))
            for t, p in enumerate(space.probs[k]):
                G = grades(space.expand(takes[t] - mean) ** 2)
                Z = space.functional(sum((1.0 + 2.0 * math.sqrt(d)) * g for d, g in enumerate(G)))
                total += 2.0 * p * Z.moment(2)
        return total

    want = 4.0 * (factor(X) * factor(Xm1)) ** 0.25
    assert bounds.master_bound(X).squared_gradient_term == pytest.approx(want, rel=1e-12)


def test_master_bound_peak_stays_within_eight_grids():
    # In units of one full grid, 8 |Omega| bytes, at Rademacher n = 16: L^{-1} X,
    # the two integrals kept as grids (the other three are scalars), one
    # coordinate's two stacks, a term's output and the shifted-square
    # energy's spare buffer; 7.34 measured, with the change-of-basis plan
    # built cold.
    space = OutcomeSpace.iid(Distribution.rademacher(), 16)
    X = _normalized(space.functional(np.random.default_rng(57).standard_normal(space.size)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bounds.master_bound(X)
        assert tracemalloc.get_traced_memory()[1] - base <= 7.5 * 8 * space.size
    finally:
        tracemalloc.stop()


def test_master_bound_requires_centering():
    space = OutcomeSpace.iid(three_point(), 2)
    with pytest.raises(DomainError):
        bounds.master_bound(space.constant(1.0) + space.coordinate(0))


def test_single_order_bounds_dominate_for_pure_inputs():
    rng = np.random.default_rng(53)
    space = OutcomeSpace.iid(three_point(), 4)
    for d in (1, 2, 3):
        for _ in range(4):
            f = chaos.random_kernel(space, d, rng)
            X = f.integral()
            Z = X * (1.0 / math.sqrt(X.variance()))
            dk = mc.exact_kdist(Z).value
            first, second = bounds.single_order_bounds(Z, d)
            assert dk <= first + 1e-12
            assert dk <= second + 1e-12


def _conditional_moment_terms(X):
    """The conditional-moment ingredients of single_order_bounds' second value, by law_mean.

      var_term    = Var( sum_k E[(X - E[X | rest_k])^2 | rest_k] )
      fourth_term = sum_k E[(X - E[X | rest_k])^4]

    with rest_k the sigma-field of every coordinate but k.
    """
    space, grid = X.space, X.grid
    sum_cond = np.zeros((1,) * space.n)
    fourth = 0.0
    for k in range(space.n):
        delta = grid - law_mean(grid, k, space.probs[k])
        sq = delta * delta
        sum_cond = sum_cond + law_mean(sq, k, space.probs[k])
        fourth += law_expect(sq * sq, space.probs)
    mean = law_expect(sum_cond, space.probs)
    return law_expect(sum_cond * sum_cond, space.probs) - mean * mean, fourth


def test_conditional_moment_terms_by_hand():
    # For W = X0 X1 over Rademacher coordinates: removing coordinate k gives
    # delta = W exactly, so the conditional second moment is constant 1 per
    # coordinate (variance term 0) and each fourth moment is 1 (total 2).
    space = OutcomeSpace.iid(Distribution.rademacher(), 2)
    W = space.coordinate(0) * space.coordinate(1)
    var_term, fourth_term = _conditional_moment_terms(W)
    assert var_term == pytest.approx(0.0, abs=1e-14)
    assert fourth_term == pytest.approx(2.0, abs=1e-12)
    assert bounds.single_order_bounds(W, 2)[1] == pytest.approx(48.0, rel=1e-12)


def test_single_order_second_bound_equals_conditional_moment_route():
    # At unit variance the gradient form and the conditional-moment form
    # describe one number: sqrt(Var(int (grad)^2 half))
    # + 24 sqrt(E int (grad)^4 full) = sqrt(var_term) + 24 sqrt(2 fourth_term).
    rng = np.random.default_rng(54)
    space = OutcomeSpace.iid(three_point(), 4)
    for d in (2, 3):
        f = chaos.random_kernel(space, d, rng)
        X = f.integral()
        Z = X * (1.0 / math.sqrt(X.variance()))
        direct = bounds.single_order_bounds(Z, d)[1]
        var_term, fourth_term = _conditional_moment_terms(Z)
        other = math.sqrt(max(var_term, 0.0)) + 24.0 * math.sqrt(2.0 * fourth_term)
        assert direct == pytest.approx(other, rel=1e-10)


def test_single_order_bounds_guard_centring():
    # An uncentered input is refused; a centred one off unit variance is not
    # (the gap term carries it).
    space = OutcomeSpace.iid(Distribution.rademacher(), 2)
    W = space.coordinate(0) * space.coordinate(1) * 3.0
    with pytest.raises(DomainError, match="centered"):
        bounds.single_order_bounds(W + 0.5, 2)
    # Each gradient is 3 t X_other: the gap is |1 - 9| and the quartic part 9 x 48 / 24.
    assert bounds.single_order_bounds(W, 2)[1] == pytest.approx(8.0 + 9.0 * 48.0, rel=1e-12)


def test_additive_rademacher_sum_bounds_shrink_with_n():
    # For S_n = (X_1 + ... + X_n)/sqrt(n) the first-order bound should decay
    # like 1/sqrt(n); check monotone decrease across a few sizes.
    values = []
    for n in (2, 4, 8):
        space = OutcomeSpace.iid(Distribution.rademacher(), n)
        S = space.constant(0.0)
        for k in range(n):
            S = S + space.coordinate(k)
        Z = S * (1.0 / math.sqrt(n))
        first, second = bounds.single_order_bounds(Z, 1)
        dk = mc.exact_kdist(Z).value
        assert dk <= first <= second + 1e-12
        values.append(first)
    assert values[0] > values[1] > values[2]
