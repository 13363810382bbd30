"""Product outcome spaces and exact functional enumeration."""

import tracemalloc

import numpy as np
import pytest

from kolbounds import chaos

from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError, InputError, SpaceTooLargeError
from kolbounds.space import OutcomeSpace, law_expect, law_mean


def test_joint_probs_sum_to_one_and_factorize():
    space = OutcomeSpace([three_point(), Distribution.rademacher()])
    jp = space.joint_probs
    assert jp.shape == (3, 2)
    assert float(jp.sum()) == pytest.approx(1.0, abs=1e-15)
    assert jp[0, 1] == pytest.approx(0.25 * 0.5, abs=1e-16)


def test_coordinate_functional_reproduces_law_moments():
    law = three_point()
    space = OutcomeSpace.iid(law, 3)
    m = law.moments()
    for k in range(3):
        X = space.coordinate(k)
        for j in range(1, 7):
            assert X.moment(j) == pytest.approx(m.mu[j], abs=1e-14)


def test_sum_of_coordinates_mean_and_variance():
    law = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
    space = OutcomeSpace.iid(law, 4)
    S = space.coordinate(0) + space.coordinate(1) + space.coordinate(2) + space.coordinate(3)
    assert S.expectation() == pytest.approx(0.0, abs=1e-14)
    assert S.variance() == pytest.approx(4 * 1.5, rel=1e-13)


def test_conditional_expectation_against_brute_force():
    rng = np.random.default_rng(9)
    law = three_point()
    space = OutcomeSpace.iid(law, 3)
    X = space.functional(rng.standard_normal(space.shape))
    got = X.conditional([0, 2]).grid
    # Average over the middle axis by hand.
    p = law.probs_array()
    want = np.einsum("abc,b->ac", X.grid, p)[:, None, :]
    assert np.max(np.abs(got - np.broadcast_to(want, space.shape))) < 1e-14


def test_conditional_tower_property():
    rng = np.random.default_rng(10)
    space = OutcomeSpace.iid(three_point(), 4)
    X = space.functional(rng.standard_normal(space.size))
    inner = X.conditional([0, 1, 3])
    outer = inner.conditional([0, 3])
    direct = X.conditional([0, 3])
    assert np.max(np.abs(outer.values - direct.values)) < 1e-13


def test_gradient_grid_is_centered_per_coordinate():
    rng = np.random.default_rng(11)
    space = OutcomeSpace.iid(three_point(), 3)
    X = space.functional(rng.standard_normal(space.size))
    p = three_point().probs_array()
    for k in range(3):
        stack = chaos.gradient(X, k)
        acc = np.zeros(space.size)
        for t in range(3):
            acc = acc + p[t] * space.expand(stack[t]).values
        assert np.max(np.abs(acc)) < 1e-14


def test_arithmetic_and_scalar_ops():
    space = OutcomeSpace.iid(Distribution.rademacher(), 2)
    X = space.coordinate(0)
    Y = space.coordinate(1)
    Z = 2.0 * X - Y + 1.0
    assert Z.expectation() == pytest.approx(1.0, abs=1e-15)
    assert (X**2).moment(1) == pytest.approx(1.0, abs=1e-15)
    assert (-X).expectation() == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        other = OutcomeSpace.iid(three_point(), 2)
        _ = X + other.coordinate(0)


def test_functional_shape_validation():
    space = OutcomeSpace.iid(three_point(), 2)
    with pytest.raises(InputError):
        space.functional(np.zeros(5))
    ok = space.functional(np.zeros((3, 3)))
    assert ok.values.shape == (9,)


def test_expand_spreads_a_reduced_grid_into_a_fresh_functional():
    space = OutcomeSpace([three_point(), Distribution.rademacher(), three_point()])
    reduced = np.arange(3.0).reshape(3, 1, 1)
    X = space.expand(reduced)
    assert np.array_equal(X.grid, np.broadcast_to(reduced, space.shape))
    assert np.array_equal(space.expand(X.grid).values, X.values)
    reduced[0] = 7.0
    assert X.grid[0, 1, 2] == 0.0
    with pytest.raises(ValueError):
        space.expand(np.zeros((2, 1, 1)))
    # functional() stays strict: it wraps full value lists only.
    tiny = OutcomeSpace([Distribution.rademacher()])
    with pytest.raises(InputError):
        tiny.functional(np.zeros(1))


def test_gradient_component_and_conditional_copy_at_most_once():
    # In units of one full grid, 8 |Omega| bytes, at the cap: one coordinate's
    # stack of gradients holds one grid, its law_mean half of one.
    space = OutcomeSpace.iid(Distribution.rademacher(), 18)
    X = space.functional(np.random.default_rng(12).standard_normal(space.size))
    grid_bytes = 8 * space.size
    views = [(lambda: chaos.gradient(X, 5), 1.55), (lambda: X.conditional([0, 3, 17]), 1.55)]
    tracemalloc.start()
    try:
        for view, limit in views:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            view()
            assert tracemalloc.get_traced_memory()[1] - base <= limit * grid_bytes
    finally:
        tracemalloc.stop()


def test_space_size_cap():
    with pytest.raises(SpaceTooLargeError):
        OutcomeSpace.iid(three_point(), 12)  # 3^12 exceeds the cap


def test_values_are_immutable():
    space = OutcomeSpace.iid(Distribution.rademacher(), 2)
    X = space.coordinate(0)
    with pytest.raises(ValueError):
        X.values[0] = 5.0


def test_evaluate_walks_the_outcomes_in_enumeration_order():
    # Mixed atom counts and block sizes below, at and above the trailing axes'
    # products: the codes handed out, block after block, are unravel_index of
    # 0..size-1, and each block's values land at its outcomes.
    rad, three = Distribution.rademacher(), three_point()
    four = Distribution.finite([(0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)])
    for laws in ([rad] * 5, [three, four, rad, three], [four], [three] * 3):
        space = OutcomeSpace(laws)
        want = np.stack(np.unravel_index(np.arange(space.size), space.shape), axis=1)
        weights = np.arange(1, space.n + 1)
        for rows in (1, 2, 3, 5, 8, 64, 4096):
            seen = []
            vals = space.evaluate(lambda codes: seen.append(codes.copy()) or codes @ weights, rows)
            assert np.array_equal(np.concatenate(seen), want)
            assert max(len(c) for c in seen) <= max(rows, 1)
            assert np.array_equal(vals, want @ weights)


def _loop_law_mean(T, axis, probs):
    """Reference: sum over t of probs[t] * T[..., t, ...] by nested loops over every index."""
    out = np.zeros(T.shape[:axis] + (1,) + T.shape[axis + 1 :])
    for idx in np.ndindex(*out.shape):
        for t, p in enumerate(probs):
            out[idx] += p * T[idx[:axis] + (t,) + idx[axis + 1 :]]
    return out


@pytest.mark.parametrize("shape", [(3, 2, 4), (5, 3, 1, 2), (2, 1, 3), (4,)])
def test_law_mean_and_law_expect_match_the_brute_force_twins(shape):
    # Leading batch axes, reduced (length-one) axes and non-C-contiguous views.
    rng = np.random.default_rng(13)
    probs = [rng.dirichlet(np.ones(m)) for m in shape]
    base = rng.standard_normal(tuple(reversed(shape)))
    for T in (np.ascontiguousarray(base.T), base.T, rng.standard_normal((2,) + shape)[1]):
        for axis, p in enumerate(probs):
            got = law_mean(T, axis, p)
            broadcast = p.reshape((1,) * axis + (-1,) + (1,) * (T.ndim - axis - 1))
            assert got.shape == T.shape[:axis] + (1,) + T.shape[axis + 1 :]
            assert np.max(np.abs(got - np.sum(T * broadcast, axis=axis, keepdims=True))) < 1e-14
            assert np.max(np.abs(got - _loop_law_mean(T, axis, p))) < 1e-14
        joint = probs[0]
        for p in probs[1:]:
            joint = np.multiply.outer(joint, p)
        assert law_expect(T, probs) == pytest.approx(float(np.sum(T * joint)), abs=1e-14)
    reduced = rng.standard_normal((3, 1, 2))
    assert law_mean(reduced, 1, np.array([0.25, 0.75])) is reduced
