"""Product outcome spaces and exact functional enumeration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolbounds import chaos

from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError, InputError, SpaceTooLargeError
from kolbounds.space import OutcomeSpace, law_expect, law_mean, power


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


def test_law_ids_number_equal_laws_alike_in_order_of_first_appearance():
    # Equal laws, however built, share an id; ids count up from 0 as new laws appear.
    rademacher = Distribution.rademacher()
    same = Distribution.finite([(1.0, 0.5), (-1.0, 0.5)])
    asym = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
    space = OutcomeSpace([three_point(), rademacher, three_point(), same, asym, rademacher])
    assert space.law_ids == (0, 1, 0, 1, 2, 1)
    assert OutcomeSpace.iid(asym, 3).law_ids == (0, 0, 0)


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


ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])


def _slot_law_mean(T, axis, probs):
    """Reference: the slot-by-slot sum, p_0 T_0 + p_1 T_1 + ... in that order."""
    V = T.reshape(int(np.prod(T.shape[:axis])), T.shape[axis], -1)
    total = probs[0] * V[:, 0]
    for t in range(1, len(probs)):
        total += probs[t] * V[:, t]
    return total.reshape(T.shape[:axis] + (1,) + T.shape[axis + 1 :])


@pytest.mark.parametrize(
    "laws",
    [
        [three_point()] * 4,
        [Distribution.rademacher()] * 12,
        [ASYM, Distribution.rademacher(), three_point(), ASYM, Distribution.rademacher()],
        [three_point()] * 7,
    ],
)
def test_law_mean_equals_the_slot_sum_bit_for_bit_on_dyadic_laws(laws):
    # With dyadic weights every product is exact, so the BLAS products must
    # add the slots in the same order as the slot sum: identical bits on every
    # axis, the last included, on grids and on multiply's atom slabs (a
    # (mean | centred) table with the mean slot of one axis cut off).
    rng = np.random.default_rng(17)
    probs = [law.probs_array() for law in laws]
    grid = rng.standard_normal(tuple(len(p) for p in probs))
    table = rng.standard_normal(tuple(len(p) + 1 for p in probs))
    for axis, p in enumerate(probs):
        slab = table[(slice(None),) * axis + (slice(1, None),)]
        assert slab.flags.c_contiguous == (axis == 0)
        for T in (grid, slab):
            got = law_mean(T, axis, p)
            assert got.shape == T.shape[:axis] + (1,) + T.shape[axis + 1 :]
            assert got.tobytes() == _slot_law_mean(T, axis, p).tobytes()


def test_law_mean_bits_do_not_depend_on_the_memory_offset():
    # The same table at 8 consecutive float offsets of one buffer (every
    # position in a 64-byte line): BLAS kernels must not change the order of
    # the sum with the alignment. Three-point n = 7 and Rademacher n = 11, every axis.
    rng = np.random.default_rng(18)
    for law, n in ((three_point(), 7), (Distribution.rademacher(), 11)):
        p = law.probs_array()
        data = rng.standard_normal((law.n_atoms,) * n)
        buf = np.empty(data.size + 8)
        for axis in range(n):
            bits = set()
            for offset in range(8):
                T = buf[offset : offset + data.size].reshape(data.shape)
                T[...] = data
                bits.add(law_mean(T, axis, p).tobytes())
            assert len(bits) == 1, (law, axis)


@settings(max_examples=40, deadline=None)
@given(atoms=st.lists(st.integers(1, 6), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_moments_and_powers_match_libm_pow(atoms, seed):
    # power (squarings and products) against numpy's pow, k = 0...8. The
    # round-off allowance scales with E|X|^k, the size of the summed terms,
    # since odd moments of a centred functional can cancel to near zero.
    rng = np.random.default_rng(seed)
    laws = [Distribution.finite(zip(rng.standard_normal(m).tolist(), rng.dirichlet(np.ones(m)).tolist())) for m in atoms]
    space = OutcomeSpace(laws)
    X = space.functional(3.0 * rng.standard_normal(space.size))
    p = space.joint_probs.reshape(-1)
    for k in range(9):
        want = np.dot(X.values**k, p)
        assert abs(X.moment(k) - want) <= 1e-13 * np.dot(np.abs(X.values) ** k, p)
        assert np.allclose((X**k).values, X.values**k, rtol=1e-14, atol=0.0)
    grid = X.grid.copy()
    power(grid, 4)
    assert np.array_equal(grid, X.grid)
    with pytest.raises(InputError):
        power(grid, -1)
