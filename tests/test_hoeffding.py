"""Subset decompositions: orthogonality, reconstruction, grade surgery."""

import numpy as np
import pytest

from kolbounds import hoeffding
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError, InputError
from kolbounds.space import OutcomeSpace

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])


def _random_functional(space, rng):
    return space.functional(rng.standard_normal(space.size))


def _branch_scale_grades(space, grid, coeffs):
    """Reference: split every axis into mean and centred part, keep all 2^n branches."""
    items = [(np.asarray(grid, dtype=float), 0)]
    for k in range(space.n):
        nxt = []
        for g, d in items:
            m = np.sum(g * space.axis_probs(k), axis=k, keepdims=True)
            nxt.append((m, d))
            nxt.append((g - m, d + 1))
        items = nxt
    total = np.zeros(space.shape)
    for g, d in items:
        total = total + coeffs[d] * g
    return total


def test_reconstruction_is_exact():
    rng = np.random.default_rng(21)
    space = OutcomeSpace.iid(three_point(), 4)
    for _ in range(10):
        X = _random_functional(space, rng)
        H = hoeffding.project(X)
        back = H.reconstruct()
        assert np.max(np.abs(back.values - X.values)) < 1e-12


def test_terms_are_pairwise_orthogonal():
    rng = np.random.default_rng(22)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng)
    H = hoeffding.project(X)
    terms = [H.term(s) for s in H.subsets()]
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            inner = (terms[i] * terms[j]).expectation()
            assert abs(inner) < 1e-12


def test_terms_are_conditionally_centered():
    # E[W_J | coordinates outside one member of J] must vanish.
    rng = np.random.default_rng(23)
    space = OutcomeSpace.iid(Distribution.rademacher(), 4)
    X = _random_functional(space, rng)
    H = hoeffding.project(X)
    for subset in H.subsets():
        if not subset:
            continue
        term = H.term(subset)
        drop = subset[0]
        rest = [k for k in range(space.n) if k != drop]
        cond = term.conditional(rest)
        assert np.max(np.abs(cond.values)) < 1e-12


def test_second_moment_splits_over_terms():
    rng = np.random.default_rng(24)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng)
    H = hoeffding.project(X)
    assert H.second_moment() == pytest.approx(X.moment(2), rel=1e-12)


def test_grades_sum_back_and_scale_grades_matches():
    rng = np.random.default_rng(25)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng).centered()
    H = hoeffding.project(X)
    total = space.constant(0.0)
    for d in range(space.n + 1):
        total = total + H.grade(d)
    assert np.max(np.abs(total.values - X.values)) < 1e-12

    # Scaling grade d by d recovers the number operator.
    coeffs = list(range(space.n + 1))
    Y = hoeffding.scale_grades(X, coeffs)
    want = space.constant(0.0)
    for d in range(1, space.n + 1):
        want = want + float(d) * H.grade(d)
    assert np.max(np.abs(Y.values - want.values)) < 1e-12


@pytest.mark.parametrize(
    "law, n",
    [(Distribution.rademacher(), 6), (three_point(), 4), (ASYM, 5)],
    ids=["rademacher-6", "three-point-4", "asym-5"],
)
def test_scale_grades_matches_branch_expansion(law, n):
    rng = np.random.default_rng(28)
    space = OutcomeSpace.iid(law, n)
    X = _random_functional(space, rng)
    coeffs = rng.standard_normal(n + 1)
    want = _branch_scale_grades(space, X.grid, coeffs)
    got = hoeffding.scale_grades(X, coeffs)
    assert np.max(np.abs(got.grid - want)) < 1e-12


def test_grade_sweep_carries_a_batch_axis_and_reduced_grids():
    rng = np.random.default_rng(29)
    space = OutcomeSpace.iid(ASYM, 4)
    coeffs = rng.standard_normal(space.n + 1)
    # Three functionals constant along coordinate 2, stored reduced there.
    batch = rng.standard_normal((3, 3, 3, 1, 3))
    got = hoeffding.grade_sweep(space, batch, coeffs)
    assert got.shape == batch.shape
    for b in range(3):
        full = np.broadcast_to(batch[b], space.shape)
        want = _branch_scale_grades(space, full, coeffs)
        assert np.max(np.abs(np.broadcast_to(got[b], space.shape) - want)) < 1e-12


def test_grade_sweep_checks_its_inputs():
    space = OutcomeSpace.iid(three_point(), 3)
    with pytest.raises(InputError):
        hoeffding.grade_sweep(space, np.zeros(space.shape), [1.0, 2.0])
    with pytest.raises(InputError):
        hoeffding.grade_sweep(space, np.zeros((3, 3)), [1.0] * 4)


def test_grade_of_additive_sum_is_pure_order_one():
    space = OutcomeSpace.iid(three_point(), 3)
    S = space.coordinate(0) + space.coordinate(1) + space.coordinate(2)
    H = hoeffding.project(S)
    assert H.orders_present() == [1]
    assert H.max_order() == 1


def test_product_of_coordinates_is_pure_top_order():
    space = OutcomeSpace.iid(Distribution.rademacher(), 3)
    P = space.coordinate(0) * space.coordinate(1) * space.coordinate(2)
    H = hoeffding.project(P)
    assert H.orders_present() == [3]


def test_subset_rate_positive_and_centering_guard():
    rng = np.random.default_rng(26)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng).centered()
    H = hoeffding.project(X)
    rep = hoeffding.subset_rate_report(H)
    assert rep.value > 0.0
    assert rep.value == pytest.approx(
        np.sqrt(rep.family_diag + rep.family_cross + rep.family_low), rel=1e-12
    )
    shifted = hoeffding.project(X + 1.0)
    with pytest.raises(DomainError):
        hoeffding.subset_rate_report(shifted)


def test_subset_rate_is_scale_invariant():
    # The bracket normalizes to unit second moment first, so any positive
    # rescaling of the input leaves the value alone.
    rng = np.random.default_rng(27)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng).centered()
    a = hoeffding.subset_rate_report(hoeffding.project(X)).value
    b = hoeffding.subset_rate_report(hoeffding.project(X * 7.5)).value
    assert a == pytest.approx(b, rel=1e-10)


def test_rate_degenerate_requires_single_order():
    space = OutcomeSpace.iid(Distribution.rademacher(), 3)
    mixed = space.coordinate(0) + space.coordinate(0) * space.coordinate(1)
    with pytest.raises(DomainError):
        hoeffding.rate_degenerate(hoeffding.project(mixed))


def test_rate_degenerate_ingredients_by_hand():
    # For W = X0 X1 over Rademacher coordinates: removing coordinate k gives
    # delta = W exactly, so the conditional second moment is constant 1 per
    # coordinate (variance term 0) and each fourth moment is 1 (total 2).
    space = OutcomeSpace.iid(Distribution.rademacher(), 2)
    W = space.coordinate(0) * space.coordinate(1)
    var_term, fourth_term = hoeffding.rate_degenerate(hoeffding.project(W))
    assert var_term == pytest.approx(0.0, abs=1e-14)
    assert fourth_term == pytest.approx(2.0, abs=1e-12)
