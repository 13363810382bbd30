"""Subset decompositions: orthogonality, reconstruction, grade surgery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolbounds import hoeffding
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError, InputError
from kolbounds.space import OutcomeSpace

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
MIXED = [three_point(), Distribution.rademacher(), ASYM, Distribution.rademacher()]


def _random_functional(space, rng):
    return space.functional(rng.standard_normal(space.size))


def _broadcast_probs(space, k):
    """Coordinate k's probabilities shaped to broadcast against the grid."""
    shape = [1] * space.n
    shape[k] = space.shape[k]
    return space.probs[k].reshape(shape)


def _moebius_terms(X):
    """Reference: every W_J in reduced form, keyed by bit mask.

    E[X | F_K] for every subset K, each peeled from a one-larger subset by
    averaging one coordinate out; the in-place subset Moebius transform then
    turns them into W_J = sum over K inside J of (-1)^(|J|-|K|) E[X | F_K].
    (1 + m)^n entries in all.
    """
    space = X.space
    n = space.n
    full = (1 << n) - 1
    cond = {full: X.grid}
    for mask in range(full - 1, -1, -1):
        missing = ~mask & full
        j = (missing & -missing).bit_length() - 1  # lowest coordinate not in mask
        g = cond[mask | (1 << j)]
        cond[mask] = np.sum(g * _broadcast_probs(space, j), axis=j, keepdims=True)
    # After processing bit j, cond[mask] holds the alternating sum over the
    # j-low bits of mask.
    for j in range(n):
        bit = 1 << j
        for mask in range(full + 1):
            if mask & bit:
                cond[mask] = cond[mask] - cond[mask ^ bit]
    return cond


def _inclusion_exclusion_term(X, subset):
    """W_J = sum over K inside J of (-1)^(|J|-|K|) E[X | F_K], as values."""
    total = np.zeros(X.space.size)
    for mask in range(1 << len(subset)):
        K = [k for i, k in enumerate(subset) if mask >> i & 1]
        total += (-1) ** (len(subset) - len(K)) * X.conditional(K).values
    return total


def _branch_scale_grades(space, grid, coeffs):
    """Reference: split every axis into mean and centred part, keep all 2^n branches."""
    items = [(np.asarray(grid, dtype=float), 0)]
    for k in range(space.n):
        nxt = []
        for g, d in items:
            m = np.sum(g * _broadcast_probs(space, k), axis=k, keepdims=True)
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
    split = sum(H.term(s).moment(2) for s in H.subsets())
    assert split == pytest.approx(X.moment(2), rel=1e-12)
    assert H.second_moment() == pytest.approx(X.moment(2), rel=1e-12)


@pytest.mark.parametrize(
    "laws",
    [[Distribution.rademacher()] * 6, [three_point()] * 4, [ASYM] * 4, MIXED],
    ids=["rademacher-6", "three-point-4", "asym-4", "mixed-4"],
)
def test_terms_and_grades_match_the_moebius_twin(laws):
    rng = np.random.default_rng(30)
    space = OutcomeSpace(laws)
    X = _random_functional(space, rng)
    H = hoeffding.project(X)
    want = _moebius_terms(X)
    assert len(want) == 2**space.n
    grades = [np.zeros(space.shape) for _ in range(space.n + 1)]
    for mask, w in want.items():
        got = H.term_grid(mask)
        assert got.shape == w.shape
        assert np.max(np.abs(got - w)) < 1e-12
        grades[bin(mask).count("1")] += w
    for d, w in enumerate(grades):
        assert np.max(np.abs(H.grade(d).grid - w)) < 1e-12


def test_project_and_its_views_stay_within_a_few_grids_at_the_cap():
    # Rademacher n = 18 is the size cap: the Moebius twin would hold 3^18
    # entries (3 GiB), the split grid and its order array 2 x 8 * 2^18 bytes.
    n = 18
    space = OutcomeSpace.iid(Distribution.rademacher(), n)
    X = _random_functional(space, np.random.default_rng(34))
    grid_bytes = 8 * space.size
    tracemalloc.start()
    try:
        H = hoeffding.project(X)
        assert tracemalloc.get_traced_memory()[1] <= 4 * grid_bytes
        for view in (lambda: H.term(range(n)), lambda: H.grade(3), H.reconstruct):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            view()
            assert tracemalloc.get_traced_memory()[1] - base <= 8 * grid_bytes
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(H.reconstruct().values - X.values)) < 1e-12
    for subset in [(), (4,), (0, 17), (2, 9, 13)]:
        want = _inclusion_exclusion_term(X, subset)
        assert np.max(np.abs(H.term(subset).values - want)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    atoms=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_properties_on_random_laws(atoms, seed):
    # Random 2-4 atom laws per coordinate, n <= 5: the terms sum back to X,
    # are pairwise orthogonal and vanish on averaging out any one member.
    rng = np.random.default_rng(seed)
    laws = []
    for m in atoms:
        values = np.sort(rng.choice(np.arange(-8, 9), size=m, replace=False)) / 4.0
        probs = rng.integers(1, 10, size=m)
        laws.append(Distribution.finite(zip(values.tolist(), (probs / probs.sum()).tolist())))
    space = OutcomeSpace(laws)
    X = _random_functional(space, rng)
    H = hoeffding.project(X)
    terms = {s: H.term(s) for s in H.subsets()}
    assert np.max(np.abs(H.reconstruct().values - X.values)) < 1e-12
    assert np.max(np.abs(sum(t.values for t in terms.values()) - X.values)) < 1e-12
    items = list(terms.values())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            assert abs((items[i] * items[j]).expectation()) < 1e-12
    for subset, term in terms.items():
        for k in subset:
            rest = [j for j in range(space.n) if j != k]
            assert np.max(np.abs(term.conditional(rest).values)) < 1e-12


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
    got = hoeffding.grade_sweep(space, batch.copy(), coeffs)
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
    with pytest.raises(InputError):
        hoeffding.grade_sweep(space, np.zeros((3, 3, 3)).T, [1.0] * 4)
    with pytest.raises(InputError):
        hoeffding.grade_sweep(space, np.zeros((3, 3, 3), dtype=int), [1.0] * 4)


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
