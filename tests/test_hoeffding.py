"""Subset decompositions: orthogonality, reconstruction, grade surgery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoeffding_terms import grades, terms
from kolbounds import chaos, hoeffding
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import InputError, SpaceTooLargeError
from kolbounds.space import SIZE_CAP, OutcomeSpace, law_expect

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
MIXED = [three_point(), Distribution.rademacher(), ASYM, Distribution.rademacher()]


def _random_functional(space, rng):
    return space.functional(rng.standard_normal(space.size))


def _terms(X):
    """Every W_J as a functional on the full space, keyed by J as a sorted tuple (the empty set included)."""
    n = X.space.n
    return {tuple(k for k in range(n) if m >> k & 1): X.space.expand(t) for m, t in terms(X).items()}


def _check_terms_and_grades(X):
    """project's terms and grades against the Moebius twin, at 1e-12."""
    got = terms(X)
    want = _moebius_terms(X)
    assert got.keys() == want.keys()
    for mask, w in want.items():
        assert got[mask].shape == w.shape
        assert np.max(np.abs(got[mask] - w)) < 1e-12
    by_order = [np.zeros(X.space.shape) for _ in range(X.space.n + 1)]
    for mask, w in want.items():
        by_order[bin(mask).count("1")] += w
    for got_d, want_d in zip(grades(X), by_order):
        assert np.max(np.abs(got_d - want_d)) < 1e-12


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
        back = sum(grades(X))
        assert np.max(np.abs(back - X.grid)) < 1e-12


def test_terms_are_pairwise_orthogonal():
    rng = np.random.default_rng(22)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng)
    items = list(_terms(X).values())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            inner = (items[i] * items[j]).expectation()
            assert abs(inner) < 1e-12


def test_terms_are_conditionally_centered():
    # E[W_J | coordinates outside one member of J] must vanish.
    rng = np.random.default_rng(23)
    space = OutcomeSpace.iid(Distribution.rademacher(), 4)
    X = _random_functional(space, rng)
    for subset, term in _terms(X).items():
        if not subset:
            continue
        drop = subset[0]
        rest = [k for k in range(space.n) if k != drop]
        cond = term.conditional(rest)
        assert np.max(np.abs(cond.values)) < 1e-12


def test_second_moment_splits_over_terms():
    rng = np.random.default_rng(24)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng)
    split = sum(t.moment(2) for t in _terms(X).values())
    assert split == pytest.approx(X.moment(2), rel=1e-12)


@pytest.mark.parametrize(
    "laws",
    [[Distribution.rademacher()] * 6, [three_point()] * 4, [ASYM] * 4, MIXED],
    ids=["rademacher-6", "three-point-4", "asym-4", "mixed-4"],
)
def test_terms_and_grades_match_the_moebius_twin(laws):
    rng = np.random.default_rng(30)
    space = OutcomeSpace(laws)
    X = _random_functional(space, rng)
    _check_terms_and_grades(X)


def test_project_refuses_a_table_past_the_cap_before_it_allocates():
    # Rademacher n = 12 fits the enumeration cap (2^12 outcomes), but its
    # table would hold 3^12 = 531 441 > 2^18 entries: refused before any
    # allocation of that size.
    space = OutcomeSpace.iid(Distribution.rademacher(), 12)
    X = _random_functional(space, np.random.default_rng(34))
    tracemalloc.start()
    try:
        with pytest.raises(SpaceTooLargeError, match=rf"has 531441 entries, cap is {SIZE_CAP}$"):
            hoeffding.project(X)
        assert tracemalloc.get_traced_memory()[1] < 8 * space.size
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "law, n",
    [(Distribution.rademacher(), 11), (three_point(), 9)],
    ids=["rademacher-11", "three-point-9"],
)
def test_project_peaks_within_three_tables_at_the_cap(law, n):
    # 3^11 = 177 147 and 4^9 = 262 144 table entries, the largest each law
    # admits. The last axis's pass holds the previous table, its centred
    # part, the mean and the new table: 2.67 and 2.75 tables measured.
    space = OutcomeSpace.iid(law, n)
    X = _random_functional(space, np.random.default_rng(35))
    table_bytes = 8 * (space.shape[0] + 1) ** n
    assert table_bytes <= 8 * SIZE_CAP
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T = hoeffding.project(X)
        assert tracemalloc.get_traced_memory()[1] - base <= 3 * table_bytes
    finally:
        tracemalloc.stop()
    assert T.nbytes == table_bytes
    for subset in [(), (4,), (0, n - 1), (2, 5, 7)]:
        index = tuple(slice(1, None) if k in subset else slice(0, 1) for k in range(n))
        want = _inclusion_exclusion_term(X, subset)
        assert np.max(np.abs(space.expand(T[index]).values - want)) < 1e-12


def _random_law(m, rng):
    values = np.sort(rng.choice(np.arange(-8, 9), size=m, replace=False)) / 4.0
    probs = rng.integers(1, 10, size=m)
    return Distribution.finite(zip(values.tolist(), (probs / probs.sum()).tolist()))


@settings(max_examples=30, deadline=None)
@given(
    atoms=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_decomposition_properties_on_random_laws(atoms, seed):
    # Random 2-4 atom laws per coordinate, n <= 5: the terms sum back to X,
    # are pairwise orthogonal and vanish on averaging out any one member.
    rng = np.random.default_rng(seed)
    space = OutcomeSpace([_random_law(m, rng) for m in atoms])
    X = _random_functional(space, rng)
    by_subset = _terms(X)
    assert np.max(np.abs(sum(t.values for t in by_subset.values()) - X.values)) < 1e-12
    items = list(by_subset.values())
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            assert abs((items[i] * items[j]).expectation()) < 1e-12
    for subset, term in by_subset.items():
        for k in subset:
            rest = [j for j in range(space.n) if j != k]
            assert np.max(np.abs(term.conditional(rest).values)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.integers(1, 6), min_size=1, max_size=5),
    batch=st.integers(1, 3),
    reduced=st.integers(0, 2**5 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(atoms=[2, 3, 2, 6, 1], batch=2, reduced=0b00010, seed=0)  # blocks (0, 1, 2), (3,); 4 is one-atom
@example(atoms=[4, 4, 4, 2, 2], batch=3, reduced=0b10001, seed=1)  # blocks (0, 1), (2, 3, 4)
def test_kronecker_blocks_match_the_branch_and_moebius_twins(atoms, batch, reduced, seed):
    # Random 1-6 atom laws, not iid, so the blocks of at most BLOCK entries
    # split unevenly and one-atom coordinates sit among them. grade_sweep on
    # a batch with the axes in `reduced` (a bit mask) stored at length one,
    # and project's terms and grades, against the two loop twins.
    rng = np.random.default_rng(seed)
    space = OutcomeSpace([_random_law(m, rng) for m in atoms])
    n = space.n
    shape = tuple(1 if reduced >> k & 1 else m for k, m in enumerate(space.shape))
    grids = rng.standard_normal((batch,) + shape)
    coeffs = rng.standard_normal(n + 1)
    got = hoeffding.grade_sweep(space, grids.copy(), coeffs)
    assert got.shape == grids.shape
    for b in range(batch):
        want = _branch_scale_grades(space, np.broadcast_to(grids[b], space.shape), coeffs)
        assert np.max(np.abs(np.broadcast_to(got[b], space.shape) - want)) < 1e-12
    _check_terms_and_grades(_random_functional(space, rng))


def test_a_coordinate_wider_than_a_block_takes_the_rank_one_step():
    # 300 atoms beside two Rademacher coordinates: the wide axis never gets a
    # 300 x 300 matrix. Terms and grades against the Moebius twin, and
    # grade_sweep on every coordinate's gradient stack (a batch of 300 atoms,
    # or a wide axis inside a batch of 2) against the branch twin.
    rng = np.random.default_rng(36)
    wide = Distribution.finite(zip(np.arange(300.0).tolist(), rng.dirichlet(np.ones(300)).tolist()))
    space = OutcomeSpace([Distribution.rademacher(), wide, Distribution.rademacher()])
    assert hoeffding.BLOCK < 300
    X = _random_functional(space, rng)
    _check_terms_and_grades(X)
    coeffs = rng.standard_normal(space.n + 1)
    for k in range(space.n):
        stack = chaos.gradient(X, k)
        got = hoeffding.grade_sweep(space, stack.copy(), coeffs)
        for t in range(space.shape[k]):
            want = _branch_scale_grades(space, np.broadcast_to(stack[t], space.shape), coeffs)
            assert np.max(np.abs(np.broadcast_to(got[t], space.shape) - want)) < 1e-12


def test_scale_grades_on_one_wide_coordinate_holds_three_grids():
    # One coordinate with 2^17 atoms: a 2^17 x 2^17 matrix would take 128 GiB.
    # The sweep holds its input copy, one spare buffer and the int8 order grid.
    m = 2**17
    rng = np.random.default_rng(37)
    law = Distribution(tuple(np.arange(m, dtype=float).tolist()), tuple(rng.dirichlet(np.ones(m)).tolist()))
    space = OutcomeSpace([law])
    X = _random_functional(space, rng)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        Y = hoeffding.scale_grades(X, [2.0, -3.0])
        assert tracemalloc.get_traced_memory()[1] - base <= 3 * 8 * space.size
    finally:
        tracemalloc.stop()
    mean = np.dot(X.values, space.probs[0])
    assert np.max(np.abs(Y.values - (2.0 * mean - 3.0 * (X.values - mean)))) < 1e-12


def _wide_law(m, rng):
    probs = rng.integers(1, 10, size=m)
    return Distribution.finite(zip(np.arange(m, dtype=float).tolist(), (probs / probs.sum()).tolist()))


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.integers(1, 6), min_size=0, max_size=4),
    wide=st.integers(hoeffding.BLOCK + 1, hoeffding.BLOCK + 8),
    at=st.integers(0, 4),
    batch=st.integers(1, 3),
    reduced=st.integers(0, 2**5 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(atoms=[2, 3, 2, 6], wide=17, at=2, batch=2, reduced=0b00101, seed=0)
def test_grade_energy_is_the_mean_square_of_grade_sweep(atoms, wide, at, batch, reduced, seed):
    # Random 1-6 atom laws, not iid, with one coordinate wider than a block
    # (the rank-one step) among them: grade_energy, from the split alone,
    # against grade_sweep followed by each batch row's mean square.
    rng = np.random.default_rng(seed)
    laws = [_random_law(m, rng) for m in atoms]
    laws.insert(min(at, len(laws)), _wide_law(wide, rng))
    space = OutcomeSpace(laws)
    shape = tuple(1 if reduced >> k & 1 else m for k, m in enumerate(space.shape))
    grids = rng.standard_normal((batch,) + shape)
    coeffs = rng.standard_normal(space.n + 1)
    got = hoeffding.grade_energy(space, grids.copy(), coeffs)
    swept = hoeffding.grade_sweep(space, grids.copy(), coeffs)
    assert got.shape == (batch,)
    for b in range(batch):
        want = law_expect(np.square(swept[b]), space.probs)
        assert abs(got[b] - want) <= 1e-12 * max(1.0, want)


@pytest.mark.parametrize(
    "laws",
    [[Distribution.rademacher()] * 6, [three_point()] * 4, MIXED, [ASYM, three_point(), ASYM, Distribution.rademacher(), ASYM]],
    ids=["rademacher-6", "three-point-4", "mixed-4", "mixed-5"],
)
def test_every_kronecker_block_is_orthonormal_under_its_laws(laws):
    # A diag(1/p) A^T = I for each block's split matrix A, p the product law
    # along the block, and the join is its inverse.
    space = OutcomeSpace(laws)
    basis = hoeffding._basis(space)
    for block in basis.blocks:
        axes = tuple(block)
        A = basis._matrix(axes, join=False)
        p = np.ones(1)
        for k in axes:
            p = np.kron(p, space.probs[k])
        assert np.max(np.abs(A @ np.diag(1.0 / p) @ A.T - np.eye(len(p)))) < 1e-12
        assert np.max(np.abs(basis._matrix(axes, join=True) @ A - np.eye(len(p)))) < 1e-12


def test_spaces_with_equal_laws_share_one_plan_and_the_cache_stays_bounded():
    law = Distribution.finite([(-1.0, 0.3), (0.5, 0.2), (2.0, 0.5)])
    a, b = OutcomeSpace.iid(law, 4), OutcomeSpace.iid(law, 4)
    assert a is not b
    assert hoeffding._basis(a) is hoeffding._basis(b)
    assert hoeffding._basis(OutcomeSpace.iid(law, 4)) is hoeffding._basis(a)
    assert hoeffding._basis(OutcomeSpace.iid(law, 3)) is not hoeffding._basis(a)
    assert hoeffding._basis(OutcomeSpace([law, law, law, three_point()])) is not hoeffding._basis(a)
    for n in range(1, 2 * hoeffding._PLANS_KEPT + 1):
        hoeffding._basis(OutcomeSpace.iid(Distribution.rademacher(), n))
        assert len(hoeffding._plans) <= hoeffding._PLANS_KEPT


def test_grade_energy_holds_one_spare_grid_beside_its_input():
    # One gradient stack at Rademacher n = 16, with the plan built beforehand:
    # the split needs one spare buffer of the input's size, which then holds
    # the per-entry weights, and nothing else of grid size. np.take's indices
    # come one nditer buffer (8192 entries) at a time, as int8 and as intp.
    n = 16
    space = OutcomeSpace.iid(Distribution.rademacher(), n)
    X = _random_functional(space, np.random.default_rng(38))
    square = np.square(chaos.gradient(X, 5))
    shift = [1.0 + 2.0 * np.sqrt(d) for d in range(n + 1)]
    want = hoeffding.grade_energy(space, square.copy(), shift)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = hoeffding.grade_energy(space, square, shift)
        assert tracemalloc.get_traced_memory()[1] - base <= square.nbytes + 12 * 8192
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - want)) == 0.0


def test_second_moment_is_the_sum_of_squared_coefficients():
    # Parseval in the orthonormal basis, with no join: grade_energy with every
    # coefficient 1, on a mixed-law space and at the 2^18 cap.
    rng = np.random.default_rng(39)
    for space in (OutcomeSpace(MIXED), OutcomeSpace.iid(Distribution.rademacher(), 18)):
        X = _random_functional(space, rng)
        (energy,) = hoeffding.grade_energy(space, X.grid.copy(), [1.0] * (space.n + 1))
        assert energy == pytest.approx(X.moment(2), rel=1e-12)


def test_grades_sum_back_and_scale_grades_matches():
    rng = np.random.default_rng(25)
    space = OutcomeSpace.iid(three_point(), 3)
    X = _random_functional(space, rng).centered()
    by_order = grades(X)
    assert np.max(np.abs(sum(by_order) - X.grid)) < 1e-12

    # Scaling grade d by d recovers the number operator.
    coeffs = list(range(space.n + 1))
    Y = hoeffding.scale_grades(X, coeffs)
    want = sum(float(d) * g for d, g in enumerate(by_order))
    assert np.max(np.abs(Y.grid - want)) < 1e-12


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
    with pytest.raises(InputError):
        hoeffding.grade_sweep(space, np.zeros((3, 2, 3)), [1.0] * 4)


def test_grade_of_additive_sum_is_pure_order_one():
    space = OutcomeSpace.iid(three_point(), 3)
    S = space.coordinate(0) + space.coordinate(1) + space.coordinate(2)
    assert sorted(chaos.decompose(S).kernels) == [1]


def test_product_of_coordinates_is_pure_top_order():
    space = OutcomeSpace.iid(Distribution.rademacher(), 3)
    P = space.coordinate(0) * space.coordinate(1) * space.coordinate(2)
    assert sorted(chaos.decompose(P).kernels) == [3]
