"""Explicit-constant distance and moment bounds, checked against enumeration."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeffding_terms import grades
from kolbounds import bounds, chaos, mc
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError, InputError
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


def test_master_bound_terms_match_per_atom_gradients():
    # variance_term and gradient_fourth_term from gradients built per atom
    # (np.take) and L^{-1} X built grade by grade, on a mixed space.
    rng = np.random.default_rng(63)
    space = OutcomeSpace([three_point(), Distribution.rademacher(), three_point(), Distribution.rademacher()])
    X = _normalized(space.functional(rng.standard_normal(space.size)))
    Xm1 = space.functional(sum(g / d for d, g in enumerate(grades(X)) if d > 0))

    def per_atom(Y):
        for k in range(space.n):
            takes = [np.take(Y.grid, [t], axis=k) for t in range(space.shape[k])]
            mean = sum(p * take for p, take in zip(space.probs[k], takes))
            for t, p in enumerate(space.probs[k]):
                yield p, space.expand(takes[t] - mean).values

    pair = sum(p * g * h for (p, g), (_, h) in zip(per_atom(X), per_atom(Xm1)))
    b2 = space.functional(2.0 * sum(p * h * h for p, h in per_atom(Xm1)))
    q4 = 2.0 * sum(p * space.functional(g**4).expectation() for p, g in per_atom(X))
    fourth = 1.5 * math.sqrt(q4) * (
        (X.moment(4) * b2.moment(2)) ** 0.25 + (math.sqrt(math.pi) / 2.0) * math.sqrt((X * Xm1).expectation())
    )
    mb = bounds.master_bound(X)
    assert mb.variance_term == pytest.approx(math.sqrt(space.functional(pair).variance()), rel=1e-12)
    assert mb.gradient_fourth_term == pytest.approx(fourth, rel=1e-12)


def test_master_bound_peak_stays_within_eight_grids():
    # In units of one full grid, 8 |Omega| bytes, at Rademacher n = 16: L^{-1} X,
    # the two integrals kept as grids (the other two are scalars), and the
    # gradient buffer of X and L^{-1} X with its spare, two grids each, which
    # hold every term's output and the shifted-square energies' split; 7.33
    # measured, with the change-of-basis plan built cold.
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


# ---------------------------------------------------------------- stacks

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
STACK_SPACES = {
    "three-point n = 4": [three_point()] * 4,
    "rademacher n = 6": [Distribution.rademacher()] * 6,
    "mixed": [three_point(), Distribution.rademacher(), ASYM, Distribution.rademacher()],
}


def _unit_stack(space, count, rng):
    return [_normalized(space.functional(rng.standard_normal(space.size))) for _ in range(count)]


def _assert_close_terms(stacked, alone, rel=1e-15):
    """Each field of each stacked result within rel (relative) of the one-at-a-time result.

    The second-moment gap |1 - E[X^2]| is a round-off residue at unit
    variance, so it is held to rel on the scale of E[X^2], 1.
    """
    assert len(stacked) == len(alone)
    for got, want in zip(stacked, alone):
        got = got if isinstance(got, tuple) else vars(got)
        want = want if isinstance(want, tuple) else vars(want)
        names = range(len(want)) if isinstance(want, tuple) else want
        for name in names:
            scale = max(abs(want[name]), 1.0) if name == "second_moment_gap" else abs(want[name])
            assert abs(got[name] - want[name]) <= rel * scale, (name, got, want)


@pytest.mark.parametrize("name", list(STACK_SPACES))
def test_stacked_bounds_equal_the_bounds_one_at_a_time(name):
    rng = np.random.default_rng(58)
    space = OutcomeSpace(STACK_SPACES[name])
    Xs = _unit_stack(space, 6, rng)
    _assert_close_terms(bounds.master_bound(Xs), [bounds.master_bound(X) for X in Xs])
    _assert_close_terms(bounds.fourth_moment_check(Xs), [bounds.fourth_moment_check(X) for X in Xs])
    # Pure multiple sums of orders 1, 2, 3, one order per functional.
    kernels = [chaos.random_kernel(space, 1 + i % 3, rng) for i in range(6)]
    Zs = [_normalized(f.integral()) for f in kernels]
    orders = [f.order for f in kernels]
    _assert_close_terms(bounds.single_order_bounds(Zs, orders), [bounds.single_order_bounds(Z, d) for Z, d in zip(Zs, orders)])
    _assert_close_terms(bounds.single_order_bounds(Zs, 2), [bounds.single_order_bounds(Z, 2) for Z in Zs])
    # One sort per functional and one normal_cdf: the same distances bit for bit.
    assert [r.value for r in mc.exact_kdist(Xs + Zs)] == [mc.exact_kdist(X).value for X in Xs + Zs]
    assert bounds.master_bound([]) == [] and mc.exact_kdist([]) == [] and bounds.single_order_bounds([], []) == []


@settings(max_examples=25, deadline=None)
@given(
    atoms=st.lists(st.integers(2, 4), min_size=2, max_size=4),
    count=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_bounds_equal_the_bounds_one_at_a_time_on_random_laws(atoms, count, seed):
    # Two coordinates or more: on one, the half-weight integrals are constant
    # and their variance terms are square roots of round-off (about 1e-8),
    # as far apart one at a time as stacked.
    rng = np.random.default_rng(seed)
    laws = []
    for m in atoms:
        values = np.sort(rng.choice(np.arange(-8, 9), size=m, replace=False)) / 4.0
        probs = rng.integers(1, 10, size=m)
        laws.append(Distribution.finite(zip(values.tolist(), (probs / probs.sum()).tolist())))
    space = OutcomeSpace(laws)
    Xs = _unit_stack(space, count, rng)
    _assert_close_terms(bounds.master_bound(Xs), [bounds.master_bound(X) for X in Xs])
    _assert_close_terms(bounds.fourth_moment_check(Xs), [bounds.fourth_moment_check(X) for X in Xs])
    _assert_close_terms(bounds.single_order_bounds(Xs, 1), [bounds.single_order_bounds(X, 1) for X in Xs])


def test_a_stack_is_read_in_chunks_of_stack_cap_entries(monkeypatch):
    # Chunks of whole functionals, at most STACK_CAP entries each (at least
    # one functional): one gradient_integrals call per chunk, the same results.
    rng = np.random.default_rng(59)
    space = OutcomeSpace.iid(three_point(), 4)
    Xs = _unit_stack(space, 7, rng)
    whole = bounds.master_bound(Xs)
    widths = []
    integrals = chaos.gradient_integrals
    monkeypatch.setattr(bounds, "gradient_integrals", lambda space, stacks, *a: widths.append(len(stacks[0])) or integrals(space, stacks, *a))
    monkeypatch.setattr("kolbounds.space.STACK_CAP", 3 * space.size + 1)
    _assert_close_terms(bounds.master_bound(Xs), whole)
    assert widths == [3, 3, 1]
    # One outcome short of three functionals: max(1, STACK_CAP // |Omega|) = 2.
    monkeypatch.setattr("kolbounds.space.STACK_CAP", 3 * space.size - 1)
    widths.clear()
    _assert_close_terms(bounds.master_bound(Xs), whole)
    assert widths == [2, 2, 2, 1]
    alone = [bounds.fourth_moment_check(X) for X in Xs[:2]]
    monkeypatch.setattr("kolbounds.space.STACK_CAP", 1)
    widths.clear()
    _assert_close_terms(bounds.fourth_moment_check(Xs[:2]), alone)
    assert widths == [1, 1]


def test_stack_guards():
    space = OutcomeSpace.iid(three_point(), 3)
    Xs = _unit_stack(space, 2, np.random.default_rng(60))
    other = _unit_stack(OutcomeSpace.iid(three_point(), 2), 1, np.random.default_rng(61))
    with pytest.raises(DomainError, match="different spaces"):
        bounds.master_bound(Xs + other)
    with pytest.raises(InputError, match="3 orders for 2 functionals"):
        bounds.single_order_bounds(Xs, [1, 2, 3])
    with pytest.raises(DomainError, match="order must be at least 1"):
        bounds.single_order_bounds(Xs, [1, 0])
    # One uncentred functional refuses the whole stack.
    with pytest.raises(DomainError, match="centered"):
        bounds.master_bound([Xs[0], Xs[1] + 0.5])


def test_master_bound_on_a_stack_peaks_at_eight_grids_per_functional():
    # The stack's predicted peak (bounds module docstring), in units of one
    # grid at Rademacher n = 14, for a stack of four (one chunk): X copied
    # into the stack, L^-1 X, the two integrals kept as grids, the gradient
    # buffer and its spare, 2 F grids each, plus grade_energy's fixed
    # np.take index buffers (12 x 8192 bytes); 8 F grids + 91 KiB measured,
    # with the change-of-basis plan built beforehand.
    space = OutcomeSpace.iid(Distribution.rademacher(), 14)
    Xs = _unit_stack(space, 4, np.random.default_rng(62))
    bounds.master_bound(Xs[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bounds.master_bound(Xs)
        assert tracemalloc.get_traced_memory()[1] - base <= 8 * len(Xs) * 8 * space.size + 12 * 8192 + 8192
    finally:
        tracemalloc.stop()
