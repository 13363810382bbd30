"""Multiple-sum kernels: isometry, products, operator powers, contractions."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolbounds import chaos, hoeffding, tol
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError
from kolbounds.space import OutcomeSpace


def _space(n=4, law=None):
    return OutcomeSpace.iid(law or three_point(), n)


def test_decompose_reconstruct_roundtrip():
    rng = np.random.default_rng(31)
    space = _space()
    for _ in range(8):
        X = space.functional(rng.standard_normal(space.size))
        dec = chaos.decompose(X)
        back = dec.reconstruct()
        assert np.max(np.abs(back.values - X.values)) < 1e-12


def test_decompose_second_moment_matches_enumeration():
    rng = np.random.default_rng(32)
    space = _space()
    X = space.functional(rng.standard_normal(space.size))
    dec = chaos.decompose(X)
    assert dec.second_moment() == pytest.approx(X.moment(2), rel=1e-12)


def test_isometry_within_and_across_orders():
    rng = np.random.default_rng(33)
    space = _space()
    kernels = [chaos.random_kernel(space, 1 + (i % 3), rng) for i in range(12)]
    for i, f in enumerate(kernels):
        for g in kernels[i:]:
            lhs = (f.integral() * g.integral()).expectation()
            if f.order == g.order:
                want = math.factorial(f.order) * f.inner_product(g)
            else:
                want = 0.0
            assert lhs == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_integral_of_random_kernel_is_centered_pure_grade():
    rng = np.random.default_rng(34)
    space = _space()
    for d in (1, 2, 3):
        f = chaos.random_kernel(space, d, rng)
        assert f.degeneracy_violation() < 1e-12
        X = f.integral()
        assert abs(X.expectation()) < 1e-12
        H = hoeffding.project(X)
        assert H.orders_present() == [d]


def test_multiplication_formula_pointwise():
    rng = np.random.default_rng(35)
    space = _space()
    for da, db in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3)]:
        f = chaos.random_kernel(space, da, rng)
        g = chaos.random_kernel(space, db, rng)
        truth = f.integral() * g.integral()
        got = chaos.multiply(f, g).reconstruct()
        scale = max(1.0, float(np.max(np.abs(truth.values))))
        assert np.max(np.abs(got.values - truth.values)) / scale < 1e-11


def test_multiplication_respects_second_moments():
    rng = np.random.default_rng(36)
    space = _space()
    f = chaos.random_kernel(space, 2, rng)
    g = chaos.random_kernel(space, 2, rng)
    prod = chaos.multiply(f, g)
    direct = (f.integral() * g.integral()).moment(2)
    assert prod.second_moment() == pytest.approx(direct, rel=1e-10)


def test_covariance_identity_for_key_alphas():
    rng = np.random.default_rng(37)
    space = _space()
    for _ in range(6):
        X = space.functional(rng.standard_normal(space.size)).centered()
        Y = space.functional(rng.standard_normal(space.size)).centered()
        for alpha in (0.0, 0.5, 1.0, 0.3):
            assert chaos.covariance_identity_check(X, Y, alpha) < 1e-11


def test_covariance_identity_rejects_uncentered():
    space = _space(3)
    X = space.constant(1.0) + space.coordinate(0)
    with pytest.raises(DomainError):
        chaos.covariance_identity_check(X, X, 0.5)


def test_operator_powers_compose_and_scale_grades():
    rng = np.random.default_rng(38)
    space = _space()
    X = space.functional(rng.standard_normal(space.size)).centered()
    once = chaos.apply_L_power(chaos.apply_L_power(X, -0.5), -0.5)
    direct = chaos.apply_L_power(X, -1.0)
    assert np.max(np.abs(once.values - direct.values)) < 1e-11

    f = chaos.random_kernel(space, 3, rng)
    Z = f.integral()
    scaled = chaos.apply_L_power(Z, -1.0)
    assert np.max(np.abs(scaled.values - (Z * (1.0 / 3.0)).values)) < 1e-11


def test_negative_power_needs_centered_input():
    space = _space(3)
    with pytest.raises(DomainError):
        chaos.apply_L_power(space.constant(2.0), -1.0)


def test_gradient_square_integral_counts_orders():
    # E of the half-weight squared-gradient integral equals the sum over
    # subsets of |J| E[W_J^2], the number operator in quadratic form.
    rng = np.random.default_rng(39)
    space = _space(3)
    X = space.functional(rng.standard_normal(space.size)).centered()
    got = chaos.gradient_integrals([X], [np.square])[0].expectation()
    H = hoeffding.project(X)
    want = sum(len(s) * H.term(s).moment(2) for s in H.subsets())
    assert got == pytest.approx(want, rel=1e-12)


def test_gradient_of_pure_integral_freezes_one_slot():
    # grad_{k,t} I_2(f) = 2 I_1(f with its slot at k frozen to atom t).
    rng = np.random.default_rng(40)
    space = _space(3)
    f = chaos.random_kernel(space, 2, rng)
    X = f.integral()
    for k in range(space.n):
        stack = chaos.gradient(X, k)
        for t in range(space.shape[k]):
            frozen = {
                tuple(j for j in subset if j != k): np.take(table, t, axis=subset.index(k))
                for subset, table in f.tables.items()
                if k in subset
            }
            want = 2.0 * chaos.ChaosKernel(space, 1, frozen, raw=True).integral()
            got = space.expand(stack[t])
            assert np.max(np.abs(got.values - want.values)) < 1e-11


def test_full_self_contraction_recovers_the_norm():
    rng = np.random.default_rng(41)
    space = _space()
    for d in (1, 2, 3):
        f = chaos.random_kernel(space, d, rng)
        c = chaos.contract(f, f, d, d)
        assert c.free_slots() == 0
        assert c.scalar() == pytest.approx(f.norm_sq(), rel=1e-12)


ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
MIXED = [three_point(), Distribution.rademacher(), ASYM, Distribution.rademacher()]


def _contract_twin(f, g, k, l):
    """Reference contraction by plain loops over blocks and atoms.

    Entry (S, F, G) at atoms (xs, xf, xg) is l! times the sum over l-sets C
    of blocks outside S, F and G, and over the atoms xc of C weighted by
    their laws, of f on S + F + C times g on S + G + C.
    """
    space = f.space
    s, fo, go = k - l, f.order - k, g.order - k
    blocks = range(space.n)
    entries = {}
    for S in itertools.combinations(blocks, s):
        rest = [b for b in blocks if b not in S]
        for F in itertools.combinations(rest, fo):
            for G in itertools.combinations(rest, go):
                shape = tuple(space.shape[b] for b in S + F + G)
                val = np.zeros(shape)
                hit = False
                for C in itertools.combinations([b for b in rest if b not in F + G], l):
                    f_sub, g_sub = tuple(sorted(S + F + C)), tuple(sorted(S + G + C))
                    if f_sub not in f.tables or g_sub not in g.tables:
                        continue
                    hit = True
                    for idx in np.ndindex(*shape):
                        xs, xf, xg = idx[:s], idx[s : s + fo], idx[s + fo :]
                        for xc in itertools.product(*(range(space.shape[b]) for b in C)):
                            w = math.prod(space.probs[b][t] for b, t in zip(C, xc))
                            at_f = dict(zip(S + F + C, xs + xf + xc))
                            at_g = dict(zip(S + G + C, xs + xg + xc))
                            fv = f.tables[f_sub][tuple(at_f[b] for b in f_sub)]
                            gv = g.tables[g_sub][tuple(at_g[b] for b in g_sub)]
                            val[idx] += w * fv * gv
                if hit:
                    entries[(S, F, G)] = math.factorial(l) * val
    return entries


def _norm_twin(space, entries, free_counts):
    """Sum over entries and atoms of law weight times value squared, times the slot weights."""
    total = 0.0
    for (S, F, G), val in entries.items():
        for idx in np.ndindex(*val.shape):
            total += math.prod(space.probs[b][t] for b, t in zip(S + F + G, idx)) * val[idx] ** 2
    return total * math.prod(math.factorial(c) * 2.0**c for c in free_counts)


def test_contraction_matches_the_loop_twin_on_a_mixed_space():
    space = OutcomeSpace(MIXED)
    rng = np.random.default_rng(44)
    for a, b in [(1, 2), (2, 2), (2, 3)]:
        f = chaos.random_kernel(space, a, rng)
        g = chaos.random_kernel(space, b, rng)
        for k in range(a + 1):
            for l in range(k + 1):
                c = chaos.contract(f, g, k, l)
                want = _contract_twin(f, g, k, l)
                assert set(c.entries) == set(want), (a, b, k, l)
                for key, val in want.items():
                    assert np.max(np.abs(c.entries[key] - val)) < 1e-12, (a, b, k, l, key)
                norm = _norm_twin(space, want, (k - l, a - k, b - k))
                assert c.l2_norm_sq() == pytest.approx(norm, rel=1e-12, abs=1e-12)


def test_first_order_contractions_at_the_space_cap():
    # 18 coordinates: numbering einsum labels by block would run past the
    # 52 labels numpy accepts; labels by role stay below four.
    space = OutcomeSpace.iid(Distribution.rademacher(), 18)
    rng = np.random.default_rng(45)
    f = chaos.random_kernel(space, 1, rng)
    g = chaos.random_kernel(space, 1, rng)
    outer = chaos.contract(f, f, 0, 0)
    assert len(outer.entries) == 18 * 18
    for (S, (a,), (b,)), val in outer.entries.items():
        assert S == ()
        assert np.array_equal(val, np.multiply.outer(f.tables[(a,)], f.tables[(b,)]))
    assert outer.l2_norm_sq() == pytest.approx(4.0 * f.norm_sq() ** 2, rel=1e-12)
    shared = chaos.contract(f, g, 1, 0)
    assert sorted(shared.entries) == [((a,), (), ()) for a in range(18)]
    for ((a,), _, _), val in shared.entries.items():
        assert np.array_equal(val, f.tables[(a,)] * g.tables[(a,)])
    want = sum(2.0 * float(np.dot(space.probs[a], (f.tables[(a,)] * g.tables[(a,)]) ** 2)) for a in range(18))
    assert shared.l2_norm_sq() == pytest.approx(want, rel=1e-12)


def test_random_kernel_needs_room_for_its_order():
    with pytest.raises(DomainError):
        chaos.random_kernel(_space(2), 3, np.random.default_rng(46))


def test_contraction_validates_depths():
    rng = np.random.default_rng(42)
    space = _space(3)
    f = chaos.random_kernel(space, 2, rng)
    from kolbounds.errors import InputError

    with pytest.raises(InputError):
        chaos.contract(f, f, 3, 0)
    with pytest.raises(InputError):
        chaos.contract(f, f, 1, 2)


def test_contraction_rate_scales_quadratically():
    # Every pairing is bilinear in each argument, so scaling the functional
    # by c scales the bracket's square root by c^2.
    rng = np.random.default_rng(43)
    space = _space(3)
    X = space.functional(rng.standard_normal(space.size)).centered()
    base = chaos.contraction_rate(chaos.decompose(X))
    doubled = chaos.contraction_rate(chaos.decompose(X * 2.0))
    assert base > 0.0
    assert doubled == pytest.approx(4.0 * base, rel=1e-10)


def _per_atom_gradients(X):
    """grad_{k,t} X for every (k, t): one np.take per atom minus the law's average."""
    space = X.space
    grads = {}
    for k in range(space.n):
        takes = [np.take(X.grid, [t], axis=k) for t in range(space.shape[k])]
        mean = sum(p * take for p, take in zip(space.probs[k], takes))
        for t, take in enumerate(takes):
            grads[k, t] = take - mean
    return grads


def _per_atom_integral(space, grads, term):
    """sum over (k, t) of nu_k(t) * term(components at (k, t)), on full grids."""
    return sum(
        p * term(*(space.expand(g[k, t]).values for g in grads))
        for k in range(space.n)
        for t, p in enumerate(space.probs[k])
    )


def test_gradient_stacks_match_the_per_atom_definition_on_a_mixed_space():
    # grad_{k,t} X = X with coordinate k set to t, minus its average over t.
    rng = np.random.default_rng(44)
    space = OutcomeSpace(MIXED)
    X = space.functional(rng.standard_normal(space.size))
    grads = _per_atom_gradients(X)
    for k in range(space.n):
        stack = chaos.gradient(X, k)
        assert stack.shape == (space.shape[k],) + grads[k, 0].shape
        assert stack.flags.c_contiguous
        for t in range(space.shape[k]):
            assert np.max(np.abs(stack[t] - grads[k, t])) < 1e-14
    with pytest.raises(DomainError):
        chaos.gradient(X, space.n)
    Y = X * X
    quartic, pair = chaos.gradient_integrals([X, Y], [lambda g, h: g**4, np.multiply])
    both = [grads, _per_atom_gradients(Y)]
    want = _per_atom_integral(space, both, lambda g, h: g**4)
    assert np.max(np.abs(quartic.values - want)) < 1e-12 * np.max(np.abs(want))
    want = _per_atom_integral(space, both, np.multiply)
    assert np.max(np.abs(pair.values - want)) < 1e-12 * np.max(np.abs(want))
    with pytest.raises(DomainError):
        chaos.gradient_integrals([X, _space().functional(np.zeros(81))], [np.multiply])


@settings(max_examples=30, deadline=None)
@given(
    atoms=st.lists(st.integers(2, 4), min_size=1, max_size=4),
    count=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_integrals_match_the_per_atom_sum_on_random_laws(atoms, count, seed):
    # Random 2-4 atom laws per coordinate, n <= 4, one or two functionals:
    # each term integrated in one coordinate pass equals the per-atom sum.
    rng = np.random.default_rng(seed)
    laws = []
    for m in atoms:
        values = np.sort(rng.choice(np.arange(-8, 9), size=m, replace=False)) / 4.0
        probs = rng.integers(1, 10, size=m)
        laws.append(Distribution.finite(zip(values.tolist(), (probs / probs.sum()).tolist())))
    space = OutcomeSpace(laws)
    Xs = [space.functional(rng.standard_normal(space.size)) for _ in range(count)]
    terms = [lambda *g: g[0] ** 2, lambda *g: g[-1] ** 3, lambda *g: g[0] * g[-1]]
    got = chaos.gradient_integrals(Xs, terms)
    grads = [_per_atom_gradients(X) for X in Xs]
    for term, integral in zip(terms, got):
        want = _per_atom_integral(space, grads, term)
        assert np.max(np.abs(integral.values - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_inverse_square_root_power_moment_is_the_inverse_pairing_on_a_mixed_space():
    # E[(L^{-1/2} X)^2] = E[X L^{-1} X]: both are sum_d E[X_d^2] / d.
    rng = np.random.default_rng(47)
    space = OutcomeSpace(MIXED)
    X = space.functional(rng.standard_normal(space.size)).centered()
    half = chaos.apply_L_power(X, -0.5).moment(2)
    assert half == pytest.approx((X * chaos.apply_L_power(X, -1.0)).expectation(), rel=1e-13)
    H = hoeffding.project(X)
    assert half == pytest.approx(sum(H.grade(d).moment(2) / d for d in range(1, space.n + 1)), rel=1e-12)


def test_gradient_integrals_hold_two_grids_beside_the_stacks():
    # In units of one full grid, 8 |Omega| bytes, at Rademacher n = 18: one
    # coordinate's stack (one grid), the result, the term and law_mean's slots.
    space = OutcomeSpace.iid(Distribution.rademacher(), 18)
    X = space.functional(np.random.default_rng(46).standard_normal(space.size))
    grid_bytes = 8 * space.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chaos.gradient_integrals([X], [lambda g: g**4])
        assert tracemalloc.get_traced_memory()[1] - base <= 4.1 * grid_bytes
    finally:
        tracemalloc.stop()


def test_decompose_kernels_are_canonical_without_admission_on_a_mixed_space():
    # Hoeffding terms are centred by construction, so decompose admits them raw.
    rng = np.random.default_rng(45)
    space = OutcomeSpace(MIXED)
    X = space.functional(rng.standard_normal(space.size))
    dec = chaos.decompose(X)
    assert sorted(dec.kernels) == [1, 2, 3, 4]
    for kern in dec.kernels.values():
        assert kern.degeneracy_violation() <= tol.CENTRING * tol.scale(kern.max_abs())
    assert np.max(np.abs(dec.reconstruct().values - X.values)) < 1e-12
