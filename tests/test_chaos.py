"""Multiple-sum kernels: isometry, products, operator powers, gradients."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoeffding_terms import grades, terms
from kolbounds import chaos, hoeffding, tol
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DomainError, InputError, SpaceTooLargeError
from kolbounds.space import OutcomeSpace, law_mean


def _space(n=4, law=None):
    return OutcomeSpace.iid(law or three_point(), n)


def _random_law(m, rng):
    values = np.sort(rng.choice(np.arange(-8, 9), size=m, replace=False)) / 4.0
    probs = rng.integers(1, 10, size=m)
    return Distribution.finite(zip(values.tolist(), (probs / probs.sum()).tolist()))


def _second_moment(dec):
    """E[X^2] of a chaos decomposition through the gradewise covariance identity."""
    return dec.mean**2 + sum(math.factorial(d) * k.inner_product(k) for d, k in dec.kernels.items())


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
    assert _second_moment(dec) == pytest.approx(X.moment(2), rel=1e-12)


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


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.integers(2, 4), min_size=1, max_size=5),
    orders=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_isometry_on_random_laws(atoms, orders, seed):
    # Random 2-4 atom laws per coordinate, n <= 5, orders 1-3 (cut to n):
    # E[I_d(f) I_e(g)] = d! <f, g> for d = e and 0 otherwise, and
    # E[I_d(f)^2] = d! <f, f>.
    rng = np.random.default_rng(seed)
    space = OutcomeSpace([_random_law(m, rng) for m in atoms])
    f, g = (chaos.random_kernel(space, min(d, space.n), rng) for d in orders)
    If, Ig = f.integral(), g.integral()
    for a, Ia in ((f, If), (g, Ig)):
        assert Ia.moment(2) == pytest.approx(math.factorial(a.order) * a.inner_product(a), rel=1e-12)
    want = math.factorial(f.order) * f.inner_product(g) if f.order == g.order else 0.0
    size = math.sqrt(If.moment(2) * Ig.moment(2))
    assert abs((If * Ig).expectation() - want) <= 1e-12 * max(1.0, size)


def test_integral_of_random_kernel_is_centered_pure_grade():
    rng = np.random.default_rng(34)
    space = _space()
    for d in (1, 2, 3):
        f = chaos.random_kernel(space, d, rng)
        assert f.degeneracy_violation() < 1e-12
        X = f.integral()
        assert abs(X.expectation()) < 1e-12
        assert sorted(chaos.decompose(X).kernels) == [d]


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
    assert _second_moment(prod) == pytest.approx(direct, rel=1e-10)


def test_covariance_identity_for_key_alphas():
    rng = np.random.default_rng(37)
    space = _space()
    for _ in range(6):
        X = space.functional(rng.standard_normal(space.size)).centered()
        Y = space.functional(rng.standard_normal(space.size)).centered()
        triples = [(0, 1, alpha) for alpha in (0.0, 0.5, 1.0, 0.3)]
        assert max(chaos.covariance_identity_check([X, Y], triples)) < 1e-11


def test_covariance_identity_rejects_uncentered():
    space = _space(3)
    X = space.constant(1.0) + space.coordinate(0)
    with pytest.raises(DomainError):
        chaos.covariance_identity_check([X], [(0, 0, 0.5)])


def _covariance_twin(Xs, triples):
    """One triple at a time: both powers, one gradient_integrals pass and E[X Y] of the values."""
    out = []
    for i, j, alpha in triples:
        A, B = chaos.apply_L_power(Xs[i], alpha - 1.0), chaos.apply_L_power(Xs[j], -alpha)
        (pair,) = chaos.gradient_integrals(A.space, [A.values[None], B.values[None]], [lambda G, spare: G[:1] * G[1:]])
        rhs = A.space.functional(pair[0]).expectation()
        out.append(abs((Xs[i] * Xs[j]).expectation() - rhs))
    return out


@pytest.mark.parametrize("name", ["three-point n = 4", "mixed"])
def test_batched_covariance_identity_matches_the_per_triple_twin(name, monkeypatch):
    space = OutcomeSpace.iid(three_point(), 4) if name == "three-point n = 4" else OutcomeSpace(MIXED)
    rng = np.random.default_rng(52)
    Xs = [space.functional(rng.standard_normal(space.size)).centered() for _ in range(13)]
    Xs += [chaos.random_kernel(space, d, rng).integral() for d in (1, 2, 3)]
    triples = [(i, i + 1, alpha) for i in range(15) for alpha in (0.0, 0.5, 1.0)]
    triples += [(3, 3, 0.3), (15, 0, -0.7), (7, 2, 1.5)]
    got = chaos.covariance_identity_check(Xs, triples)
    assert np.max(np.abs(np.array(got) - _covariance_twin(Xs, triples))) <= 1e-13
    # chaos-verify's 36 triples on 13 functionals: L^-1 and L^-1/2 of each, once.
    calls = []
    scale_grades = hoeffding.scale_grades
    monkeypatch.setattr(hoeffding, "scale_grades", lambda X, coeffs: calls.append(X) or scale_grades(X, coeffs))
    chaos.covariance_identity_check(Xs[:13], [(i, i + 1, alpha) for i in range(12) for alpha in (0.0, 0.5, 1.0)])
    assert len(calls) == 26
    # An uncentred functional is refused where a triple reads it, and only there.
    Xs[5] = Xs[5] + 0.5
    chaos.covariance_identity_check(Xs, [(0, 1, 0.5), (6, 7, 0.0)])
    for triple in [(5, 6, 0.5), (4, 5, 1.0)]:
        with pytest.raises(DomainError, match="^covariance identity needs centered input 5$"):
            chaos.covariance_identity_check(Xs, [(0, 1, 0.5), triple])


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
    got = space.functional(chaos.gradient_integrals(space, [X.values[None]], [lambda G, spare: G**2])[0][0]).expectation()
    want = sum(bin(m).count("1") * space.expand(t).moment(2) for m, t in terms(X).items())
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


def _multiply_twin(f, g):
    """The combinatorial product formula: for every shared count k and paired
    count i, the contraction feeds an order n + m - k - i kernel with weight
    k! C(m,k) C(n,k) C(k,i) s! fo! go! / r!, summed over every split of each
    output subset into shared, f-only and g-only blocks. Tables above the
    tol.DROP cut become kernels through canonical(); the fully paired term is
    the mean.
    """
    space = f.space
    n, m = f.order, g.order
    mean = 0.0
    acc = {}
    for kk in range(min(n, m) + 1):
        for i in range(kk + 1):
            coeff = math.factorial(kk) * math.comb(m, kk) * math.comb(n, kk) * math.comb(kk, i)
            r = n + m - kk - i
            entries = _contract_twin(f, g, kk, i)
            if r == 0:
                mean += coeff * float(entries.get(((), (), ()), 0.0))
                continue
            if r > space.n:
                continue
            s, fo, go = kk - i, n - kk, m - kk
            factor = math.factorial(s) * math.factorial(fo) * math.factorial(go) / math.factorial(r)
            for K in itertools.combinations(range(space.n), r):
                for S in itertools.combinations(K, s):
                    rest = [b for b in K if b not in S]
                    for F in itertools.combinations(rest, fo):
                        G = tuple(b for b in rest if b not in F)
                        val = entries.get((S, F, G))
                        if val is not None:
                            piece = coeff * factor * np.transpose(val, [(S + F + G).index(b) for b in K])
                            tables = acc.setdefault(r, {})
                            tables[K] = tables.get(K, 0.0) + piece
    cut = tol.DROP * tol.scale([np.max(np.abs(t)) for tables in acc.values() for t in tables.values()])
    kernels = {}
    for r, tables in acc.items():
        live = {K: t for K, t in tables.items() if float(np.max(np.abs(t))) > cut}
        if live:
            kern = chaos.ChaosKernel(space, r, live, raw=True).canonical()
            if kern.max_abs() > cut:
                kernels[r] = kern
    return chaos.ChaosDecomposition(space, mean, kernels)


def _assert_same_decomposition(got, want):
    size = tol.scale([abs(want.mean)] + [k.max_abs() for k in want.kernels.values()])
    assert abs(got.mean - want.mean) <= 1e-12 * size
    assert sorted(got.kernels) == sorted(want.kernels)
    for r, kern in want.kernels.items():
        assert sorted(got.kernels[r].tables) == sorted(kern.tables), r
        for K, table in kern.tables.items():
            assert np.max(np.abs(got.kernels[r].tables[K] - table)) <= 1e-12 * size, (r, K)


def _product_residual(f, g):
    """max |multiply(f, g) reconstructed - I_n(f) I_m(g)| over the grid, over tol.scale of the product."""
    truth = f.integral() * g.integral()
    got = chaos.multiply(f, g).reconstruct()
    return float(np.max(np.abs(got.values - truth.values))) / tol.scale(truth.values)


TWIN_SPACES = {
    "three-point n = 4": OutcomeSpace.iid(three_point(), 4),
    "mixed": OutcomeSpace(MIXED),
    "Rademacher n = 5": OutcomeSpace.iid(Distribution.rademacher(), 5),
    "{-1: 1/2, 0: 1/4, 2: 1/4} n = 5": OutcomeSpace.iid(ASYM, 5),
}


@pytest.mark.parametrize("name", sorted(TWIN_SPACES))
def test_multiply_matches_the_combinatorial_twin(name):
    space = TWIN_SPACES[name]
    rng = np.random.default_rng(48)
    for a, b in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 3)]:
        f = chaos.random_kernel(space, a, rng)
        g = chaos.random_kernel(space, b, rng)
        _assert_same_decomposition(chaos.multiply(f, g), _multiply_twin(f, g))
        assert _product_residual(f, g) < 1e-13


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    orders=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_multiply_matches_the_twin_and_the_product_on_random_laws(atoms, orders, seed):
    # Random 1-4 atom laws per coordinate (a one-atom coordinate carries no
    # centred slot), n <= 4, orders 1-3 (cut to n).
    rng = np.random.default_rng(seed)
    space = OutcomeSpace([_random_law(m, rng) for m in atoms])
    f, g = (chaos.random_kernel(space, min(d, space.n), rng) for d in orders)
    _assert_same_decomposition(chaos.multiply(f, g), _multiply_twin(f, g))
    assert _product_residual(f, g) < 1e-12


def test_a_non_canonical_factor_misses_the_product_as_the_twin_does():
    # Re-centring is right only for canonical inputs: a shifted table (as in
    # chaos-verify --corrupt) leaves the same miss as the combinatorial route,
    # so the multiplication check keeps failing on it.
    space = _space()
    rng = np.random.default_rng(49)
    f = chaos.random_kernel(space, 2, rng)
    g = chaos.random_kernel(space, 1, rng)
    tables = {s: t.copy() for s, t in f.tables.items()}
    tables[(0, 1)] += 0.75
    f = chaos.ChaosKernel(space, 2, tables, raw=True)
    truth = f.integral() * g.integral()
    want = float(np.max(np.abs(_multiply_twin(f, g).reconstruct().values - truth.values))) / tol.scale(truth.values)
    assert want > 1e-3
    assert _product_residual(f, g) == pytest.approx(want, rel=1e-12)


def test_multiply_refuses_a_lifted_table_past_the_cap_before_it_allocates():
    # Rademacher n = 8: 5^8 lifted entries, past the 2^18 cap.
    space = OutcomeSpace.iid(Distribution.rademacher(), 8)
    rng = np.random.default_rng(50)
    f, g = chaos.random_kernel(space, 1, rng), chaos.random_kernel(space, 2, rng)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(SpaceTooLargeError):
            chaos.multiply(f, g)
        assert tracemalloc.get_traced_memory()[1] - base < 8 * 5**8
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("law, n", [(Distribution.rademacher(), 7), (three_point(), 6)])
def test_multiply_peaks_within_four_lifted_tables(law, n):
    # The largest spaces under the cap for two and three atoms.
    space = OutcomeSpace.iid(law, n)
    rng = np.random.default_rng(51)
    f, g = chaos.random_kernel(space, 3, rng), chaos.random_kernel(space, 2, rng)
    lifted_bytes = 8 * math.prod(2 * m + 1 for m in space.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prod = chaos.multiply(f, g)
        assert tracemalloc.get_traced_memory()[1] - base <= 4 * lifted_bytes
    finally:
        tracemalloc.stop()
    truth = f.integral() * g.integral()
    assert np.max(np.abs(prod.reconstruct().values - truth.values)) < 1e-12 * tol.scale(truth.values)


def test_random_kernel_needs_room_for_its_order():
    with pytest.raises(DomainError):
        chaos.random_kernel(_space(2), 3, np.random.default_rng(46))


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
    quartic, pair = chaos.gradient_integrals(
        space, [np.stack([X.grid, Y.grid])], [lambda G, spare: G[:1] ** 4, lambda G, spare: G[:1] * G[1:]]
    )
    both = [grads, _per_atom_gradients(Y)]
    want = _per_atom_integral(space, both, lambda g, h: g**4)
    assert np.max(np.abs(quartic.reshape(-1) - want)) < 1e-12 * np.max(np.abs(want))
    want = _per_atom_integral(space, both, np.multiply)
    assert np.max(np.abs(pair.reshape(-1) - want)) < 1e-12 * np.max(np.abs(want))
    with pytest.raises(InputError, match="do not fit"):
        chaos.gradient_integrals(space, [X.values[None], np.zeros((1, 81))], [lambda G, spare: G])


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
    space = OutcomeSpace([_random_law(m, rng) for m in atoms])
    Xs = [space.functional(rng.standard_normal(space.size)) for _ in range(count)]
    terms = [lambda *g: g[0] ** 2, lambda *g: g[-1] ** 3, lambda *g: g[0] * g[-1]]
    stacked = [lambda G, spare: G[:1] ** 2, lambda G, spare: G[-1:] ** 3, lambda G, spare: G[:1] * G[-1:]]
    got = chaos.gradient_integrals(space, [np.stack([X.values for X in Xs])], stacked)
    grads = [_per_atom_gradients(X) for X in Xs]
    for term, integral in zip(terms, got):
        want = _per_atom_integral(space, grads, term)
        assert np.max(np.abs(integral.reshape(-1) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_inverse_square_root_power_moment_is_the_inverse_pairing_on_a_mixed_space():
    # E[(L^{-1/2} X)^2] = E[X L^{-1} X]: both are sum_d E[X_d^2] / d.
    rng = np.random.default_rng(47)
    space = OutcomeSpace(MIXED)
    X = space.functional(rng.standard_normal(space.size)).centered()
    half = chaos.apply_L_power(X, -0.5).moment(2)
    assert half == pytest.approx((X * chaos.apply_L_power(X, -1.0)).expectation(), rel=1e-13)
    by_order = [space.functional(g) for g in grades(X)]
    assert half == pytest.approx(sum(by_order[d].moment(2) / d for d in range(1, space.n + 1)), rel=1e-12)


def test_gradient_integrals_hold_two_grids_beside_the_stacks():
    # In units of one full grid, 8 |Omega| bytes, at Rademacher n = 18: the
    # gradient buffer (the stacks) and, beside it, its spare and the result;
    # the term writes its fourth powers into the spare, and its reduction
    # over atoms (half a grid) is the one further allocation. A term that
    # allocates, such as G**4 (two grids), adds its own arrays to this.
    space = OutcomeSpace.iid(Distribution.rademacher(), 18)
    X = space.functional(np.random.default_rng(46).standard_normal(space.size))
    grid_bytes = 8 * space.size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chaos.gradient_integrals(space, [X.values[None]], [lambda G, spare: np.square(np.square(G, out=spare), out=spare)])
        assert tracemalloc.get_traced_memory()[1] - base <= 4.1 * grid_bytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("laws", [[three_point()] * 4, [Distribution.rademacher()] * 6, MIXED, [three_point()] * 9])
def test_integral_adds_each_subset_in_place_with_the_old_bits(laws):
    # The multiple sum adds each subset's table into one full grid in place;
    # the old loop made a new broadcast sum per subset and expanded it last.
    space = OutcomeSpace(laws)
    rng = np.random.default_rng(48)
    for order in (1, 2, 3):
        f = chaos.random_kernel(space, order, rng)
        total = np.zeros((1,) * space.n)
        for subset, table in f.tables.items():
            total = total + table.reshape([m if j in subset else 1 for j, m in enumerate(space.shape)])
        total *= math.factorial(order)
        assert f.integral().values.tobytes() == space.expand(total).values.tobytes()


def test_decompose_kernels_are_canonical_without_admission_on_a_mixed_space():
    # Hoeffding terms are centred by construction, so decompose makes its
    # kernels without a centring check.
    rng = np.random.default_rng(45)
    space = OutcomeSpace(MIXED)
    X = space.functional(rng.standard_normal(space.size))
    dec = chaos.decompose(X)
    assert sorted(dec.kernels) == [1, 2, 3, 4]
    for kern in dec.kernels.values():
        assert kern.degeneracy_violation() <= tol.CENTRING * tol.scale(kern.max_abs())
    assert np.max(np.abs(dec.reconstruct().values - X.values)) < 1e-12


def _slot_by_slot(space, tables):
    """Every table centred alone, one law_mean per slot (the per-subset route)."""
    out = {}
    for subset, table in tables.items():
        for axis, j in enumerate(subset):
            table = table - law_mean(table, axis, space.probs[j])
        out[subset] = table
    return out


STACK_SPACES = {
    "three-point n = 4": OutcomeSpace.iid(three_point(), 4),
    "Rademacher n = 6": OutcomeSpace.iid(Distribution.rademacher(), 6),
    "mixed": OutcomeSpace(MIXED),
}


@pytest.mark.parametrize("name", sorted(STACK_SPACES))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_random_kernel_matches_per_subset_draws_and_slot_by_slot_centring(name, order):
    # Every law here is dyadic, so the stacked centring is bit for bit the
    # per-table one; the one draw leaves the generator where the per-subset
    # draws do.
    space = STACK_SPACES[name]
    rng, twin_rng = np.random.default_rng(53), np.random.default_rng(53)
    got = chaos.random_kernel(space, order, rng)
    drawn = {
        s: twin_rng.standard_normal(tuple(space.shape[j] for j in s))
        for s in itertools.combinations(range(space.n), order)
    }
    want = _slot_by_slot(space, drawn)
    assert list(got.tables) == list(want)
    for s, table in want.items():
        assert got.tables[s].tobytes() == table.tobytes(), s
    assert rng.bit_generator.state == twin_rng.bit_generator.state


def _raw_kernel(space, order, rng):
    tables = {
        s: rng.standard_normal(tuple(space.shape[j] for j in s)) + 0.5
        for s in itertools.combinations(range(space.n), order)
    }
    return chaos.ChaosKernel(space, order, tables, raw=True), tables


@pytest.mark.parametrize("name", sorted(STACK_SPACES) + ["three-point n = 9"])
def test_canonical_on_stacks_is_slot_by_slot_centring_bit_for_bit_on_dyadic_laws(name):
    space = STACK_SPACES.get(name) or OutcomeSpace.iid(three_point(), 9)
    rng = np.random.default_rng(54)
    for order in (1, 2, 3):
        kern, tables = _raw_kernel(space, order, rng)
        got = kern.canonical()
        assert got.order == order and got.space is space
        want = _slot_by_slot(space, tables)
        assert list(got.tables) == list(want)
        for s, table in want.items():
            assert got.tables[s].tobytes() == table.tobytes(), (order, s)
        assert got.degeneracy_violation() < 1e-14


@settings(max_examples=30, deadline=None)
@given(
    atoms=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    order=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonical_on_stacks_matches_slot_by_slot_centring_on_random_laws(atoms, order, seed):
    # Random laws are not dyadic: the stacked products may round apart at
    # 1e-15 relative, never further.
    rng = np.random.default_rng(seed)
    space = OutcomeSpace([_random_law(m, rng) for m in atoms])
    kern, tables = _raw_kernel(space, min(order, space.n), rng)
    got = kern.canonical()
    want = _slot_by_slot(space, tables)
    assert list(got.tables) == list(want)
    for s, table in want.items():
        assert np.max(np.abs(got.tables[s] - table), initial=0.0) <= 1e-15 * tol.scale(tables[s]), s


def test_the_public_constructor_refuses_a_non_canonical_table():
    space = _space(3)
    rng = np.random.default_rng(55)
    kern, tables = _raw_kernel(space, 2, rng)
    with pytest.raises(DomainError, match=r"^kernel is not canonical \(worst slot mean .*\); use canonical\(\) first$"):
        chaos.ChaosKernel(space, 2, tables)
    fixed = kern.canonical()
    again = chaos.ChaosKernel(space, 2, fixed.tables)
    assert all(np.array_equal(again.tables[s], t) for s, t in fixed.tables.items())
    with pytest.raises(InputError):
        chaos.ChaosKernel(space, 2, {(1, 0): fixed.tables[0, 1]}, raw=True)
    with pytest.raises(InputError):
        chaos.ChaosKernel(space, 2, {(0, 1): np.zeros((3, 2))}, raw=True)
