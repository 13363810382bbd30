"""Quadratic forms: sub-sum twins, the moment identity, rates, eigenvalues."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolbounds import cli, mc, qform
from kolbounds.dist import Distribution, draw_rows, three_point
from kolbounds.errors import DegenerateError, InputError
from kolbounds.space import OutcomeSpace

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
_MULTILINEAR_FORM = qform.multilinear_form


def _random_sym(rng, n, zero_diag=False):
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    if zero_diag:
        np.fill_diagonal(A, 0.0)
    return A


# ------------------------------------------------- brute-force twin sums


def _b_two_rays(A):
    n = A.shape[0]
    return sum(
        A[i, j] ** 2 * A[i, k] ** 2 for i, j, k in itertools.permutations(range(n), 3)
    )


def _b_diag_triangle(A):
    n = A.shape[0]
    return sum(
        A[i, i] * A[i, j] * A[i, k] * A[j, k]
        for i, j, k in itertools.permutations(range(n), 3)
    )


def _b_diag_pair_path(A):
    n = A.shape[0]
    return sum(
        A[i, i] * A[j, j] * A[i, k] * A[k, j]
        for i, j, k in itertools.permutations(range(n), 3)
    )


def _b_ray_bridge(A):
    n = A.shape[0]
    return sum(
        A[k, j] ** 2 * A[i, k] * A[i, j]
        for i, j, k in itertools.permutations(range(n), 3)
    )


def _b_cycle4(A):
    n = A.shape[0]
    return sum(
        A[a, b] * A[b, c] * A[c, d] * A[d, a]
        for a, b, c, d in itertools.permutations(range(n), 4)
    )


def _b_diag_sq_off(A):
    n = A.shape[0]
    return sum(
        A[i, i] ** 2 * A[j, k] ** 2 for i, j, k in itertools.permutations(range(n), 3)
    )


def _b_disjoint_squares(A):
    n = A.shape[0]
    return sum(
        A[a, b] ** 2 * A[c, d] ** 2 for a, b, c, d in itertools.permutations(range(n), 4)
    )


def _b_diag_path_sq(A):
    n = A.shape[0]
    return sum(
        A[i, i] * A[i, j] * A[j, k] ** 2
        for i, j, k in itertools.permutations(range(n), 3)
    )


def test_sub_sums_match_brute_force():
    rng = np.random.default_rng(61)
    pairs = [
        ("diag_quartic", lambda A: sum(A[i, i] ** 4 for i in range(len(A)))),
        (
            "offdiag_quartic",
            lambda A: sum(
                A[i, j] ** 4 for i, j in itertools.permutations(range(len(A)), 2)
            ),
        ),
        ("two_rays", _b_two_rays),
        ("diag_triangle", _b_diag_triangle),
        ("diag_pair_path", _b_diag_pair_path),
        ("ray_bridge", _b_ray_bridge),
        ("cycle4", _b_cycle4),
        (
            "diag_sq_pair",
            lambda A: sum(
                A[i, i] ** 2 * A[j, j] ** 2
                for i, j in itertools.permutations(range(len(A)), 2)
            ),
        ),
        ("diag_sq_off", _b_diag_sq_off),
        ("disjoint_squares", _b_disjoint_squares),
        (
            "diag_prod_sq",
            lambda A: sum(
                A[i, i] * A[j, j] * A[i, j] ** 2
                for i, j in itertools.permutations(range(len(A)), 2)
            ),
        ),
        (
            "diag_cubed_ray",
            lambda A: sum(
                A[i, i] * A[i, j] ** 3
                for i, j in itertools.permutations(range(len(A)), 2)
            ),
        ),
        (
            "diag_sq_ray",
            lambda A: sum(
                A[i, i] ** 2 * A[i, j] ** 2
                for i, j in itertools.permutations(range(len(A)), 2)
            ),
        ),
        ("diag_path_sq", _b_diag_path_sq),
        ("tr_a4", lambda A: float(np.trace(np.linalg.matrix_power(A, 4)))),
        (
            "diag_sq_cross",
            lambda A: sum(
                A[i, i] ** 2 * A[j, j] * A[i, j]
                for i, j in itertools.permutations(range(len(A)), 2)
            ),
        ),
    ]
    for trial in range(6):
        n = 4 + (trial % 2)
        A = _random_sym(rng, n, zero_diag=(trial == 3))
        sums = qform.sub_sums(A)
        assert set(sums) == {name for name, _ in pairs}
        for name, slow in pairs:
            assert sums[name] == pytest.approx(slow(A), rel=1e-11, abs=1e-11), name


def test_variance_matches_enumeration():
    rng = np.random.default_rng(62)
    for law in (Distribution.rademacher(), three_point(), ASYM):
        m = law.moments()
        for trial in range(4):
            n = int(rng.integers(2, 5))
            A = _random_sym(rng, n, zero_diag=(trial % 2 == 0))
            X = qform.q_functional(A, law)
            assert qform.variance_q(A, m) == pytest.approx(X.variance(), rel=1e-12, abs=1e-12)


def test_fourth_moment_identity_matches_enumeration():
    rng = np.random.default_rng(63)
    for law in (Distribution.rademacher(), three_point(), ASYM):
        m = law.moments()
        for trial in range(5):
            n = int(rng.integers(2, 6))
            A = _random_sym(rng, n, zero_diag=(trial == 2))
            X = qform.q_functional(A, law)
            want = X.moment(4)
            S = qform.sub_sums(A)
            got = qform.s1_term(S, m) + 3.0 * qform.s2_term(S, m) + 4.0 * qform.s3_term(S, m)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_remainder_term_vanishes_without_diagonal():
    rng = np.random.default_rng(64)
    A = _random_sym(rng, 5, zero_diag=True)
    for law in (three_point(), ASYM):
        assert qform.s3_term(qform.sub_sums(A), law.moments()) == 0.0


def test_cycle_sum_plus_two_rays_equals_bridge_square():
    # sum_{i != j} (sum_{k not in {i,j}} a_ik a_kj)^2 splits into the
    # four-cycle sum plus the two-ray sum.
    rng = np.random.default_rng(65)
    for _ in range(5):
        n = int(rng.integers(3, 6))
        A = _random_sym(rng, n)
        total = 0.0
        for i, j in itertools.permutations(range(n), 2):
            inner = sum(A[i, k] * A[k, j] for k in range(n) if k not in (i, j))
            total += inner * inner
        sums = qform.sub_sums(A)
        assert sums["cycle4"] + sums["two_rays"] == pytest.approx(total, rel=1e-11)


# ------------------------------------------------------------- worked example


def test_two_by_two_exchange_matrix_rates():
    # A = [[0, 1], [1, 0]] under the two-atom law: Q = 2 X1 X2 takes values
    # +-2 with sigma^2 = 4, standardized fourth moment 1, influence 1,
    # Tr A^4 = 2, lambda1 = 1.
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    law = Distribution.rademacher()
    m = law.moments()
    q = qform.analyze(A, m)
    assert q.sigma2 == pytest.approx(4.0, abs=1e-14)
    assert q.fourth_standardized == pytest.approx(1.0, abs=1e-14)
    assert qform.bound_r1(q) == pytest.approx(math.sqrt(2.0) + 0.5, rel=1e-14)
    assert qform.bound_r2(q) == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-14)
    assert qform.rate_gt(q, m) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    dj = qform.dejong_check(q)
    assert dj.fourth_gap == pytest.approx(2.0, abs=1e-13)
    assert dj.influence_ratio == pytest.approx(0.25, abs=1e-14)
    assert dj.trace_ratio == pytest.approx(0.125, abs=1e-14)


def test_alpha_beta_react_to_the_diagonal():
    m = three_point().moments()
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    with_diag = np.array([[1.0, 1.0], [1.0, 0.0]])
    q_off = qform.analyze(off, m)
    q_diag = qform.analyze(with_diag, m)
    assert q_off.alpha_n == pytest.approx(m.mu[2])
    assert q_diag.alpha_n == pytest.approx(m.mu[2] + m.mu[4] / m.mu[2])
    assert q_off.beta_n == pytest.approx(m.mu[4])
    assert q_diag.beta_n == pytest.approx(m.mu[4] + math.sqrt(m.mu[8]))


def test_degenerate_analysis_raises():
    # Zero variance is refused once, by analyze, with the size in the message;
    # a diagonal-only form under Rademacher signs is constant, hence zero variance too,
    # also at a scale whose squares underflow or whose fourth-moment sums would overflow.
    with pytest.raises(DegenerateError, match=r"n=3 has zero variance"):
        qform.analyze(np.zeros((3, 3)), three_point().moments())
    for scale in (1.0, 1e-200, 1e200):
        with pytest.raises(DegenerateError, match=r"n=2 has zero variance"):
            qform.analyze(np.diag([scale, 2.0 * scale]), Distribution.rademacher().moments())


def test_analyze_symmetrizes_once(monkeypatch, tmp_path):
    # The matrix is validated once; the eigenvalue step reads the symmetric part.
    calls = []
    symmetrize = qform.symmetrize
    monkeypatch.setattr(qform, "symmetrize", lambda A: calls.append(A.shape) or symmetrize(A))
    A = _random_sym(np.random.default_rng(72), 9)
    m = three_point().moments()
    for k in range(1, 4):
        q = qform.analyze(A, m)
        assert len(calls) == k
    assert q.lambda1 == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
    # A sampled report validates where the matrix enters, on loading and in
    # analyze, and passes it on: its exact grid and its three 50 000-draw
    # chunks validate nothing (they made four more calls before).
    calls.clear()
    path = tmp_path / "A.csv"
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in _random_sym(np.random.default_rng(73), 6)))
    argv = ["qform", "--matrix", str(path), "--law", "rademacher", "--samples", "120000", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    assert len(calls) == 2


# ------------------------------------------------------------- eigenvalues


def test_largest_abs_eigenvalue_matches_the_spectral_norm():
    # The operator 2-norm comes from an SVD, an independent LAPACK route; for
    # a symmetric matrix it equals |lambda_1|.
    rng = np.random.default_rng(66)
    for _ in range(12):
        n = int(rng.integers(2, 30))
        A = _random_sym(rng, n)
        assert qform.largest_abs_eigenvalue(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
    # The negative end of the spectrum dominates.
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = Q @ np.diag([-7.0, -1.0, 0.5, 2.0, 3.0]) @ Q.T
    A = (A + A.T) / 2.0
    assert qform.largest_abs_eigenvalue(A) == pytest.approx(7.0, rel=1e-12)
    assert qform.largest_abs_eigenvalue(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
    assert qform.largest_abs_eigenvalue(np.zeros((4, 4))) == 0.0
    assert qform.largest_abs_eigenvalue(np.array([[-2.5]])) == 2.5
    assert qform.largest_abs_eigenvalue(np.zeros((0, 0))) == 0.0


def test_largest_abs_eigenvalue_small_and_large_paths():
    A = np.diag([3.0, -5.0, 1.0])
    assert qform.largest_abs_eigenvalue(A) == pytest.approx(5.0, rel=1e-12)
    # Power-iteration path: a diagonal matrix is a fixed point family, the
    # deterministic kick still converges to the dominant component.
    big = np.zeros((520, 520))
    big[0, 0] = 3.0
    big[1, 1] = -5.0
    big[2, 2] = 1.0
    assert qform.largest_abs_eigenvalue(big) == pytest.approx(5.0, rel=1e-9)


def test_symmetrize_rejects_asymmetry():
    with pytest.raises(InputError):
        qform.symmetrize(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(InputError):
        qform.symmetrize(np.zeros((2, 3)))


# ----------------------------------------------------------- comparison chain


def test_trace_chain_holds_on_random_matrices():
    rng = np.random.default_rng(67)
    laws = [Distribution.rademacher(), three_point(), ASYM]
    for trial in range(60):
        n = int(rng.integers(2, 25))
        zero_diag = trial % 2 == 0
        A = _random_sym(rng, n, zero_diag=zero_diag)
        law = laws[trial % 3]
        m = law.moments()
        ok_for_sigma = zero_diag or m.mu[4] >= 2.0 * m.mu[2] ** 2 - 1e-12
        steps = qform.trace_chain(qform.analyze(A, m), m if ok_for_sigma else None)
        names = [s.name for s in steps]
        assert names[:4] == [
            "influence_vs_row_power",
            "row_power_vs_trace",
            "trace_vs_frobenius",
            "trace_vs_spectral",
        ]
        for s in steps:
            assert s.lhs <= s.rhs + 1e-10 * max(1.0, abs(s.rhs)), s.name


def test_sigma_step_needs_its_moment_hypothesis():
    # With a heavy diagonal and the two-atom law (fourth moment below twice
    # the variance squared) the final comparison genuinely reverses; this is
    # why trace_chain only appends it when the caller passes a law.
    A = np.array([[2.0, 1.0], [1.0, 0.0]])
    m = Distribution.rademacher().moments()
    step = qform.trace_chain(qform.analyze(A, m), m)[-1]
    assert step.name == "frobenius_vs_sigma"
    assert step.lhs > step.rhs


# ------------------------------------------------------------------- sampling


def test_q_samples_match_exact_moments():
    rng = mc.stream(68, 0)
    A = _random_sym(np.random.default_rng(68), 6)
    law = three_point()
    draws = qform.q_samples(A, law, rng, 150_000)
    exact_var = qform.variance_q(A, law.moments())
    assert draws.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(exact_var / draws.size))
    assert draws.var() == pytest.approx(exact_var, rel=0.05)


def _einsum_q_samples(A, law, rng, size, batch):
    # Reference: each whole batch through one einsum, no row blocks.
    M = qform.symmetrize(A)
    n = M.shape[0]
    shift = law.moments().mu[2] * float(np.trace(M))
    out = np.empty(size)
    done = 0
    while done < size:
        b = min(batch, size - done)
        X = law.sample(rng, b * n).reshape(b, n)
        out[done : done + b] = np.einsum("bi,ij,bj->b", X, M, X) - shift
        done += b
    return out


def test_q_samples_match_the_einsum_expression():
    # Sizes off multiples of the row block, n = 1 included, against references
    # drawn in batches on and off the block; both sides read the same stream,
    # so only the summation order differs. The law is dyadic, so a batch of
    # the reference must hold a multiple of 64 values to read the same words.
    block = qform.Q_BLOCK
    law = three_point()
    for n, size, batch in [(1, 2 * block + 17, 3_008), (7, 3 * block + 5, block + 64), (33, block + 999, 50_048)]:
        A = _random_sym(np.random.default_rng(n), n)
        got = qform.q_samples(A, law, mc.stream(69, n), size)
        want = _einsum_q_samples(A, law, mc.stream(69, n), size, batch)
        assert got.shape == (size,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _row_blocked_q_samples(A, law, rng, size):
    # The row-blocked loop q_samples ran before multilinear_form took it over,
    # on one whole draw of the size x n law values.
    M = qform.symmetrize(A)
    n = M.shape[0]
    shift = law.moments().mu[2] * float(np.trace(M))
    out = np.empty(size)
    X = law.sample(rng, size * n).reshape(size, n)
    for lo in range(0, size, qform.Q_BLOCK):
        Xb = X[lo : lo + qform.Q_BLOCK]
        Y = Xb @ M
        Y *= Xb
        out[lo : lo + Xb.shape[0]] = Y.sum(axis=1) - shift
    return out


def test_q_samples_are_bit_identical_to_the_row_blocked_loop():
    # Blocked draws equal one whole law.sample, for dyadic laws (packed) and
    # for a non-dyadic one (a uniform per value).
    block = qform.Q_BLOCK
    non_dyadic = Distribution.finite([(-1.0, 0.3), (0.0, 0.5), (1.5, 0.2)]).centered()
    for law in (three_point(), ASYM.centered(), non_dyadic):
        for n, size in [(1, block + 3), (5, 2 * block + 17), (40, block + 999)]:
            A = _random_sym(np.random.default_rng(n), n)
            rng, ref = mc.stream(70, n), mc.stream(70, n)
            got = qform.q_samples(A, law, rng, size)
            assert np.array_equal(got, _row_blocked_q_samples(A, law, ref, size))
            assert np.array_equal(rng.random(4), ref.random(4))


def test_q_samples_hold_one_block_of_draws():
    # One reused Q_BLOCK x n buffer plus the output, whatever the size; a
    # whole-batch draw of the 50 000 x 128 law values held 51 MB.
    n, size = 128, 50_000
    A = _random_sym(np.random.default_rng(71), n)
    tracemalloc.start()
    try:
        qform.q_samples(A, three_point(), mc.stream(71, 0), size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * qform.Q_BLOCK * n + 8 * size


def _float64_q_samples(A, law, rng, size):
    # q_samples' float64 path, whatever the inputs: the same draws and blocks,
    # through the evaluator as imported, which _q_samples_dtypes leaves alone.
    shift = law.moments().mu[2] * float(np.trace(A))
    evaluate = functools.partial(_MULTILINEAR_FORM, A)
    out = draw_rows(rng, law.cdf_array(), law.values_array(), A.shape[0], size, qform.Q_BLOCK, evaluate)
    out -= shift
    return out


def _q_samples_dtypes(monkeypatch):
    # The dtypes q_samples hands multilinear_form, one entry per block.
    seen = []
    evaluate = qform.multilinear_form

    def recorded(W, X, coef=None):
        seen.append((W.dtype, X.dtype))
        return evaluate(W, X, coef)

    monkeypatch.setattr(qform, "multilinear_form", recorded)
    return seen


def _integer_sym(rng, n, top):
    A = rng.integers(-top, top + 1, size=(n, n)).astype(float)
    return np.triu(A) + np.triu(A, 1).T


def test_q_samples_in_float32_equal_the_float64_twin(monkeypatch):
    # Integer matrices, diagonals included, under three integer laws: the
    # blocks run in float32 and every draw is the float64 path's bit for bit,
    # generator end state included.
    seen = _q_samples_dtypes(monkeypatch)
    block = qform.Q_BLOCK
    for law in (Distribution.rademacher(), three_point(), ASYM.centered()):
        for n, size, top in [(1, block + 3, 7), (7, 2 * block + 17, 5), (40, block + 999, 3), (128, 300, 1)]:
            A = _integer_sym(np.random.default_rng(n), n, top)
            rng, ref = mc.stream(73, n), mc.stream(73, n)
            seen.clear()
            got = qform.q_samples(A, law, rng, size)
            assert seen and all(dtypes == (np.float32, np.float32) for dtypes in seen)
            assert np.array_equal(got, _float64_q_samples(A, law, ref, size)), (law.values, n)
            assert np.array_equal(rng.random(4), ref.random(4))


def test_q_samples_leave_float32_at_the_exactness_bound(monkeypatch):
    # n^2 max|a_ij| V^2 < 2^24 at n = 8 under Rademacher: 64 (2^18 - 1) is
    # below it and 64 * 2^18 = 2^24 is not; under {-1, 0, 2} the cut is
    # max|a_ij| < 2^16. A non-integer matrix or law runs in float64 whatever
    # its size.
    seen = _q_samples_dtypes(monkeypatch)
    n = 8
    pattern = _integer_sym(np.random.default_rng(74), n, 1)
    pattern[0, 0] = 1.0
    half_law = Distribution.finite([(-0.5, 0.5), (0.5, 0.5)])
    cases = [
        (pattern * (2**18 - 1), Distribution.rademacher(), np.float32),
        (pattern * 2**18, Distribution.rademacher(), np.float64),
        (pattern * 0.5, Distribution.rademacher(), np.float64),
        (pattern, half_law, np.float64),
        (pattern * (2**16 - 1), ASYM.centered(), np.float32),  # V = 2: 64 (2^16 - 1) 4 < 2^24
        (pattern * 2**16, ASYM.centered(), np.float64),
    ]
    for A, law, dtype in cases:
        rng, ref = mc.stream(74, 0), mc.stream(74, 0)
        seen.clear()
        got = qform.q_samples(A, law, rng, 5_000)
        assert {d for pair in seen for d in pair} == {np.dtype(dtype)}, (float(np.max(A)), law.values)
        assert np.array_equal(got, _float64_q_samples(A, law, ref, 5_000))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 9),
    top=st.integers(0, 4),
    atoms=st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 7), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_q_samples_of_integer_inputs_match_the_float64_path(n, top, atoms, weights, seed):
    # Any small integer matrix under any integer law, dyadic or not, centred
    # or not: float32 blocks and the float64 path give the same draws.
    A = _integer_sym(np.random.default_rng(seed), n, top)
    total = sum(weights[: len(atoms)])
    law = Distribution.finite([(a, w / total) for a, w in zip(atoms, weights)])
    size = 2 * qform.Q_BLOCK + 5
    got = qform.q_samples(A, law, mc.stream(seed, 1), size)
    assert np.array_equal(got, _float64_q_samples(A, law, mc.stream(seed, 1), size))


def test_q_samples_of_integer_inputs_hold_one_float32_block():
    # A float32 block of draws and its product (4·Q_BLOCK·n bytes each) and
    # a dyadic law's intp index, beside the output: about half the float64
    # path's bound in test_q_samples_hold_one_block_of_draws.
    n, size = 128, 50_000
    A = _integer_sym(np.random.default_rng(75), n, 1)
    tracemalloc.start()
    try:
        qform.q_samples(A, three_point(), mc.stream(75, 0), size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 4 * qform.Q_BLOCK * n + 8 * size


def _meshgrid_q_functional(A, law):
    # The whole-grid evaluation q_functional replaced: one |Omega| x n array.
    M = qform.symmetrize(A)
    n = M.shape[0]
    space = OutcomeSpace.iid(law, n)
    pts = np.stack(np.meshgrid(*space.values, indexing="ij"), axis=-1).reshape(space.size, n)
    return np.einsum("oi,ij,oj->o", pts, M, pts) - law.moments().mu[2] * float(np.trace(M))


FOUR_ATOM = Distribution.finite([(-2.0, 0.1), (-0.5, 0.4), (1.0, 0.3), (1.5, 0.2)]).centered()


@pytest.mark.parametrize("law", [Distribution.rademacher(), three_point(), ASYM.centered(), FOUR_ATOM],
                         ids=["rademacher", "three-point", "asym", "four-atom"])
def test_q_functional_matches_the_meshgrid_twin(law):
    rng = np.random.default_rng(71)
    for n in (1, 2, 5, 7):
        A = _random_sym(rng, n, zero_diag=(n == 5))
        got = qform.q_functional(A, law).values
        want = _meshgrid_q_functional(A, law)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_q_functional_holds_the_grid_plus_one_block():
    # Rademacher n = 16: the values take 8·|Omega| bytes; a |Omega| x n array
    # would take n times that. One block holds a few Q_BLOCK x n arrays.
    n = 16
    A = _random_sym(np.random.default_rng(72), n)
    law = Distribution.rademacher()
    tracemalloc.start()
    try:
        X = qform.q_functional(A, law)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.values.size == 2**n
    assert peak <= 8 * 2**n + 6 * 8 * qform.Q_BLOCK * n
    assert peak < 8 * 2**n * n


def test_multilinear_form_feature_rows_and_orders():
    # Every order against an explicit contraction; feature rows against the
    # tensor contracted with each slot's own vector.
    rng = np.random.default_rng(73)
    for d in (1, 2, 3, 4):
        n = 5
        W = rng.standard_normal((n,) * d)
        X = rng.standard_normal((37, n))
        want = [np.einsum(W, list(range(d)), *itertools.chain(*[(x, [k]) for k in range(d)]), []) for x in X]
        assert np.allclose(qform.multilinear_form(W, X), want, rtol=1e-13, atol=1e-13)
        F = rng.standard_normal((37, 3, n))
        coef = rng.standard_normal((3,) * d)
        want = [
            sum(
                coef[a] * np.einsum(W, list(range(d)), *itertools.chain(*[(f[a[k]], [k]) for k in range(d)]), [])
                for a in itertools.product(range(3), repeat=d)
            )
            for f in F
        ]
        assert np.allclose(qform.multilinear_form(W, F, coef), want, rtol=1e-12, atol=1e-12)


def test_q_functional_requires_centered_law():
    shifted = Distribution.finite([(0.0, 0.5), (1.0, 0.5)])
    from kolbounds.errors import DomainError

    with pytest.raises(DomainError):
        qform.q_functional(np.eye(2), shifted)
