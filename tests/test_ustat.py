"""Weighted degenerate U-statistics: tensors, kernels, variance, rate."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draw_oracles import oracle_draw
from kolbounds import chaos, dist, mc, qform, ustat
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DegenerateError, DomainError, InputError


def _zero_diag_sym(rng, n):
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 0.0)
    return A


def _pair_weight_k3():
    return ustat.WeightTensor(
        np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    )


# -------------------------------------------------------------- weight tensor


def test_weight_tensor_rejects_bad_tables():
    with pytest.raises(InputError):
        ustat.WeightTensor(np.zeros((2, 3)))
    with pytest.raises(InputError):
        ustat.WeightTensor(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InputError):
        ustat.WeightTensor(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_weight_tensor_sums():
    w = _pair_weight_k3()
    assert w.total_sq_sum() == pytest.approx(6.0)
    assert w.sorted_sq_sum() == pytest.approx(3.0)


def test_weight_factor_complete_triangle():
    # For the all-ones pair weight on three points: Tr W^4 = 18 and the
    # squared sum is 6, so the factor is sqrt(18)/6 = 1/sqrt(2).
    w = _pair_weight_k3()
    assert w.weight_factor() == pytest.approx(math.sqrt(18.0) / 6.0, rel=1e-14)
    assert w.weight_factor() == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_pair_contraction_is_the_trace_of_the_fourth_power():
    rng = np.random.default_rng(71)
    A = _zero_diag_sym(rng, 6)
    w = ustat.WeightTensor(A)
    tr4 = float(np.trace(np.linalg.matrix_power(A, 4)))
    assert w.contraction_sq(1) == pytest.approx(tr4, rel=1e-12)
    with pytest.raises(DomainError):
        w.contraction_sq(0)
    with pytest.raises(DomainError):
        w.contraction_sq(2)


def _tensordot_contraction_sq(w, l):
    # The full n^(d-l) x n^(d-l) contraction the Gram form replaced.
    axes = list(range(w.order - l, w.order))
    M = np.tensordot(w.table, w.table, axes=(axes, axes))
    return float(np.sum(M * M))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_contraction_sq_matches_the_tensordot_form(d):
    w = _sym_weights(np.random.default_rng(73 + d), 7, d)
    for l in range(1, d):
        assert w.contraction_sq(l) == pytest.approx(_tensordot_contraction_sq(w, l), rel=1e-12)


def test_contraction_sq_holds_only_the_smaller_gram():
    # n = 40, d = 3: the tensordot form built a 1 600 x 1 600 matrix (20 MB);
    # the Gram form holds a 40 x 40 one beside the table.
    w = _sym_weights(np.random.default_rng(74), 40, 3)
    tracemalloc.start()
    try:
        for l in (1, 2):
            w.contraction_sq(l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_weight_factor_guards():
    with pytest.raises(DomainError):
        ustat.WeightTensor(np.array([1.0, 2.0])).weight_factor()
    with pytest.raises(DegenerateError):
        ustat.WeightTensor(np.zeros((3, 3))).weight_factor()


def test_weight_json_roundtrip():
    w = ustat.WeightTensor.from_json(
        {
            "n": 4,
            "order": 3,
            "entries": [
                {"subset": [0, 1, 2], "value": 2.0},
                {"subset": [1, 2, 3], "value": -0.5},
            ],
        }
    )
    assert w.order == 3
    assert w.table[0, 1, 2] == 2.0
    assert w.table[2, 1, 0] == 2.0
    back = ustat.WeightTensor.from_json(w.to_json())
    assert np.array_equal(back.table, w.table)


def test_weight_json_rejections():
    with pytest.raises(InputError):
        ustat.WeightTensor.from_json([1, 2])
    with pytest.raises(InputError):
        ustat.WeightTensor.from_json({"n": 3, "order": 2, "entries": [{"subset": [0, 0], "value": 1.0}]})
    with pytest.raises(InputError):
        ustat.WeightTensor.from_json({"n": 3, "order": 2, "entries": [{"subset": [0, 5], "value": 1.0}]})
    with pytest.raises(InputError):
        ustat.WeightTensor.from_json({"n": 2, "order": 3, "entries": []})


def _loop_from_json(obj):
    # The per-entry permutation walk from_json replaced.
    T = np.zeros((obj["n"],) * obj["order"])
    for ent in obj["entries"]:
        for perm in itertools.permutations(ent["subset"]):
            T[perm] = float(ent["value"])
    return T


def test_weight_json_repeated_subset_keeps_the_last_entry():
    obj = {
        "n": 4,
        "order": 3,
        "entries": [
            {"subset": [0, 1, 2], "value": 1.0},
            {"subset": [1, 2, 3], "value": 4.0},
            {"subset": [2, 0, 1], "value": -3.0},
        ],
    }
    w = ustat.WeightTensor.from_json(obj)
    for perm in itertools.permutations([0, 1, 2]):
        assert w.table[perm] == -3.0
    assert w.table[3, 2, 1] == 4.0
    assert np.array_equal(w.table, _loop_from_json(obj))
    rng = np.random.default_rng(83)
    for n, d in [(5, 1), (6, 2), (7, 3), (6, 4)]:
        subsets = [rng.permutation(n)[:d].tolist() for _ in range(40)]
        obj = {"n": n, "order": d, "entries": [{"subset": s, "value": float(rng.standard_normal())} for s in subsets]}
        assert np.array_equal(ustat.WeightTensor.from_json(obj).table, _loop_from_json(obj))


def test_weight_json_messages_name_the_first_bad_subset():
    def refusal(subsets):
        obj = {"n": 4, "order": 3, "entries": [{"subset": s, "value": 1.0} for s in subsets]}
        with pytest.raises(InputError) as exc:
            ustat.WeightTensor.from_json(obj)
        return str(exc.value)

    assert refusal([[0, 1, 2], [1, 3, 1], [0, 1, 7]]) == "weight subset [1, 3, 1] must hold 3 distinct indices"
    assert refusal([[0, 1, 2], [0, 9, 1], [2, 2, 1]]) == "weight subset [0, 9, 1] out of range for n=4"
    assert refusal([[0, 1, 2], [-1, 2, 3]]) == "weight subset [-1, 2, 3] out of range for n=4"
    assert refusal([[0, 1, 2], [0, 10**30, 1]]) == f"weight subset [0, {10**30}, 1] out of range for n=4"
    assert refusal([[0, 1]]) == "weight subset [0, 1] must hold 3 distinct indices"


def test_weight_load(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"n": 3, "order": 2, "entries": [{"subset": [0, 2], "value": 1.5}]}))
    w = ustat.WeightTensor.load(str(path))
    assert w.table[2, 0] == 1.5


# -------------------------------------------------------------------- kernels


def test_product_kernel_needs_centered_law():
    with pytest.raises(DomainError):
        ustat.UKernel.product(Distribution.finite([(0.0, 0.5), (1.0, 0.5)]), 2)


def test_product_kernel_moments():
    law = three_point()
    g = ustat.UKernel.product(law, 2)
    m = law.moments()
    assert g.l2_sq() == pytest.approx(m.mu[2] ** 2, rel=1e-14)
    assert g.l4_norm_sq() == pytest.approx(m.mu[4], rel=1e-14)


def test_uncentered_kernel_rejected_then_fixed_by_canonical():
    law = Distribution.rademacher()
    v = law.values_array()
    table = np.multiply.outer(v, v) + v[:, None]
    with pytest.raises(DomainError, match="canonical"):
        ustat.UKernel(law, table)
    fixed = ustat.UKernel(law, table, raw=True).canonical()
    assert fixed.slot_mean_max() < 1e-12
    # Removing the non-degenerate part can only shrink the second moment.
    assert fixed.l2_sq() <= ustat.UKernel(law, table, raw=True).l2_sq() + 1e-12


def test_kernel_json_roundtrip_and_shape_guard():
    law = three_point()
    g = ustat.UKernel.product(law, 2)
    obj = {"law": law.to_json(), "order": 2, "array": g.table.ravel().tolist()}
    back = ustat.UKernel.from_json(obj)
    assert np.allclose(back.table, g.table)
    with pytest.raises(InputError):
        ustat.UKernel.from_json({"law": law.to_json(), "order": 2, "array": [1.0, 2.0]})


# ----------------------------------------------------- variance, rate, draws


def test_variance_matches_enumeration():
    rng = np.random.default_rng(72)
    for law in (Distribution.rademacher(), three_point()):
        g2 = ustat.UKernel.product(law, 2)
        for _ in range(3):
            w = ustat.WeightTensor(_zero_diag_sym(rng, 5))
            U = ustat.ustat_functional(w, g2)
            assert ustat.ustat_variance(w, g2) == pytest.approx(U.variance(), rel=1e-11)


def test_variance_matches_enumeration_order_three():
    law = Distribution.rademacher()
    g3 = ustat.UKernel.product(law, 3)
    w = ustat.WeightTensor.from_json(
        {
            "n": 5,
            "order": 3,
            "entries": [
                {"subset": [0, 1, 2], "value": 1.0},
                {"subset": [0, 1, 3], "value": -2.0},
                {"subset": [2, 3, 4], "value": 0.5},
            ],
        }
    )
    U = ustat.ustat_functional(w, g3)
    assert ustat.ustat_variance(w, g3) == pytest.approx(U.variance(), rel=1e-11)


def test_functional_sits_in_the_top_grade():
    law = three_point()
    g = ustat.UKernel.product(law, 2)
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(73), 4))
    assert sorted(chaos.decompose(ustat.ustat_functional(w, g)).kernels) == [2]


def test_pair_rate_is_twice_the_quadratic_form_rate():
    # For the product pair kernel the U-statistic is the off-diagonal
    # quadratic form divided by binom(n, 2), so the two rate formulas see
    # the same matrix; the factor 2 is the normalization of sigma^2.
    rng = np.random.default_rng(74)
    for law in (Distribution.rademacher(), three_point()):
        m = law.moments()
        g = ustat.UKernel.product(law, 2)
        for _ in range(4):
            A = _zero_diag_sym(rng, 7)
            w = ustat.WeightTensor(A)
            r_u = ustat.ustat_rate(w, g)
            r_q = qform.bound_r2(qform.analyze(A, m))
            assert r_u == pytest.approx(2.0 * r_q, rel=1e-12)


def test_rate_guards():
    law = three_point()
    with pytest.raises(DomainError):
        ustat.ustat_rate(ustat.WeightTensor(np.array([1.0, 0.5])), ustat.UKernel.product(law, 1))
    with pytest.raises(InputError):
        ustat.ustat_rate(_pair_weight_k3(), ustat.UKernel.product(law, 3))


def test_sample_moments_agree_with_enumeration():
    law = three_point()
    g = ustat.UKernel.product(law, 2)
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(75), 6))
    exact_var = ustat.ustat_variance(w, g)
    draws = ustat.ustat_sample(w, g, mc.stream(75, 0), 120_000)
    assert draws.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(exact_var / draws.size))
    assert draws.var() == pytest.approx(exact_var, rel=0.05)


# ------------------------------------------- subset-loop twins of the evaluator

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)]).centered()
FOUR_ATOM = Distribution.finite([(-2.0, 0.1), (-0.5, 0.4), (1.0, 0.3), (1.5, 0.2)]).centered()
LAWS = {"rademacher": Distribution.rademacher(), "three-point": three_point(), "asym": ASYM, "four-atom": FOUR_ATOM}


def _sym_weights(rng, n, d):
    # A random symmetric, diagonal-free order-d tensor (one weight per subset).
    T = np.zeros((n,) * d)
    for sub in itertools.combinations(range(n), d):
        val = rng.standard_normal()
        for perm in itertools.permutations(sub):
            T[perm] = val
    return ustat.WeightTensor(T)


def _kernels(law, d, rng):
    raw = ustat.UKernel(law, rng.standard_normal((law.n_atoms,) * d), raw=True)
    return {"product": ustat.UKernel.product(law, d), "canonical": raw.canonical()}


def _loop_sums(w, g, codes):
    # The subset loop ustat_sample ran: one gather per weighted subset.
    acc = np.zeros(codes.shape[0])
    for sub in itertools.combinations(range(w.n), w.order):
        wv = float(w.table[sub])
        if wv != 0.0:
            acc += wv * g.table[tuple(codes[:, k] for k in sub)]
    return acc


def _loop_ustat_sample(w, g, rng, size, batch):
    cdf = g.law.cdf_array()
    atoms = np.arange(g.law.n_atoms)
    out = []
    for lo in range(0, size, batch):
        b = min(batch, size - lo)
        codes = dist.draw_atoms(rng, cdf, atoms, np.empty((b, w.n), dtype=atoms.dtype))
        out.append(_loop_sums(w, g, codes) / math.comb(w.n, w.order))
    return np.concatenate(out) if out else np.empty(0)


def _loop_ustat_functional(w, g):
    # The grid sum ustat_functional ran: one broadcast kernel per subset.
    n, m = w.n, g.law.n_atoms
    total = np.zeros((m,) * n)
    for sub in itertools.combinations(range(n), w.order):
        wv = float(w.table[sub])
        if wv != 0.0:
            total += wv * g.table.reshape(tuple(m if k in sub else 1 for k in range(n)))
    return total.reshape(-1) / math.comb(n, w.order)


def _assert_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("law_name", list(LAWS))
def test_evaluator_matches_the_subset_loops(law_name, d):
    law = LAWS[law_name]
    rng = np.random.default_rng(100 + d)
    n = 6 if law.n_atoms < 4 else 5
    w = _sym_weights(rng, n, d)
    for kind, g in _kernels(law, d, rng).items():
        _assert_close(ustat.ustat_functional(w, g).values, _loop_ustat_functional(w, g), 1e-12)
        # 2 500 draws in batches of 1 000: the last batch is short, and at
        # d = 4 one batch spans several evaluator blocks.
        got = ustat.ustat_sample(w, g, mc.stream(77, d), 2_500, batch=1_000)
        _assert_close(got, _loop_ustat_sample(w, g, mc.stream(77, d), 2_500, 1_000), 1e-12)
        if kind == "product":
            # The same table without its factor takes the one-hot atom path.
            plain = ustat.UKernel(law, g.table)
            assert plain.factor is None
            _assert_close(ustat.ustat_functional(w, plain).values, ustat.ustat_functional(w, g).values, 1e-12)


def test_order_three_draws_across_many_blocks_match_the_loop():
    # n = 30, d = 3 is the benchmarked shape: 1 000 draws span several blocks
    # of the value form, and 300 several blocks of the one-hot form.
    w = _sym_weights(np.random.default_rng(82), 30, 3)
    kernels = _kernels(ASYM, 3, np.random.default_rng(82))
    for g, size in ((kernels["product"], 1_000), (kernels["canonical"], 300)):
        got = ustat.ustat_sample(w, g, mc.stream(82, 0), size)
        _assert_close(got, _loop_ustat_sample(w, g, mc.stream(82, 0), size, 20_000), 1e-12)


def test_asymmetric_kernels_keep_the_increasing_slot_order():
    # g(a, b) != g(b, a): the sum runs over k1 < k2 with X_k1 in the first slot.
    law = ASYM
    table = np.array([[0.0, 1.0, -2.0], [0.5, 0.0, 3.0], [-1.0, 0.25, 0.0]])
    g = ustat.UKernel(law, table, raw=True).canonical()
    assert not np.allclose(g.table, g.table.T)
    w = _sym_weights(np.random.default_rng(78), 5, 2)
    _assert_close(ustat.ustat_functional(w, g).values, _loop_ustat_functional(w, g), 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 7),
    d=st.integers(1, 4),
    probs=st.lists(st.integers(1, 9), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluator_matches_the_subset_loops_on_random_laws(n, d, probs, seed):
    d = min(d, n)
    rng = np.random.default_rng(seed)
    values = np.sort(rng.choice(np.arange(-6, 7), size=len(probs), replace=False)) / 2.0
    law = Distribution.finite(zip(values.tolist(), (np.array(probs) / sum(probs)).tolist())).centered()
    w = _sym_weights(rng, n, d)
    for g in _kernels(law, d, rng).values():
        if law.n_atoms**n <= 4096:
            _assert_close(ustat.ustat_functional(w, g).values, _loop_ustat_functional(w, g), 1e-12)
        got = ustat.ustat_sample(w, g, mc.stream(seed, 1), 700, batch=300)
        _assert_close(got, _loop_ustat_sample(w, g, mc.stream(seed, 1), 700, 300), 1e-12)


def test_sample_codes_match_the_whole_array_draw(monkeypatch):
    # The atoms ustat_sample draws are exactly those of one whole-array draw
    # per batch (the law is dyadic, so the plain bit-reading oracle), and the
    # generator ends in the same state. The sums are the subset loop's on
    # those codes up to round-off: the evaluator adds in another order.
    law = ASYM
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(76), 5))
    size, batch = 9_001, 4_000
    draw_atoms = dist.draw_atoms
    for g in (ustat.UKernel.product(law, 2), _kernels(law, 2, np.random.default_rng(76))["canonical"]):
        drawn = []

        def recording_draw(*args):
            drawn.append(draw_atoms(*args).copy())
            return drawn[-1]

        monkeypatch.setattr(dist, "draw_atoms", recording_draw)
        rng = mc.stream(76, 0)
        got = ustat.ustat_sample(w, g, rng, size, batch=batch)
        ref = mc.stream(76, 0)
        atoms = np.arange(law.n_atoms)
        codes = [oracle_draw(law.cdf_array(), atoms, ref, (min(batch, size - lo), w.n)) for lo in range(0, size, batch)]
        labels = g.factor if g.factor is not None else np.arange(law.n_atoms)
        assert len(drawn) == len(codes)
        assert all(np.array_equal(a, labels[c]) for a, c in zip(drawn, codes))
        assert np.array_equal(rng.random(8), ref.random(8))
        want = np.concatenate([_loop_sums(w, g, c) for c in codes]) / math.comb(w.n, 2)
        _assert_close(got, want, 1e-13)


@pytest.mark.parametrize("n", [5, 6])
def test_default_batches_draw_the_labels_of_one_whole_sample(monkeypatch, n):
    # The default batch holds a multiple of 64 labels at odd and even n, so
    # the batches read the words of one whole law.sample(rng, size * n), for
    # a dyadic law (packed) and a non-dyadic one, and the generator ends there.
    non_dyadic = Distribution.finite([(-1.0, 0.3), (0.0, 0.5), (1.5, 0.2)]).centered()
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(83), n))
    size = 2 * 20_480 + 7
    draw_atoms = dist.draw_atoms
    for law in (three_point(), non_dyadic):
        g = ustat.UKernel.product(law, 2)
        drawn = []

        def recording_draw(*args):
            drawn.append(draw_atoms(*args).copy())
            return drawn[-1]

        monkeypatch.setattr(dist, "draw_atoms", recording_draw)
        rng, ref = mc.stream(83, n), mc.stream(83, n)
        ustat.ustat_sample(w, g, rng, size)
        assert [a.shape[0] for a in drawn] == [20_480, 20_480, 7]
        assert np.array_equal(np.concatenate(drawn).reshape(-1), law.sample(ref, size * n))
        assert np.array_equal(rng.random(8), ref.random(8))


def test_sample_memory_is_the_output_one_batch_and_one_block():
    # n = 30, d = 3: the output, one batch of drawn values (8·b·n bytes),
    # draw_atoms' block and one evaluator block; the 27 000-entry tensor and
    # the C(30, 3) = 4 060 subsets are never expanded per draw.
    n, size, batch = 30, 50_000, 20_000
    w = _sym_weights(np.random.default_rng(79), n, 3)
    g = ustat.UKernel.product(three_point(), 3)
    tracemalloc.start()
    try:
        ustat.ustat_sample(w, g, mc.stream(79, 0), size, batch=batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * size + 8 * batch * n + 8 * qform._BLOCK_FLOATS + 20 * dist._DRAW_BLOCK + 16 * batch


@pytest.mark.parametrize("kind", ["product", "canonical"])
def test_functional_holds_the_grid_plus_one_block(kind):
    # Rademacher n = 16: 8·|Omega| bytes of values plus one block of outcome
    # codes, their labels or one-hot rows and the evaluator's temporaries; a
    # |Omega| x n array alone would take 8·|Omega|·n bytes.
    n = 16
    law = Distribution.rademacher()
    g = _kernels(law, 2, np.random.default_rng(80))[kind]
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(80), n))
    tracemalloc.start()
    try:
        U = ustat.ustat_functional(w, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert U.values.size == 2**n
    assert peak <= 8 * 2**n + 8 * 8 * qform.Q_BLOCK * n
    assert peak < 8 * 2**n * n


def _loop_to_json(w):
    # The per-subset walk to_json replaced.
    entries = []
    for sub in itertools.combinations(range(w.n), w.order):
        val = float(w.table[sub])
        if val != 0.0:
            entries.append({"subset": list(sub), "value": val})
    return {"n": w.n, "order": w.order, "entries": entries}


def test_weight_json_is_byte_identical_to_the_subset_walk():
    rng = np.random.default_rng(81)
    tensors = [_sym_weights(rng, n, d) for n, d in [(1, 1), (5, 1), (6, 2), (7, 3), (6, 4)]]
    sparse = _sym_weights(rng, 8, 3)
    sparse.table[np.abs(sparse.table) < 1.0] = 0.0
    tensors += [sparse, ustat.WeightTensor(np.zeros((4, 4))), ustat.WeightTensor(np.full(3, -0.0))]
    for w in tensors:
        for dump in (lambda o: json.dumps(o), lambda o: json.dumps(o, sort_keys=True, separators=(",", ":"))):
            assert dump(w.to_json()) == dump(_loop_to_json(w))
