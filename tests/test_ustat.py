"""Weighted degenerate U-statistics: tensors, kernels, variance, rate."""

import itertools
import json
import math

import numpy as np
import pytest

from kolbounds import mc, qform, ustat
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DegenerateError, DomainError, InputError
from kolbounds.hoeffding import project


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
    H = project(ustat.ustat_functional(w, g))
    assert H.orders_present() == [2]


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
    with pytest.raises(InputError):
        ustat.ustat_variance(_pair_weight_k3(), ustat.UKernel.product(law, 2), Distribution.rademacher())


def test_sample_moments_agree_with_enumeration():
    law = three_point()
    g = ustat.UKernel.product(law, 2)
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(75), 6))
    exact_var = ustat.ustat_variance(w, g)
    draws = ustat.ustat_sample(w, g, mc.stream(75, 0), 120_000)
    assert draws.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(exact_var / draws.size))
    assert draws.var() == pytest.approx(exact_var, rel=0.05)


def test_sample_codes_match_the_whole_array_draw():
    # Subset contraction over codes from the whole-array searchsorted draw,
    # the expression the blocked atom draw replaced.
    law = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)]).centered()
    g = ustat.UKernel.product(law, 2)
    w = ustat.WeightTensor(_zero_diag_sym(np.random.default_rng(76), 5))
    size, batch = 9_001, 4_000
    got = ustat.ustat_sample(w, g, mc.stream(76, 0), size, batch=batch)
    rng = mc.stream(76, 0)
    cum = np.cumsum(law.probs_array())
    cum[-1] = 1.0
    want = []
    for lo in range(0, size, batch):
        b = min(batch, size - lo)
        codes = np.searchsorted(cum, rng.random((b, w.n)), side="right")
        acc = np.zeros(b)
        for sub in itertools.combinations(range(w.n), 2):
            acc += w.table[sub] * g.table[tuple(codes[:, k] for k in sub)]
        want.append((1.0 / math.comb(w.n, 2)) * acc)
    assert np.array_equal(got, np.concatenate(want))
