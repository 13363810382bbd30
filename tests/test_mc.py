"""Distances, the normal CDF, Philox streams, chunked drawing."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from kolbounds import mc, qform
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import InputError
from kolbounds.space import OutcomeSpace


def _exact_reference(X):
    # Independent tiny implementation of the same supremum: walk the atoms
    # and compare both one-sided gaps at each jump.
    probs = X.space.joint_probs.reshape(-1)
    pairs = sorted(zip(X.values.tolist(), probs.tolist()))
    merged = {}
    for v, pr in pairs:
        merged[v] = merged.get(v, 0.0) + pr
    best = 0.0
    running = 0.0
    for v in sorted(merged):
        phi = mc.normal_cdf(v)
        best = max(best, abs(phi - running))
        running += merged[v]
        best = max(best, abs(running - phi))
    return best


def test_exact_kdist_single_symmetric_atom_pair():
    # F jumps from 0 to 1/2 at -1 and to 1 at +1; the sup is attained at the
    # jump and equals Phi(1) - 1/2.
    space = OutcomeSpace.iid(Distribution.rademacher(), 1)
    X = space.functional(np.array([-1.0, 1.0]))
    report = mc.exact_kdist(X)
    assert report.method == "exact"
    assert report.value == pytest.approx(0.3413447460685429, abs=1e-12)


def test_exact_kdist_constant_functional():
    space = OutcomeSpace.iid(Distribution.rademacher(), 1)
    X = space.functional(np.array([0.0, 0.0]))
    assert mc.exact_kdist(X).value == pytest.approx(0.5, abs=1e-15)


def test_exact_kdist_matches_reference_scan():
    rng = np.random.default_rng(91)
    for law in (three_point(), Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])):
        space = OutcomeSpace.iid(law, 3)
        for _ in range(4):
            grid = rng.standard_normal(space.shape)
            X = space.functional(grid).centered()
            assert mc.exact_kdist(X).value == pytest.approx(_exact_reference(X), abs=1e-13)


def test_exact_kdist_reads_a_stack_in_chunks_of_stack_cap_outcomes(monkeypatch):
    # At Rademacher n = 18 one functional fills space.STACK_CAP, so a stack
    # of three is three chunks, each dropped before the next: the stack
    # peaks as one functional does (8 grids of 8 |Omega| bytes measured),
    # where holding every functional's atoms and cdf to the end peaked at 14.
    space = OutcomeSpace.iid(Distribution.rademacher(), 18)
    rng = np.random.default_rng(92)
    Xs = [space.functional(rng.standard_normal(space.size)) for _ in range(3)]
    alone = [mc.exact_kdist(X).value for X in Xs]
    peaks = []
    for stack in (Xs[:1], Xs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reports = mc.exact_kdist(stack)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert [r.value for r in reports] == alone
    assert peaks[1] <= 1.05 * peaks[0] <= 9 * 8 * space.size
    # Chunks of whole functionals, at most STACK_CAP outcomes each, with one
    # normal_cdf call per chunk.
    small = OutcomeSpace.iid(three_point(), 3)
    Ys = [small.functional(rng.standard_normal(small.shape)) for _ in range(7)]
    calls = []
    normal_cdf = mc.normal_cdf
    monkeypatch.setattr(mc, "normal_cdf", lambda x: calls.append(x.size) or normal_cdf(x))
    monkeypatch.setattr("kolbounds.space.STACK_CAP", 3 * small.size + 1)
    assert [r.value for r in mc.exact_kdist(Ys)] == [mc.exact_kdist(Y).value for Y in Ys]
    assert len(calls) == 3 + 7


def test_normal_cdf_against_quadrature():
    xs = np.linspace(-6.0, 6.0, 25)
    grid = np.linspace(-12.0, 0.0, 400_001)
    dens = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    base = np.trapezoid(dens, grid)
    for x in xs:
        g = np.linspace(-12.0, float(x), 400_001)
        d = np.exp(-g * g / 2.0) / math.sqrt(2.0 * math.pi)
        want = np.trapezoid(d, g) + (0.0 if x <= 0 else 0.0)
        got = mc.normal_cdf(float(x))
        assert abs(got - want) < 1e-10
    assert abs(mc.normal_cdf(0.0) - 0.5) < 1e-15
    assert base == pytest.approx(0.5, abs=1e-10)
    arr = mc.normal_cdf(xs)
    assert arr.shape == xs.shape
    assert np.all(np.diff(arr) > 0)


def test_rational_is_polyval_bit_for_bit():
    # Horner from the leading coefficient repeats np.polyval's operations
    # (its zeros_like start only adds 0 * z), on each range normal_cdf uses
    # and beyond it, with signed zeros and an empty array.
    rng = np.random.default_rng(56)
    zs = np.concatenate([rng.uniform(-30.0, 30.0, 20_000), np.geomspace(1e-300, 1e300, 2_000), [0.0, -0.0]])
    for coeffs in (mc._ERF, mc._ERFC, mc._TAIL):
        for z in (zs, zs[:1], zs[:0]):
            with np.errstate(over="ignore", invalid="ignore"):
                want = np.polyval(coeffs[0], z) / np.polyval(coeffs[1], z)
                got = mc._rational(z, coeffs)
            assert got.tobytes() == want.tobytes()


def test_normal_cdf_matches_scipy_ndtr():
    # A dense grid, signed zeros, infinities and both sides of each range
    # boundary of the rational erfc (|x| / sqrt 2 = 0.46875, 4, 26.543).
    from scipy.special import ndtr

    edges = np.sqrt(2.0) * np.array([0.46875, 4.0, 26.543])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    xs = np.concatenate([np.linspace(-40.0, 40.0, 800_001), edges, -edges, [0.0, -0.0, np.inf, -np.inf]])
    got = mc.normal_cdf(xs)
    assert got.shape == xs.shape
    assert np.max(np.abs(got - ndtr(xs))) <= 1e-15
    assert list(mc.normal_cdf(np.array([-np.inf, np.inf]))) == [0.0, 1.0]
    assert np.isnan(mc.normal_cdf(np.array([np.nan]))).all()
    # Scalars and 0-d arrays go through the same arithmetic and come back as floats.
    for x in (-3.7, 0.25, 5.5):
        assert isinstance(mc.normal_cdf(x), float)
        assert mc.normal_cdf(x) == mc.normal_cdf(np.array([x]))[0] == mc.normal_cdf(np.float64(x))
    assert mc.normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def test_empirical_kdist_dkw_radius_and_guards():
    draws = mc.stream(92, 0).standard_normal(100_000)
    rep = mc.empirical_kdist(draws, delta=0.01, seed=(92, 0))
    assert rep.dkw_radius == pytest.approx(math.sqrt(math.log(200.0) / 200_000.0), rel=1e-13)
    assert rep.dkw_radius == pytest.approx(0.005147, abs=5e-7)
    # True normals: the statistic should sit well inside the DKW band.
    assert rep.value < rep.dkw_radius
    assert rep.to_json()["seed"] == [92, 0]
    with pytest.raises(InputError):
        mc.empirical_kdist(np.array([]))
    with pytest.raises(InputError):
        mc.empirical_kdist(draws[:10], delta=1.5)


@pytest.mark.parametrize(
    "law",
    [Distribution.rademacher(), three_point(), Distribution.finite([(-1.0, 0.3), (0.0, 0.5), (1.5, 0.2)]).centered()],
    ids=["rademacher", "three-point", "non-dyadic"],
)
def test_empirical_kdist_matches_scipy_kstest(law):
    # An independent oracle for the statistic: scipy's one-sample KS test
    # against the normal, on standardized sums of packed Rademacher or
    # three-point draws and of one law that takes a uniform per value, and on
    # the raw draws themselves, whose ties test the scan at the jumps.
    from scipy.stats import kstest

    k, size = 9, 40_000
    draws = law.sample(mc.stream(99, law.n_atoms), (size, k))
    sums = draws.sum(axis=1) / math.sqrt(k * law.moments().mu[2])
    for x in (sums, draws[:, 0]):
        assert mc.empirical_kdist(x).value == pytest.approx(kstest(x, "norm").statistic, abs=1e-12)


def test_empirical_kdist_known_small_sample():
    # Two points at 0: F_n jumps to 1 there while Phi(0) = 1/2.
    rep = mc.empirical_kdist(np.array([0.0, 0.0]), delta=0.5)
    assert rep.value == pytest.approx(0.5, abs=1e-15)


def test_streams_are_reproducible_and_independent():
    a = mc.stream(93, 0).random(8)
    b = mc.stream(93, 0).random(8)
    c = mc.stream(93, 1).random(8)
    d = mc.stream(94, 0).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# Offsets 0-9, around whole 4-value buffers, and one n = 80 graph batch (b·m).
JUMPS = [*range(10), 4 * 25 - 1, 4 * 25, 4 * 25 + 1, 2_000 * (80 * 79 // 2)]


@pytest.mark.parametrize("used", range(4))
def test_jump_ahead_equals_draw_and_discard(used):
    # used uniforms leave buffer_pos at used (0 reads as a fresh, empty buffer).
    for k in JUMPS:
        rng, ref = mc.stream(95, used), mc.stream(95, used)
        rng.random(used + 4)
        ref.random(used + 4)
        before = rng.bit_generator.state
        assert before["buffer_pos"] == (used if used else 4)
        ahead = mc.jump_ahead(rng, k)
        after = rng.bit_generator.state
        assert after["buffer_pos"] == before["buffer_pos"]
        assert np.array_equal(after["state"]["counter"], before["state"]["counter"])
        assert np.array_equal(after["buffer"], before["buffer"])
        for lo in range(0, k, 1 << 20):  # draw and discard, 8 MiB at a time
            ref.random(min(1 << 20, k - lo))
        assert np.array_equal(ahead.random(11), ref.random(11)), k
        assert np.array_equal(rng.random(3), mc.stream(95, used).random(used + 7)[-3:])


def test_jump_ahead_keeps_the_cached_half_word_and_refuses_other_generators():
    rng, ref = mc.stream(96, 0), mc.stream(96, 0)
    rng.integers(0, 10, dtype=np.uint32)
    ref.integers(0, 10, dtype=np.uint32)
    ahead = mc.jump_ahead(rng, 6)
    ref.random(6)
    assert np.array_equal(ahead.integers(0, 1 << 31, 5, dtype=np.uint32), ref.integers(0, 1 << 31, 5, dtype=np.uint32))
    with pytest.raises(InputError):
        mc.jump_ahead(np.random.Generator(np.random.PCG64(0)), 4)
    with pytest.raises(InputError):
        mc.jump_ahead(rng, -1)


def test_chunked_draws_do_not_depend_on_worker_count(monkeypatch):
    law = three_point()
    A = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])

    def draw(rng, size):
        return qform.q_samples(A, law, rng, size)

    monkeypatch.delenv(mc.WORKERS_ENV, raising=False)
    serial = mc.chunked_draws(draw, 120_001, seed=95, chunk=25_000)
    monkeypatch.setenv(mc.WORKERS_ENV, "4")
    threaded = mc.chunked_draws(draw, 120_001, seed=95, chunk=25_000)
    assert np.array_equal(serial, threaded)
    # Chunk i is pinned to stream(seed, i) regardless of layout.
    head = draw(mc.stream(95, 0), 25_000)
    assert np.array_equal(serial[:25_000], head)


def test_chunked_draws_edges_and_guards(monkeypatch):
    def draw(rng, size):
        return rng.random(size)

    assert mc.chunked_draws(draw, 0, seed=1).size == 0
    with pytest.raises(InputError):
        mc.chunked_draws(draw, -1, seed=1)
    with pytest.raises(InputError):
        mc.chunked_draws(draw, 10, seed=1, chunk=0)
    monkeypatch.setenv(mc.WORKERS_ENV, "zero")
    with pytest.raises(InputError):
        mc.worker_count()
    monkeypatch.setenv(mc.WORKERS_ENV, "-2")
    with pytest.raises(InputError):
        mc.worker_count()
    monkeypatch.setenv(mc.WORKERS_ENV, "")
    assert mc.worker_count() == 1


def test_pooled_rows_match_serial_chunked_draws(monkeypatch):
    # Rows of several lengths, with an empty row and rows of one short chunk,
    # all equal their chunks drawn one after another from the same streams,
    # at any worker count.
    A = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]])
    law = three_point()

    def draw_q(rng, size):
        return qform.q_samples(A, law, rng, size)

    def draw_u(rng, size):
        return rng.random(size)

    rows = [(draw_q, 25_003, 0), (draw_u, 0, 10), (draw_u, 900, 20), (draw_q, 70_000, 30)]
    rows += [(draw_u, 1_000 + i, 40 + 10 * i) for i in range(7)]
    monkeypatch.delenv(mc.WORKERS_ENV, raising=False)
    serial = [
        np.concatenate(
            [d(mc.stream(96, first + i), min(10_000, total - lo)) for i, lo in enumerate(range(0, total, 10_000))]
            or [np.empty(0)]
        )
        for d, total, first in rows
    ]
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(mc.WORKERS_ENV, workers)
        pooled = list(mc.pooled_draws(rows, seed=96, chunk=10_000))
        assert len(pooled) == len(rows)
        for got, want in zip(pooled, serial):
            assert np.array_equal(got, want)
    assert serial[1].size == 0
    assert np.array_equal(serial[3][10_000:20_000], draw_q(mc.stream(96, 31), 10_000))


def test_pooled_draws_under_thread_switch_stress(monkeypatch):
    # More workers than cores, a tiny switch interval and many small chunks
    # of rows of uneven length: a chunk written to the wrong row or slice,
    # or a row yielded before its last chunk, would break the equality.
    def draw(rng, size):
        return rng.random(size) + size

    rows = [(draw, 37 * (i % 5), 1_000 * i) for i in range(60)]
    monkeypatch.setenv(mc.WORKERS_ENV, "1")
    serial = list(mc.pooled_draws(rows, seed=98, chunk=16))
    monkeypatch.setenv(mc.WORKERS_ENV, "5")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            pooled = list(mc.pooled_draws(rows, seed=98, chunk=16))
            assert len(pooled) == len(serial)
            assert all(np.array_equal(a, b) for a, b in zip(pooled, serial))
    finally:
        sys.setswitchinterval(interval)


def test_pooled_draws_raise_a_failed_chunk(monkeypatch):
    def draw(rng, size):
        if size == 7:
            raise InputError("chunk failed")
        return rng.random(size)

    monkeypatch.setenv(mc.WORKERS_ENV, "2")
    rows = [(draw, 20, 0), (draw, 27, 10), (draw, 20, 20)]
    pooled = mc.pooled_draws(rows, seed=97, chunk=10)
    assert next(pooled).size == 20
    with pytest.raises(InputError, match="chunk failed"):
        next(pooled)
    with pytest.raises(InputError):
        list(mc.pooled_draws([(draw, -1, 0)], seed=97))
