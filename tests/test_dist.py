"""Laws and their exact moment tables."""

import json
import tracemalloc

import numpy as np
import pytest

from kolbounds import dist, mc
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import InputError


def test_rademacher_moments():
    m = Distribution.rademacher().moments()
    assert m.mu[0] == 1.0
    assert m.mu[1] == 0.0
    assert m.mu[2] == 1.0
    assert m.mu[3] == 0.0
    assert m.mu[4] == 1.0
    assert m.abs3 == 1.0
    # X^2 is constant, so all centered square moments vanish.
    assert m.mu_tilde4 == 0.0
    assert m.mu_tilde6 == 0.0
    assert m.mu_tilde8 == 0.0


def test_three_point_moments():
    law = three_point()
    assert law.values == (-1.0, 0.0, 1.0)
    assert law.probs == (0.25, 0.5, 0.25)
    m = law.moments()
    assert m.mu[2] == 0.5
    assert m.mu[3] == 0.0
    assert m.mu[4] == 0.5
    # X^2 is Bernoulli(1/2): E[(X^2 - 1/2)^2] = 1/4.
    assert m.mu_tilde4 == 0.25
    assert m.abs3 == 0.5


def test_asymmetric_law_moments_by_hand():
    # Atoms (-1, 1/2), (0, 1/4), (2, 1/4): centered with mu2 = 3/2,
    # mu3 = 3/2, mu4 = 9/2, E|X|^3 = 5/2, and
    # mu_tilde4 = E[(X^2 - 3/2)^2] = mu4 - mu2^2 = 9/4.
    law = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
    assert law.is_centered()
    m = law.moments()
    assert m.mu[2] == pytest.approx(1.5, abs=1e-15)
    assert m.mu[3] == pytest.approx(1.5, abs=1e-15)
    assert m.mu[4] == pytest.approx(4.5, abs=1e-15)
    assert m.abs3 == pytest.approx(2.5, abs=1e-15)
    assert m.mu_tilde4 == pytest.approx(2.25, abs=1e-14)


def test_moment_powers_match_direct_sums():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        vals = np.sort(rng.standard_normal(k))
        probs = rng.random(k) + 0.1
        probs /= probs.sum()
        law = Distribution.finite(zip(vals, probs))
        m = law.moments()
        for j in range(9):
            direct = float(np.sum(law.values_array() ** j * law.probs_array()))
            assert m.mu[j] == pytest.approx(direct, rel=1e-13, abs=1e-13)


def test_finite_merges_duplicate_atoms():
    law = Distribution.finite([(1.0, 0.25), (1.0, 0.25), (-1.0, 0.5)])
    assert law.values == (-1.0, 1.0)
    assert law.probs == (0.5, 0.5)


def test_centered_subtracts_the_mean():
    law = Distribution.finite([(0.0, 0.5), (2.0, 0.5)])
    assert not law.is_centered()
    c = law.centered()
    assert c.is_centered()
    assert c.values == (-1.0, 1.0)


def test_json_roundtrip_and_fraction_strings(tmp_path):
    law = Distribution.from_json(
        {"type": "finite", "atoms": [[-2.0, "1/3"], [1.0, "2/3"]]}
    )
    assert law.probs[0] == pytest.approx(1.0 / 3.0, abs=1e-16)
    again = Distribution.from_json(law.to_json())
    assert again == law
    p = tmp_path / "law.json"
    p.write_text(json.dumps(law.to_json()))
    assert Distribution.load(str(p)) == law


def test_rejects_bad_input():
    with pytest.raises(InputError):
        Distribution((1.0,), (0.5,))  # mass does not sum to one
    with pytest.raises(InputError):
        Distribution((1.0, 2.0), (1.2, -0.2))
    with pytest.raises(InputError):
        Distribution.from_json({"atoms": [[0, 1]]})
    with pytest.raises(InputError):
        Distribution.from_json({"type": "gaussian"})
    with pytest.raises(InputError):
        Distribution.from_json({"type": "finite", "atoms": []})


def test_sampling_frequencies_track_probabilities():
    law = three_point()
    rng = mc.stream(2024, 7)
    draws = law.sample(rng, 40_000)
    for v, p in zip(law.values, law.probs):
        freq = float(np.mean(draws == v))
        # Binomial standard error is about 0.0025 here; allow four of them.
        assert abs(freq - p) < 0.01


def test_sample_scalar_and_array_shapes():
    law = Distribution.rademacher()
    rng = mc.stream(1, 1)
    one = law.sample(rng)
    assert one in (-1.0, 1.0)
    arr = law.sample(rng, 17)
    assert arr.shape == (17,)
    assert set(np.unique(arr)) <= {-1.0, 1.0}


def _reference_sample(law, rng, size):
    # The whole-array inverse CDF that draw_atoms replaces: every uniform,
    # its searchsorted index and a clipped copy of it exist at once.
    cdf = np.cumsum(law.probs_array())
    cdf[-1] = 1.0
    u = rng.random(size if size is not None else 1)
    idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, law.n_atoms - 1)
    out = law.values_array()[idx]
    return out if size is not None else float(out[0])


def _law_with(n_atoms):
    weights = np.arange(1, n_atoms + 1, dtype=float)
    return Distribution(tuple(np.linspace(-2.0, 3.0, n_atoms)), tuple(weights / weights.sum()))


# Both sides of the cut between the comparison passes and the binary search.
_CUT = dist._COMPARE_MAX_ATOMS


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 10, 40, _CUT, _CUT + 1, 256, 300])
def test_blocked_sample_matches_the_whole_array_reference(n_atoms):
    law = _law_with(n_atoms)
    block = dist._DRAW_BLOCK
    sizes = [0, 1, 7, block - 1, block, block + 1, 2 * block + 17, (3, block // 2 + 5), (2, 0)]
    for i, size in enumerate(sizes):
        ours, ref = mc.stream(31, i), mc.stream(31, i)
        got, want = law.sample(ours, size), _reference_sample(law, ref, size)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # The blocked draw leaves the generator exactly where one big draw does.
        assert np.array_equal(ours.random(5), ref.random(5))
    ours, ref = mc.stream(32, 0), mc.stream(32, 0)
    for _ in range(3):
        got = law.sample(ours)
        assert isinstance(got, float)
        assert got == _reference_sample(law, ref, None)
    assert ours.random() == ref.random()


class _FixedUniforms:
    """Stands in for a generator and hands out prescribed uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.pos = 0

    def random(self, size=None, out=None):
        n = out.size if out is not None else int(np.prod(size))
        chunk = self.u[self.pos : self.pos + n]
        self.pos += n
        if out is None:
            return chunk.reshape(size).copy()
        out[...] = chunk
        return out


def test_uniforms_on_a_cdf_step_take_the_next_atom():
    law = Distribution((-1.0, 0.0, 2.0, 5.0), (0.25, 0.5, 0.125, 0.125))
    cdf = law.cdf_array()
    assert cdf.tolist() == [0.25, 0.75, 0.875, 1.0]
    below_one = np.nextafter(1.0, 0.0)
    u = [0.0, 0.25, 0.75, 0.875, np.nextafter(0.25, 0.0), np.nextafter(0.75, 1.0), below_one, 1.0]
    u = np.tile(u, dist._DRAW_BLOCK // 4)  # spans several blocks
    got = law.sample(_FixedUniforms(u), u.size)
    want = _reference_sample(law, _FixedUniforms(u), u.size)
    assert np.array_equal(got, want)
    assert got[:8].tolist() == [-1.0, 0.0, 2.0, 5.0, -1.0, 2.0, 5.0, 5.0]
    # The same on a law above the cut, whose cdf steps k/512 are exact.
    big = Distribution(tuple(float(k) for k in range(300)), (1 / 512,) * 299 + (213 / 512,))
    u = np.repeat(np.arange(0, 300) / 512, 2)
    u[1::2] = np.nextafter(u[1::2], 0.0)
    got = big.sample(_FixedUniforms(u), u.size)
    assert np.array_equal(got, _reference_sample(big, _FixedUniforms(u), u.size))
    assert got[2:6].tolist() == [1.0, 0.0, 2.0, 1.0]
    # A cdf that reaches 1 before its last step: both clip to the last atom.
    steps = np.array([0.5, 1.0, 1.0])
    codes = dist.draw_atoms(_FixedUniforms([0.5, 1.0, 0.2]), steps, np.arange(3), np.empty(3, dtype=int))
    assert codes.tolist() == [1, 2, 0]


@pytest.mark.parametrize("n_atoms, searches", [(_CUT, False), (_CUT + 1, True)])
def test_only_laws_above_the_cut_binary_search(monkeypatch, n_atoms, searches):
    calls = []
    real = np.searchsorted

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    _law_with(n_atoms).sample(mc.stream(35, 0), 100)
    assert bool(calls) == searches
    assert _CUT < 256  # comparison codes are uint8


@pytest.mark.parametrize("n_atoms", [2, 3, _CUT + 1])
def test_draws_through_one_reused_scratch_match_fresh_buffers(n_atoms):
    # One draw_scratch set serves draws of every size up to its own, block
    # tails included: the values and the generator's end state are those of
    # law.sample, which allocates its buffers per call.
    law = _law_with(n_atoms)
    block = dist._DRAW_BLOCK
    scratch = dist.draw_scratch(3 * block)
    assert scratch[0].size == block
    ours, ref = mc.stream(36, n_atoms), mc.stream(36, n_atoms)
    for size in (1, 7, block + 1, 2 * block + 17, 5):
        got = dist.draw_atoms(ours, law.cdf_array(), law.values_array(), np.empty(size), scratch)
        assert np.array_equal(got, law.sample(ref, size))
    assert np.array_equal(ours.random(5), ref.random(5))


def test_draw_atoms_writes_any_dtype_in_place():
    # Retention flags are u < p, drawn as the two atoms (True, False).
    out = np.empty((4, 9), dtype=bool)
    flags = dist.draw_atoms(mc.stream(33, 0), np.array([0.3, 1.0]), np.array([True, False]), out)
    assert flags is out
    assert np.array_equal(out, mc.stream(33, 0).random((4, 9)) < 0.3)


def test_sample_memory_is_the_output_plus_one_block():
    law = three_point()
    rng = mc.stream(34, 0)
    size = 10**6
    tracemalloc.start()
    try:
        law.sample(rng, size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One block holds its uniforms, flags, codes and np.take's index copy.
    assert peak <= 8 * size + 20 * dist._DRAW_BLOCK
