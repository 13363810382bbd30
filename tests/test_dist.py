"""Laws and their exact moment tables."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from draw_oracles import bit_reading_draw, dyadic_width, same_state
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
    # The whole-array inverse CDF that draw_atoms replaces for non-dyadic laws:
    # every uniform, its searchsorted index and a clipped copy of it exist at once.
    cdf = np.cumsum(law.probs_array())
    cdf[-1] = 1.0
    u = rng.random(size if size is not None else 1)
    idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, law.n_atoms - 1)
    out = law.values_array()[idx]
    return out if size is not None else float(out[0])


def _oracle_sample(law, rng, size):
    # _reference_sample for non-dyadic laws, the plain bit-reading draw for dyadic ones.
    if dyadic_width(law.cdf_array()[:-1]) is None:
        return _reference_sample(law, rng, size)
    out = bit_reading_draw(law.cdf_array(), law.values_array(), rng, 1 if size is None else size)
    return out if size is not None else float(out[0])


def _law_with(n_atoms):
    weights = np.arange(1, n_atoms + 1, dtype=float)
    return Distribution(tuple(np.linspace(-2.0, 3.0, n_atoms)), tuple(weights / weights.sum()))


# Dyadic laws whose smallest field width is 1, 2, 4 and 8 bits.
_DYADIC = {
    1: Distribution.rademacher(),
    2: three_point(),
    4: Distribution((-3.0, -1.0, 0.5, 2.0), (1 / 16, 3 / 16, 5 / 16, 7 / 16)),
    8: Distribution((-1.0, 0.0, 4.0), (3 / 256, 100 / 256, 153 / 256)),
}

# Both sides of the cut between the comparison passes and the binary search.
_CUT = dist._COMPARE_MAX_ATOMS


@pytest.mark.parametrize("n_atoms", [1, 2, 3, 10, 40, _CUT, _CUT + 1, 256, 300])
def test_blocked_sample_matches_the_whole_array_reference(n_atoms):
    # One atom is a dyadic law (no cdf steps); the others take a uniform each.
    law = _law_with(n_atoms)
    assert (dyadic_width(law.cdf_array()[:-1]) is None) == (n_atoms > 1)
    block = dist._DRAW_BLOCK
    sizes = [0, 1, 7, block - 1, block, block + 1, 2 * block + 17, (3, block // 2 + 5), (2, 0)]
    for i, size in enumerate(sizes):
        ours, ref = mc.stream(31, i), mc.stream(31, i)
        got, want = law.sample(ours, size), _oracle_sample(law, ref, size)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        # The blocked draw leaves the generator exactly where one big draw does.
        assert np.array_equal(ours.random(5), ref.random(5))
    ours, ref = mc.stream(32, 0), mc.stream(32, 0)
    for _ in range(3):
        got = law.sample(ours)
        assert isinstance(got, float)
        assert got == _oracle_sample(law, ref, None)
    assert ours.random() == ref.random()


@pytest.mark.parametrize("width", sorted(_DYADIC))
def test_dyadic_sample_matches_the_bit_reading_oracle(width):
    # Blocked packed draws, block tails and calls that end inside a word
    # included, equal the plain bit-reading draw, and leave the generator
    # where its one random_raw call does.
    law = _DYADIC[width]
    assert dyadic_width(law.cdf_array()[:-1]) == width
    block = dist._DRAW_BLOCK
    for i, size in enumerate([1, 3, 63, 64, 65, 1000, block + 1, 2 * block + 17, (3, 5)]):
        ours, ref = mc.stream(37, i), mc.stream(37, i)
        got, want = law.sample(ours, size), _oracle_sample(law, ref, size)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert same_state(ours, ref)
        assert np.array_equal(ours.random(5), ref.random(5))
    ours, ref = mc.stream(38, width), mc.stream(38, width)
    for _ in range(3):
        assert law.sample(ours) == _oracle_sample(law, ref, None)
    assert same_state(ours, ref)


class _FixedWords:
    """Stands in for a generator and its bit generator and hands out prescribed raw words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)
        self.pos = 0
        self.bit_generator = self

    def random_raw(self, size):
        chunk = self.words[self.pos : self.pos + size]
        self.pos += size
        return chunk.copy()


def _words_of(fields, b):
    # The raw words whose b-bit fields, low bits of word 0 first, are fields.
    words = [0] * -(-len(fields) * b // 64)
    for i, f in enumerate(fields):
        words[b * i // 64] |= int(f) << (b * i % 64)
    return words


@pytest.mark.parametrize("width", sorted(_DYADIC))
def test_every_field_of_a_dyadic_law_takes_its_atom(width):
    # The packed twin of test_uniforms_on_a_cdf_step_take_the_next_atom: all
    # 2^b fields, each once, give each atom exactly mass * 2^b of them, and a
    # field on a threshold cdf_j * 2^b takes atom j + 1.
    law = _DYADIC[width]
    fields = np.arange(2**width)
    got = dist.draw_atoms(_FixedWords(_words_of(fields, width)), law.cdf_array(), law.values_array(), np.empty(fields.size))
    codes = np.searchsorted(law.values_array(), got)
    counts = np.bincount(codes, minlength=law.n_atoms)
    assert counts.tolist() == [round(p * 2**width) for p in law.probs]
    cuts = [round(c * 2**width) for c in law.cdf_array()[:-1]]
    for j, t in enumerate(cuts):
        assert codes[t] == j + 1
        assert codes[t - 1] == j
    # In reverse order, spread over more words than one block holds, the
    # same fields take the same atoms.
    many = np.tile(fields[::-1], 3 * dist._DRAW_BLOCK // fields.size)
    got = dist.draw_atoms(_FixedWords(_words_of(many, width)), law.cdf_array(), law.values_array(), np.empty(many.size))
    assert np.array_equal(got, np.tile(law.values_array()[codes][::-1], many.size // fields.size))


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
    # Non-dyadic laws take one uniform per value; a uniform on a step takes
    # the next atom.
    law = Distribution((-1.0, 0.0, 2.0, 5.0), (0.2, 0.5, 0.2, 0.1))
    cdf = law.cdf_array()
    assert dyadic_width(cdf[:-1]) is None
    below_one = np.nextafter(1.0, 0.0)
    u = [0.0, cdf[0], cdf[1], cdf[2], np.nextafter(cdf[0], 0.0), np.nextafter(cdf[1], 1.0), below_one, 1.0]
    u = np.tile(u, dist._DRAW_BLOCK // 4)  # spans several blocks
    got = law.sample(_FixedUniforms(u), u.size)
    want = _reference_sample(law, _FixedUniforms(u), u.size)
    assert np.array_equal(got, want)
    assert got[:8].tolist() == [-1.0, 0.0, 2.0, 5.0, -1.0, 2.0, 5.0, 5.0]
    # The same on a law above the cut, whose cdf steps k/512 are exact but
    # finer than the 2^-8 grid of the widest field.
    big = Distribution(tuple(float(k) for k in range(300)), (1 / 512,) * 299 + (213 / 512,))
    assert dyadic_width(big.cdf_array()[:-1]) is None
    u = np.repeat(np.arange(0, 300) / 512, 2)
    u[1::2] = np.nextafter(u[1::2], 0.0)
    got = big.sample(_FixedUniforms(u), u.size)
    assert np.array_equal(got, _reference_sample(big, _FixedUniforms(u), u.size))
    assert got[2:6].tolist() == [1.0, 0.0, 2.0, 1.0]
    # A cdf that reaches 1 before its last step: both clip to the last atom.
    steps = np.array([0.3, 1.0, 1.0])
    codes = dist.draw_atoms(_FixedUniforms([0.3, 1.0, 0.2]), steps, np.arange(3), np.empty(3, dtype=int))
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


@pytest.mark.parametrize(
    "law",
    [_law_with(2), _law_with(3), _law_with(_CUT + 1), _DYADIC[1], _DYADIC[4]],
    ids=["2", "3", str(_CUT + 1), "packed-1", "packed-4"],
)
def test_draws_through_one_reused_scratch_match_fresh_buffers(law):
    # One draw_scratch set serves draws of every size up to its own, block
    # tails included, on the float and the packed path: the values and the
    # generator's end state are those of law.sample, which allocates its
    # buffers per call.
    block = dist._DRAW_BLOCK
    scratch = dist.draw_scratch(3 * block)
    assert scratch[0].size == block
    assert scratch[3].dtype == np.intp  # np.take reads it without an index copy
    ours, ref = mc.stream(36, law.n_atoms), mc.stream(36, law.n_atoms)
    for size in (1, 7, block + 1, 2 * block + 17, 5):
        got = dist.draw_atoms(ours, law.cdf_array(), law.values_array(), np.empty(size), scratch)
        assert np.array_equal(got, law.sample(ref, size))
    assert np.array_equal(ours.random(5), ref.random(5))


def test_draw_atoms_writes_any_dtype_in_place():
    # Flags u < p are the two atoms (True, False); at p = 1/2 they are
    # packed, one bit per flag.
    out = np.empty((4, 9), dtype=bool)
    flags = dist.draw_atoms(mc.stream(33, 0), np.array([0.3, 1.0]), np.array([True, False]), out)
    assert flags is out
    assert np.array_equal(out, mc.stream(33, 0).random((4, 9)) < 0.3)
    flags = dist.draw_atoms(mc.stream(33, 1), np.array([0.5, 1.0]), np.array([True, False]), out)
    assert flags is out
    assert np.array_equal(out, bit_reading_draw([0.5, 1.0], np.array([True, False]), mc.stream(33, 1), (4, 9)))


@pytest.mark.parametrize(
    "law", [_law_with(2), _law_with(_CUT + 1), *_DYADIC.values()], ids=["2", str(_CUT + 1), *(f"packed-{b}" for b in _DYADIC)]
)
def test_draw_words_match_the_generator_state_after_a_draw(law):
    # draw_words predicts the words a draw takes: a fresh generator jumped
    # by them goes on with the words the draw leaves next.
    cdf, values = law.cdf_array(), law.values_array()
    block = dist._DRAW_BLOCK
    for i, size in enumerate([0, 1, 63, 64, 65, block, 2 * block + 17]):
        rng = mc.stream(39, i)
        dist.draw_atoms(rng, cdf, values, np.empty(size))
        jumped = mc.jump_ahead(mc.stream(39, i), dist.draw_words(cdf, values, size))
        assert np.array_equal(jumped.bit_generator.random_raw(9), rng.bit_generator.random_raw(9))
    width = dyadic_width(cdf[:-1])
    assert dist.draw_words(cdf, values, 1000) == (1000 if width is None else -(-1000 * width // 64))


def test_sample_memory_is_the_output_plus_one_block():
    # One block holds its uniforms (8 B a value), flags (1 B), codes (1 B)
    # and intp index (8 B), which np.take reads without a copy of its own,
    # plus, for a dyadic law, the block's raw words (b / 8 B a value, 1/4 B
    # for the three-point law) and the law's 256-row byte table.
    size = 10**6
    for law in (three_point(), _law_with(3)):
        rng = mc.stream(34, 0)
        tracemalloc.start()
        try:
            law.sample(rng, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * size + 19 * dist._DRAW_BLOCK


class _Words:
    """A stand-in generator whose random_raw hands out the given 64-bit words in order."""

    def __init__(self, words):
        self.bit_generator, self.words = self, list(words)

    def random_raw(self, size):
        taken, self.words = self.words[:size], self.words[size:]
        assert len(taken) == size
        return np.array(taken, dtype=np.uint64)


# p = 1 - 2^-53 puts the cut at 2^53 - 1, so its high byte is 255.
_BELOW_PS = [0.3, 0.45, 1 / 3, 0.7, 1e-3, 1 - 2.0**-53]


@pytest.mark.parametrize("p", _BELOW_PS)
def test_draw_below_keeps_exactly_the_integers_below_the_cut(p):
    # Flag i reads the top 8 bits of a 53-bit K from byte i, and a tied
    # flag its low 45 bits from bits 19..63 of the next tie word, so it
    # keeps K < T, the flag u < p of rng.random, at every K around T and
    # around the high byte's edge h·2^45. Bits 0..18 of a tie word are
    # never read.
    cut = math.ceil(Fraction(p) * 2**53)
    high = cut >> 45
    assert (high == 255) == (p == _BELOW_PS[-1])
    ks = [k for k in (cut - 1, cut, cut + 1, (high << 45) - 1, high << 45, (high << 45) + 1) if 0 <= k < 2**53]
    ks += [0, 2**53 - 1]
    octets = bytes(k >> 45 for k in ks).ljust(-(-len(ks) // 8) * 8, b"\xa5")
    rng = _Words(np.frombuffer(octets, dtype="<u8").tolist())
    ties = _Words([((k & (2**45 - 1)) << 19) | 0x5A5A5 for k in ks if k >> 45 == high])
    out = np.empty(len(ks), dtype=bool)
    assert dist.draw_below(rng, ties, p, out) is out
    assert out.tolist() == [k < cut for k in ks] == [k * 2.0**-53 < p for k in ks]
    assert rng.words == ties.words == []


@pytest.mark.parametrize("p", _BELOW_PS)
def test_draw_below_keeps_flags_with_chance_p(p):
    # 2^21 flags of a Philox stream: the byte decides every untied flag,
    # the ties keep with chance (T mod 2^45) / 2^45, and the kept share lies
    # within five standard errors of p. Drawn in two C-order halves, the
    # flags and both generators are those of one draw.
    size, cut = 1 << 21, math.ceil(Fraction(p) * 2**53)
    high, low = cut >> 45, cut % 2**45
    rng, ties = mc.stream(41, 0), mc.stream(41, 1)
    out = np.empty((2, size // 2), dtype=bool)
    for half in out:
        dist.draw_below(rng, ties, p, half)
    whole_rng, whole_ties = mc.stream(41, 0), mc.stream(41, 1)
    assert np.array_equal(dist.draw_below(whole_rng, whole_ties, p, np.empty(size, dtype=bool)), out.ravel())
    assert same_state(rng, whole_rng) and same_state(ties, whole_ties)
    octets = mc.stream(41, 0).bit_generator.random_raw(size // 8).view(np.uint8)
    flags, tied = out.ravel(), octets == high
    assert flags[octets < high].all() and not flags[octets > high].any()
    n_tied = int(tied.sum())
    assert abs(n_tied - size / 256) <= 5 * np.sqrt(size / 256)
    assert abs(flags[tied].mean() - low / 2**45) <= 5 * np.sqrt(0.25 / n_tied)
    assert abs(flags.mean() - p) <= 5 * np.sqrt(p * (1 - p) / size) + 1e-12
    jumped = mc.jump_ahead(mc.stream(41, 1), n_tied)
    assert np.array_equal(ties.bit_generator.random_raw(4), jumped.bit_generator.random_raw(4))
