"""Random-graph subgraph weights: templates, counters, moments, rate."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draw_oracles import oracle_draw
from kolbounds import graphweigh as gw
from kolbounds import mc
from kolbounds.dist import Distribution, three_point
from kolbounds.errors import DegenerateError, DomainError, InputError

ZERO_ATOM = Distribution.finite([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)])
ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
HOUSE = gw.GraphSpec(5, ((0, 1), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)))
# V = 3: the first law whose closed forms leave float32 below n = 64.
WIDE = Distribution.finite([(-2.0, 0.5), (0.0, 0.25), (3.0, 0.25)])
TEMPLATES = [
    gw.GraphSpec.edge(),
    gw.GraphSpec.two_path(),
    gw.GraphSpec.triangle(),
    gw.GraphSpec.four_cycle(),
    gw.GraphSpec.complete(4),
    gw.GraphSpec.cycle(5),
]


# ------------------------------------------------------------------ templates


def test_template_validation():
    with pytest.raises(InputError):
        gw.GraphSpec(1, ())
    with pytest.raises(InputError):
        gw.GraphSpec(3, ((0, 1),))  # vertex 2 isolated
    with pytest.raises(InputError):
        gw.GraphSpec(2, ((0, 0),))
    with pytest.raises(InputError):
        gw.GraphSpec(2, ((1, 0),))
    with pytest.raises(InputError):
        gw.GraphSpec(2, ((0, 1), (0, 1)))
    with pytest.raises(InputError):
        gw.GraphSpec(2, ((0, 3),))
    with pytest.raises(InputError):
        gw.GraphSpec.complete(6)


def test_kind_signatures():
    assert gw.GraphSpec.edge().kind == "edge"
    assert gw.GraphSpec.two_path().kind == "two_path"
    assert gw.GraphSpec.triangle().kind == "triangle"
    assert gw.GraphSpec.four_cycle().kind == "four_cycle"
    assert gw.GraphSpec.cycle(4).kind == "four_cycle"
    assert gw.GraphSpec.cycle(5).kind == "generic"
    assert gw.GraphSpec.complete(4).kind == "generic"


def test_copies_in_complete_graph_on_six():
    counts = {
        "edge": (gw.GraphSpec.edge(), 15),
        "two_path": (gw.GraphSpec.two_path(), 60),
        "triangle": (gw.GraphSpec.triangle(), 20),
        "four_cycle": (gw.GraphSpec.four_cycle(), 45),
        "k4": (gw.GraphSpec.complete(4), 15),
        "c5": (gw.GraphSpec.cycle(5), 72),
    }
    for G, want in counts.values():
        assert G.copies_in(6).shape == (want, G.n_edges, 2)


def test_copy_count_matches_enumeration():
    for G in (
        gw.GraphSpec.edge(),
        gw.GraphSpec.two_path(),
        gw.GraphSpec.triangle(),
        gw.GraphSpec.four_cycle(),
        gw.GraphSpec.complete(4),
        gw.GraphSpec.cycle(5),
    ):
        for n in (G.n_vertices, 6, 7):
            assert gw.copy_count(G, n) == G.copies_in(n).shape[0]
    assert gw.copy_count(gw.GraphSpec.triangle(), 2) == 0


def _copies_by_permutation_walk(G, n):
    """Reference enumeration: map the template through every injective vertex
    labelling and keep the distinct edge sets."""
    seen = set()
    for verts in itertools.permutations(range(n), G.n_vertices):
        seen.add(frozenset((min(verts[u], verts[v]), max(verts[u], verts[v])) for u, v in G.edges))
    return seen


def test_copies_in_matches_the_permutation_walk():
    templates = [
        gw.GraphSpec.edge(),
        gw.GraphSpec.two_path(),
        gw.GraphSpec.triangle(),
        gw.GraphSpec.four_cycle(),
        gw.GraphSpec.complete(4),
        gw.GraphSpec.cycle(5),
        HOUSE,
    ]
    for G in templates:
        for n in range(G.n_vertices, 9):
            want = _copies_by_permutation_walk(G, n)
            copies = G.copies_in(n)
            got = [frozenset(map(tuple, c.tolist())) for c in copies]
            assert set(got) == want, (G, n)
            assert len(got) == len(want) == gw.copy_count(G, n), (G, n)
            assert (copies[:, :, 0] < copies[:, :, 1]).all()
            assert all(c.tolist() == sorted(c.tolist()) for c in copies)
    assert len(HOUSE.labellings()) == 60


def test_copy_cap_is_checked_before_enumerating():
    # K4 has one labelling, so C(48, 4) = 194580 copies fit under the cap and
    # C(49, 4) = 211876 do not. The refusal comes from the predicted count,
    # before the C(60, 4) = 487635 copies at n = 60 would be listed.
    K4 = gw.GraphSpec.complete(4)
    assert gw.copy_count(K4, 60) == math.comb(60, 4)
    gw.check_copy_cap(K4, 48)
    with pytest.raises(DomainError, match="211876 copies at n=49"):
        gw.check_copy_cap(K4, 49)
    with pytest.raises(DomainError):
        K4.copies_in(60)
    with pytest.raises(DomainError):
        gw.simulate_weight(K4, 60, 0.5, Distribution.rademacher(), mc.stream(87, 0), size=10)


def test_json_roundtrip(tmp_path):
    G = gw.GraphSpec.four_cycle()
    back = gw.GraphSpec.from_json(G.to_json())
    assert back == G
    path = tmp_path / "g.json"
    path.write_text('{"vertices": 3, "edges": [[2, 0], [0, 1], [1, 2]]}')
    assert gw.GraphSpec.load(str(path)) == gw.GraphSpec.triangle()
    with pytest.raises(InputError):
        gw.GraphSpec.from_json({"edges": [[0, 1]]})


# ---------------------------------------------------------- counters vs brute


def _whole_batch_draw(n, p, law, rng, b):
    """Oracle: the (b, m) retention flags and then the (b, m) weights, each one
    whole-array draw from rng (draw_oracles.oracle_draw: u < p keeps an edge
    and weights go by searchsorted, or a dyadic law reads bit fields)."""
    m = n * (n - 1) // 2
    kept = oracle_draw([p, 1.0], np.array([True, False]), rng, (b, m))
    return kept, oracle_draw(law.cdf_array(), law.values_array(), rng, (b, m))


def _oracle_batches(n, p, law, rng, size, batch):
    for lo in range(0, size, batch):
        yield _whole_batch_draw(n, p, law, rng, min(batch, size - lo))


def _brute_counts(G, n, kept, weights):
    copies = G.copies_in(n)
    out = np.zeros(kept.shape[0])
    for row in range(kept.shape[0]):
        total = 0.0
        for copy in copies:
            idx = gw._edge_positions(n, copy)
            if kept[row, idx].all():
                total += float(np.prod(weights[row, idx]))
        out[row] = total
    return out


def test_closed_form_counters_match_copy_enumeration():
    # The oracle redraws the batch from a twin generator, so the copy-by-copy
    # enumeration sees the exact weights the closed forms saw.
    templates = [
        gw.GraphSpec.edge(),
        gw.GraphSpec.two_path(),
        gw.GraphSpec.triangle(),
        gw.GraphSpec.four_cycle(),
    ]
    laws = [Distribution.rademacher(), three_point(), ZERO_ATOM]
    for t_idx, G in enumerate(templates):
        law = laws[t_idx % 3]
        seed = 80 + t_idx
        got = gw.simulate_weight(G, 7, 0.45, law, mc.stream(seed, 0), size=50)
        want = _brute_counts(G, 7, *_whole_batch_draw(7, 0.45, law, mc.stream(seed, 0), 50))
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10), G.kind


def _whole_batch_counts(G, n, kept, weights):
    """Reference counters: one dense evaluation of the whole batch."""
    iu, ju = np.triu_indices(n, k=1)
    flat = np.where(kept, weights, 0.0)

    def dense(vals):
        M = np.zeros((vals.shape[0], n, n))
        M[:, iu, ju] = vals
        M[:, ju, iu] = vals
        return M

    kind = G.kind
    if kind == "generic":
        copies = G.copies_in(n)
        idx = gw._edge_positions(n, copies)
        wvals = weights[:, idx]
        return (wvals.prod(axis=2) * kept[:, idx].all(axis=2)).sum(axis=1)
    if kind == "edge":
        return flat.sum(axis=1)
    Y = dense(flat)
    if kind == "two_path":
        r = Y.sum(axis=2)
        return 0.5 * (r * r - (Y * Y).sum(axis=2)).sum(axis=1)
    if kind == "triangle":
        return np.einsum("bij,bji->b", Y @ Y, Y) / 6.0
    Y2 = Y @ Y
    s = np.einsum("bii->bi", Y2)
    tr4 = np.einsum("bij,bij->b", Y2, Y2)
    return (tr4 - 2.0 * (s * s).sum(axis=1) + (Y**4).sum(axis=(1, 2))) / 8.0


def _unmasked_generic_counts(G, n, kept, weights):
    """The generic counter as products of the raw weights times a completeness mask, summed over the copies of
    a (rows, copies) gather."""
    idx = gw._edge_positions(n, G.copies_in(n).transpose(1, 0, 2))
    per_copy = weights[:, idx[0]]
    complete = kept[:, idx[0]]
    for col in idx[1:]:
        per_copy *= weights[:, col]
        complete &= kept[:, col]
    return (per_copy * complete).sum(axis=1)


def test_generic_counter_on_masked_weights_keeps_the_unmasked_bits():
    # A dropped edge weighs zero, so a copy's product of masked weights is
    # zero exactly when the completeness mask is; gathered copies-major, the
    # sums over copies add in the old order, signed zeros included. K4, the
    # five-cycle and the house, under a law with an atom at zero, an
    # asymmetric law and a non-integer one, at a dyadic and a general p.
    laws = [ZERO_ATOM, ASYM, Distribution.finite([(-0.7, 0.3), (0.1, 0.45), (1.3, 0.25)])]
    for G in (gw.GraphSpec.complete(4), gw.GraphSpec.cycle(5), HOUSE):
        for law_idx, law in enumerate(laws):
            for p in (0.5, 0.3):
                seed = 300 + 10 * law_idx + int(10 * p)
                got = gw.simulate_weight(G, 8, p, law, mc.stream(seed, 0), size=gw._BLOCK + 7)
                (draw,) = _oracle_batches(8, p, law, mc.stream(seed, 0), gw._BLOCK + 7, 2_000)
                want = _unmasked_generic_counts(G, 8, *draw)
                assert got.tobytes() == want.tobytes(), (G.edges, law_idx, p)


def _copy_listing_counts(G, n, kept, weights):
    """Sum over the copies of the product of their masked edge weights, one (draws, copies) table at a time."""
    masked = np.where(kept, weights, 0.0)
    idx = gw._edge_positions(n, G.copies_in(n).transpose(1, 0, 2))
    per_copy = masked[:, idx[0]]
    for col in idx[1:]:
        per_copy *= masked[:, col]
    return per_copy.sum(axis=1)


def _float64_counts(G, n, kept, weights):
    """The float64 counters' reductions: the closed forms, or the generic counter's copies-major sums."""
    if G.kind == "generic":
        return _unmasked_generic_counts(G, n, kept, weights)
    return _whole_batch_counts(G, n, kept, weights)


def _takes_float32(G, n, law):
    """The exactness rule: integer atoms, and every partial sum of a count below 2^24."""
    values = law.values_array()
    if not np.array_equal(values, np.round(values)):
        return False
    top = int(np.abs(values).max())
    if G.kind == "generic":
        return gw.copy_count(G, n) * top**G.n_edges < 2**24
    return n**3 * top**4 < 2**24


def _counts_and_dtype(monkeypatch, G, n, p, law, seed, size, batch):
    """simulate_weight's counts and the dtype of the weight buffers its _EdgeDraw chose."""
    dtypes = []

    class Recorded(gw._EdgeDraw):
        def __init__(self, *args):
            super().__init__(*args)
            dtypes.append(self.weights.dtype)

    monkeypatch.setattr(gw, "_EdgeDraw", Recorded)
    got = gw.simulate_weight(G, n, p, law, mc.stream(seed, 0), size=size, batch=batch)
    assert len(set(dtypes)) == 1
    return got, dtypes[0]


def _assert_twins(G, n, law, got, draws):
    """Integer laws: the float64 reductions bit for bit and the copy listing exactly; others to round-off."""
    kept, weights = (np.concatenate(parts) for parts in zip(*draws))
    want = _float64_counts(G, n, kept, weights)
    listed = _copy_listing_counts(G, n, kept, weights)
    if np.array_equal(law.values_array(), np.round(law.values_array())):
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, listed)
    else:
        tol = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=tol)
        np.testing.assert_allclose(got, listed, rtol=1e-12, atol=tol)


@pytest.mark.parametrize("G", TEMPLATES, ids=lambda G: f"{G.n_vertices}v{G.n_edges}e")
def test_counters_match_float64_reductions_and_the_copy_listing(monkeypatch, G):
    # Three integer laws, which count in float32 here, and two non-integer
    # ones, which must count in float64; at a dyadic and a general p, in one
    # batch and in batches of 33 (neither a multiple of 64).
    laws = [Distribution.rademacher(), three_point(), ASYM]
    laws += [Distribution.finite([(-0.7, 0.3), (0.1, 0.45), (1.3, 0.25)]), Distribution.finite([(-1.5, 0.5), (1.5, 0.5)])]
    sizes = (8, 12) if G.kind == "generic" else (8, 20)
    nonzero = []
    for law_idx, law in enumerate(laws):
        integer = law_idx < 3
        for n in sizes:
            for p in (0.5, 0.7):
                for batch in (2_000, 33):
                    seed = 400 + 10 * law_idx + n
                    got, dtype = _counts_and_dtype(monkeypatch, G, n, p, law, seed, 70, batch)
                    assert dtype == (np.float32 if integer else np.float64) and _takes_float32(G, n, law) == integer
                    _assert_twins(G, n, law, got, list(_oracle_batches(n, p, law, mc.stream(seed, 0), 70, batch)))
                    nonzero.append(np.count_nonzero(got) > 0)
    # At n = 8 a K4 copy of the three-point law is nonzero with chance 4^-6.
    assert sum(nonzero) >= 0.9 * len(nonzero)


def test_counters_leave_float32_at_the_first_n_past_the_bound(monkeypatch):
    # With V = 3, n³·V⁴ < 2^24 up to n = 59 and not at n = 60, and for K4
    # C(n, 4)·V⁶ < 2^24 up to n = 28 and not at n = 29: the counts are the
    # float64 ones bit for bit on both sides of each boundary. Weights of 2
    # and 3 on nearly every edge take the four-cycle's sum of (Y²)∘(Y²) to
    # about 2^28 at n = 59, so only its float32 row sums keep it exact.
    cases = [(gw.GraphSpec.triangle(), 59, np.float32), (gw.GraphSpec.triangle(), 60, np.float64)]
    cases += [(gw.GraphSpec.four_cycle(), 59, np.float32), (gw.GraphSpec.four_cycle(), 60, np.float64)]
    cases += [(gw.GraphSpec.complete(4), 28, np.float32), (gw.GraphSpec.complete(4), 29, np.float64)]
    heavy = Distribution.finite([(2.0, 0.5), (3.0, 0.5)])
    for law, p in ((WIDE, 0.3), (heavy, 0.97)):
        for G, n, dtype in cases:
            got, chosen = _counts_and_dtype(monkeypatch, G, n, p, law, 410 + n, 70, 2_000)
            assert chosen == dtype and _takes_float32(G, n, law) == (dtype == np.float32), (G.kind, n)
            (draw,) = _oracle_batches(n, p, law, mc.stream(410 + n, 0), 70, 2_000)
            assert got.tobytes() == _float64_counts(G, n, *draw).tobytes(), (G.kind, n)


@settings(max_examples=40, deadline=None)
@given(
    atoms=st.lists(st.integers(-20, 20), min_size=1, max_size=4, unique=True),
    weights=st.lists(st.integers(1, 4), min_size=4, max_size=4),
    template=st.sampled_from(TEMPLATES),
    extra=st.integers(0, 4),
    p=st.sampled_from([0.5, 0.3]),
    size=st.integers(1, 80),
    seed=st.integers(0, 999),
)
def test_small_integer_laws_count_exactly(atoms, weights, template, extra, p, size, seed):
    # Any law on a few integers in [-20, 20], on either side of the bound
    # (n³·V⁴ reaches 2^24 at n = 9 from V = 13, copies·V^edges sooner): the
    # dtype the rule predicts, and the float64 reductions' counts bit for
    # bit, which stay exact below 2^53 here.
    probs = np.array(weights[: len(atoms)], dtype=float)
    law = Distribution.finite(zip(map(float, atoms), (probs / probs.sum()).tolist()))
    n = template.n_vertices + extra
    idx = gw._edge_positions(n, template.copies_in(n).transpose(1, 0, 2)) if template.kind == "generic" else None
    single = gw._EdgeDraw(n, p, law, template.kind, 1, idx).weights.dtype == np.float32
    assert single == _takes_float32(template, n, law)
    got = gw.simulate_weight(template, n, p, law, mc.stream(seed, 0), size=size, batch=33)
    kept, weights_ = (np.concatenate(parts) for parts in zip(*_oracle_batches(n, p, law, mc.stream(seed, 0), size, 33)))
    assert got.tobytes() == _float64_counts(template, n, kept, weights_).tobytes()
    assert np.array_equal(got, _copy_listing_counts(template, n, kept, weights_))


def test_blocked_counters_match_whole_batch_evaluation():
    # Sizes and batches off the block: one batch of four blocks (the last
    # holding 5 draws), and batches of _BLOCK + 1 draws with a 2-draw tail.
    size = 3 * gw._BLOCK + 5
    templates = [
        gw.GraphSpec.edge(),
        gw.GraphSpec.two_path(),
        gw.GraphSpec.triangle(),
        gw.GraphSpec.four_cycle(),
        gw.GraphSpec.complete(4),
    ]
    for G in templates:
        # Packed flags at p = 1/2, one uniform per flag at p = 0.3.
        for law_idx, (law, p) in enumerate(((ZERO_ATOM, 0.5), (ASYM, 0.3))):
            seed = 90 + law_idx
            for batch in (2_000, gw._BLOCK + 1):
                rng, ref = mc.stream(seed, 0), mc.stream(seed, 0)
                got = gw.simulate_weight(G, 9, p, law, rng, size=size, batch=batch)
                parts = [_whole_batch_counts(G, 9, *draw) for draw in _oracle_batches(9, p, law, ref, size, batch)]
                want = np.concatenate(parts)
                assert np.abs(want).max() > 0.0
                np.testing.assert_allclose(
                    got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(), err_msg=f"{G.kind} {batch}"
                )
                assert np.array_equal(rng.random(4), ref.random(4))


def test_dropped_negative_weights_leave_the_counts_bit_identical():
    # The counters mask by weights * kept, which leaves -0.0 where np.where
    # puts 0.0. Integer weights keep every sum exact, whatever its order, so
    # with every weight negative and many zero counts only the sign of a zero
    # could tell the two apart, and it must not.
    law = Distribution.finite([(-2.0, 0.5), (-1.0, 0.5)])
    templates = [gw.GraphSpec.edge(), gw.GraphSpec.two_path(), gw.GraphSpec.triangle(), gw.GraphSpec.four_cycle()]
    for G in templates:
        for n in (4, 5):
            rng, ref = mc.stream(92, n), mc.stream(92, n)
            got = gw.simulate_weight(G, n, 0.3, law, rng, size=300)
            want = _whole_batch_counts(G, n, *_whole_batch_draw(n, 0.3, law, ref, 300))
            assert (want == 0.0).any() and (want != 0.0).any(), G.kind
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), G.kind


def test_edge_draw_matches_the_whole_batch_draw(monkeypatch):
    # The blocks' flags and weights, recorded as draw_atoms fills them, equal
    # one whole-array draw of each per batch, in that order, and the generator
    # ends where those draws leave it, with packed flags (p = 1/2) or not.
    n, size = 12, 700  # 46 200 edge draws: more than one sampling block
    blocks = []
    draw_atoms = gw.draw_atoms

    def recorded(*args):
        out = draw_atoms(*args)
        blocks.append(out.copy())
        return out

    monkeypatch.setattr(gw, "draw_atoms", recorded)
    for law_idx, (law, p) in enumerate(((ZERO_ATOM, 0.5), (ASYM, 0.3), (Distribution.rademacher(), 0.5))):
        for batch in (size, 300, gw._BLOCK + 1):
            blocks.clear()
            ours, ref = mc.stream(93, law_idx), mc.stream(93, law_idx)
            gw.simulate_weight(gw.GraphSpec.triangle(), n, p, law, ours, size=size, batch=batch)
            kept, weights = (np.concatenate(parts) for parts in zip(*_oracle_batches(n, p, law, ref, size, batch)))
            assert np.array_equal(np.concatenate([x for x in blocks if x.dtype == bool]), kept)
            assert np.array_equal(np.concatenate([x for x in blocks if x.dtype != bool]), weights)
            assert np.array_equal(ours.random(4), ref.random(4))


def test_simulate_weight_allocates_the_draw_scratch_once(monkeypatch):
    # Every flag and weight block of a call goes through one set of
    # draw_atoms buffers, made once per simulate_weight call.
    made, seen = [], []
    draw_atoms, draw_scratch = gw.draw_atoms, gw.draw_scratch

    def scratch(size):
        made.append(draw_scratch(size))
        return made[-1]

    def recorded(*args):
        seen.append(args[4])
        return draw_atoms(*args)

    monkeypatch.setattr(gw, "draw_scratch", scratch)
    monkeypatch.setattr(gw, "draw_atoms", recorded)
    for G in (gw.GraphSpec.triangle(), gw.GraphSpec.complete(4)):
        made.clear()
        seen.clear()
        gw.simulate_weight(G, 9, 0.4, ASYM, mc.stream(95, 0), size=3 * gw._BLOCK + 5, batch=gw._BLOCK + 1)
        assert len(made) == 1 and len(seen) > 4
        assert all(s is made[0] for s in seen)


@pytest.mark.parametrize("G", [gw.GraphSpec.triangle(), gw.GraphSpec.four_cycle()], ids=lambda G: G.kind)
def test_simulate_weight_holds_one_block_of_draws(G):
    # A few one-block buffers of 8·_BLOCK·n² bytes, whatever the size; the
    # whole-batch draw of 2 000 x 3 160 edges held 57 MB beside them. The
    # three-point law counts in float32 at n = 80, which halves the weight,
    # dense and product buffers: about 2 of those units, 3.3 in float64.
    n = 80
    peaks = []
    for size in (2_000, 4_000):
        tracemalloc.start()
        try:
            gw.simulate_weight(G, n, 0.5, three_point(), mc.stream(94, size), size=size)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2.5 * 8 * gw._BLOCK * n * n
    assert peaks[1] <= 1.1 * peaks[0]


def test_generic_template_matches_exact_moments():
    G = gw.GraphSpec.cycle(5)
    law = Distribution.rademacher()
    n, p = 8, 0.5
    mean, var = gw.exact_weight_moments(G, n, p, law)
    draws = gw.simulate_weight(G, n, p, law, mc.stream(84, 0), size=40_000)
    assert mean == 0.0
    assert draws.mean() == pytest.approx(0.0, abs=5.0 * math.sqrt(var / draws.size))
    assert draws.var() == pytest.approx(var, rel=0.07)


# ------------------------------------------------------------- exact moments


def test_exact_weight_moments_closed_form():
    # 120 triangles in K10, each surviving with probability p^3 and carrying
    # centered unit-variance edge weights: variance 120 * (p * mu2)^3.
    var = gw.exact_weight_moments(gw.GraphSpec.triangle(), 10, 0.4, Distribution.rademacher())[1]
    assert var == pytest.approx(120 * 0.4**3, rel=1e-13)


def test_exact_weight_moments_match_simulation():
    for G, law in (
        (gw.GraphSpec.two_path(), three_point()),
        (gw.GraphSpec.four_cycle(), ZERO_ATOM),
    ):
        mean, var = gw.exact_weight_moments(G, 9, 0.5, law)
        draws = gw.simulate_weight(G, 9, 0.5, law, mc.stream(85, 0), size=60_000)
        assert draws.mean() == pytest.approx(mean, abs=5.0 * math.sqrt(var / draws.size))
        assert draws.var() == pytest.approx(var, rel=0.07)


def test_exact_weight_moments_refusals():
    G = gw.GraphSpec.triangle()
    law = Distribution.rademacher()
    with pytest.raises(DomainError):
        gw.exact_weight_moments(G, 10, 1.2, law)
    with pytest.raises(DomainError):
        gw.exact_weight_moments(G, 2, 0.4, law)
    with pytest.raises(DomainError):
        gw.exact_weight_moments(G, 10, 0.4, Distribution.finite([(0.0, 0.5), (1.0, 0.5)]))


# ------------------------------------------------------------ scale and rate


def test_min_subgraph_scale_triangle():
    # Candidates at n=40, p=0.3: one edge 40^2 p = 480, two edges 40^3 p^2,
    # all three 40^3 p^3; the single edge wins.
    assert gw.min_subgraph_scale(gw.GraphSpec.triangle(), 40, 0.3) == pytest.approx(480.0)
    with pytest.raises(DomainError):
        gw.min_subgraph_scale(gw.GraphSpec.triangle(), 40, 0.0)
    with pytest.raises(DomainError):
        gw.min_subgraph_scale(gw.GraphSpec.triangle(), 2, 0.3)


def test_rg_rate_symmetric_unit_law():
    # Centered two-atom weights: fourth central moment 1, variance 1, mean 0,
    # so the ratio in front collapses to 1.
    rate = gw.rg_rate(gw.GraphSpec.triangle(), 40, 0.3, Distribution.rademacher())
    assert rate == pytest.approx(1.0 / math.sqrt(0.7 * 480.0), rel=1e-13)


def test_rg_rate_uncentered_law_uses_the_mean_terms():
    law = Distribution.finite([(0.0, 0.5), (2.0, 0.5)])
    p = 0.5
    mean, var, central4 = 1.0, 1.0, 1.0
    scale = gw.min_subgraph_scale(gw.GraphSpec.edge(), 12, p)
    want = (math.sqrt(central4) + (1 - p) * mean**2) / (var + (1 - p) * mean**2)
    want /= math.sqrt((1 - p) * scale)
    assert gw.rg_rate(gw.GraphSpec.edge(), 12, p, law) == pytest.approx(want, rel=1e-13)


def test_rg_rate_degenerate_weight():
    with pytest.raises(DegenerateError):
        gw.rg_rate(gw.GraphSpec.edge(), 10, 0.5, Distribution.finite([(0.0, 1.0)]))


def test_simulate_weight_guards():
    G = gw.GraphSpec.edge()
    law = Distribution.rademacher()
    rng = mc.stream(86, 0)
    with pytest.raises(DomainError):
        gw.simulate_weight(G, 5, 1.5, law, rng)
    with pytest.raises(DomainError):
        gw.simulate_weight(gw.GraphSpec.triangle(), 2, 0.5, law, rng)
    with pytest.raises(InputError):
        gw.simulate_weight(G, 5, 0.5, law, rng, size=0)
    with pytest.raises(InputError):
        gw.simulate_weight(G, 5, 0.5, law, rng, size=3, batch=0)
    assert isinstance(gw.simulate_weight(G, 5, 0.5, law, rng), float)
