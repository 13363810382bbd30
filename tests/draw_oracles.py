"""Plain oracles for dist.draw_atoms, shared by the sampler tests.

reference_draw is the whole-array inverse CDF on one uniform per value, the
layout of non-dyadic laws. bit_reading_draw reads a dyadic law's b-bit fields
out of the call's raw words one value at a time in plain Python, with no
numpy bit or byte views. oracle_draw picks the one that applies.
"""

import numpy as np


def dyadic_width(steps):
    """The first b in (1, 2, 4, 8) with every step a multiple of 2^-b, or None."""
    for b in (1, 2, 4, 8):
        if all((float(s) * 2**b).is_integer() for s in steps):
            return b
    return None


def reference_draw(cdf, values, rng, size):
    """values[c] with c = searchsorted(cdf, u, "right") clipped, one uniform u per value."""
    cdf = np.asarray(cdf, dtype=float)
    u = rng.random(size)
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(values) - 1)
    return np.asarray(values)[idx]


def bit_reading_draw(cdf, values, rng, size):
    """Value i reads bits [b*i, b*i + b) of the call's words, bit 0 the lowest of word 0.

    The field f becomes the atom #{j : f >= cdf_j * 2^b}; the call takes
    ceil(size * b / 64) words in one random_raw.
    """
    steps = [float(s) for s in np.asarray(cdf)[: len(values) - 1]]
    b = dyadic_width(steps)
    count = int(np.prod(size))
    words = [int(w) for w in rng.bit_generator.random_raw(-(-count * b // 64))]
    cuts = [s * 2**b for s in steps]
    codes = []
    for i in range(count):
        field = (words[b * i // 64] >> (b * i % 64)) & ((1 << b) - 1)
        codes.append(sum(field >= c for c in cuts))
    return np.asarray(values)[np.array(codes, dtype=np.intp).reshape(size)]


def oracle_draw(cdf, values, rng, size):
    """The draw of size values that draw_atoms must reproduce, from the generator rng."""
    if dyadic_width(np.asarray(cdf)[: len(values) - 1]) is None:
        return reference_draw(cdf, values, rng, size)
    return bit_reading_draw(cdf, values, rng, size)


def _plain(state):
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def same_state(a, b):
    """Whether the generators a and b stand at the same point of the same stream."""
    return _plain(a.bit_generator.state) == _plain(b.bit_generator.state)
