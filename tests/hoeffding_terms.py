"""Hoeffding terms and grades of a functional, read from hoeffding.project's table."""

import numpy as np

from kolbounds import hoeffding


def terms(X):
    """Every W_J in reduced (keepdims) form, keyed by bit mask: slot 0 outside J, slots 1.. on J."""
    T = hoeffding.project(X)
    n = X.space.n
    return {
        mask: T[tuple(slice(1, None) if mask >> k & 1 else slice(0, 1) for k in range(n))]
        for mask in range(1 << n)
    }


def grades(X):
    """The order-d part of X as a full grid, for d = 0 .. n."""
    out = [np.zeros(X.space.shape) for _ in range(X.space.n + 1)]
    for mask, term in terms(X).items():
        out[bin(mask).count("1")] += term
    return out
