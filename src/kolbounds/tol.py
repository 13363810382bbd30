"""The one tolerance policy: every numerical threshold of the package, named once.

A hypothesis checked in floating point holds when its defect is at most
tol * scale(values), over the values the defect is measured on. The helpers
are the one copy of each check that several modules make.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import DegenerateError, DomainError, InputError

INPUT = 1e-12  # data read from outside: law sums and centring, moment conditions, symmetry
CENTRING = 1e-10  # hypotheses on computed functionals and kernels: slot means, means, unit variance
DROP = 1e-13  # round-off zeros: terms, kernels and grades at or below it count as absent
SLACK = 1e-10  # how far an inequality may miss before it counts as violated

# Bits of double range guarded_variance keeps at either end: the rates weigh
# the largest sums by law moments and coefficients below 2^16.
HEADROOM = 20


def scale(a) -> float:
    """max(1, max |a|); 1 for an empty array."""
    return max(1.0, float(np.abs(np.asarray(a, dtype=float)).max(initial=0.0)))


def check_centred(mean: float, values, message: str) -> None:
    """Raise DomainError(message) unless |mean| <= CENTRING * scale(values)."""
    if abs(mean) > CENTRING * scale(values):
        raise DomainError(message)


def check_symmetric(T: np.ndarray, non_finite: str, asymmetry: str, repeated: str | None = None) -> None:
    """Refuse non-finite entries (non_finite takes the first bad value), an
    adjacent-axis swap moving an entry by more than INPUT * scale(T) (asymmetry
    takes gap, ax and next) and, given repeated, a repeated-index entry above that."""
    if not np.isfinite(T).all():
        raise InputError(non_finite.format(float(T[~np.isfinite(T)][0])))
    limit = INPUT * scale(T)
    for ax in range(T.ndim - 1):
        gap = float(np.abs(T - np.swapaxes(T, ax, ax + 1)).max(initial=0.0))
        if gap > limit:
            raise InputError(asymmetry.format(gap=gap, ax=ax, next=ax + 1))
    if repeated is not None:
        for a in range(T.ndim):
            for b in range(a + 1, T.ndim):
                if np.abs(np.diagonal(T, axis1=a, axis2=b)).max(initial=0.0) > limit:
                    raise InputError(repeated)


def guarded_variance(
    variance: Callable[[float], float], scale: float, size_bits: float, subject: str, rescale: str, degenerate: str,
    small: bool = True,
) -> float:
    """variance(1.0), the variance of an input whose largest |entry| is scale, once the double range holds it.

    variance(c) is the variance with every entry divided by c. An input in
    range with a positive variance(1.0) costs that one call. Otherwise
    degeneracy, which does not depend on the scale, is read first, at unit
    scale: scale 0 or variance(scale) <= 0 raises DegenerateError(degenerate).
    Then InputError, whose message names subject and says "rescale the " +
    rescale, refuses a largest sum (scale^4 times 2^size_bits) within
    HEADROOM bits of the largest double, with small a scale^4 within HEADROOM
    bits of the smallest normal one, or else a variance that underflows.
    variance(1.0) runs only once the scale is known to be in range.
    """
    power4 = 4.0 * math.log2(scale) if scale > 0.0 else 0.0
    top, floor = sys.float_info.max_exp - HEADROOM, sys.float_info.min_exp - 1 + HEADROOM
    large, tiny = power4 + size_bits > top, small and power4 < floor
    if scale > 0.0 and not (large or tiny) and (sigma2 := variance(1.0)) > 0.0:
        return sigma2
    if scale == 0.0 or variance(scale) <= 0.0:
        raise DegenerateError(degenerate)
    if large:
        raise InputError(
            f"{subject} is too large: the largest sums would reach 2^{power4 + size_bits:.0f}, above the 2^{top} "
            f"that leaves {HEADROOM} bits of double range; rescale the {rescale}"
        )
    if tiny:
        raise InputError(
            f"{subject} is too small: its fourth power, 2^{power4:.0f}, is below the 2^{floor} that keeps "
            f"{HEADROOM} bits above the smallest normal double; rescale the {rescale}"
        )
    raise InputError(f"{subject} is too small: the variance underflows the double range; rescale the {rescale}")
