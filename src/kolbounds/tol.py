"""The one tolerance policy: every numerical threshold of the package, named once.

A hypothesis checked in floating point holds when its defect is at most
tol * scale(values), over the values the defect is measured on. The helpers
are the one copy of each check that several modules make.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError

INPUT = 1e-12  # data read from outside: law sums and centring, moment conditions, symmetry
CENTRING = 1e-10  # hypotheses on computed functionals and kernels: slot means, means, unit variance
DROP = 1e-13  # round-off zeros: terms, kernels and grades at or below it count as absent
SLACK = 1e-10  # how far an inequality may miss before it counts as violated


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
