"""Hoeffding (ANOVA) decompositions and the rates built from them.

Every functional X of n independent coordinates splits uniquely as
X = sum over subsets J of W_J, where W_J depends only on the coordinates in J
and E[W_J | coordinates in K] = 0 whenever J is not contained in K. The terms
come from the inclusion-exclusion formula

    W_J = sum over K inside J of (-1)^(|J|-|K|) E[X | F_K],

implemented as a subset Moebius transform over conditional-expectation grids.
Terms are kept in reduced (keepdims) form, one axis per coordinate with
non-member axes collapsed to length one, and are broadcast back to full
functionals on demand.

Grade-level quantities (the order-d part of X, the sum of W_J over |J| = d)
never need the subsets. grade_sweep rewrites each coordinate axis in turn as
its mean part (the average under that coordinate's law) and its centred
parts, which is Yates' algorithm for factorial designs generalised to any
finite law. In that basis every grid entry is a product of mean and centred
factors and belongs to one order, the number of its centred axes, so a
gradewise operator is one multiplication per entry before the axes are
rewritten back. It costs O(n |Omega|) time and O(|Omega|) memory, where
splitting every axis into both parts keeps 2^n branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InputError
from .space import OutcomeSpace, RandomFunctional

_CENTER_TOL = 1e-10


def _marginalize(space: OutcomeSpace, grid: np.ndarray, axis: int) -> np.ndarray:
    """Average a (possibly reduced) grid over one coordinate, keepdims."""
    if grid.ndim != space.n or grid.shape[axis] == 1:
        # Already constant along this axis (or scalar); averaging is a no-op.
        return grid if grid.ndim == space.n else grid.reshape((1,) * space.n)
    return np.sum(grid * space.axis_probs(axis), axis=axis, keepdims=True)


def _expect(space: OutcomeSpace, grid: np.ndarray) -> float:
    """Expectation of a reduced grid under the product law."""
    g = grid
    for k in range(space.n):
        g = _marginalize(space, g, k)
    return float(g.reshape(()))


def _condition(space: OutcomeSpace, grid: np.ndarray, keep_mask: int) -> np.ndarray:
    """E[grid | coordinates in keep_mask], reduced form."""
    g = grid
    for k in range(space.n):
        if not keep_mask & (1 << k):
            g = _marginalize(space, g, k)
    return g


def _mask_of(subset: Sequence[int], n: int) -> int:
    mask = 0
    for k in subset:
        if not 0 <= k < n:
            raise InputError(f"coordinate {k} outside 0..{n - 1}")
        if mask & (1 << k):
            raise InputError(f"repeated coordinate {k} in subset")
        mask |= 1 << k
    return mask


def _subset_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(k for k in range(n) if mask & (1 << k))


class HoeffdingDecomposition:
    """The full subset decomposition of one functional."""

    def __init__(self, space: OutcomeSpace, reduced: dict[int, np.ndarray]):
        self.space = space
        self._reduced = reduced

    # ------------------------------------------------------------------ views

    def subsets(self) -> list[tuple[int, ...]]:
        n = self.space.n
        return [_subset_of(m, n) for m in sorted(self._reduced, key=lambda m: (bin(m).count("1"), m))]

    def term(self, subset: Sequence[int]) -> RandomFunctional:
        mask = _mask_of(subset, self.space.n)
        grid = self._reduced.get(mask)
        if grid is None:
            return self.space.constant(0.0)
        full = np.broadcast_to(grid, self.space.shape)
        return RandomFunctional(self.space, full.reshape(-1).copy())

    @property
    def terms(self) -> dict[tuple[int, ...], RandomFunctional]:
        return {s: self.term(s) for s in self.subsets()}

    def term_grid(self, mask: int) -> np.ndarray | None:
        return self._reduced.get(mask)

    def reconstruct(self) -> RandomFunctional:
        total = np.zeros(self.space.shape)
        for grid in self._reduced.values():
            total = total + grid
        return RandomFunctional(self.space, total.reshape(-1))

    def max_order(self, tol: float = 0.0) -> int:
        out = 0
        for mask, grid in self._reduced.items():
            if np.max(np.abs(grid)) > tol:
                out = max(out, bin(mask).count("1"))
        return out

    def orders_present(self, tol: float = 1e-12) -> list[int]:
        seen = set()
        for mask, grid in self._reduced.items():
            if np.max(np.abs(grid)) > tol:
                seen.add(bin(mask).count("1"))
        return sorted(seen)

    def grade(self, d: int) -> RandomFunctional:
        """The sum of all order-d terms as one functional."""
        total = np.zeros((1,) * self.space.n)
        for mask, grid in self._reduced.items():
            if bin(mask).count("1") == d:
                total = total + grid
        full = np.broadcast_to(total, self.space.shape)
        return RandomFunctional(self.space, full.reshape(-1).copy())

    def second_moment(self) -> float:
        """E[X^2] as the orthogonal sum of term second moments."""
        return sum(_expect(self.space, g * g) for g in self._reduced.values())

    def scaled(self, c: float) -> "HoeffdingDecomposition":
        return HoeffdingDecomposition(self.space, {m: c * g for m, g in self._reduced.items()})


def project(X: RandomFunctional) -> HoeffdingDecomposition:
    """Decompose X into its Hoeffding terms, exactly.

    Conditional expectations E[X | F_K] are built for every subset K by
    peeling one coordinate at a time from the full grid; the Moebius transform
    over the subset lattice then turns them into the W_J in place.
    """
    space = X.space
    n = space.n
    full = (1 << n) - 1
    cond: dict[int, np.ndarray] = {full: X.grid}
    for mask in range(full - 1, -1, -1):
        missing = (~mask) & full
        j = (missing & -missing).bit_length() - 1  # lowest coordinate not in mask
        cond[mask] = _marginalize(space, cond[mask | (1 << j)], j)
    # In-place subset Moebius transform: after processing bit j, cond[mask]
    # holds the alternating sum over the j-low bits of mask.
    for j in range(n):
        bit = 1 << j
        for mask in range(full + 1):
            if mask & bit:
                cond[mask] = cond[mask] - cond[mask ^ bit]
    return HoeffdingDecomposition(space, cond)


def _slot_mean(V: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum over t of probs[t] * V[:, t], for V of shape (a, m, b)."""
    total = probs[0] * V[:, 0]
    for t in range(1, len(probs)):
        total += probs[t] * V[:, t]
    return total


def grade_sweep(space: OutcomeSpace, grid: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Return sum over d of coeffs[d] * (order-d part of grid), axis by axis.

    The last n axes of grid follow the space's coordinates; any leading axes
    are a batch and are carried through untouched. A coordinate axis of
    length one (a reduced grid, constant along it) is skipped.

    Each remaining axis k is rewritten in place as (mean part, centred parts):
    the slot of the most likely atom r takes the average under the law, every
    other slot t takes value_t minus that average. The centred part at r is
    implied, since the centred parts average to zero. After all axes an entry
    is the coefficient of a product of mean factors and centred factors, which
    lies in the order counted by its centred axes; it is scaled by that
    order's coefficient and the axes are rewritten back. Time O(n |Omega|)
    and memory O(|Omega|) per batch item; the result has the shape of grid.
    """
    n = space.n
    if len(coeffs) != n + 1:
        raise InputError(f"need {n + 1} grade coefficients, got {len(coeffs)}")
    T = np.array(grid, dtype=float, order="C")
    lead = T.ndim - n
    if lead < 0:
        raise InputError(f"grid has {T.ndim} axes, the space needs at least {n}")
    order = np.zeros(T.shape[lead:], dtype=np.intp)
    split = []
    for k in range(n):
        axis = lead + k
        m = T.shape[axis]
        if m == 1:
            continue
        probs = space.probs[k]
        ref = int(np.argmax(probs))
        V = T.reshape(math.prod(T.shape[:axis]), m, -1)
        mean = _slot_mean(V, probs)
        V -= mean[:, None]
        V[:, ref] = mean
        centred = np.arange(m) != ref
        order += centred.reshape((m,) + (1,) * (n - 1 - k))
        split.append((V, probs, ref))
    T *= np.asarray(coeffs, dtype=float)[order]
    for V, probs, ref in reversed(split):
        mean = V[:, ref].copy()
        V[:, ref] = 0.0
        V[:, ref] = _slot_mean(V, probs) / -probs[ref]
        V += mean[:, None]
    return T


def scale_grades(X: RandomFunctional, coeffs: Sequence[float]) -> RandomFunctional:
    """Return sum over d of coeffs[d] * (order-d part of X), in one sweep.

    coeffs has length n + 1, indexed by order. This is the workhorse behind
    operator powers: it never materializes the per-subset terms, only one
    coefficient per entry after a per-axis change of basis (see grade_sweep),
    in O(n |Omega|) time and O(|Omega|) memory.
    """
    return RandomFunctional(X.space, grade_sweep(X.space, X.grid, coeffs))


# --------------------------------------------------------------------- rates


@dataclass(frozen=True)
class SubsetRateReport:
    """The square-rooted three-family bracket over Hoeffding terms."""

    value: float
    family_diag: float
    family_cross: float
    family_low: float
    normalized: bool

    def families(self) -> dict[str, float]:
        return {
            "diag": self.family_diag,
            "cross": self.family_cross,
            "low": self.family_low,
        }


def subset_rate_report(H: HoeffdingDecomposition) -> SubsetRateReport:
    """Evaluate the three-family conditional-moment bracket for centered X.

    With W_J the Hoeffding terms of X and d its maximal order, the bracket is

      sum_{0<=l<i<=d} sum_{|J|=i-l} E[( sum_{|K|=l, K cap J empty}
                                        E[W_{J u K}^2 | F_J] )^2]
    + sum_{1<=l<i<=d} sum_{ordered (J1,J2) disjoint, |J1|=|J2|=i-l}
            E[( sum_{|K|=l, K cap (J1 u J2) empty}
                E[W_{J1 u K} W_{J2 u K} | F_{J1 u J2}] )^2]
    + sum_{1<=l<i<=d} sum_{|J|=i-l} E[( sum_{|K|=l, K cap J empty}
                                        E[W_K W_{J u K} | F_J] )^2]

    and the rate is its square root. Inputs are normalized to E[X^2] = 1
    first; the report records whether that rescaling was a no-op.
    """
    space = H.space
    n = space.n
    full = (1 << n) - 1
    w0 = H.term_grid(0)
    if w0 is not None and abs(float(np.max(np.abs(w0)))) > _CENTER_TOL:
        raise DomainError("subset rate needs a centered functional (order-0 term present)")
    second = H.second_moment()
    if second <= 0.0:
        raise DomainError("subset rate needs a non-degenerate functional")
    normalized = abs(second - 1.0) <= 1e-12
    Hn = H if normalized else H.scaled(1.0 / np.sqrt(second))
    d = Hn.max_order(tol=1e-14)
    if d > 4:
        raise DomainError(f"subset rate is desk-scale only (max order 4, got {d})")

    by_size: dict[int, list[int]] = {}
    for mask in range(1, full + 1):
        by_size.setdefault(bin(mask).count("1"), []).append(mask)

    def w(mask: int) -> np.ndarray | None:
        g = Hn.term_grid(mask)
        if g is None or np.max(np.abs(g)) <= 1e-15:
            return None
        return g

    fam_diag = 0.0
    fam_cross = 0.0
    fam_low = 0.0
    for i in range(1, d + 1):
        for l in range(0, i):
            j_size = i - l
            for J in by_size.get(j_size, []):
                acc = None
                for K in by_size.get(l, []) if l > 0 else [0]:
                    if K & J:
                        continue
                    wjk = w(J | K)
                    if wjk is None:
                        continue
                    c = _condition(space, wjk * wjk, J)
                    acc = c if acc is None else acc + c
                if acc is not None:
                    fam_diag += _expect(space, acc * acc)
            if l == 0:
                continue
            # Cross family: ordered disjoint pairs (J1, J2).
            for J1 in by_size.get(j_size, []):
                for J2 in by_size.get(j_size, []):
                    if J1 & J2 or J1 == J2:
                        continue
                    J12 = J1 | J2
                    acc = None
                    for K in by_size.get(l, []):
                        if K & J12:
                            continue
                        a = w(J1 | K)
                        b = w(J2 | K)
                        if a is None or b is None:
                            continue
                        c = _condition(space, a * b, J12)
                        acc = c if acc is None else acc + c
                    if acc is not None:
                        fam_cross += _expect(space, acc * acc)
            # Low family: the bare W_K against W_{J u K}.
            for J in by_size.get(j_size, []):
                acc = None
                for K in by_size.get(l, []):
                    if K & J:
                        continue
                    a = w(K)
                    b = w(J | K)
                    if a is None or b is None:
                        continue
                    c = _condition(space, a * b, J)
                    acc = c if acc is None else acc + c
                if acc is not None:
                    fam_low += _expect(space, acc * acc)
    value = float(np.sqrt(fam_diag + fam_cross + fam_low))
    return SubsetRateReport(value, fam_diag, fam_cross, fam_low, normalized)


def rate_degenerate(H: HoeffdingDecomposition) -> tuple[float, float]:
    """Conditional-moment ingredients of the degenerate-projection bound.

    For W with Hoeffding terms all of one order d, returns

      var_term    = Var( sum_k E[(W - E[W | rest_k])^2 | rest_k] )
      fourth_term = sum_k E[(W - E[W | rest_k])^4]

    where rest_k is the sigma-field of all coordinates but k. The certified
    bound for unit-variance W is sqrt(var_term) + 24 * sqrt(2 * fourth_term).
    """
    orders = H.orders_present()
    if len(orders) != 1:
        raise DomainError(f"degenerate rate needs a single-order input, found orders {orders}")
    space = H.space
    n = space.n
    full = (1 << n) - 1
    W = H.reconstruct()
    grid = W.grid
    sum_cond = np.zeros((1,) * n)
    fourth = 0.0
    for k in range(n):
        rest = full & ~(1 << k)
        delta = grid - _condition(space, grid, rest)
        sum_cond = sum_cond + _condition(space, delta * delta, rest)
        fourth += _expect(space, delta**4)
    mean = _expect(space, sum_cond)
    var = max(_expect(space, sum_cond * sum_cond) - mean * mean, 0.0)
    return var, fourth
