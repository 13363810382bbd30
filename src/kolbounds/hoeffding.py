"""Hoeffding (ANOVA) decompositions and the rates built from them.

Every functional X of n independent coordinates splits uniquely as
X = sum over subsets J of W_J, where W_J depends only on the coordinates in J
and E[W_J | coordinates in K] = 0 whenever J is not contained in K.

One per-axis change of basis serves every term and every grade. _split
rewrites each coordinate axis in turn as its mean part (the average under
that coordinate's law, space.law_mean) and its centred parts, which is
Yates' algorithm for factorial designs generalised to any finite law; _join
rewrites it back. In that basis every grid entry is the coefficient of a
product of mean and centred factors. The entries whose centred axes are
exactly J make up W_J, and the number of centred axes is the entry's order.
Both directions cost O(n |Omega|) time and O(|Omega|) memory, where
splitting every axis into both parts would keep 2^n branches.

project keeps that one transformed grid and the order of each entry. A term
W_J is the sub-block with every other axis at its mean slot, joined back over
the axes in J alone; the order-d part is the grid masked to order d and
joined back; grade_sweep scales each entry by its order's coefficient
between _split and _join. Terms come out in reduced (keepdims) form, one axis
per coordinate with non-member axes collapsed to length one, and are
expanded to full functionals (OutcomeSpace.expand) on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tol
from .errors import DomainError, InputError
from .space import OutcomeSpace, RandomFunctional, law_expect, law_mean


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


def _split(space: OutcomeSpace, T: np.ndarray) -> np.ndarray:
    """Rewrite every coordinate axis of T in place as (mean part, centred parts).

    T is a C-ordered float array whose last n axes follow the space's
    coordinates; leading axes are a batch. On each axis of length m > 1 the
    slot of the most likely atom r (the mean slot) takes the average under
    the law and every other slot t takes value_t minus that average. The
    centred part at r is implied, since the centred parts average to zero.
    An axis of length one (a reduced grid, constant along it) is left alone.
    Returns the order of each entry, the number of its centred axes, shaped
    like the last n axes of T.
    """
    n = space.n
    lead = T.ndim - n
    order = np.zeros(T.shape[lead:], dtype=np.intp)
    for k in range(n):
        axis = lead + k
        m = T.shape[axis]
        if m == 1:
            continue
        probs = space.probs[k]
        ref = int(probs.argmax())
        V = T.reshape(math.prod(T.shape[:axis]), m, -1)
        mean = law_mean(V, 1, probs)
        V -= mean
        V[:, ref : ref + 1] = mean
        order += (np.arange(m) != ref).reshape((m,) + (1,) * (n - 1 - k))
    return order


def _join(space: OutcomeSpace, T: np.ndarray) -> np.ndarray:
    """Undo _split in place, last axis first, and return T."""
    lead = T.ndim - space.n
    for k in reversed(range(space.n)):
        axis = lead + k
        m = T.shape[axis]
        if m == 1:
            continue
        probs = space.probs[k]
        ref = int(probs.argmax())
        V = T.reshape(math.prod(T.shape[:axis]), m, -1)
        mean = V[:, ref : ref + 1].copy()
        V[:, ref] = 0.0
        V[:, ref : ref + 1] = law_mean(V, 1, probs) / -probs[ref]
        V += mean
    return T


class HoeffdingDecomposition:
    """The full subset decomposition of one functional.

    coef is the functional's grid after _split and order the order of each
    of its entries; every term and grade is read back from them.
    """

    def __init__(self, space: OutcomeSpace, coef: np.ndarray, order: np.ndarray):
        self.space = space
        self._coef = coef
        self._order = order
        self._refs = [int(p.argmax()) for p in space.probs]

    # ------------------------------------------------------------------ views

    def subsets(self) -> list[tuple[int, ...]]:
        n = self.space.n
        return [_subset_of(m, n) for m in sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))]

    def term(self, subset: Sequence[int]) -> RandomFunctional:
        return self.space.expand(self.term_grid(_mask_of(subset, self.space.n)))

    def term_grid(self, mask: int) -> np.ndarray:
        """W_J for the coordinate set J given as a bit mask, in reduced form.

        Cost O(|J| prod_{k in J} m_k): the sub-block with every axis outside
        J at its mean slot, with the mean slot of each axis in J zeroed,
        joined back.
        """
        block = self._coef[
            tuple(slice(None) if mask >> k & 1 else slice(r, r + 1) for k, r in enumerate(self._refs))
        ].copy()
        for k, r in enumerate(self._refs):
            if mask >> k & 1:
                block[(slice(None),) * k + (r,)] = 0.0
        return _join(self.space, block)

    def reconstruct(self) -> RandomFunctional:
        return RandomFunctional(self.space, _join(self.space, self._coef.copy()).reshape(-1))

    def max_order(self) -> int:
        return max(self.orders_present(), default=0)

    def orders_present(self) -> list[int]:
        """Orders holding a coefficient above tol.DROP, scaled by the largest one."""
        live = np.abs(self._coef) > tol.DROP * tol.scale(self._coef)
        return np.flatnonzero(np.bincount(self._order[live])).tolist()

    def grade(self, d: int) -> RandomFunctional:
        """The sum of all order-d terms as one functional."""
        masked = np.where(self._order == d, self._coef, 0.0)
        return RandomFunctional(self.space, _join(self.space, masked).reshape(-1))

    def second_moment(self) -> float:
        """E[X^2], the sum of the terms' second moments by orthogonality."""
        return self.reconstruct().moment(2)

    def scaled(self, c: float) -> "HoeffdingDecomposition":
        return HoeffdingDecomposition(self.space, c * self._coef, self._order)


def project(X: RandomFunctional) -> HoeffdingDecomposition:
    """Decompose X into its Hoeffding terms, exactly.

    One _split of X's grid, O(n |Omega|) time and O(|Omega|) memory; the
    terms are read from it on demand.
    """
    coef = X.grid.copy()
    return HoeffdingDecomposition(X.space, coef, _split(X.space, coef))


def grade_sweep(space: OutcomeSpace, grid: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Replace grid in place by sum over d of coeffs[d] * (its order-d part) and return it.

    grid is a C-ordered float array whose last n axes follow the space's
    coordinates; any leading axes are a batch and are carried through
    untouched. A coordinate axis of length one (a reduced grid, constant
    along it) is skipped. Each entry of the _split grid lies in the order
    counted by its centred axes; it is scaled by that order's coefficient and
    the axes are joined back. Time O(n |Omega|) and memory O(|Omega|) per
    batch item beside grid itself; callers that keep the input pass a copy.
    """
    n = space.n
    if len(coeffs) != n + 1:
        raise InputError(f"need {n + 1} grade coefficients, got {len(coeffs)}")
    if grid.ndim < n:
        raise InputError(f"grid has {grid.ndim} axes, the space needs at least {n}")
    if grid.dtype != float or not grid.flags.c_contiguous:
        raise InputError("grade_sweep scales a C-ordered float array in place")
    grid *= np.asarray(coeffs, dtype=float)[_split(space, grid)]
    return _join(space, grid)


def scale_grades(X: RandomFunctional, coeffs: Sequence[float]) -> RandomFunctional:
    """Return sum over d of coeffs[d] * (order-d part of X), in one sweep.

    coeffs has length n + 1, indexed by order. This is the workhorse behind
    operator powers: it never materializes the per-subset terms, only one
    coefficient per entry after a per-axis change of basis (see grade_sweep),
    in O(n |Omega|) time and O(|Omega|) memory.
    """
    return RandomFunctional(X.space, grade_sweep(X.space, X.grid.copy(), coeffs))


# --------------------------------------------------------------------- rates


@dataclass(frozen=True)
class SubsetRateReport:
    """The square-rooted three-family bracket over Hoeffding terms."""

    value: float
    family_diag: float
    family_cross: float
    family_low: float
    normalized: bool


def _family(space: OutcomeSpace, terms: dict[int, np.ndarray], family: list) -> float:
    """sum over (J, pairs) of E[(sum over pairs (A, B) of E[W_A W_B | F_J])^2].

    Pairs with a missing (zero) term are skipped, and a J whose pairs are all
    skipped adds nothing.
    """
    total = 0.0
    for J, pairs in family:
        acc = None
        for A, B in pairs:
            a = terms.get(A)
            b = terms.get(B)
            if a is None or b is None:
                continue
            c = space.average(a * b, _subset_of(J, space.n))
            acc = c if acc is None else acc + c
        if acc is not None:
            total += law_expect(acc * acc, space.probs)
    return total


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
    tol.check_centred(H.term_grid(0).item(), H._coef, "subset rate needs a centered functional (order-0 term present)")
    second = H.second_moment()
    if second <= 0.0:
        raise DomainError("subset rate needs a non-degenerate functional")
    normalized = abs(second - 1.0) <= tol.DROP
    Hn = H if normalized else H.scaled(1.0 / np.sqrt(second))
    d = Hn.max_order()
    if d > 4:
        raise DomainError(f"subset rate is desk-scale only (max order 4, got {d})")

    # Every term the bracket reads has at most d coordinates; each is built once.
    cut = tol.DROP * tol.scale(Hn._coef)
    by_size: dict[int, list[int]] = {}
    terms: dict[int, np.ndarray] = {}
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if size > d:
            continue
        by_size.setdefault(size, []).append(mask)
        g = Hn.term_grid(mask)
        if np.max(np.abs(g)) > cut:
            terms[mask] = g

    # Each family is a list of (J, pairs): the sum over pairs (A, B) of
    # E[W_A W_B | F_J] is squared and averaged. K runs over the l-sets
    # disjoint from J; at l = 0 only the diagonal family has a term (K empty).
    diag, cross, low = [], [], []
    for i in range(1, d + 1):
        for l in range(0, i):
            js = by_size.get(i - l, [])
            ks = by_size.get(l, []) if l > 0 else [0]
            diag += [(J, [(J | K, J | K) for K in ks if not K & J]) for J in js]
            if l > 0:
                # Cross: ordered disjoint pairs (J1, J2) given J1 u J2. Low: the bare W_K against W_{J u K}.
                pairs = [(J1, J2) for J1 in js for J2 in js if not J1 & J2]
                cross += [(J1 | J2, [(J1 | K, J2 | K) for K in ks if not K & (J1 | J2)]) for J1, J2 in pairs]
                low += [(J, [(K, J | K) for K in ks if not K & J]) for J in js]
    fam_diag, fam_cross, fam_low = (_family(space, terms, fam) for fam in (diag, cross, low))
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
    grid = H.reconstruct().grid
    sum_cond = np.zeros((1,) * space.n)
    fourth = 0.0
    for k in range(space.n):
        delta = grid - law_mean(grid, k, space.probs[k])
        sum_cond = sum_cond + law_mean(delta * delta, k, space.probs[k])
        fourth += law_expect(delta**4, space.probs)
    mean = law_expect(sum_cond, space.probs)
    var = max(law_expect(sum_cond * sum_cond, space.probs) - mean * mean, 0.0)
    return var, fourth
