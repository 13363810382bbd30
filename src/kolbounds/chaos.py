"""Finite chaos calculus: kernels, multiple sums, gradients, operator powers.

Conventions, fixed once for the whole package:

* A kernel of order d assigns to every sorted d-subset J of coordinates an
  array over the product of those coordinates' supports. Kernels are
  "canonical": every slot average under the slot's law vanishes. Admission
  re-centers any table that misses this by more than tol.CENTRING (scaled,
  per slot, applied to every slot), which never changes the value of the
  multiple sum. decompose admits its Hoeffding terms raw (centred by
  construction). Slot means, kernel norms and gradients average with
  space.law_mean / law_expect; only contract's einsum and the expectations
  gradient_integrals keeps as floats take laws as operands (the joint law,
  or coordinate k's law over per-atom expectations).
* The multiple sum of a kernel is I_d(f) = d! * sum over subsets J of
  f_J(coordinates on J). Its covariance identity reads
  E[I_d(f) I_d(g)] = d! * <f, g> with <f, g> = d! * sum_J E[f_J g_J].
* Integrals over the replacement variable come in two weights. Each
  coordinate carries total weight 2 in a full-weight integral
  (sum_k 2 * E_{t ~ nu_k}) and weight 1 in a half-weight one
  (sum_k E_{t ~ nu_k}). All explicit constants in the bound evaluators are
  calibrated to this pairing; contractions pair slots with weight 1 while
  their output norms integrate free slots with weight 2.
* The discrete gradient at (k, t) is
  grad_{k,t} X(w) = X(w with coordinate k set to t) - E_{s ~ nu_k} X(w with k set to s),
  a functional that does not depend on coordinate k itself. gradient(X, k)
  stacks it over the atoms t; gradient_integrals walks the coordinates once,
  one coordinate's stacks alive at a time, and serves every gradient bound.
* Operator powers act gradewise: the order-d part of X is scaled by d**alpha.
  Negative powers require a centered input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import hoeffding, tol
from .errors import DomainError, InputError
from .space import OutcomeSpace, RandomFunctional, law_expect, law_mean


def _subset_shape(space: OutcomeSpace, subset: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(space.shape[j] for j in subset)


def slot_mean_max(table: np.ndarray, probs: list[np.ndarray]) -> float:
    """Largest |average of table over one slot|, slot (axis) k averaged under probs[k]."""
    means = (law_mean(table, axis, p) for axis, p in enumerate(probs))
    return max((float(np.max(np.abs(m))) for m in means), default=0.0)


def center_slots(table: np.ndarray, probs: list[np.ndarray]) -> np.ndarray:
    """table with each slot's average under probs[k] removed, slot by slot."""
    out = table
    for axis, p in enumerate(probs):
        out = out - law_mean(out, axis, p)
    return out


class ChaosKernel:
    """A canonical order-d kernel, stored per sorted coordinate subset."""

    def __init__(
        self,
        space: OutcomeSpace,
        order: int,
        tables: dict[tuple[int, ...], np.ndarray],
        raw: bool = False,
    ):
        if order < 1:
            raise InputError("kernel order must be at least 1")
        self.space = space
        self.order = order
        clean: dict[tuple[int, ...], np.ndarray] = {}
        for subset, table in tables.items():
            subset = tuple(subset)
            if len(subset) != order or list(subset) != sorted(set(subset)):
                raise InputError(f"subset {subset} is not a sorted {order}-set")
            for j in subset:
                space.check_coordinate(j)
            arr = np.asarray(table, dtype=float)
            want = _subset_shape(space, subset)
            if arr.shape != want:
                raise InputError(f"table for subset {subset} has shape {arr.shape}, expected {want}")
            clean[subset] = arr
        self.tables = clean
        if not raw and self.degeneracy_violation() > tol.CENTRING * tol.scale(self.max_abs()):
            self.tables = self.canonical().tables

    def _probs(self, subset: tuple[int, ...]) -> list[np.ndarray]:
        return [self.space.probs[block] for block in subset]

    def degeneracy_violation(self) -> float:
        """Largest absolute slot average over all subsets and slots."""
        return max((slot_mean_max(t, self._probs(s)) for s, t in self.tables.items()), default=0.0)

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(t))) for t in self.tables.values()), default=0.0)

    def canonical(self) -> "ChaosKernel":
        tables = {s: center_slots(t, self._probs(s)) for s, t in self.tables.items()}
        return ChaosKernel(self.space, self.order, tables, raw=True)

    # ---------------------------------------------------------------- algebra

    def inner_product(self, other: "ChaosKernel") -> float:
        """<f, g> = d! * sum_J E_(nu on J)[f_J g_J]; orders must match."""
        if other.order != self.order or other.space != self.space:
            raise DomainError("inner product needs kernels of one order on one space")
        total = 0.0
        for subset, table in self.tables.items():
            t2 = other.tables.get(subset)
            if t2 is not None:
                total += law_expect(table * t2, self._probs(subset))
        return math.factorial(self.order) * total

    def norm_sq(self) -> float:
        return self.inner_product(self)

    def integral(self) -> RandomFunctional:
        """The multiple sum I_d(f) = d! * sum_J f_J(omega on J) as a functional."""
        space = self.space
        total = np.zeros((1,) * space.n)
        for subset, table in self.tables.items():
            newshape = [1] * space.n
            for j in subset:
                newshape[j] = space.shape[j]
            total = total + table.reshape(newshape)
        total *= math.factorial(self.order)
        return space.expand(total)


@dataclass
class ChaosDecomposition:
    """mean + sum over orders d of I_d(f_d)."""

    space: OutcomeSpace
    mean: float
    kernels: dict[int, ChaosKernel] = field(default_factory=dict)

    def orders(self) -> list[int]:
        """Orders whose kernel exceeds tol.DROP, scaled by the largest kernel entry."""
        cut = tol.DROP * tol.scale([k.max_abs() for k in self.kernels.values()])
        return sorted(d for d, k in self.kernels.items() if k.max_abs() > cut)

    def reconstruct(self) -> RandomFunctional:
        out = self.space.constant(self.mean)
        for d in sorted(self.kernels):
            out = out + self.kernels[d].integral()
        return out

    def second_moment(self) -> float:
        """E[X^2] through the gradewise covariance identity."""
        total = self.mean**2
        for d, k in self.kernels.items():
            total += math.factorial(d) * k.inner_product(k)
        return total


def decompose(X: RandomFunctional) -> ChaosDecomposition:
    """Exact chaos decomposition of a functional on its whole space."""
    H = hoeffding.project(X)
    space = X.space
    n = space.n
    cut = tol.DROP * tol.scale(X.values)
    mean = X.expectation()
    per_order: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for mask in range(1, 1 << n):
        grid = H.term_grid(mask)
        if float(np.max(np.abs(grid))) <= cut:
            continue
        subset = tuple(k for k in range(n) if mask & (1 << k))
        d = len(subset)
        index = tuple(slice(None) if k in subset else 0 for k in range(n))
        per_order.setdefault(d, {})[subset] = np.asarray(grid[index]) / math.factorial(d)
    # Hoeffding terms are centred by construction: admission would only find round-off.
    kernels = {d: ChaosKernel(space, d, tables, raw=True) for d, tables in per_order.items()}
    return ChaosDecomposition(space, mean, kernels)


# ------------------------------------------------------------------ gradient


def gradient(X: RandomFunctional, k: int) -> np.ndarray:
    """The stack of grad_{k,t} X over the atoms t of coordinate k.

    Row t is grad_{k,t} X as a grid with axis k of length one: the grid
    centred along k by law_mean, k moved to a leading atom axis, C-ordered.
    """
    space = X.space
    space.check_coordinate(k)
    grid = X.grid
    return np.subtract(grid[None].swapaxes(0, k + 1), law_mean(grid, k, space.probs[k])[None], order="C")


def _atom_average(space: OutcomeSpace, k: int, T: np.ndarray) -> float:
    """E_{t ~ nu_k} E[T[t]] for per-atom grids T (atoms leading, axis k of length one) or per-atom expectations."""
    if T.ndim == 1:
        return float(np.dot(T, space.probs[k]))
    # Stack row t weighs the outcomes with coordinate k at atom t: the joint
    # law with axis k read as the stack's atom axis.
    m, rest = space.shape[k], math.prod(space.shape[k + 1 :])
    weights = space.joint_probs.reshape(-1, m, rest)
    return float(np.einsum("tab,atb->", T.reshape(m, -1, rest), weights))


def gradient_integrals(
    Xs: Sequence[RandomFunctional],
    terms: Sequence[Callable[..., np.ndarray]],
    expected: Sequence[Callable[..., np.ndarray]] = (),
) -> list:
    """sum_k E_{t ~ nu_k}[term(*stacks_k)] for each term, at weight 1 per coordinate.

    stacks_k holds gradient(X, k) for every X in Xs; each term maps them
    entrywise (atoms on the leading axis) to one array of their shape. The
    integrals of terms come back as functionals; of each expected term only
    the expectation of its integral is kept, as a float, so it holds no grid.
    An expected term returns, atoms on the leading axis, either arrays of the
    stacks' shape or their expectations (one value per atom). One pass over
    the coordinates keeps a single coordinate's stacks alive; the full-weight
    integral is twice the result.
    """
    space = Xs[0].space
    if any(X.space != space for X in Xs):
        raise DomainError("gradients live on different spaces")
    outs = [np.zeros(space.shape) for _ in terms]
    means = [0.0 for _ in expected]
    for k in range(space.n):
        stacks = [gradient(X, k) for X in Xs]
        for out, term in zip(outs, terms):
            out += law_mean(term(*stacks), 0, space.probs[k])[0]
        for i, term in enumerate(expected):
            means[i] += _atom_average(space, k, term(*stacks))
        del stacks
    return [RandomFunctional(space, out.reshape(-1)) for out in outs] + means


# ------------------------------------------------------------ operator power


def apply_L_power(X: RandomFunctional, alpha: float) -> RandomFunctional:
    """Gradewise power of the number operator: order d scaled by d**alpha.

    alpha = 0 is the identity. For alpha < 0 the input must be centered
    (the order-0 part has no inverse).
    """
    n = X.space.n
    if alpha == 0.0:
        return X
    if alpha < 0.0:
        tol.check_centred(X.expectation(), X.values, "negative operator powers need a centered functional")
    coeffs = [0.0] + [float(d) ** alpha for d in range(1, n + 1)]
    return hoeffding.scale_grades(X, coeffs)


def covariance_identity_check(X: RandomFunctional, Y: RandomFunctional, alpha: float) -> float:
    """Residual of the gradient representation of the covariance.

    For centered X, Y and any real alpha,
    Cov(X, Y) = sum_k E E_t[(grad_{k,t} A)(grad_{k,t} B)] with
    A = (number operator)^(alpha-1) X and B = (number operator)^(-alpha) Y.
    Returns the absolute difference of the two sides.
    """
    for Z, name in ((X, "X"), (Y, "Y")):
        tol.check_centred(Z.expectation(), Z.values, f"covariance identity needs centered input {name}")
    A = apply_L_power(X, alpha - 1.0)
    B = apply_L_power(Y, -alpha)
    rhs = gradient_integrals([A, B], [np.multiply])[0].expectation()
    lhs = (X * Y).expectation()
    return abs(lhs - rhs)


# ---------------------------------------------------------------- contraction


@dataclass
class Contraction:
    """The unsymmetrized pairing of two kernels over shared slots.

    k slots are shared between the two kernels; l of them are paired away
    against their laws (weight 1 each), the remaining k - l stay as common
    free variables. Entries are keyed by (shared blocks, left-only blocks,
    right-only blocks), each sorted; array axes follow that order. Left-only
    and right-only blocks may coincide (they are distinct variables), shared
    blocks never collide with either side's own blocks.
    """

    space: OutcomeSpace
    f_order: int
    g_order: int
    shared: int
    paired: int
    entries: dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], np.ndarray]

    def scalar(self) -> float:
        """The value of a complete pairing (no free slots left)."""
        if self.free_slots() != 0:
            raise DomainError("contraction still has free slots")
        val = self.entries.get(((), (), ()))
        return float(val) if val is not None else 0.0

    def free_slots(self) -> int:
        return (self.f_order - self.paired) + (self.g_order - self.shared)

    def l2_norm_sq(self) -> float:
        """Squared norm with every free slot integrated at full weight 2."""
        s = self.shared - self.paired
        fo = self.f_order - self.shared
        go = self.g_order - self.shared
        mult = math.factorial(s) * math.factorial(fo) * math.factorial(go)
        weight = mult * 2.0 ** (s + fo + go)
        total = 0.0
        for (S, F, G), val in self.entries.items():
            total += law_expect(val * val, [self.space.probs[block] for block in S + F + G])
        return weight * total


def contract(f: ChaosKernel, g: ChaosKernel, k: int, l: int) -> Contraction:
    """Pair k slots of f with k slots of g and integrate out l of them.

    Paired-away slots are summed against their coordinate laws over all block
    choices distinct from every retained block of either side; the k - l
    still-shared slots become common free variables. Entries for impossible
    block layouts are simply absent (zero).
    """
    if f.space != g.space:
        raise DomainError("contraction needs kernels on one space")
    n, m = f.order, g.order
    if not (0 <= l <= k <= min(n, m)):
        raise InputError(f"need 0 <= l <= k <= min(orders); got k={k}, l={l}")
    space = f.space
    blocks = range(space.n)
    s = k - l
    fo = n - k
    go = m - k
    # einsum labels go by role and position, never by block: shared slots
    # 0..s-1, paired slots s..k-1, then f's own slots and g's own slots. A
    # block on both sides as an own slot is two variables with two labels.
    out_labels = list(range(s)) + list(range(k, k + fo + go))
    entries: dict[tuple, np.ndarray] = {}
    for S in itertools.combinations(blocks, s):
        rest = [b for b in blocks if b not in S]
        for F in itertools.combinations(rest, fo):
            for G in itertools.combinations(rest, go):
                used = set(S) | set(F) | set(G)
                acc: np.ndarray | None = None
                for C in itertools.combinations([b for b in blocks if b not in used], l):
                    f_sub = tuple(sorted(S + F + C))
                    g_sub = tuple(sorted(S + G + C))
                    tf = f.tables.get(f_sub)
                    tg = g.tables.get(g_sub)
                    if tf is None or tg is None:
                        continue
                    f_lab = {b: i for i, b in enumerate(S + C + F)}
                    g_lab = {b: i for i, b in enumerate(S + C)} | {b: k + fo + i for i, b in enumerate(G)}
                    operands = [tf, [f_lab[b] for b in f_sub], tg, [g_lab[b] for b in g_sub]]
                    for i, b in enumerate(C):
                        operands += [space.probs[b], [s + i]]
                    term = np.einsum(*operands, out_labels)
                    acc = term if acc is None else acc + term
                if acc is not None:
                    entries[(S, F, G)] = math.factorial(l) * acc
    return Contraction(space, n, m, k, l, entries)


# -------------------------------------------------------------- multiplication


def multiply(f: ChaosKernel, g: ChaosKernel) -> ChaosDecomposition:
    """Chaos decomposition of the pointwise product I_n(f) * I_m(g).

    Combinatorial route: for every shared count k and paired count i, the
    symmetrized contraction feeds an order n + m - k - i kernel with weight
    k! C(m,k) C(n,k) C(k,i). Output kernels are re-centered on admission
    (which never changes their multiple sums), so the result is again a bona
    fide chaos decomposition.
    """
    if f.space != g.space:
        raise DomainError("product needs kernels on one space")
    space = f.space
    n, m = f.order, g.order
    mean_acc = 0.0
    acc_tables: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for kk in range(0, min(n, m) + 1):
        base = math.factorial(kk) * math.comb(m, kk) * math.comb(n, kk)
        for i in range(0, kk + 1):
            coeff = base * math.comb(kk, i)
            r = n + m - kk - i
            con = contract(f, g, kk, i)
            if r == 0:
                mean_acc += coeff * con.scalar()
                continue
            if r > space.n:
                continue  # no room for r distinct blocks: the diagonal cut removes the grade
            s = kk - i
            fo = n - kk
            go = m - kk
            factor = (
                math.factorial(s) * math.factorial(fo) * math.factorial(go) / math.factorial(r)
            )
            tables = acc_tables.setdefault(r, {})
            for K in itertools.combinations(range(space.n), r):
                acc: np.ndarray | None = None
                for S in itertools.combinations(K, s):
                    restK = [b for b in K if b not in S]
                    for F in itertools.combinations(restK, fo):
                        G = tuple(b for b in restK if b not in F)
                        val = con.entries.get((S, F, G))
                        if val is None:
                            continue
                        axis_blocks = list(S) + list(F) + list(G)
                        perm = [axis_blocks.index(b) for b in K]
                        piece = np.transpose(val, perm)
                        acc = piece if acc is None else acc + piece
                if acc is not None:
                    prev = tables.get(K)
                    add = coeff * factor * acc
                    tables[K] = add if prev is None else prev + add
    cut = tol.DROP * tol.scale([np.max(np.abs(t)) for tables in acc_tables.values() for t in tables.values()])
    kernels: dict[int, ChaosKernel] = {}
    for r, tables in acc_tables.items():
        live = {K: t for K, t in tables.items() if float(np.max(np.abs(t))) > cut}
        if live:
            kern = ChaosKernel(space, r, live)
            if kern.max_abs() > cut:
                kernels[r] = kern
    return ChaosDecomposition(space, mean_acc, kernels)


# ----------------------------------------------------------- contraction rate


def contraction_rate(dec: ChaosDecomposition) -> float:
    """Square root of the full contraction-norm bracket of a decomposition.

    sum over 0 <= l < i <= d of |f_i paired fully with itself at depth l|^2
    plus, for 1 <= l < i <= d, the mixed and lower-order pairings
    |f_i *_l^l f_i|^2 and |f_l *_l^l f_i|^2, all with full-weight free slots.
    """
    sizes = [k.max_abs() for k in dec.kernels.values()]
    tol.check_centred(dec.mean, sizes, "contraction rate needs a centered decomposition")
    total = 0.0
    orders = dec.orders()
    d = orders[-1] if orders else 0
    for i in range(1, d + 1):
        fi = dec.kernels.get(i)
        if fi is None or fi.max_abs() == 0.0:
            continue
        for l in range(0, i):
            total += contract(fi, fi, i, l).l2_norm_sq()
        for l in range(1, i):
            total += contract(fi, fi, l, l).l2_norm_sq()
            fl = dec.kernels.get(l)
            if fl is not None and fl.max_abs() > 0.0:
                total += contract(fl, fi, l, l).l2_norm_sq()
    return float(np.sqrt(total))


# ------------------------------------------------------------------ utilities


def random_kernel(space: OutcomeSpace, order: int, rng: np.random.Generator) -> ChaosKernel:
    """A random canonical kernel: normal tables on every order-set, slotwise re-centered."""
    if order > space.n:
        raise DomainError(f"no {order}-sets among {space.n} coordinates")
    tables = {
        subset: rng.standard_normal(_subset_shape(space, subset))
        for subset in itertools.combinations(range(space.n), order)
    }
    return ChaosKernel(space, order, tables, raw=True).canonical()
