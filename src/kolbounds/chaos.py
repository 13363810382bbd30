"""Finite chaos calculus: kernels, multiple sums, gradients, operator powers.

Conventions, fixed once for the whole package:

* A kernel of order d assigns to every sorted d-subset J of coordinates an
  array over the product of those coordinates' supports. Kernels are
  "canonical": every slot average under the slot's law vanishes. The public
  constructor checks subsets and shapes, and refuses a table whose slot means
  exceed tol.CENTRING (scaled) unless raw=True ("use canonical() first"):
  re-centring it would change its multiple sum. canonical() takes one
  law_mean per slot over the stacked tables of each group of subsets whose
  slots share their laws (one group on an iid space). Kernels the package
  builds itself come from ChaosKernel._made, which checks nothing. Slot
  means, kernel norms and gradients average with space.law_mean /
  law_expect, one BLAS matrix-vector product per axis with the law as the
  vector; only multiply's fold (its paired-slot weights), the expectations
  gradient_integrals keeps as floats (the joint law, or coordinate k's law
  over per-atom expectations) and OutcomeSpace.gram take laws as operands.
* The multiple sum of a kernel is I_d(f) = d! * sum over subsets J of
  f_J(coordinates on J). Its covariance identity reads
  E[I_d(f) I_d(g)] = d! * <f, g> with <f, g> = d! * sum_J E[f_J g_J].
* Integrals over the replacement variable come in two weights. Each
  coordinate carries total weight 2 in a full-weight integral
  (sum_k 2 * E_{t ~ nu_k}) and weight 1 in a half-weight one
  (sum_k E_{t ~ nu_k}). All explicit constants in the bound evaluators are
  calibrated to this pairing; the product formula pairs slots with weight 1.
* The discrete gradient at (k, t) is
  grad_{k,t} X(w) = X(w with coordinate k set to t) - E_{s ~ nu_k} X(w with k set to s),
  a functional that does not depend on coordinate k itself. gradient(X, k)
  stacks it over the atoms t. gradient_integrals serves every gradient
  bound: it takes stacks of functionals and walks the coordinates once,
  forming every functional's gradients at coordinate k in one buffer (one
  law_mean and one subtract per stack) and running each term once over
  them; that buffer and one spare are allocated once per call.
* Operator powers act gradewise: the order-d part of X is scaled by d**alpha.
  Negative powers require a centered input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import hoeffding, tol
from .errors import DomainError, InputError, SpaceTooLargeError
from .space import SIZE_CAP, OutcomeSpace, RandomFunctional, law_expect, law_mean


def slot_mean_max(table: np.ndarray, probs: list[np.ndarray]) -> float:
    """Largest |average of table over one slot|, slot (axis) k averaged under probs[k]."""
    means = (law_mean(table, axis, p) for axis, p in enumerate(probs))
    return max((float(np.max(np.abs(m))) for m in means), default=0.0)


def center_slots(table: np.ndarray, probs: list[np.ndarray]) -> np.ndarray:
    """table with each slot's mean under probs[k] removed, slot by slot (slots last, any axes before a stack)."""
    out = table
    for axis, p in enumerate(probs, start=table.ndim - len(probs)):
        out = out - law_mean(out, axis, p)
    return out


class ChaosKernel:
    """A canonical order-d kernel, stored per sorted coordinate subset."""

    def __init__(self, space: OutcomeSpace, order: int, tables: dict[tuple[int, ...], np.ndarray], raw: bool = False):
        if order < 1:
            raise InputError("kernel order must be at least 1")
        self.space, self.order = space, order
        self.tables: dict[tuple[int, ...], np.ndarray] = {}
        for subset, table in tables.items():
            subset = tuple(subset)
            if len(subset) != order or list(subset) != sorted(set(subset)):
                raise InputError(f"subset {subset} is not a sorted {order}-set")
            for j in subset:
                space.check_coordinate(j)
            arr = np.asarray(table, dtype=float)
            if arr.shape != (want := tuple(space.shape[j] for j in subset)):
                raise InputError(f"table for subset {subset} has shape {arr.shape}, expected {want}")
            self.tables[subset] = arr
        if not raw and (worst := self.degeneracy_violation()) > tol.CENTRING * tol.scale(self.max_abs()):
            raise DomainError(f"kernel is not canonical (worst slot mean {worst:.3e}); use canonical() first")

    @classmethod
    def _made(cls, space: OutcomeSpace, order: int, tables: dict[tuple[int, ...], np.ndarray]) -> "ChaosKernel":
        """A kernel the package built itself, its sorted subsets and float tables taken as they are."""
        kern = cls.__new__(cls)
        kern.space, kern.order, kern.tables = space, order, tables
        return kern

    def degeneracy_violation(self) -> float:
        """Largest absolute slot average over all subsets and slots."""
        return max((slot_mean_max(t, [self.space.probs[j] for j in s]) for s, t in self.tables.items()), default=0.0)

    def max_abs(self) -> float:
        return max((float(np.max(np.abs(t))) for t in self.tables.values()), default=0.0)

    def canonical(self) -> "ChaosKernel":
        """Every slot's mean removed: one center_slots per stack of the subsets whose slots share their laws."""
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for subset in self.tables:
            groups.setdefault(tuple(self.space.law_ids[j] for j in subset), []).append(subset)
        centred: dict[tuple[int, ...], np.ndarray] = {}
        for subsets in groups.values():
            stack = np.stack([self.tables[s] for s in subsets])
            centred.update(zip(subsets, center_slots(stack, [self.space.probs[j] for j in subsets[0]])))
        return ChaosKernel._made(self.space, self.order, {s: centred[s] for s in self.tables})

    # ---------------------------------------------------------------- algebra

    def inner_product(self, other: "ChaosKernel") -> float:
        """<f, g> = d! * sum_J E_(nu on J)[f_J g_J]; orders must match."""
        if other.order != self.order or other.space != self.space:
            raise DomainError("inner product needs kernels of one order on one space")
        total = 0.0
        for subset, table in self.tables.items():
            t2 = other.tables.get(subset)
            if t2 is not None:
                total += law_expect(table * t2, [self.space.probs[j] for j in subset])
        return math.factorial(self.order) * total

    def integral(self) -> RandomFunctional:
        """The multiple sum I_d(f) = d! * sum_J f_J(omega on J) as a functional."""
        space = self.space
        total = np.zeros(space.shape)
        for subset, table in self.tables.items():
            total += table.reshape([m if j in subset else 1 for j, m in enumerate(space.shape)])
        total *= math.factorial(self.order)
        return RandomFunctional(space, total.reshape(-1))


@dataclass
class ChaosDecomposition:
    """mean + sum over orders d of I_d(f_d)."""

    space: OutcomeSpace
    mean: float
    kernels: dict[int, ChaosKernel] = field(default_factory=dict)

    def reconstruct(self) -> RandomFunctional:
        out = self.space.constant(self.mean)
        for d in sorted(self.kernels):
            out = out + self.kernels[d].integral()
        return out


def _subsets(n: int) -> Iterator[tuple[int, ...]]:
    """Every nonempty subset of range(n), sorted, in bit-mask order."""
    return (tuple(k for k in range(n) if mask >> k & 1) for mask in range(1, 1 << n))


def _at(subset: tuple[int, ...], n: int) -> tuple:
    """Where a subset's kernel table sits in a (mean | centred) table: atom slots on it, the mean slot elsewhere."""
    return tuple(slice(1, None) if k in subset else 0 for k in range(n))


def _table(kern: ChaosKernel) -> np.ndarray:
    """A kernel's tables in one (mean | centred) table, zero at every entry of another order."""
    space = kern.space
    T = np.zeros(tuple(m + 1 for m in space.shape))
    for subset, table in kern.tables.items():
        T[_at(subset, space.n)] = table
    return T


def decompose(X: RandomFunctional) -> ChaosDecomposition:
    """Exact chaos decomposition of a functional on its whole space.

    Each kernel table is a slice of hoeffding.project's table divided by d!:
    the centred slots on the axes of J and the mean slot on every other axis.
    Terms no larger than tol.DROP (scaled) are dropped.
    """
    T = hoeffding.project(X)
    space = X.space
    cut = tol.DROP * tol.scale(X.values)
    mean = X.expectation()
    per_order: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for subset in _subsets(space.n):
        table = T[_at(subset, space.n)]
        if float(np.max(np.abs(table))) > cut:
            per_order.setdefault(len(subset), {})[subset] = table / math.factorial(len(subset))
    # Hoeffding terms are centred by construction: a check would only find round-off.
    kernels = {d: ChaosKernel._made(space, d, tables) for d, tables in per_order.items()}
    return ChaosDecomposition(space, mean, kernels)


# ------------------------------------------------------------------ gradient


def _gradients(S: np.ndarray, k: int, p: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """grad_{k,t} of every grid of the stack S (a leading functional axis) into out, shape (len(S), m_k, ...).

    One law_mean along k into the head of the flat scratch and one subtract:
    out[f, t] is grid f with coordinate k read as t, minus its mean along k.
    """
    mean = law_mean(S, k + 1, p, out=scratch[: S.size // S.shape[k + 1]])
    np.subtract(S[:, None].swapaxes(1, k + 2), mean[:, None], out=out)


def gradient(X: RandomFunctional, k: int) -> np.ndarray:
    """The stack of grad_{k,t} X over the atoms t of coordinate k.

    Row t is grad_{k,t} X as a grid with axis k of length one: the grid
    centred along k by law_mean, k moved to a leading atom axis, C-ordered.
    """
    space = X.space
    space.check_coordinate(k)
    m = space.shape[k]
    out = np.empty((1, m) + space.shape[:k] + (1,) + space.shape[k + 1 :])
    _gradients(X.grid[None], k, space.probs[k], out, np.empty(space.size // m))
    return out[0]


def _atom_average(space: OutcomeSpace, k: int, T: np.ndarray) -> np.ndarray:
    """E_{t ~ nu_k} E[T[f, t]] for each f, for per-atom grids T (functionals, atoms, then the
    grid with axis k of length one) or per-atom expectations (functionals, atoms)."""
    if T.ndim == 2:
        return T @ space.probs[k]
    # Atom t weighs the outcomes with coordinate k at atom t: the joint law
    # with axis k read as the atom axis.
    m, rest = space.shape[k], math.prod(space.shape[k + 1 :])
    weights = space.joint_probs.reshape(-1, m, rest)
    return np.einsum("ftab,atb->f", T.reshape(len(T), m, -1, rest), weights)


def gradient_integrals(
    space: OutcomeSpace,
    stacks: Sequence[np.ndarray],
    terms: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]],
    expected: Sequence[Callable[[np.ndarray, np.ndarray], np.ndarray]] = (),
) -> list[np.ndarray]:
    """sum_k E_{t ~ nu_k}[term] for each term, at weight 1 per coordinate, over stacks of functionals.

    Each stack holds grids with a leading functional axis, (F_i,) + space.shape
    or (F_i, space.size), C-ordered; together they are F functionals, in order.
    Per coordinate k every gradient goes into one buffer G of shape
    (F, m_k) + space.shape with axis k of length one: G[f, t] is
    grad_{k,t} of functional f, formed by one law_mean and one subtract per
    stack (_gradients). G and one spare buffer of its size are allocated once
    per call and reused by every coordinate.

    Each term is called as term(G, spare), spare a view of the spare buffer in
    G's shape, and returns an array of shape (F', m_k) + G.shape[2:]: its
    integral comes back as an (F',) + space.shape array. An expected term
    returns such an array or per-atom expectations of shape (F', m_k), and
    only the expectation of its integral is kept: an (F',) array. Terms run
    in order, the expected ones last, and each is reduced before the next
    runs. A term may use spare as scratch (a result in its head leaves the
    tail to the reduction over atoms) and may overwrite G, which every later
    term then sees. The full-weight integral is twice the result.

    Memory: G and spare (F grids each) and the integrals (F' grids each); a
    term's reduction over atoms takes F' / m_k grids of its own only when
    the spare's tail is taken.
    """
    if any(S.size != len(S) * space.size for S in stacks):
        raise InputError(f"a stack's grids do not fit {space!r}")
    grids = [S.reshape((len(S),) + space.shape) for S in stacks]
    F = sum(len(S) for S in grids)
    buffer, spare = np.empty(F * space.size), np.empty(F * space.size)
    outs: list = [None] * len(terms)
    means = [0.0] * len(expected)
    for k, p in enumerate(space.probs):
        G = buffer.reshape((F, space.shape[k]) + space.shape[:k] + (1,) + space.shape[k + 1 :])
        scratch = spare.reshape(G.shape)
        row = 0
        for S in grids:
            _gradients(S, k, p, G[row : row + len(S)], spare)
            row += len(S)
        for i, term in enumerate(terms):
            T = term(G, scratch)
            tail = spare[spare.size - T.size // T.shape[1] :]
            mean = law_mean(T, 1, p, out=None if np.may_share_memory(T, tail) else tail)[:, 0]
            if outs[i] is None:
                outs[i] = np.zeros((len(T),) + space.shape)
            outs[i] += mean
        for i, term in enumerate(expected):
            means[i] += _atom_average(space, k, term(G, scratch))
    return outs + means


# ------------------------------------------------------------ operator power


def apply_L_power(X: RandomFunctional, alpha: float) -> RandomFunctional:
    """Gradewise power of the number operator: order d scaled by d**alpha.

    alpha = 0 is the identity. For alpha < 0 the input must be centered
    (the order-0 part has no inverse).
    """
    if alpha == 0.0:
        return X
    if alpha < 0.0:
        tol.check_centred(X.expectation(), X.values, "negative operator powers need a centered functional")
    coeffs = [0.0] + [float(d) ** alpha for d in range(1, X.space.n + 1)]
    return hoeffding.scale_grades(X, coeffs)


def covariance_identity_check(Xs: Sequence[RandomFunctional], triples: Sequence[tuple[int, int, float]]) -> list[float]:
    """|Cov(X, Y) - sum_k E E_t[(grad_{k,t} A)(grad_{k,t} B)]| for each triple (i, j, alpha).

    X = Xs[i] and Y = Xs[j] are centered, A = L^(alpha-1) X and B = L^(-alpha) Y
    (L the number operator, any real alpha); each power is computed once
    (apply_L_power). Both sides come from OutcomeSpace.gram: of the values, and
    summed over k of the grids centred along k (the stacks of grad_{k,t} with
    coordinate k read as t). Memory: two grids per power.
    """
    space = Xs[0].space
    if any(X.space != space for X in Xs):
        raise DomainError("functionals live on different spaces")
    rows: dict[tuple[int, float], int] = {}
    for i, j, alpha in triples:
        for key in ((i, 0.0), (j, 0.0), (i, alpha - 1.0), (j, -alpha)):
            rows.setdefault(key, len(rows))
    for i in dict.fromkeys(i for i, _ in rows):
        tol.check_centred(Xs[i].expectation(), Xs[i].values, f"covariance identity needs centered input {i}")
    V = np.stack([apply_L_power(Xs[i], power).grid for i, power in rows])
    lhs = space.gram(V)
    rhs = sum(space.gram(V - law_mean(V, k + 1, p)) for k, p in enumerate(space.probs))
    return [abs(lhs[rows[i, 0.0], rows[j, 0.0]] - rhs[rows[i, a - 1.0], rows[j, -a]]) for i, j, a in triples]


# -------------------------------------------------------------- multiplication


def _lift_and_fold(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lift (m + 1 -> 2m + 1 slots) and fold (2m + 1 -> m + 1 slots) of one axis with law p.

    The lift keeps f_0 and f_t and appends f_0 + f_t. After the pointwise
    product the fold sends the mean slot to P_0 + sum_t p_t P_t (neither
    kernel, or the two paired) and atom t to P_(m+t) - P_0 (one kernel's own
    slot, or both sharing it).
    """
    m = len(p)
    lift = np.zeros((2 * m + 1, m + 1))
    lift[: m + 1] = np.eye(m + 1)
    lift[m + 1 :, 0] = 1.0
    lift[m + 1 :, 1:] = np.eye(m)
    fold = np.zeros((m + 1, 2 * m + 1))
    fold[0, 0] = 1.0
    fold[0, 1 : m + 1] = p
    fold[1:, 0] = -1.0
    fold[1:, m + 1 :] = np.eye(m)
    return lift, fold


def _per_axis(T: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """T with mats[k] applied along axis k: each step reads the leading axis and appends the new one."""
    for M in mats:
        T = (T.reshape(M.shape[1], -1).T @ M.T).reshape(T.shape[1:] + M.shape[:1])
    return T


def multiply(f: ChaosKernel, g: ChaosKernel) -> ChaosDecomposition:
    """Chaos decomposition of the pointwise product I_n(f) * I_m(g).

    Both kernels go into a (mean | centred) table in hoeffding.project's
    layout (slot 0 off the subset, slot 1 + t at atom t), and three passes
    over the axes give every contraction at once: a lift, a pointwise
    product and a fold (_lift_and_fold). An entry with r atom slots is
    scaled by n! m! / r!, what the combinatorial weights
    k! C(m,k) C(n,k) C(k,i) s! fo! go! / r! times l! come to; the entry with
    none is the mean. The lifted tables have prod (2 m_k + 1) entries,
    refused before they are allocated when that exceeds space.SIZE_CAP.
    Entries no larger than tol.DROP (scaled) are cut. Re-centring each atom
    slot along every axis then replaces each kernel by its canonical part:
    for canonical inputs it removes from each shared slot the mean the
    paired term already carries; only then is the result the product.
    """
    if f.space != g.space:
        raise DomainError("product needs kernels on one space")
    space = f.space
    n = space.n
    size = math.prod(2 * a + 1 for a in space.shape)
    if size > SIZE_CAP:
        raise SpaceTooLargeError(f"lifted product table of {space!r} has {size} entries, cap is {SIZE_CAP}")
    lifts, folds = zip(*(_lift_and_fold(p) for p in space.probs))
    P = _per_axis(_table(f), lifts)
    P *= _per_axis(_table(g), lifts)
    R = _per_axis(P, folds)
    del P
    coeff = [math.factorial(f.order) * math.factorial(g.order) / math.factorial(r) for r in range(n + 1)]
    peaks = {K: coeff[len(K)] * float(np.max(np.abs(R[_at(K, n)]))) for K in _subsets(n)}
    cut = tol.DROP * tol.scale(list(peaks.values()))
    for k, p in enumerate(space.probs):
        atoms = R[(slice(None),) * k + (slice(1, None),)]
        atoms -= law_mean(atoms, k, p)
    per_order: dict[int, dict[tuple[int, ...], np.ndarray]] = {}
    for K, peak in peaks.items():
        if peak > cut:
            per_order.setdefault(len(K), {})[K] = coeff[len(K)] * R[_at(K, n)]
    kernels = {r: ChaosKernel._made(space, r, tables) for r, tables in per_order.items()}
    kernels = {r: kern for r, kern in kernels.items() if kern.max_abs() > cut}
    return ChaosDecomposition(space, coeff[0] * float(R[(0,) * n]), kernels)


# ------------------------------------------------------------------ utilities


def random_kernel(space: OutcomeSpace, order: int, rng: np.random.Generator) -> ChaosKernel:
    """A random canonical kernel: normal tables on every order-set, from one draw in subset order, made canonical."""
    if order > space.n:
        raise DomainError(f"no {order}-sets among {space.n} coordinates")
    shapes = {s: tuple(space.shape[j] for j in s) for s in itertools.combinations(range(space.n), order)}
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = rng.standard_normal(sum(sizes))
    starts = itertools.accumulate(sizes, initial=0)
    tables = {s: flat[a : a + z].reshape(shape) for (s, shape), a, z in zip(shapes.items(), starts, sizes)}
    return ChaosKernel._made(space, order, tables).canonical()
