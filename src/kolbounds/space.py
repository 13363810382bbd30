"""Product outcome spaces and exactly-enumerated random functionals.

An OutcomeSpace is a finite product of independent discrete laws, one per
coordinate. A RandomFunctional is an arbitrary real function of the outcome,
stored densely as one value per outcome in lexicographic (C) order of the atom
indices. Everything downstream (chaos grades, gradients, bounds, exact
Kolmogorov distances) reduces to weighted sums over this grid.

law_mean, one axis averaged under its coordinate's law by BLAS
matrix-vector products (law_expect: every axis), is behind conditionals,
the Hoeffding terms (hoeffding.project's mean and centred slots), gradients
and their integrals, kernel slot means, norms and re-centring (also
chaos.multiply's) and U-kernel moments; only whole-grid joint_probs dots
(gram: one gemm for many grids), chaos.multiply's per-axis fold, the per-atom
expectations of chaos.gradient_integrals and the change of basis behind
gradewise scaling (its per-axis matrices) weight by a law otherwise.
power is the one integer power of a grid: squarings and products, never
libm pow.

The enumeration cap is 2**18 outcomes; larger spaces raise SpaceTooLargeError
at construction so the failure happens early and loudly. hoeffding.project
holds its table of prod (m_k + 1) entries to the same cap, and
chaos.multiply its lifted tables of prod (2 m_k + 1) entries. Stacks of
functionals are read in stack_chunks; check_bytes holds inputs to BYTE_CAP.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Container, Iterable, Iterator, Sequence

import numpy as np

from .dist import Distribution
from .errors import DomainError, InputError, SpaceTooLargeError

SIZE_CAP = 2**18
STACK_CAP = SIZE_CAP  # most outcomes in one chunk of a stack of functionals (stack_chunks)
BYTE_CAP = 2**28  # most bytes of the first dense array an input may make a command allocate (256 MiB)


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse, with InputError, what (an array predicted to take nbytes bytes) past BYTE_CAP, before it is made."""
    if nbytes > BYTE_CAP:
        raise InputError(f"{what} would take {nbytes} bytes ({nbytes / 2**30:.3g} GiB), past the {BYTE_CAP}-byte cap")


def stack_chunks(Xs: Iterable[RandomFunctional]) -> Iterator[list[RandomFunctional]]:
    """Consecutive runs of whole functionals of Xs, each at most STACK_CAP outcomes in all or one functional."""
    chunk: list[RandomFunctional] = []
    outcomes = 0
    for X in Xs:
        if chunk and outcomes + X.space.size > STACK_CAP:
            yield chunk
            chunk, outcomes = [], 0
        chunk.append(X)
        outcomes += X.space.size
    if chunk:
        yield chunk


def law_mean(T: np.ndarray, axis: int, probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum over t of probs[t] * T[..., t, ...] along axis, kept as length one.

    T is viewed as (before axis, axis, after axis) and contracted with probs
    by BLAS matrix-vector products written straight into the output, with no
    other temporary: the last axis is one gemv on the (before, axis) matrix
    (probs @ V would make one tiny product per leading index there), any
    other axis one gemv per leading index (a single one for axis 0). A T the
    reshape cannot view, such as a transposed grid, is copied by it first.
    The output is new, or out: a contiguous buffer of T.size / T.shape[axis]
    entries, such as a slice of a reused flat buffer. An axis of length one
    (a reduced grid, constant along it) comes back as is.
    """
    m = T.shape[axis]
    if m == 1:
        return T
    V = T.reshape(math.prod(T.shape[:axis]), m, -1)
    if V.shape[2] == 1:
        total = np.matmul(V[:, :, 0], probs, out=None if out is None else out.reshape(-1))
    else:
        total = np.matmul(probs, V, out=None if out is None else out.reshape(V.shape[0], V.shape[2]))
    return total.reshape(T.shape[:axis] + (1,) + T.shape[axis + 1 :])


def power(a: np.ndarray, k: int) -> np.ndarray:
    """a**k, elementwise, for an integer k >= 0, in a new array.

    Binary powering: floor(log2 k) squarings and one product per further set
    bit of k, each in place on an array of its own. numpy's ** sends any
    exponent but 2 through libm pow: a**4 on 19 683 values takes 1.7 ms
    there and 0.013 ms here (numpy 2.4.6).
    """
    k = operator.index(k)
    if k < 0:
        raise InputError(f"power needs an integer exponent >= 0, got {k}")
    base = np.asarray(a, dtype=float)
    if k == 0:
        return np.ones_like(base)
    out = None
    while True:
        if k & 1:
            if out is not None:
                np.multiply(out, base, out=out)
            else:
                # At the top bit a base of our own is not needed again.
                out = base if k == 1 and base is not a else base.copy()
        k >>= 1
        if not k:
            return out
        base = np.multiply(base, base, out=None if base is a else base)


def law_expect(T: np.ndarray, probs: Sequence[np.ndarray]) -> float:
    """E of a whole table, axis k averaged under probs[k] by law_mean."""
    for axis, p in enumerate(probs):
        T = law_mean(T, axis, p)
    return T.item()


class OutcomeSpace:
    """A finite product of independent discrete coordinate laws."""

    def __init__(self, laws: Iterable[Distribution]):
        self.laws: tuple[Distribution, ...] = tuple(laws)
        if not self.laws:
            raise InputError("an outcome space needs at least one coordinate")
        self.shape: tuple[int, ...] = tuple(law.n_atoms for law in self.laws)
        self.size: int = math.prod(self.shape)
        if self.size > SIZE_CAP:
            raise SpaceTooLargeError(f"outcome space has {self.size} points, cap is {SIZE_CAP}")
        self.n: int = len(self.laws)
        self.values: tuple[np.ndarray, ...] = tuple(law.values_array() for law in self.laws)
        self.probs: tuple[np.ndarray, ...] = tuple(law.probs_array() for law in self.laws)
        # The distinct laws numbered in order of first appearance, one id per coordinate.
        ids: dict[Distribution, int] = {}
        self.law_ids: tuple[int, ...] = tuple(ids.setdefault(law, len(ids)) for law in self.laws)
        self._joint: np.ndarray | None = None

    @staticmethod
    def iid(law: Distribution, n: int) -> "OutcomeSpace":
        return OutcomeSpace([law] * n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OutcomeSpace) and self.laws == other.laws

    def __repr__(self) -> str:
        return f"OutcomeSpace(n={self.n}, shape={self.shape})"

    @property
    def joint_probs(self) -> np.ndarray:
        """The full product probability tensor, cached after first use."""
        if self._joint is None:
            p = np.array(1.0)
            for k in range(self.n):
                p = np.multiply.outer(p, self.probs[k])
            p = p.reshape(self.shape)
            p.flags.writeable = False
            self._joint = p
        return self._joint

    def gram(self, rows: np.ndarray) -> np.ndarray:
        """E[R_u R_v] under the joint law for the rows R_u of rows (one value per outcome each), in one gemm."""
        R = rows.reshape(len(rows), -1)
        return (R * self.joint_probs.reshape(-1)) @ R.T

    def evaluate(self, fn: Callable[[np.ndarray], np.ndarray], rows: int) -> np.ndarray:
        """Values of fn at every outcome in enumeration order, a block at a time.

        A block is every outcome of the trailing axes whose sizes multiply to
        at most rows, under one index of the leading axes; fn gets its codes
        (codes[r, k] is the atom index of coordinate k), a buffer reused by
        the next block.
        """
        k, inner = self.n, 1
        while k > 0 and inner * self.shape[k - 1] <= rows:
            k -= 1
            inner *= self.shape[k]
        codes = np.empty((inner, self.n), dtype=np.intp)
        codes[:, k:] = np.indices(self.shape[k:]).reshape(self.n - k, inner).T
        vals = np.empty(self.size)
        for b in range(self.size // inner):
            codes[:, :k] = np.unravel_index(b, self.shape[:k])
            vals[b * inner : (b + 1) * inner] = fn(codes)
        return vals

    def average(self, grid: np.ndarray, keep: Container[int] = ()) -> np.ndarray:
        """E of a full or reduced grid over every coordinate not in keep (keepdims).

        A reduced grid has length one along the axes it is constant on, and
        averaging along such an axis is a no-op.
        """
        g = grid
        for k in range(self.n):
            if k not in keep:
                g = law_mean(g, k, self.probs[k])
        return g

    def check_coordinate(self, k: int) -> None:
        if not 0 <= k < self.n:
            raise DomainError(f"coordinate {k} outside 0..{self.n - 1}")

    # ------------------------------------------------------------ functionals

    def functional(self, values: np.ndarray | Sequence[float]) -> "RandomFunctional":
        """Wrap dense values (flat in enumeration order, or grid-shaped)."""
        arr = np.asarray(values, dtype=float)
        if arr.shape == self.shape:
            arr = arr.reshape(-1)
        if arr.shape != (self.size,):
            raise InputError(
                f"functional values have shape {arr.shape}, expected ({self.size},) or {self.shape}"
            )
        return RandomFunctional(self, arr.copy())

    def constant(self, c: float) -> "RandomFunctional":
        return RandomFunctional(self, np.full(self.size, float(c)))

    def expand(self, grid: np.ndarray) -> "RandomFunctional":
        """The functional of a full or reduced (keepdims) grid, in one copy.

        Each axis of length one is spread over its coordinate's atoms; the
        grid itself is never modified or kept.
        """
        out = np.empty(self.shape)
        np.copyto(out, grid)
        return RandomFunctional(self, out.reshape(-1))

    def coordinate(self, k: int) -> "RandomFunctional":
        """The projection onto coordinate k as a functional."""
        self.check_coordinate(k)
        shape = [1] * self.n
        shape[k] = self.shape[k]
        return self.expand(self.values[k].reshape(shape))


class RandomFunctional:
    """A real function of the outcome, one value per point of the space.

    Values are stored flat in lexicographic order of atom indices and are
    immutable; all operations return new functionals.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: OutcomeSpace, values: np.ndarray):
        self.space = space
        v = np.asarray(values, dtype=float).reshape(-1)
        if v.shape != (space.size,):
            raise InputError("value vector does not match the space size")
        v.flags.writeable = False
        self.values = v

    @property
    def grid(self) -> np.ndarray:
        return self.values.reshape(self.space.shape)

    # ------------------------------------------------------------- moments

    def expectation(self) -> float:
        return float(np.dot(self.values, self.space.joint_probs.reshape(-1)))

    def moment(self, k: int) -> float:
        return float(np.dot(power(self.values, k), self.space.joint_probs.reshape(-1)))

    def variance(self) -> float:
        m = self.expectation()
        return max(self.moment(2) - m * m, 0.0)

    def centered(self) -> "RandomFunctional":
        return RandomFunctional(self.space, self.values - self.expectation())

    # -------------------------------------------------------- conditioning

    def conditional(self, subset: Sequence[int]) -> "RandomFunctional":
        """E[X | coordinates in subset], as a functional on the full space."""
        keep = set(subset)
        for k in keep:
            self.space.check_coordinate(k)
        return self.space.expand(self.space.average(self.grid, keep))

    # ----------------------------------------------------------- arithmetic

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, RandomFunctional):
            if not (other.space is self.space or other.space == self.space):
                raise DomainError("functionals live on different outcome spaces")
            return other.values
        if isinstance(other, (int, float, np.floating, np.integer)):
            return np.asarray(float(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RandomFunctional(self.space, self.values + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RandomFunctional(self.space, self.values - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RandomFunctional(self.space, v - self.values)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return RandomFunctional(self.space, self.values * v)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return RandomFunctional(self.space, power(self.values, k))

    def __neg__(self):
        return RandomFunctional(self.space, -self.values)

    def __repr__(self) -> str:
        return f"RandomFunctional(space={self.space!r}, mean={self.expectation():.6g})"
