"""Weighted subgraph counts in Bernoulli random graphs.

Every edge of the complete graph on n vertices is kept with probability p,
independently, and each kept edge carries an iid weight. For a template graph
G the combined weight W is the sum over copies of G whose edges are all kept,
each copy contributing the product of its edge weights.

The normal-approximation rate for the standardized W is

    (sqrt(E[(X-EX)^4]) + (1-p)(EX)^2) / (Var[X] + (1-p)(EX)^2)
        * ((1-p) * min_scale)^{-1/2},

where min_scale minimizes n^{v_H} p^{e_H} over subgraphs H of G with at least
one edge. The omitted constant depends only on the template's edge count.

Simulation uses closed matrix formulas for the four common templates (single
edge, two-edge path, triangle, four-cycle) and a generic counter for any other
template on up to five vertices. The generic counter lists the copies once per
call, as every k-vertex subset of the n vertices carrying each distinct
labelling of the template; copy_count predicts their number before anything is
allocated, and more than _GENERIC_COPY_CAP copies are refused. Both counters
draw and evaluate _BLOCK draws at a time into buffers allocated once per
call, so memory does not grow with the batch: one block of retention flags,
weights and dense n x n matrices. A counter-based jump (mc.jump_ahead) reads
each block's weights from where a whole-batch draw would, so the draws are
the same bit for bit. A block of _BLOCK draws holds a multiple of 64 edge
values, so dyadic laws (p = 1/2, Rademacher or three-point weights), which
read several values from one generator word, block the same way.

Exactness rule: when every atom of the weight law is an integer, every
entry, product and partial sum of a count is an integer too. With V =
max|atom|, none exceeds n³·V⁴ in the closed forms or copies·V^edges in the
generic counter, so when that bound, predicted before anything is
allocated, is below 2^24 the counters run in float32 (sgemm at twice the
rate of dgemm), where such integers are exact, and only the per-draw counts
become float64. The counts are then those of float64 bit for bit. Any other
law, or a bound at or above 2^24, counts in float64. At n = 80 the block
buffers take about 3.3 x 8·_BLOCK·n² bytes in float64 (11 MB) and about
2 x in float32 (6.6 MB), whose weight, dense and product buffers take half
the bytes; the flags and the draw scratch do not shrink. The closed forms
stay in float32 up to n = 255 for Rademacher or three-point weights and up
to n = 101 for {-1, 0, 2}.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .dist import Distribution, draw_atoms, draw_scratch, draw_words
from .errors import DegenerateError, DomainError, InputError

_GENERIC_COPY_CAP = 200_000

# Draws per counter block: the dense n x n matrices (and the generic
# counter's per-copy values) exist one block at a time, and the blocking never
# depends on the worker count, so the counts are reproducible.
_BLOCK = 64

# Integers up to 2^24 are exact in float32 (a 24-bit significand).
_FLOAT32_EXACT = 2**24


@dataclass(frozen=True)
class GraphSpec:
    """Simple template graph: vertex count plus sorted edge tuples.

    Isolated vertices are rejected because the rate below is stated for
    templates without them.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n_vertices < 2:
            raise InputError("a template graph needs at least two vertices")
        seen = set()
        covered = set()
        for e in self.edges:
            if len(e) != 2:
                raise InputError(f"edge {e} must have two endpoints")
            u, v = e
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise InputError(f"edge {e} out of range for {self.n_vertices} vertices")
            if u > v:
                raise InputError(f"edge {e} must be sorted (u < v)")
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
            covered.update(e)
        if not self.edges:
            raise InputError("a template graph needs at least one edge")
        if covered != set(range(self.n_vertices)):
            raise InputError("template has isolated vertices")
        if self.n_vertices > 5:
            raise InputError("templates beyond five vertices are not supported")

    @staticmethod
    def edge() -> "GraphSpec":
        return GraphSpec(2, ((0, 1),))

    @staticmethod
    def two_path() -> "GraphSpec":
        return GraphSpec(3, ((0, 1), (1, 2)))

    @staticmethod
    def triangle() -> "GraphSpec":
        return GraphSpec(3, ((0, 1), (0, 2), (1, 2)))

    @staticmethod
    def four_cycle() -> "GraphSpec":
        return GraphSpec(4, ((0, 1), (0, 3), (1, 2), (2, 3)))

    @staticmethod
    def cycle(k: int) -> "GraphSpec":
        if k < 3:
            raise InputError("cycles need at least three vertices")
        edges = sorted(tuple(sorted((i, (i + 1) % k))) for i in range(k))
        return GraphSpec(k, tuple(edges))

    @staticmethod
    def complete(k: int) -> "GraphSpec":
        return GraphSpec(k, tuple(itertools.combinations(range(k), 2)))

    @staticmethod
    def from_json(obj: object) -> "GraphSpec":
        if not isinstance(obj, dict):
            raise InputError("graph JSON must be an object")
        # JSON gives exact types, so type() tells integers from bools, floats
        # and strings.
        k, edges = obj.get("vertices"), obj.get("edges")
        if type(k) is not int or not isinstance(edges, list):
            raise InputError("graph JSON needs integer vertices and an edge list")
        if not all(isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges):
            raise InputError("graph edges must be pairs of integer vertices")
        return GraphSpec(k, tuple(sorted(tuple(sorted(e)) for e in edges)))

    @staticmethod
    def load(path: str) -> "GraphSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return GraphSpec.from_json(json.load(fh))

    def to_json(self) -> dict:
        return {"vertices": self.n_vertices, "edges": [list(e) for e in self.edges]}

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(sorted(deg))

    @property
    def kind(self) -> str:
        """Which closed-form counter applies; degree signatures are exact here."""
        sig = (self.n_vertices, self.n_edges, self.degree_sequence())
        if sig == (2, 1, (1, 1)):
            return "edge"
        if sig == (3, 2, (1, 1, 2)):
            return "two_path"
        if sig == (3, 3, (2, 2, 2)):
            return "triangle"
        if sig == (4, 4, (2, 2, 2, 2)):
            return "four_cycle"
        return "generic"

    def labellings(self) -> np.ndarray:
        """Distinct edge sets of the template on the labels 0..k-1.

        Returns an integer array of shape (k!/|Aut|, n_edges, 2) with sorted
        edges in each row: relabelling by every permutation of the k vertices
        and keeping the distinct results quotients out the automorphisms.
        """
        found = {
            tuple(sorted((min(s[u], s[v]), max(s[u], s[v])) for u, v in self.edges))
            for s in itertools.permutations(range(self.n_vertices))
        }
        return np.array(sorted(found), dtype=np.int64).reshape(len(found), self.n_edges, 2)

    def copies_in(self, n: int) -> np.ndarray:
        """Edge lists of all copies of the template inside the complete graph.

        Returns an integer array of shape (n_copies, n_edges, 2) with sorted
        edges in each row. Every k-vertex subset carries each distinct
        labelling once, so every copy appears exactly once. The count is
        checked against _GENERIC_COPY_CAP before anything is enumerated.
        """
        k = self.n_vertices
        check_copy_cap(self, n)
        subsets = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), k)),
            dtype=np.int64,
            count=math.comb(n, k) * k,
        ).reshape(-1, k)
        return subsets[:, self.labellings()].reshape(-1, self.n_edges, 2)


def _check_point(G: GraphSpec, n: int, p: float) -> None:
    if not 0.0 < p < 1.0:
        raise DomainError(f"retention probability must lie in (0, 1), got {p}")
    if n < G.n_vertices:
        raise DomainError(f"n={n} cannot host a {G.n_vertices}-vertex template")


def min_subgraph_scale(G: GraphSpec, n: int, p: float) -> float:
    """min over subgraphs H with an edge of n^{v_H} p^{e_H}.

    Subgraphs without isolated vertices suffice for the minimum, so H ranges
    over nonempty edge subsets with v_H the number of covered vertices.
    """
    _check_point(G, n, p)
    best = math.inf
    for r in range(1, G.n_edges + 1):
        for subset in itertools.combinations(G.edges, r):
            covered = set()
            for e in subset:
                covered.update(e)
            best = min(best, float(n) ** len(covered) * p**r)
    return best


def rg_rate(G: GraphSpec, n: int, p: float, law: Distribution) -> float:
    """Constant-free normal-approximation rate for the standardized weight."""
    mean = law.mean()
    mom = law.moments()
    var = mom.mu[2] - mean**2
    central4 = float(np.sum((law.values_array() - mean) ** 4 * law.probs_array()))
    numer = math.sqrt(central4) + (1.0 - p) * mean**2
    denom = var + (1.0 - p) * mean**2
    if denom <= 0.0:
        raise DegenerateError("constant weights need p < 1 for a nondegenerate count")
    return numer / denom / math.sqrt((1.0 - p) * min_subgraph_scale(G, n, p))


def copy_count(G: GraphSpec, n: int) -> int:
    """Number of copies of the template in the complete graph on n vertices.

    Each k-vertex subset hosts one copy per distinct labelling, so the count
    is C(n, k) times the number of labellings; nothing is enumerated.
    """
    if n < G.n_vertices:
        return 0
    return math.comb(n, G.n_vertices) * len(G.labellings())


def check_copy_cap(G: GraphSpec, n: int) -> None:
    """Refuse, from the predicted count, to enumerate more than _GENERIC_COPY_CAP copies."""
    count = copy_count(G, n)
    if count > _GENERIC_COPY_CAP:
        raise DomainError(
            f"template has {count} copies at n={n}, more than the {_GENERIC_COPY_CAP} "
            "the generic counter enumerates; use a smaller n or a closed-form template"
        )


def exact_weight_moments(G: GraphSpec, n: int, p: float, law: Distribution) -> tuple[float, float]:
    """Exact (mean, variance) of the combined weight.

    Centering kills every cross term between distinct copies (any edge in the
    symmetric difference contributes a factor E[X] = 0), leaving
    mean 0 and variance copy_count * (p * mu2)^{edges}.
    """
    _check_point(G, n, p)
    if not law.is_centered():
        raise DomainError("exact weight moments need a centered weight law")
    mu2 = law.moments().mu[2]
    var = copy_count(G, n) * (p * mu2) ** G.n_edges
    return 0.0, var


def _edge_positions(n: int, edges: np.ndarray) -> np.ndarray:
    """Flat positions of sorted edges (shape (..., 2)) among the pairs of K_n.

    The flat order is the row-major upper triangle of np.triu_indices(n, 1).
    """
    u, v = edges[..., 0], edges[..., 1]
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def _exact_in_float32(values: np.ndarray, n: int, idx: np.ndarray | None) -> bool:
    """Whether every atom is an integer and the exactness bound (module docstring) is below 2^24.

    idx is None for the closed forms, whose bound is n³·V⁴ (the four-cycle's
    row sums of (Y²)∘(Y²)), and the generic counter's copy positions, one
    row per template edge, otherwise, whose bound is copies·V^edges.
    """
    top = float(np.max(np.abs(values)))
    if not (np.array_equal(values, np.floor(values)) and top < _FLOAT32_EXACT):
        return False
    count, power = (n**3, 4) if idx is None else (idx.shape[1], idx.shape[0])
    return count * int(top) ** power < _FLOAT32_EXACT


class _EdgeDraw:
    """Reused one-block buffers that draw and count batches of edge draws.

    The weights, masked, dense, product and generic-gather buffers are
    float32 when _exact_in_float32 proves every partial sum of a count an
    exact integer there, and float64 otherwise (module docstring); the weights
    are drawn straight into that dtype, from the same codes and generator
    words, and the buffers take half the bytes in float32.

    A batch of b draws takes the words of b·m retention flags and then those
    of b·m weights from rng, as one whole-batch draw of each would. The
    flags of each _BLOCK of draws come from rng and their weights from a twin
    that mc.jump_ahead puts the flags' words ahead (dist.draw_words: b·m
    words, or fewer at a dyadic p such as 1/2), and rng ends where the twin
    does, so the draws are those of the whole-batch layout bit for bit. Both
    go through draw_atoms, with one set of its scratch buffers, into the
    buffers allocated here, the masked weights are gathered into the dense
    matrices by np.take(..., out=), and their products reuse one more buffer,
    so the closed-form counters allocate no block-sized temporary of their
    own and nothing holds a batch or its uniforms. Edges are the
    upper-triangle pairs in row-major order. Every counter reads the masked
    weights (a dropped edge weighs zero): with the product convention a
    kept weight-zero edge already zeroes its copies, so a separate retention
    mask would change nothing. The generic counter takes idx, the flat edge
    positions of the copies, one row per template edge (shape (n_edges,
    n_copies)); it gathers the masked weights copies-major into one
    (copies, rows) buffer per block, so each row's sum adds its copies one
    after another, in copy order.
    """

    def __init__(self, n: int, p: float, law: Distribution, kind: str, rows: int, idx: np.ndarray | None = None):
        self.n, self.kind, self._idx = n, kind, idx
        iu, ju = np.triu_indices(n, k=1)
        m = iu.size
        values = law.values_array()
        dtype = np.float32 if _exact_in_float32(values, n, idx) else np.float64
        # u < p is the two-atom law (True, False) with its step at p.
        self._flags = (np.array([p, 1.0]), np.array([True, False]))
        self._law = (law.cdf_array(), values.astype(dtype))
        self.kept = np.empty((rows, m), dtype=bool)
        self.weights = np.empty((rows, m), dtype)
        self._scratch = draw_scratch(rows * m)
        if kind == "generic":
            # Masked weights edge-major, and the copies' products and gathers.
            self._edges = np.empty(m * rows, dtype)
            self._products = np.empty(2 * idx.shape[1] * rows, dtype)
        else:
            # Masked weights, then a zero column that the diagonal cells read.
            self.padded = np.zeros((rows, m + 1), dtype)
        if kind not in ("edge", "generic"):
            # Dense matrices, their product or elementwise square, and the
            # flat position each matrix cell reads in padded.
            self.dense = np.empty((rows, n * n), dtype)
            self.square = np.empty((rows, n, n), dtype)
            cells = np.full((n, n), m)
            cells[iu, ju] = cells[ju, iu] = np.arange(m)
            self._cells = cells.ravel()

    def matrices(self, rows: int) -> np.ndarray:
        """Dense symmetric n x n matrices of the first rows masked-weight rows.

        mode="clip" (the cells are in range) lets np.take write straight into
        the buffer; the default mode="raise" would copy through a temporary.
        """
        dense = np.take(self.padded[:rows], self._cells, axis=1, out=self.dense[:rows], mode="clip")
        return dense.reshape(-1, self.n, self.n)

    def counts(self, rng: np.random.Generator, out: np.ndarray) -> None:
        """Fill out with the combined weights of one batch of out.size draws.

        The draws are made and evaluated _BLOCK at a time. The generic counter
        multiplies the copies' edges in one at a time, so it holds
        2 x _BLOCK x n_copies values rather than the full gather.
        """
        m = self.weights.shape[1]
        ahead = mc.jump_ahead(rng, draw_words(*self._flags, out.size * m))
        for lo in range(0, out.size, _BLOCK):
            rows = min(_BLOCK, out.size - lo)
            kept = draw_atoms(rng, *self._flags, self.kept[:rows], self._scratch)
            weights = draw_atoms(ahead, *self._law, self.weights[:rows], self._scratch)
            if self.kind == "generic":
                out[lo : lo + rows] = self._generic_counts(kept, weights)
            else:
                # np.where(kept, weights, 0.0) in place, except that a dropped
                # negative weight reads -0.0; no count sees that sign, because
                # every counter ends in a sum, which starts from +0.0.
                flat = np.multiply(weights, kept, out=self.padded[:rows, :m])
                out[lo : lo + rows] = _product_counts(self, flat)
        rng.bit_generator.state = ahead.bit_generator.state


    def _generic_counts(self, kept: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sum over copies of the product of their masked edge weights, one per row of one block."""
        rows, m = weights.shape
        edges = np.multiply(weights.T, kept.T, out=self._edges[: m * rows].reshape(m, rows))
        size = self._idx.shape[1] * rows
        per_copy = self._products[:size].reshape(-1, rows)
        gathered = self._products[size : 2 * size].reshape(-1, rows)
        # mode="clip" (the positions are in range) writes straight into out=.
        np.take(edges, self._idx[0], axis=0, out=per_copy, mode="clip")
        for col in self._idx[1:]:
            per_copy *= np.take(edges, col, axis=0, out=gathered, mode="clip")
        return per_copy.sum(axis=0)


def _product_counts(draw: _EdgeDraw, flat: np.ndarray) -> np.ndarray:
    kind, rows = draw.kind, flat.shape[0]
    if kind == "edge":
        return flat.sum(axis=1)
    Y, Y2 = draw.matrices(rows), draw.square[:rows]
    if kind == "two_path":
        r = Y.sum(axis=2)
        q = np.multiply(Y, Y, out=Y2).sum(axis=2)
        return 0.5 * (r * r - q).sum(axis=1)
    np.matmul(Y, Y, out=Y2)
    single = Y.dtype == np.float32
    if kind == "triangle":
        # trace(Y^3); in float32 as the sum of Y∘Y², the same trace, since Y
        # is symmetric, read in memory order.
        trace = np.einsum("bij,bij->b", Y2, Y) if single else np.einsum("bij,bji->b", Y2, Y)
        return trace.astype(float) / 6.0
    if kind == "four_cycle":
        # Sum of (Y²)∘(Y²); in float32 each row's sum stays below n³·V⁴ and
        # the n row sums add in float64.
        if single:
            tr4 = np.einsum("bij,bij->bi", Y2, Y2).sum(axis=1, dtype=float)
        else:
            tr4 = np.einsum("bij,bij->b", Y2, Y2)
        s = np.einsum("bii->bi", Y2)
        # Sum of Y^4 over the n x n matrix, in which every edge appears twice;
        # the weights buffer is free once they are masked into padded.
        sq = np.multiply(flat, flat, out=draw.weights[:rows])
        sq *= sq
        q4 = 2.0 * sq.sum(axis=1)
        return (tr4 - 2.0 * (s * s).sum(axis=1) + q4) / 8.0
    raise InputError(f"no closed-form counter for kind {kind!r}")


def simulate_weight(
    G: GraphSpec,
    n: int,
    p: float,
    law: Distribution,
    rng: np.random.Generator,
    size: int | None = None,
    batch: int = 2_000,
) -> float | np.ndarray:
    """Draw realizations of the combined template weight.

    With size None a single float comes back. Each batch of draws takes its
    retention indicators and then its weights from rng, so the draws depend
    on batch but not on the counter blocking; batch fixes that stream layout,
    not the memory, which _EdgeDraw's one-block buffers bound.
    """
    _check_point(G, n, p)
    total = 1 if size is None else int(size)
    if total < 1:
        raise InputError("size must be positive")
    if batch < 1:
        raise InputError("batch must be positive")
    kind = G.kind
    idx = None
    if kind == "generic":
        idx = _edge_positions(n, G.copies_in(n).transpose(1, 0, 2))
    draw = _EdgeDraw(n, p, law, kind, min(_BLOCK, batch, total), idx)
    out = np.empty(total)
    for lo in range(0, total, batch):
        draw.counts(rng, out[lo : lo + batch])
    return float(out[0]) if size is None else out
