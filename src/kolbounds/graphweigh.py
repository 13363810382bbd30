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
weights and dense n x n matrices (about 3.5 x 8·_BLOCK·n² bytes at n = 80,
11 MB). A counter-based jump (mc.jump_ahead) reads each block's weights
from where a whole-batch draw would, so the draws are the same bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import mc
from .dist import Distribution, draw_atoms, draw_scratch
from .errors import DegenerateError, DomainError, InputError

_GENERIC_COPY_CAP = 200_000

# Draws per counter block: the dense n x n matrices (and the generic
# counter's per-copy values) exist one block at a time, and the blocking never
# depends on the worker count, so the counts are reproducible.
_BLOCK = 64


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
        try:
            k = int(obj["vertices"])
            edges = tuple(tuple(sorted((int(u), int(v)))) for u, v in obj["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("graph JSON needs vertices and an edge list") from exc
        return GraphSpec(k, tuple(sorted(edges)))

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


class _EdgeDraw:
    """Reused one-block buffers that draw and count batches of edge draws.

    A batch of b draws takes b·m retention uniforms (m edges) and then b·m
    weight uniforms from rng, as one whole-batch draw of each would. The
    flags of each _BLOCK of draws come from rng and their weights from a twin
    that mc.jump_ahead puts b·m uniforms ahead, and rng ends where the twin
    does, so the draws are those of the whole-batch layout bit for bit. Both
    go through draw_atoms, with one set of its scratch buffers, into the
    buffers allocated here, the masked weights are gathered into the dense
    matrices by np.take(..., out=), and their products reuse one more buffer,
    so the closed-form counters allocate no block-sized temporary of their
    own and nothing holds a batch or its uniforms. Edges are the
    upper-triangle pairs in row-major order. Keeping the retention mask
    separate from the weights matters for laws with an atom at zero, where a
    kept weight-zero edge still completes copies.
    """

    def __init__(self, n: int, p: float, law: Distribution, kind: str, rows: int):
        self.n, self.kind = n, kind
        iu, ju = np.triu_indices(n, k=1)
        m = iu.size
        # u < p is the two-atom law (True, False) with its step at p.
        self._flags = (np.array([p, 1.0]), np.array([True, False]))
        self._law = (law.cdf_array(), law.values_array())
        self.kept = np.empty((rows, m), dtype=bool)
        self.weights = np.empty((rows, m))
        self._scratch = draw_scratch(rows * m)
        if kind != "generic":
            # Masked weights, then a zero column that the diagonal cells read.
            self.padded = np.zeros((rows, m + 1))
        if kind not in ("edge", "generic"):
            # Dense matrices, their product or elementwise square, and the
            # flat position each matrix cell reads in padded.
            self.dense = np.empty((rows, n * n))
            self.square = np.empty((rows, n, n))
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

    def counts(self, rng: np.random.Generator, out: np.ndarray, idx: np.ndarray | None = None) -> None:
        """Fill out with the combined weights of one batch of out.size draws.

        The draws are made and evaluated _BLOCK at a time. idx holds the flat
        edge positions of the copies, one row per template edge (shape
        (n_edges, n_copies)), and is used by the generic counter only. That
        counter multiplies the copies' edges in one at a time, so it holds
        _BLOCK x n_copies values rather than the full gather.
        """
        m = self.weights.shape[1]
        ahead = mc.jump_ahead(rng, out.size * m)
        for lo in range(0, out.size, _BLOCK):
            rows = min(_BLOCK, out.size - lo)
            kept = draw_atoms(rng, *self._flags, self.kept[:rows], self._scratch)
            weights = draw_atoms(ahead, *self._law, self.weights[:rows], self._scratch)
            if self.kind == "generic":
                per_copy = weights[:, idx[0]]
                complete = kept[:, idx[0]]
                for col in idx[1:]:
                    per_copy *= weights[:, col]
                    complete &= kept[:, col]
                out[lo : lo + rows] = (per_copy * complete).sum(axis=1)
            else:
                # np.where(kept, weights, 0.0) in place, except that a dropped
                # negative weight reads -0.0; no count sees that sign, because
                # every counter ends in a sum, which starts from +0.0.
                flat = np.multiply(weights, kept, out=self.padded[:rows, :m])
                out[lo : lo + rows] = _product_counts(self, flat)
        rng.bit_generator.state = ahead.bit_generator.state


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
    if kind == "triangle":
        return np.einsum("bij,bji->b", Y2, Y) / 6.0
    if kind == "four_cycle":
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
    draw = _EdgeDraw(n, p, law, kind, min(_BLOCK, batch, total))
    out = np.empty(total)
    for lo in range(0, total, batch):
        draw.counts(rng, out[lo : lo + batch], idx)
    return float(out[0]) if size is None else out
