"""Weighted subgraph counts in Bernoulli random graphs.

Every edge of the complete graph on n vertices is kept with probability p,
independently, and each kept edge carries an iid weight. For a template graph
G the combined weight W is the sum over copies of G whose edges are all kept,
each copy contributing the product of its edge weights (a sum-of-weights
convention is available as a switch; reports should say which was used).

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
evaluate a batch of draws _BLOCK draws at a time.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, draw_atoms
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


def exact_weight_moments(
    G: GraphSpec, n: int, p: float, law: Distribution, combine: str = "product"
) -> tuple[float, float]:
    """Exact (mean, variance) of the combined weight, product convention.

    Centering kills every cross term between distinct copies (any edge in the
    symmetric difference contributes a factor E[X] = 0), leaving
    mean 0 and variance copy_count * (p * mu2)^{edges}. The sum convention
    couples overlapping copies through the kept indicator and has no such
    closed form, so it is refused here.
    """
    if combine != "product":
        raise InputError("exact weight moments are only available for the product convention")
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
    """One batch of retention indicators and edge weights, in flat form.

    The batch's retention uniforms are drawn before its weights, whatever the
    blocking of the counters, and both go through draw_atoms, so a batch of b
    draws holds 9·b·m bytes (m edges) and never its uniforms. Edges are the
    upper-triangle pairs in row-major order. Keeping the retention mask separate from the weights matters for
    laws with an atom at zero, where a kept weight-zero edge still completes
    copies.
    """

    def __init__(self, n: int, p: float, law: Distribution, rng: np.random.Generator, b: int):
        self.n = n
        iu, ju = np.triu_indices(n, k=1)
        m = iu.size
        # u < p is the two-atom law (True, False) with its step at p.
        self.kept = draw_atoms(rng, np.array([p, 1.0]), np.array([True, False]), np.empty((b, m), dtype=bool))
        self.weights = law.sample(rng, b * m).reshape(b, m)
        # Flat position of every matrix cell; the diagonal reads a zero
        # column appended after the m edges.
        cells = np.full((n, n), m)
        cells[iu, ju] = cells[ju, iu] = np.arange(m)
        self._cells = cells.ravel()

    def matrices(self, flat: np.ndarray) -> np.ndarray:
        """Dense symmetric n x n matrices holding one row of edge values each."""
        padded = np.zeros((flat.shape[0], flat.shape[1] + 1))
        padded[:, :-1] = flat
        return np.take(padded, self._cells, axis=1).reshape(-1, self.n, self.n)

    def counts(self, kind: str, combine: str, idx: np.ndarray | None = None) -> np.ndarray:
        """Combined weight of every draw, evaluated _BLOCK draws at a time.

        idx holds the flat edge positions of the copies, one row per template
        edge (shape (n_edges, n_copies)), and is used by the generic counter
        only. That counter folds the copies' edges in one at a time, so it
        holds _BLOCK x n_copies values rather than the full gather.
        """
        b = self.kept.shape[0]
        out = np.empty(b)
        fold = np.multiply if combine == "product" else np.add
        for lo in range(0, b, _BLOCK):
            kept = self.kept[lo : lo + _BLOCK]
            weights = self.weights[lo : lo + _BLOCK]
            if kind == "generic":
                per_copy = weights[:, idx[0]]
                complete = kept[:, idx[0]]
                for col in idx[1:]:
                    fold(per_copy, weights[:, col], out=per_copy)
                    complete &= kept[:, col]
                counts = (per_copy * complete).sum(axis=1)
            else:
                flat = np.where(kept, weights, 0.0)
                if combine == "product":
                    counts = _product_counts(kind, self, flat)
                else:
                    counts = _sum_counts(kind, self, flat, kept)
            out[lo : lo + kept.shape[0]] = counts
        return out


def _product_counts(kind: str, draw: _EdgeDraw, flat: np.ndarray) -> np.ndarray:
    if kind == "edge":
        return flat.sum(axis=1)
    Y = draw.matrices(flat)
    if kind == "two_path":
        r = Y.sum(axis=2)
        q = (Y * Y).sum(axis=2)
        return 0.5 * (r * r - q).sum(axis=1)
    if kind == "triangle":
        return np.einsum("bij,bji->b", Y @ Y, Y) / 6.0
    if kind == "four_cycle":
        Y2 = Y @ Y
        tr4 = np.einsum("bij,bij->b", Y2, Y2)
        s = np.einsum("bii->bi", Y2)
        # Sum of Y^4 over the n x n matrix, in which every edge appears twice.
        sq = flat * flat
        q4 = 2.0 * (sq * sq).sum(axis=1)
        return (tr4 - 2.0 * (s * s).sum(axis=1) + q4) / 8.0
    raise InputError(f"no closed-form counter for kind {kind!r}")


def _sum_counts(kind: str, draw: _EdgeDraw, flat: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Sum-of-weights convention: each complete copy contributes its edge total.

    Rewritten as sum over kept edges of (weight) times (number of kept copies
    through that edge), which the four templates admit in closed form.
    """
    if kind == "edge":
        return flat.sum(axis=1)
    Y = draw.matrices(flat)
    B = draw.matrices(kept.astype(float))
    if kind == "two_path":
        r = B.sum(axis=2)
        through = r[:, :, None] + r[:, None, :] - 2.0 * B
        return 0.5 * np.einsum("bij,bij->b", Y, through)
    if kind == "triangle":
        return 0.5 * np.einsum("bij,bij->b", Y, B @ B)
    if kind == "four_cycle":
        B2 = B @ B
        B3 = B2 @ B
        d2 = np.einsum("bii->bi", B2)
        paths = B3 - B * (d2[:, :, None] + d2[:, None, :]) + B
        return 0.5 * np.einsum("bij,bij->b", Y, paths)
    raise InputError(f"no closed-form counter for kind {kind!r}")


def simulate_weight(
    G: GraphSpec,
    n: int,
    p: float,
    law: Distribution,
    rng: np.random.Generator,
    size: int | None = None,
    combine: str = "product",
    batch: int = 2_000,
) -> float | np.ndarray:
    """Draw realizations of the combined template weight.

    With size None a single float comes back. combine is "product" (default,
    the convention every report should flag) or "sum". Each batch of draws
    takes its retention indicators and then its weights from rng, so the
    draws depend on batch but not on the counter blocking.
    """
    if combine not in ("product", "sum"):
        raise InputError(f"combine must be 'product' or 'sum', got {combine!r}")
    _check_point(G, n, p)
    total = 1 if size is None else int(size)
    if total < 1:
        raise InputError("size must be positive")
    kind = G.kind
    idx = None
    if kind == "generic":
        idx = _edge_positions(n, G.copies_in(n).transpose(1, 0, 2))
    out = np.empty(total)
    done = 0
    while done < total:
        b = min(batch, total - done)
        out[done : done + b] = _EdgeDraw(n, p, law, rng, b).counts(kind, combine, idx)
        done += b
    return float(out[0]) if size is None else out
