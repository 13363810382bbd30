"""Quadratic forms in independent coordinates: exact fourth moments and rates.

For a symmetric matrix A and a centered law with moments mu_k, the centered
quadratic form is

    Q = sum_{i != j} a_ij X_i X_j + sum_k a_kk (X_k^2 - mu2).

Its variance and fourth moment admit closed forms in the matrix and the law's
moments; sub_sums reduces every distinct-index sum to one shared set of
matrix products, so the whole analysis costs O(n^3). The spectral radius |lambda_1| comes from LAPACK
(numpy.linalg.eigvalsh). Monte Carlo draws of Q and the exact outcome grid
both go through multilinear_form, the blocked evaluator of W[x, ..., x]
that weighted U-statistics share; the grid is walked a block of outcomes at
a time, never as one |Omega| x n array. Draws of an integer matrix under a
law of integer atoms run in float32 (sgemm) whenever every partial sum is an
integer below 2^24, which float32 holds exactly, so they equal the float64
draws bit for bit; the CLI's sign-matrix sweeps draw from the integer +-1
pattern that way and scale each draw afterwards. Brute-force twins of each
sub-sum and of both evaluations live in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tol
from .dist import Distribution, MomentTable, draw_rows
from .errors import DomainError, InputError
from .space import OutcomeSpace, RandomFunctional

# Rows per multilinear_form block: Q_BLOCK for a quadratic form (temporaries
# Q_BLOCK * n floats); otherwise at most Q_BLOCK rows whose largest
# temporary fits _BLOCK_FLOATS (1 MiB, so a block stays in a per-core L2
# cache). Shapes alone fix them, never the worker count, so the sums are
# reproducible. Q_BLOCK is also the most outcomes per block of the exact
# grids of Q and of ustat's statistic, and the draws per block of Q.
Q_BLOCK = 4096
_BLOCK_FLOATS = 1 << 17


# ----------------------------------------------------------------- matrices


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Validate near-symmetry (tol.INPUT, scaled) and return the symmetric part."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"matrix must be square, got shape {M.shape}")
    tol.check_symmetric(
        M, "matrix entries must be finite numbers, got {!r}", "matrix asymmetry {gap:.3e} exceeds tolerance"
    )
    # Halved before the sum, which then cannot overflow for finite entries.
    half = 0.5 * M
    return half + half.T


def load_matrix_csv(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: bad matrix row") from exc
    if not rows:
        raise InputError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise InputError(f"{path}: expected a square comma-separated matrix")
    return symmetrize(np.asarray(rows, dtype=float))


def largest_abs_eigenvalue(M: np.ndarray) -> float:
    """|lambda_1| = max(|lambda_min|, |lambda_max|) from LAPACK eigvalsh; 0 for 0x0.

    M must be symmetric, as symmetrize returns it: eigvalsh reads one triangle.
    """
    vals = np.linalg.eigvalsh(M)
    return max(abs(float(vals[0])), abs(float(vals[-1]))) if vals.size else 0.0


# --------------------------------------------------- distinct-index sub-sums


def sub_sums(A: np.ndarray) -> dict[str, float]:
    """Every distinct-index sub-sum of the fourth moment, from one set of products.

    Indices in a tuple are pairwise distinct and i != j runs over ordered
    pairs. With d = diag(A), B = A * A entrywise, s_i = sum_k a_ik^2 and
    shat_i = s_i - a_ii^2, each sum reduces to matrix algebra:

        diag_quartic      sum_i a_ii^4
        offdiag_quartic   sum_{i != j} a_ij^4
        two_rays          sum_(i,j,k) a_ij^2 a_ik^2
        diag_triangle     sum_(i,j,k) a_ii a_ij a_ik a_jk
        diag_pair_path    sum_(i,j,k) a_ii a_jj a_ik a_kj
        ray_bridge        sum_(i,j,k) a_kj^2 a_ik a_ij
        cycle4            sum_(i1,i2,i3,i4) a_i1i2 a_i2i3 a_i3i4 a_i4i1
        diag_sq_pair      sum_{i != j} a_ii^2 a_jj^2
        diag_sq_off       sum_(i,j,k) a_ii^2 a_jk^2
        disjoint_squares  sum_(i1,i2,i3,i4) a_i1i2^2 a_i3i4^2
        diag_prod_sq      sum_{i != j} a_ii a_jj a_ij^2
        diag_cubed_ray    sum_{i != j} a_ii a_ij^3
        diag_sq_ray       sum_{i != j} a_ii^2 a_ij^2
        diag_path_sq      sum_(i,j,k) a_ii a_ij a_jk^2
        diag_sq_cross     sum_{i != j} a_ii^2 a_jj a_ij
        tr_a4             Tr A^4, the same sum over unrestricted indices

    Brute-force twins of every entry live in the test suite.
    """
    d = A.diagonal().copy()
    B = A * A
    s = B.sum(axis=1)
    shat = s - d * d
    M2 = A @ A
    d4 = float(np.sum(d**4))
    diag2 = float(np.sum(d * d))
    off2 = float(np.sum(B) - np.sum(d * d))
    u = A @ d - d * d
    S = {"diag_quartic": d4, "offdiag_quartic": float(np.sum(B**2) - d4), "tr_a4": float(np.sum(M2**2))}
    S["two_rays"] = float(np.sum(shat * shat - ((B * B).sum(axis=1) - d**4)))
    S["diag_triangle"] = float(np.sum(d * ((M2 @ A).diagonal() - 2.0 * d * s + d**3 - (B @ d - d**3))))
    S["diag_pair_path"] = float(np.sum(u * u - (B @ (d * d) - d**4)))
    S["diag_cubed_ray"] = float(np.sum(d * ((B * A).sum(axis=1) - d**3)))
    S["ray_bridge"] = float(np.sum(B * M2) - np.sum(d * d * s)) - 2.0 * S["diag_cubed_ray"]
    S["diag_prod_sq"] = float(d @ B @ d - d4)
    S["diag_sq_ray"] = float(np.sum(d * d * shat))
    S["cycle4"] = (
        S["tr_a4"]
        - 4.0 * S["diag_triangle"]
        - 2.0 * S["two_rays"]
        - 2.0 * S["diag_prod_sq"]
        - S["offdiag_quartic"]
        - 4.0 * S["diag_sq_ray"]
        - d4
    )
    S["diag_sq_pair"] = diag2 * diag2 - d4
    S["diag_sq_off"] = float(np.sum(d * d * (off2 - 2.0 * shat)))
    S["disjoint_squares"] = off2 * off2 - 4.0 * float(np.sum(shat * shat)) + 2.0 * S["offdiag_quartic"]
    S["diag_path_sq"] = float(d @ (A @ shat) - np.sum(d * d * shat)) - S["diag_cubed_ray"]
    S["diag_sq_cross"] = float((d * d) @ A @ A.diagonal() - d4)
    return S


# ------------------------------------------------------------ moment algebra


def variance_q(A: np.ndarray, m: MomentTable) -> float:
    """sigma^2 = 2 mu2^2 sum_{i != j} a_ij^2 + mu_tilde4 sum_i a_ii^2"""
    d = A.diagonal()
    B = A * A
    off2 = float(np.sum(B) - np.sum(d * d))
    return 2.0 * m.mu[2] ** 2 * off2 + m.mu_tilde4 * float(np.sum(d * d))


def s1_term(S: dict[str, float], m: MomentTable) -> float:
    """Leading family: diagonal quartics, squared edges, cycles, and the two
    triangle shapes carrying mu3^2 mu2 weight (S from sub_sums)."""
    mu = m.mu
    return (
        m.mu_tilde8 * S["diag_quartic"]
        + 16.0 * mu[4] ** 2 * 0.5 * S["offdiag_quartic"]
        + 48.0 * mu[2] ** 2 * mu[4] * S["two_rays"]
        + 48.0 * mu[2] ** 4 * S["cycle4"]
        + 48.0 * mu[3] ** 2 * mu[2] * (S["diag_pair_path"] + 2.0 * S["ray_bridge"])
    )


def s2_term(S: dict[str, float], m: MomentTable) -> float:
    """Variance-squared family: products of squares over disjoint index pairs."""
    mu = m.mu
    return (
        m.mu_tilde4**2 * S["diag_sq_pair"]
        + 4.0 * m.mu_tilde4 * mu[2] ** 2 * S["diag_sq_off"]
        + 4.0 * mu[2] ** 4 * S["disjoint_squares"]
    )


def s3_term(S: dict[str, float], m: MomentTable) -> float:
    """Sign-indefinite remainder; empty when the diagonal vanishes."""
    mu = m.mu
    return (
        6.0 * m.mu_tilde4**2 * S["diag_prod_sq"]
        + 8.0 * mu[3] * (mu[5] - mu[3] * mu[2]) * S["diag_cubed_ray"]
        + 6.0 * mu[2] * (m.mu_tilde6 + m.mu_tilde4 * mu[2]) * S["diag_sq_ray"]
        + 24.0 * mu[3] ** 2 * mu[2] * S["diag_path_sq"]
        + 24.0 * mu[2] ** 2 * m.mu_tilde4 * S["diag_triangle"]
        + 6.0 * mu[3] * (mu[5] - 2.0 * mu[3] * mu[2]) * S["diag_sq_cross"]
    )


# ------------------------------------------------------------------ analysis


@dataclass(frozen=True)
class QFormAnalysis:
    """Every scalar the quadratic-form rates need, computed once."""

    n: int
    sigma2: float
    s1: float
    s2: float
    s3: float
    eq4: float
    tr_a4: float
    lambda1: float
    influence: float
    row_power: float
    row_total: float
    offdiag2: float
    diag2: float
    gamma: float
    alpha_n: float
    beta_n: float
    fourth_standardized: float  # E[(Q/sigma)^4]


def analyze(A: np.ndarray, m: MomentTable) -> QFormAnalysis:
    """Exact variance, fourth-moment split, trace and influence functionals; with
    s_i = sum_j a_ij^2, row_power is sqrt(sum_i s_i^2) and row_total sum_i s_i.

    sigma2 comes from tol.guarded_variance, before any moment sum: every rate
    divides by sigma, and the fourth-moment sums reach (n max|a_ij|)^4 times
    law moments of total degree 8, each at most mu_8 by Hoelder."""
    if not m.centered:
        raise DomainError("quadratic-form analysis needs a centered law")
    if m.mu[2] <= 0.0:
        raise DomainError("law must have positive variance")
    M = symmetrize(A)
    n = M.shape[0]
    scale = float(np.max(np.abs(M))) if n else 0.0
    sigma2 = tol.guarded_variance(
        lambda c: variance_q(M / c, m),
        scale,
        4.0 * math.log2(max(n, 1)) + math.log2(max(1.0, m.mu[8])),
        f"matrix scale max|a_ij| = {scale:.3g} at n = {n}",
        "matrix",
        f"the quadratic form at n={n} has zero variance under this law",
    )
    d = M.diagonal()
    B = M * M
    s = B.sum(axis=1)
    diag2 = float(np.sum(d * d))
    offdiag2 = float(np.sum(B)) - diag2
    total2 = offdiag2 + diag2
    S = sub_sums(M)
    s1, s2, s3 = s1_term(S, m), s2_term(S, m), s3_term(S, m)
    eq4 = s1 + 3.0 * s2 + 4.0 * s3
    has_diag = diag2 > 0.0
    return QFormAnalysis(
        n=n,
        sigma2=sigma2,
        s1=s1,
        s2=s2,
        s3=s3,
        eq4=eq4,
        tr_a4=S["tr_a4"],
        lambda1=largest_abs_eigenvalue(M),
        influence=float(np.max(s)) if n else 0.0,
        row_power=float(np.sqrt((s * s).sum())),
        row_total=float(s.sum()),
        offdiag2=offdiag2,
        diag2=diag2,
        gamma=(diag2 / total2) if total2 > 0.0 else 0.0,
        alpha_n=m.mu[2] + (m.mu[4] / m.mu[2] if has_diag else 0.0),
        beta_n=m.mu[4] + (math.sqrt(m.mu[8]) if has_diag else 0.0),
        fourth_standardized=eq4 / sigma2**2,
    )


def bound_r1(q: QFormAnalysis) -> float:
    """sqrt(|E[(Q/sigma)^4] - 3|) + (alpha/sigma) sqrt(max_i sum_j a_ij^2)."""
    sigma = math.sqrt(q.sigma2)
    return math.sqrt(abs(q.fourth_standardized - 3.0)) + q.alpha_n / sigma * math.sqrt(q.influence)


def bound_r2(q: QFormAnalysis) -> float:
    """(beta / sigma^2) sqrt(Tr(A^4))."""
    return q.beta_n / q.sigma2 * math.sqrt(q.tr_a4)


def rate_gt(q: QFormAnalysis, m: MomentTable) -> float:
    """((E|X|^3)^2 + gamma E[X^6]) |lambda_1| / sqrt(sum_ij a_ij^2).

    Spectral comparison rate. Its omitted constant depends on gamma, the
    diagonal's share of the squared mass, so cross-method comparisons should
    hold gamma roughly fixed.
    """
    return (m.abs3**2 + q.gamma * m.mu[6]) * q.lambda1 / math.sqrt(q.offdiag2 + q.diag2)


@dataclass(frozen=True)
class DeJongCheck:
    """The two vanishing conditions (plus the trace ratio that controls both)."""

    fourth_gap: float
    influence_ratio: float
    trace_ratio: float


def dejong_check(q: QFormAnalysis) -> DeJongCheck:
    return DeJongCheck(
        fourth_gap=abs(q.fourth_standardized - 3.0),
        influence_ratio=q.influence / q.sigma2,
        trace_ratio=q.tr_a4 / q.sigma2**2,
    )


@dataclass(frozen=True)
class ChainStep:
    """One inequality lhs <= rhs from the comparison chain, by name."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def trace_chain(q: QFormAnalysis, m: MomentTable | None = None) -> list[ChainStep]:
    """The comparison chain linking influence, row power sums, Tr A^4 and
    the spectral radius, read from the analysis of A.

    The four matrix steps hold for every symmetric A:

        max_i s_i  <=  sqrt(sum_i s_i^2)  <=  sqrt(Tr A^4),
        Tr A^4     <=  (sum_i s_i)^2,
        sqrt(Tr A^4)  <=  |lambda_1| sqrt(sum_i s_i),

    where s_i = sum_j a_ij^2. When a moment table is supplied (the one q was
    analysed under), a final step compares mu2 * sqrt(sum_i s_i) with the
    standard deviation of Q; that one needs mu4 >= 2 mu2^2 or a vanishing
    diagonal, which the caller must ensure.
    """
    steps = [
        ChainStep("influence_vs_row_power", q.influence, q.row_power),
        ChainStep("row_power_vs_trace", q.row_power, math.sqrt(q.tr_a4)),
        ChainStep("trace_vs_frobenius", q.tr_a4, q.row_total**2),
        ChainStep("trace_vs_spectral", math.sqrt(q.tr_a4), q.lambda1 * math.sqrt(q.row_total)),
    ]
    if m is not None:
        steps.append(ChainStep("frobenius_vs_sigma", m.mu[2] * math.sqrt(q.row_total), math.sqrt(q.sigma2)))
    return steps


# ------------------------------------------------------- evaluation and draws


def multilinear_form(W: np.ndarray, X: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """W[x, ..., x] = sum_i W[i1..id] x_i1 ... x_id for every row x of X (rows x n).

    Per block the first slot is one BLAS product Y = X @ W.reshape(n, n^(d-1)),
    the middle slots are batched matrix products and the last is
    Y *= X; Y.sum(axis=1), the whole evaluation when d = 2. With X of shape
    (rows, p, n) and coef of shape (p,) * d, each row holds p vectors and the
    result is sum_a coef[a] W[x_a1, ..., x_ad], every slot a batched product.
    The blocks run in the dtype of W and X, so float32 inputs run sgemm (as
    q_samples gives it when its sums are exact integers there); the result
    is float64 in every case.
    """
    n, d = X.shape[-1], W.ndim
    if coef is None and d == 1:
        return X @ W
    X3 = X[:, None, :] if coef is None else X
    p = X3.shape[1]
    if coef is None and d == 2:
        rows = Q_BLOCK
    else:
        rows = max(1, min(Q_BLOCK, _BLOCK_FLOATS // (p * max(n, p) ** (d - 1))))
    flat = W.reshape(n, -1)
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], rows):
        Xb = X3[lo : lo + rows]
        r = Xb.shape[0]
        Y = Xb.reshape(r * p, n) @ flat
        for k in range(1, d - (coef is None)):
            Y = np.matmul(Xb[:, None], Y.reshape(r, p**k, n, -1))
        if coef is None:
            Y = Y.reshape(r, n)
            Y *= Xb.reshape(r, n)
            out[lo : lo + r] = Y.sum(axis=1)
        else:
            out[lo : lo + r] = Y.reshape(r, -1) @ coef.reshape(-1)
    return out


def q_functional(A: np.ndarray, law: Distribution) -> RandomFunctional:
    """Q on the n-fold product space, evaluated at most Q_BLOCK outcomes at a time.

    A must be symmetric, as symmetrize returns it: the matrix is validated
    where it enters (load_matrix_csv, analyze) and passed on as it is.
    """
    n = A.shape[0]
    if not law.is_centered():
        raise DomainError("quadratic forms are defined over a centered law")
    space = OutcomeSpace.iid(law, n)
    v = law.values_array()
    vals = space.evaluate(lambda codes: multilinear_form(A, v[codes]), Q_BLOCK)
    vals -= law.moments().mu[2] * float(np.trace(A))
    return RandomFunctional(space, vals)


def q_samples(A: np.ndarray, law: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Monte Carlo draws of Q (unnormalized), in dist.draw_rows' blocks of Q_BLOCK draws, each evaluated by
    multilinear_form in one BLAS matrix product. A block holds a multiple of 64 values, so the draws are
    those of one whole law.sample(rng, size * n) bit for bit. A must be symmetric, as for q_functional.

    When every entry of A and every atom is an integer and n^2 max|a_ij| V^2 < 2^24 (V = max|atom|;
    tol.exact_in_float32), the atoms are drawn into a float32 block (4·Q_BLOCK·n bytes) and Q runs in
    sgemm: every partial sum is then an exact integer, so the draws equal the float64 path's (8·Q_BLOCK·n
    bytes) bit for bit, whatever the BLAS summation order. Any other input runs in float64."""
    n = A.shape[0]
    shift = law.moments().mu[2] * float(np.trace(A))
    values = law.values_array()
    if tol.exact_in_float32(n * n, (A, 1), (values, 2)):
        A, values = A.astype(np.float32), values.astype(np.float32)
    evaluate = functools.partial(multilinear_form, A)
    out = draw_rows(rng, law.cdf_array(), values, n, size, Q_BLOCK, evaluate)
    out -= shift
    return out
