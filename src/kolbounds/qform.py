"""Quadratic forms in independent coordinates: exact fourth moments and rates.

For a symmetric matrix A and a centered law with moments mu_k, the centered
quadratic form is

    Q = sum_{i != j} a_ij X_i X_j + sum_k a_kk (X_k^2 - mu2).

Its variance and fourth moment admit closed forms in the matrix and the law's
moments; every distinct-index sum below is reduced to matrix products so the
whole analysis costs O(n^3). The spectral radius |lambda_1| comes from LAPACK
(numpy.linalg.eigvalsh), and Monte Carlo draws of Q are evaluated as
row-blocked matrix products. Brute-force twins of each sub-sum live in the
test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, MomentTable
from .errors import DegenerateError, DomainError, InputError
from .space import OutcomeSpace, RandomFunctional

_SYM_TOL = 1e-12
# Rows per matmul block in q_samples: temporaries stay at _Q_BLOCK * n
# floats whatever the batch, and the blocking never depends on the worker
# count, so the draws and their sums are reproducible.
_Q_BLOCK = 4096


# ----------------------------------------------------------------- matrices


def symmetrize(A: np.ndarray) -> np.ndarray:
    """Validate near-symmetry (1e-12 scaled) and return the symmetric part."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"matrix must be square, got shape {M.shape}")
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    gap = float(np.max(np.abs(M - M.T))) if M.size else 0.0
    if gap > _SYM_TOL * scale:
        raise InputError(f"matrix asymmetry {gap:.3e} exceeds tolerance")
    return 0.5 * (M + M.T)


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


def largest_abs_eigenvalue(A: np.ndarray) -> float:
    """|lambda_1| = max(|lambda_min|, |lambda_max|) from LAPACK eigvalsh; 0 for 0x0."""
    vals = np.linalg.eigvalsh(symmetrize(A))
    return max(abs(float(vals[0])), abs(float(vals[-1]))) if vals.size else 0.0


# --------------------------------------------------- distinct-index sub-sums
#
# Shorthand: d = diag(A), B = A entrywise squared, Cb = A entrywise cubed,
# s_i = (A^2)_ii = sum_k a_ik^2, shat_i = s_i - a_ii^2. Every sum runs over
# pairwise distinct indices unless stated; all are reduced to matrix algebra.


def _parts(A: np.ndarray):
    d = A.diagonal().copy()
    B = A * A
    s = B.sum(axis=1)
    return d, B, s, s - d * d


def sum_diag_quartic(A: np.ndarray) -> float:
    """sum_i a_ii^4"""
    return float(np.sum(A.diagonal() ** 4))


def sum_offdiag_quartic(A: np.ndarray) -> float:
    """sum_{i != j} a_ij^4 (ordered pairs)"""
    return float(np.sum((A * A) ** 2) - sum_diag_quartic(A))


def sum_two_rays(A: np.ndarray) -> float:
    """sum over distinct (i, j, k) of a_ij^2 a_ik^2"""
    d, B, s, shat = _parts(A)
    q = (B * B).sum(axis=1)
    return float(np.sum(shat * shat - (q - d**4)))


def sum_diag_triangle(A: np.ndarray) -> float:
    """sum over distinct (i, j, k) of a_ii a_ij a_ik a_jk"""
    d, B, s, shat = _parts(A)
    a3_diag = (A @ A @ A).diagonal()
    inner = a3_diag - 2.0 * d * s + d**3 - (B @ d - d**3)
    return float(np.sum(d * inner))


def sum_diag_pair_path(A: np.ndarray) -> float:
    """sum over distinct (i, j, k) of a_ii a_jj a_ik a_kj"""
    d, B, s, shat = _parts(A)
    u = A @ d - d * d
    corr = B @ (d * d) - d**4
    return float(np.sum(u * u - corr))


def sum_ray_bridge(A: np.ndarray) -> float:
    """sum over distinct (i, j, k) of a_kj^2 a_ik a_ij"""
    d, B, s, shat = _parts(A)
    M2 = A @ A
    Cb = A * A * A
    full = float(np.sum(B * M2) - np.sum(d * d * s))
    cross = float(np.sum(d * (Cb.sum(axis=1) - d**3)))
    return full - 2.0 * cross


def sum_cycle4(A: np.ndarray) -> float:
    """sum over distinct (i1, i2, i3, i4) of a_{i1 i2} a_{i2 i3} a_{i3 i4} a_{i4 i1}"""
    d, B, s, shat = _parts(A)
    tr4 = float(np.sum((A @ A) ** 2))
    dd2 = sum_diag_prod_sq(A)
    dq2 = sum_diag_sq_ray(A)
    return (
        tr4
        - 4.0 * sum_diag_triangle(A)
        - 2.0 * sum_two_rays(A)
        - 2.0 * dd2
        - sum_offdiag_quartic(A)
        - 4.0 * dq2
        - sum_diag_quartic(A)
    )


def sum_diag_sq_pair(A: np.ndarray) -> float:
    """sum_{i != j} a_ii^2 a_jj^2"""
    d = A.diagonal()
    diag2 = float(np.sum(d * d))
    return diag2 * diag2 - float(np.sum(d**4))


def sum_diag_sq_off(A: np.ndarray) -> float:
    """sum over i and ordered (j, k), all distinct, of a_ii^2 a_jk^2"""
    d, B, s, shat = _parts(A)
    off2 = float(np.sum(B) - np.sum(d * d))
    return float(np.sum(d * d * (off2 - 2.0 * shat)))


def sum_disjoint_squares(A: np.ndarray) -> float:
    """sum over distinct (i1, i2, i3, i4) of a_{i1 i2}^2 a_{i3 i4}^2"""
    d, B, s, shat = _parts(A)
    off2 = float(np.sum(B) - np.sum(d * d))
    return off2 * off2 - 4.0 * float(np.sum(shat * shat)) + 2.0 * sum_offdiag_quartic(A)


def sum_diag_prod_sq(A: np.ndarray) -> float:
    """sum_{i != j} a_ii a_jj a_ij^2"""
    d, B, s, shat = _parts(A)
    return float(d @ B @ d - np.sum(d**4))


def sum_diag_cubed_ray(A: np.ndarray) -> float:
    """sum_{i != j} a_ii a_ij^3"""
    d = A.diagonal()
    Cb = A * A * A
    return float(np.sum(d * (Cb.sum(axis=1) - d**3)))


def sum_diag_sq_ray(A: np.ndarray) -> float:
    """sum_{i != j} a_ii^2 a_ij^2"""
    d, B, s, shat = _parts(A)
    return float(np.sum(d * d * shat))


def sum_diag_path_sq(A: np.ndarray) -> float:
    """sum over distinct (i, j, k) of a_ii a_ij a_jk^2"""
    d, B, s, shat = _parts(A)
    first = float(d @ (A @ shat) - np.sum(d * d * shat))
    return first - sum_diag_cubed_ray(A)


def sum_diag_sq_cross(A: np.ndarray) -> float:
    """sum_{i != j} a_ii^2 a_jj a_ij"""
    d = A.diagonal()
    return float((d * d) @ A @ d - np.sum(d**4))


# ------------------------------------------------------------ moment algebra


def variance_q(A: np.ndarray, m: MomentTable) -> float:
    """sigma^2 = 2 mu2^2 sum_{i != j} a_ij^2 + mu_tilde4 sum_i a_ii^2"""
    d = A.diagonal()
    B = A * A
    off2 = float(np.sum(B) - np.sum(d * d))
    return 2.0 * m.mu[2] ** 2 * off2 + m.mu_tilde4 * float(np.sum(d * d))


def s1_term(A: np.ndarray, m: MomentTable) -> float:
    """Leading family: diagonal quartics, squared edges, cycles, and the two
    triangle shapes carrying mu3^2 mu2 weight."""
    mu = m.mu
    return (
        m.mu_tilde8 * sum_diag_quartic(A)
        + 16.0 * mu[4] ** 2 * 0.5 * sum_offdiag_quartic(A)
        + 48.0 * mu[2] ** 2 * mu[4] * sum_two_rays(A)
        + 48.0 * mu[2] ** 4 * sum_cycle4(A)
        + 48.0 * mu[3] ** 2 * mu[2] * (sum_diag_pair_path(A) + 2.0 * sum_ray_bridge(A))
    )


def s2_term(A: np.ndarray, m: MomentTable) -> float:
    """Variance-squared family: products of squares over disjoint index pairs."""
    mu = m.mu
    return (
        m.mu_tilde4**2 * sum_diag_sq_pair(A)
        + 4.0 * m.mu_tilde4 * mu[2] ** 2 * sum_diag_sq_off(A)
        + 4.0 * mu[2] ** 4 * sum_disjoint_squares(A)
    )


def s3_term(A: np.ndarray, m: MomentTable) -> float:
    """Sign-indefinite remainder; empty when the diagonal vanishes."""
    mu = m.mu
    return (
        6.0 * m.mu_tilde4**2 * sum_diag_prod_sq(A)
        + 8.0 * mu[3] * (mu[5] - mu[3] * mu[2]) * sum_diag_cubed_ray(A)
        + 6.0 * mu[2] * (m.mu_tilde6 + m.mu_tilde4 * mu[2]) * sum_diag_sq_ray(A)
        + 24.0 * mu[3] ** 2 * mu[2] * sum_diag_path_sq(A)
        + 24.0 * mu[2] ** 2 * m.mu_tilde4 * sum_diag_triangle(A)
        + 6.0 * mu[3] * (mu[5] - 2.0 * mu[3] * mu[2]) * sum_diag_sq_cross(A)
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
    offdiag2: float
    diag2: float
    gamma: float
    alpha_n: float
    beta_n: float
    degenerate: bool

    @property
    def fourth_standardized(self) -> float:
        """E[(Q/sigma)^4]; needs sigma2 > 0."""
        if self.degenerate:
            raise DegenerateError("standardized fourth moment of a degenerate form")
        return self.eq4 / self.sigma2**2


def _check_law(m: MomentTable) -> None:
    if abs(m.mu[1]) > 1e-12:
        raise DomainError("quadratic-form analysis needs a centered law")
    if m.mu[2] <= 0.0:
        raise DomainError("law must have positive variance")


def analyze(A: np.ndarray, m: MomentTable) -> QFormAnalysis:
    """Exact variance, fourth-moment split, trace and influence functionals."""
    _check_law(m)
    M = symmetrize(A)
    n = M.shape[0]
    d = M.diagonal()
    B = M * M
    diag2 = float(np.sum(d * d))
    offdiag2 = float(np.sum(B)) - diag2
    total2 = offdiag2 + diag2
    sigma2 = variance_q(M, m)
    s1 = s1_term(M, m)
    s2 = s2_term(M, m)
    s3 = s3_term(M, m)
    has_diag = diag2 > 0.0
    return QFormAnalysis(
        n=n,
        sigma2=sigma2,
        s1=s1,
        s2=s2,
        s3=s3,
        eq4=s1 + 3.0 * s2 + 4.0 * s3,
        tr_a4=float(np.sum((M @ M) ** 2)),
        lambda1=largest_abs_eigenvalue(M),
        influence=float(np.max(B.sum(axis=1))) if n else 0.0,
        offdiag2=offdiag2,
        diag2=diag2,
        gamma=(diag2 / total2) if total2 > 0.0 else 0.0,
        alpha_n=m.mu[2] + (m.mu[4] / m.mu[2] if has_diag else 0.0),
        beta_n=m.mu[4] + (math.sqrt(m.mu[8]) if has_diag else 0.0),
        degenerate=sigma2 <= 0.0,
    )


def bound_r1(q: QFormAnalysis) -> float:
    """sqrt(|E[(Q/sigma)^4] - 3|) + (alpha/sigma) sqrt(max_i sum_j a_ij^2)."""
    if q.degenerate:
        raise DegenerateError("rate of a zero-variance quadratic form")
    sigma = math.sqrt(q.sigma2)
    return math.sqrt(abs(q.fourth_standardized - 3.0)) + q.alpha_n / sigma * math.sqrt(q.influence)


def bound_r2(q: QFormAnalysis) -> float:
    """(beta / sigma^2) sqrt(Tr(A^4))."""
    if q.degenerate:
        raise DegenerateError("rate of a zero-variance quadratic form")
    return q.beta_n / q.sigma2 * math.sqrt(q.tr_a4)


def rate_gt(q: QFormAnalysis, m: MomentTable) -> float:
    """((E|X|^3)^2 + gamma E[X^6]) |lambda_1| / sqrt(sum_ij a_ij^2).

    Spectral comparison rate. Its omitted constant depends on gamma, the
    diagonal's share of the squared mass, so cross-method comparisons should
    hold gamma roughly fixed.
    """
    total2 = q.offdiag2 + q.diag2
    if total2 <= 0.0:
        raise DegenerateError("comparison rate of a zero matrix")
    return (m.abs3**2 + q.gamma * m.mu[6]) * q.lambda1 / math.sqrt(total2)


@dataclass(frozen=True)
class DeJongCheck:
    """The two vanishing conditions (plus the trace ratio that controls both)."""

    fourth_gap: float
    influence_ratio: float
    trace_ratio: float


def dejong_check(q: QFormAnalysis) -> DeJongCheck:
    if q.degenerate:
        raise DegenerateError("conditions of a zero-variance quadratic form")
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


def trace_chain(A: np.ndarray, m: MomentTable | None = None) -> list[ChainStep]:
    """The comparison chain linking influence, row power sums, Tr A^4 and
    the spectral radius.

    The four matrix steps hold for every symmetric A:

        max_i s_i  <=  sqrt(sum_i s_i^2)  <=  sqrt(Tr A^4),
        Tr A^4     <=  (sum_i s_i)^2,
        sqrt(Tr A^4)  <=  |lambda_1| sqrt(sum_i s_i),

    where s_i = sum_j a_ij^2. When a moment table is supplied, a final step
    compares mu2 * sqrt(sum_i s_i) with the standard deviation of Q; that one
    needs mu4 >= 2 mu2^2 or a vanishing diagonal, which the caller must
    ensure.
    """
    M = symmetrize(A)
    s = (M * M).sum(axis=1)
    influence = float(s.max())
    row_power = float(np.sqrt((s * s).sum()))
    tr4 = float(((M @ M) ** 2).sum())
    total2 = float(s.sum())
    lam = largest_abs_eigenvalue(M)
    steps = [
        ChainStep("influence_vs_row_power", influence, row_power),
        ChainStep("row_power_vs_trace", row_power, math.sqrt(tr4)),
        ChainStep("trace_vs_frobenius", tr4, total2**2),
        ChainStep("trace_vs_spectral", math.sqrt(tr4), abs(lam) * math.sqrt(total2)),
    ]
    if m is not None:
        _check_law(m)
        sigma = math.sqrt(variance_q(M, m))
        steps.append(ChainStep("frobenius_vs_sigma", m.mu[2] * math.sqrt(total2), sigma))
    return steps


# ------------------------------------------------------- evaluation and draws


def q_functional(A: np.ndarray, law: Distribution) -> RandomFunctional:
    """Q as an exactly-enumerated functional on the n-fold product space."""
    M = symmetrize(A)
    n = M.shape[0]
    if not law.is_centered():
        raise DomainError("quadratic forms are defined over a centered law")
    space = OutcomeSpace.iid(law, n)
    pts = np.stack(np.meshgrid(*space.values, indexing="ij"), axis=-1).reshape(space.size, n)
    mu2 = law.moments().mu[2]
    vals = np.einsum("oi,ij,oj->o", pts, M, pts) - mu2 * float(np.trace(M))
    return RandomFunctional(space, vals)


def q_samples(
    A: np.ndarray,
    law: Distribution,
    rng: np.random.Generator,
    size: int,
    batch: int = 50_000,
) -> np.ndarray:
    """Monte Carlo draws of Q (unnormalized), batched for memory.

    Each batch of b draws holds its b x n law draws (8·b·n bytes) and is
    evaluated _Q_BLOCK rows at a time as sum_j (X M)_ij X_ij, one BLAS
    matrix product per block.
    """
    M = symmetrize(A)
    n = M.shape[0]
    mu2 = law.moments().mu[2]
    shift = mu2 * float(np.trace(M))
    out = np.empty(size)
    done = 0
    while done < size:
        b = min(batch, size - done)
        X = law.sample(rng, b * n).reshape(b, n)
        for lo in range(0, b, _Q_BLOCK):
            Xb = X[lo : lo + _Q_BLOCK]
            Y = Xb @ M
            Y *= Xb
            out[done + lo : done + lo + Xb.shape[0]] = Y.sum(axis=1) - shift
        done += b
    return out
