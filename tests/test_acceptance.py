"""Acceptance gate: ten standalone checks covering the whole toolkit.

Each test prints one verdict line (visible with pytest -s) and asserts the
criterion with its stated tolerance. Randomness is seeded, so the suite is
deterministic run to run.

Criterion 6 is split by hypothesis: the final Frobenius-vs-sigma comparison
needs either a vanishing diagonal or a law whose fourth moment is at least
twice the squared variance, so matrices with diagonals are paired only with
such laws; the two-atom law (which sits below that line) gets zero-diagonal
matrices. The universal steps are checked for every matrix.

Criterion 4 mixes general centered functionals, which face the four-term
master bound, with pure order-d multiple sums, which additionally face the
two single-order displays (the second, at unit variance, is the
conditional-moment form with constants 1 and 24 sqrt 2).
"""

import json
import math
import time

import numpy as np
import pytest

from kolbounds import bounds, cli, graphweigh, mc, qform
from kolbounds.chaos import (
    covariance_identity_check,
    multiply,
    random_kernel,
)
from kolbounds.dist import Distribution, three_point
from kolbounds.space import OutcomeSpace

ASYM = Distribution.finite([(-1.0, 0.5), (0.0, 0.25), (2.0, 0.25)])
SPARSE = Distribution.finite([(-1.0, 0.125), (0.0, 0.75), (1.0, 0.125)])

_instances_cache = None


def _verdict(num, title, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:2d} {title}: {status} ({detail}, {elapsed:.1f}s)")
    assert ok, f"criterion {num} {title}: {detail}"


def _qform_instances():
    global _instances_cache
    if _instances_cache is None:
        rng = np.random.default_rng(2026)
        laws = (Distribution.rademacher(), three_point())
        items = []
        for i in range(20):
            n = 2 + i % 5
            A = rng.standard_normal((n, n))
            A = (A + A.T) / 2.0
            if i % 4 == 0:
                np.fill_diagonal(A, 0.0)
            items.append((A, laws))
        _instances_cache = items
    return _instances_cache


def test_criterion_01_fourth_moment_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for A, laws in _qform_instances():
        for law in laws:
            m = law.moments()
            want = qform.q_functional(A, law).moment(4)
            S = qform.sub_sums(A)
            got = qform.s1_term(S, m) + 3.0 * qform.s2_term(S, m) + 4.0 * qform.s3_term(S, m)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _verdict(1, "fourth-moment identity", ok, f"worst rel {worst:.2e}", elapsed)


def test_criterion_02_variance_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for A, laws in _qform_instances():
        for law in laws:
            want = qform.q_functional(A, law).variance()
            got = qform.variance_q(A, law.moments())
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.perf_counter() - t0
    _verdict(2, "variance formula", worst < 1e-10, f"worst rel {worst:.2e}", elapsed)


def test_criterion_03_chaos_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    space = OutcomeSpace.iid(three_point(), 4)
    kernels = [random_kernel(space, 1 + i % 3, rng) for i in range(50)]
    ints = [f.integral() for f in kernels]
    worst_iso = 0.0
    worst_mul = 0.0
    for i, f in enumerate(kernels):
        g = kernels[(7 * i + 3) % len(kernels)]
        lhs = (ints[i] * ints[(7 * i + 3) % len(kernels)]).expectation()
        rhs = math.factorial(f.order) * f.inner_product(g) if f.order == g.order else 0.0
        worst_iso = max(worst_iso, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    for i, j in [(0, 1), (1, 2), (2, 4), (4, 5), (5, 8), (3, 7), (9, 9), (10, 13)]:
        prod = multiply(kernels[i], kernels[j]).reconstruct()
        point = ints[i] * ints[j]
        scale = max(1.0, float(np.max(np.abs(point.values))))
        worst_mul = max(worst_mul, float(np.max(np.abs(prod.values - point.values))) / scale)
    triples = [(i, i + 1, alpha) for i in range(12) for alpha in (0.0, 0.5, 1.0)]
    worst_cov = max(covariance_identity_check(ints[:13], triples))
    elapsed = time.perf_counter() - t0
    ok = worst_iso < 1e-10 and worst_mul < 1e-10 and worst_cov < 1e-10 and elapsed < 60.0
    detail = f"isometry {worst_iso:.2e}, product {worst_mul:.2e}, covariance {worst_cov:.2e}"
    _verdict(3, "chaos identities", ok, detail, elapsed)


def test_criterion_04_explicit_constant_bounds_hold():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    laws = (three_point(), Distribution.rademacher(), ASYM)
    violations = 0
    slimmest = math.inf
    checked = 0
    while checked < 200:
        n = 4 + checked % 3
        law = laws[checked % 3]
        space = OutcomeSpace.iid(law, n)
        if checked % 2 == 1:
            d = 1 + checked % 3
            X = random_kernel(space, d, rng).integral()
        else:
            d = None
            X = space.functional(rng.standard_normal(space.shape)).centered()
        s2 = X.moment(2)
        if s2 <= 1e-12:
            continue
        checked += 1
        Z = X * (1.0 / math.sqrt(s2))
        dk = mc.exact_kdist(Z).value
        caps = [bounds.master_bound(Z).total]
        if d is not None:
            first, second = bounds.single_order_bounds(Z, d)
            caps += [first, second]
        for cap in caps:
            slimmest = min(slimmest, cap - dk)
            if dk > cap:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    _verdict(
        4,
        "explicit-constant bounds",
        ok,
        f"200 functionals, {violations} violations, min slack {slimmest:.2e}",
        elapsed,
    )


def test_criterion_05_fourth_moment_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    laws = (Distribution.rademacher(), three_point(), ASYM, SPARSE)
    violations = 0
    worst = 0.0
    for i in range(500):
        n = 2 + i % 4
        law = laws[i % 4]
        space = OutcomeSpace.iid(law, n)
        X = space.functional(rng.standard_normal(space.shape)).centered()
        chk = bounds.fourth_moment_check(X)
        worst = max(worst, chk.lhs / chk.rhs if chk.rhs > 0 else math.inf)
        if not chk.holds:
            violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        5,
        "fourth-moment bound (36, 15, 2)",
        violations == 0,
        f"500 functionals, {violations} violations, max lhs/rhs {worst:.3f}",
        elapsed,
    )


def test_criterion_06_inequality_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    diag_laws = (three_point(), ASYM, SPARSE)
    violations = 0
    min_slack = math.inf
    for i in range(1000):
        n = int(rng.integers(2, 41))
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2.0
        if i % 2 == 0:
            np.fill_diagonal(A, 0.0)
            m = Distribution.rademacher().moments()
        else:
            m = diag_laws[i % 3].moments()
        for step in qform.trace_chain(qform.analyze(A, m), m):
            rel = step.slack / max(1.0, abs(step.rhs))
            min_slack = min(min_slack, rel)
            if rel < -1e-10:
                violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        "inequality chains",
        violations == 0,
        f"1000 matrices, {violations} violations, min rel slack {min_slack:.2e}",
        elapsed,
    )


def test_criterion_07_convergence_scaling():
    t0 = time.perf_counter()
    law = Distribution.rademacher()
    m = law.moments()
    sizes = (16, 32, 64, 128)
    dks, dkws, ratios = [], [], []
    for idx, n in enumerate(sizes):
        A = cli.sign_pattern(n, mc.stream(2026, 500_000 + idx)) / math.sqrt(n)
        q = qform.analyze(A, m)
        sig = math.sqrt(q.sigma2)
        (draws,) = mc.pooled_draws(
            [(lambda rng, b: qform.q_samples(A, law, rng, b) / sig, 200_000, 10_000 * idx)], seed=2026
        )
        rep = mc.empirical_kdist(draws, delta=0.01)
        dks.append(rep.value)
        dkws.append(rep.dkw_radius)
        ratios.append(rep.value / qform.bound_r2(q))
    spread = max(ratios) / min(ratios)
    monotone = all(dks[k + 1] <= dks[k] + 2.0 * dkws[k] for k in range(len(sizes) - 1))
    elapsed = time.perf_counter() - t0
    ok = spread < 10.0 and monotone and elapsed < 300.0
    detail = (
        f"ratio spread {spread:.2f}, d_K " + " > ".join(f"{v:.4f}" for v in dks)
    )
    _verdict(7, "convergence scaling", ok, detail, elapsed)


def test_criterion_08_graph_rate():
    t0 = time.perf_counter()
    G = graphweigh.GraphSpec.triangle()
    law = Distribution.rademacher()
    samples = 20_000
    grid = [(n, p) for p in (0.3, 0.5) for n in (20, 40, 80)]
    rows = []
    for ci, (n, p) in enumerate(grid):
        rate = graphweigh.rg_rate(G, n, p, law)
        sig = math.sqrt(graphweigh.exact_weight_moments(G, n, p, law)[1])
        (draws,) = mc.pooled_draws(
            [(lambda rng, b: graphweigh.simulate_weight(G, n, p, law, rng, b) / sig, samples, 10_000 * ci)], seed=8
        )
        rep = mc.empirical_kdist(draws, delta=0.01)
        rows.append((n, p, rate, rep.value, rep.dkw_radius))
    c = max(dk / rate for _, _, rate, dk, _ in rows)
    fitted_ok = all(dk <= c * rate + 1e-12 for _, _, rate, dk, _ in rows)
    monotone = True
    for p in (0.3, 0.5):
        col = [(n, dk, w) for n, pp, _, dk, w in rows if pp == p]
        col.sort()
        for k in range(len(col) - 1):
            monotone = monotone and col[k + 1][1] <= col[k][1] + 2.0 * col[k][2]
    elapsed = time.perf_counter() - t0
    ok = fitted_ok and monotone and elapsed < 600.0
    _verdict(
        8,
        "graph rate",
        ok,
        f"fitted c {c:.3f}, monotone in n {monotone}",
        elapsed,
    )


def test_criterion_09_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    matrix = tmp_path / "A.csv"
    matrix.write_text("0,1,0.5\n1,0,1\n0.5,1,0\n")
    tri = tmp_path / "tri.json"
    tri.write_text('{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    sweep = tmp_path / "sweep.json"
    sweep.write_text('{"n": [8], "p": [0.4], "samples": 500}')
    same = True
    runs = [
        ["qform", "--matrix", str(matrix), "--law", "rademacher", "--seed", "9", "--samples", "1500"],
        ["graph", "--graph", str(tri), "--law", "three-point", "--sweep", str(sweep), "--seed", "9"],
        ["chaos-verify", "--seed", "9"],
    ]
    for ri, argv in enumerate(runs):
        outs = []
        for rep in range(2):
            out = tmp_path / f"r{ri}_{rep}.json"
            assert cli.main(argv + ["--out", str(out)]) == 0
            blob = out.read_bytes()
            csv = out.with_name(out.name + ".csv")
            if csv.exists():
                blob += csv.read_bytes()
            outs.append(blob)
        same = same and outs[0] == outs[1]
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    _verdict(9, "CLI determinism", same, "3 commands, byte-identical reruns", elapsed)


def test_criterion_10_kolmogorov_engine():
    t0 = time.perf_counter()
    space = OutcomeSpace.iid(Distribution.rademacher(), 1)
    X = space.functional(np.array([-1.0, 1.0]))
    exact = mc.exact_kdist(X).value
    target = mc.normal_cdf(1.0) - 0.5
    exact_ok = abs(exact - target) <= 1e-12 and abs(exact - 0.3413447460685429) <= 1e-12
    draws = Distribution.rademacher().sample(mc.stream(10, 0), 100_000)
    rep = mc.empirical_kdist(draws, delta=0.01)
    emp_ok = abs(rep.value - exact) <= rep.dkw_radius
    elapsed = time.perf_counter() - t0
    detail = f"exact gap {abs(exact - target):.1e}, empirical gap {abs(rep.value - exact):.4f} vs DKW {rep.dkw_radius:.4f}"
    _verdict(10, "Kolmogorov engine", exact_ok and emp_ok, detail, elapsed)
