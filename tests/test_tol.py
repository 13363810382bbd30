"""The tolerance policy: one home for every threshold, and its boundaries.

Each boundary test puts a defect at half its tolerance (accepted) and at
twice it (refused, with the caller's exception and message).
"""

import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

from kolbounds import bounds, chaos, cli, qform, tol, ustat
from kolbounds.bounds import FourthMomentCheck
from kolbounds.dist import Distribution
from kolbounds.errors import DomainError, InputError
from kolbounds.space import OutcomeSpace

SRC = Path(__file__).resolve().parent.parent / "src" / "kolbounds"


def test_no_bare_tolerance_literal_outside_tol():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tol.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER and re.fullmatch(r"1(\.0*)?[eE]-\d+", tok.string):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
        if "max(1.0, float(np.max(np.abs(" in path.read_text(encoding="utf-8"):
            found.append(f"{path.name}: hand-written scale rule")
    assert not found, "use the names in kolbounds.tol: " + "; ".join(found)


def test_scale_rule():
    assert tol.scale(np.zeros(0)) == 1.0
    assert tol.scale([0.25, -0.5]) == 1.0
    assert tol.scale([0.25, -3.0]) == 3.0
    assert tol.scale(-7.0) == 7.0


def _qform_exit(tmp_path, A, capsys):
    path = tmp_path / "A.csv"
    path.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in A) + "\n")
    code = cli.main(["qform", "--matrix", str(path), "--law", "three-point", "--out", str(tmp_path / "r.json")])
    return code, capsys.readouterr().err


def test_input_boundary_near_symmetric_matrix_through_the_cli(tmp_path, capsys):
    base = np.array([[0.5, 2.0, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 0.0]])  # scale 2
    for factor, want in ((0.5, 0), (2.0, 2)):
        A = base.copy()
        A[1, 0] += factor * tol.INPUT * 2.0
        code, err = _qform_exit(tmp_path, A, capsys)
        assert code == want
        if want:
            assert re.fullmatch(r"kolbounds: matrix asymmetry \d\.\d{3}e-12 exceeds tolerance\n", err)


def test_input_boundary_weight_tensor():
    base = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    for factor in (0.5, 2.0):
        asym, diag = base.copy(), base.copy()
        asym[0, 1] += factor * tol.INPUT
        diag[2, 2] = factor * tol.INPUT
        if factor < 1.0:
            ustat.WeightTensor(asym)
            ustat.WeightTensor(diag)
            continue
        with pytest.raises(InputError, match=r"^weight tensor asymmetry \d\.\d{3}e-12 between axes 0,1$"):
            ustat.WeightTensor(asym)
        with pytest.raises(InputError, match="^weight tensor must vanish when indices repeat$"):
            ustat.WeightTensor(diag)


def test_input_boundary_centred_law():
    for factor, centred in ((0.5, True), (2.0, False)):
        # Mean delta; the values' scale is 1 + 2 delta.
        delta = factor * tol.INPUT
        law = Distribution((-1.0, 1.0 + 2.0 * delta), (0.5, 0.5))
        assert law.is_centered() is centred
        m = law.moments()
        if centred:
            qform.analyze(np.eye(2), m)
        else:
            with pytest.raises(DomainError, match="^quadratic-form analysis needs a centered law$"):
                qform.analyze(np.eye(2), m)


def test_centring_boundary_kernel_slot_mean():
    law = Distribution.rademacher()
    v = law.values_array()
    base = np.multiply.outer(v, v)  # slot means zero, scale 1
    for factor in (0.5, 2.0):
        table = base + factor * tol.CENTRING
        if factor < 1.0:
            assert ustat.UKernel(law, table).slot_mean_max() == pytest.approx(0.5 * tol.CENTRING)
        else:
            with pytest.raises(DomainError, match=r"^kernel is not conditionally centered \(worst slot mean 2\.000e-10\); "):
                ustat.UKernel(law, table)
    space = OutcomeSpace.iid(law, 2)
    kept = chaos.ChaosKernel(space, 2, {(0, 1): base + 0.5 * tol.CENTRING})
    assert np.array_equal(kept.tables[0, 1], base + 0.5 * tol.CENTRING)
    with pytest.raises(DomainError, match=r"^kernel is not canonical \(worst slot mean 2\.000e-10\); use canonical\(\) first$"):
        chaos.ChaosKernel(space, 2, {(0, 1): base + 2.0 * tol.CENTRING})
    recentred = chaos.ChaosKernel(space, 2, {(0, 1): base + 2.0 * tol.CENTRING}, raw=True).canonical()
    assert recentred.degeneracy_violation() < 1e-15


def test_centring_boundary_functional_mean():
    space = OutcomeSpace.iid(Distribution.rademacher(), 3)
    X = space.coordinate(0) + space.coordinate(1) * space.coordinate(2)  # mean 0, scale 2
    for factor in (0.5, 2.0):
        Y = X + factor * tol.CENTRING * 2.0
        if factor < 1.0:
            bounds.master_bound(Y)
            chaos.apply_L_power(Y, -1.0)
            continue
        with pytest.raises(DomainError, match="^the master bound needs a centered functional$"):
            bounds.master_bound(Y)
        with pytest.raises(DomainError, match="^negative operator powers need a centered functional$"):
            chaos.apply_L_power(Y, -1.0)


def test_drop_boundary_hoeffding_orders():
    space = OutcomeSpace.iid(Distribution.rademacher(), 2)
    x0, x1 = space.coordinate(0), space.coordinate(1)
    for factor, want in ((0.5, [1]), (2.0, [1, 2])):
        assert sorted(chaos.decompose(x0 + factor * tol.DROP * x0 * x1).kernels) == want


def test_slack_boundary_fourth_moment_check():
    rhs = 3.0  # scale 3
    for factor, holds in ((0.5, True), (2.0, False)):
        lhs = rhs + factor * tol.SLACK * rhs
        assert FourthMomentCheck(lhs, rhs, 0.0, 0.0, 0.0).holds is holds
