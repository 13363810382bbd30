"""End-to-end command line checks: reports, exit codes, determinism."""

import collections
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolbounds import cli, graphweigh, mc, qform, space, verify


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)

    put("A.csv", "0,1,0.5\n1,0,1\n0.5,1,0\n")
    put("zero.csv", "0,0\n0,0\n")
    put(
        "w.json",
        json.dumps(
            {
                "n": 4,
                "order": 2,
                "entries": [
                    {"subset": [0, 1], "value": 1.0},
                    {"subset": [0, 2], "value": 1.0},
                    {"subset": [1, 2], "value": 1.0},
                    {"subset": [2, 3], "value": 0.5},
                ],
            }
        ),
    )
    put("tri.json", '{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    put(
        "law.json",
        json.dumps({"type": "finite", "atoms": [[-1.0, 0.5], [0.0, 0.25], [2.0, 0.25]]}),
    )
    put("sweep_q.json", '{"sizes": [6, 12], "samples": 1000, "delta": 0.05}')
    put("sweep_g.json", '{"n": [8, 12], "p": [0.4], "samples": 1000}')
    put("sweep_empty.json", '{"n": [], "p": [0.4]}')
    put("sweep_sum.json", '{"n": [8], "p": [0.4], "samples": 1000, "combine": "sum"}')
    paths["dir"] = str(tmp_path)
    return paths


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qform_report_oracles(files, capsys):
    code, out, _ = _run(
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--seed", "7", "--samples", "2000"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "qform"
    ana = rep["results"]["analysis"]
    assert ana["sigma2"] == pytest.approx(9.0)
    assert ana["tr_a4"] == pytest.approx(10.125)
    rates = rep["results"]["rates"]
    assert rates["r1"] == pytest.approx(1.3740754546394718, rel=1e-12)
    assert rates["r2"] == pytest.approx(0.35355339059327373, rel=1e-12)
    assert rates["spectral"] == pytest.approx(0.7948543305840879, rel=1e-12)
    exact = rep["results"]["exact"]["value"]
    assert exact == pytest.approx(0.38055865981823633, rel=1e-12)
    emp = rep["results"]["empirical"]
    assert emp["n"] == 2000
    assert abs(emp["value"] - exact) <= emp["dkw"] + 0.01
    assert rep["results"]["stream_scheme"] == mc.STREAM_SCHEME == 3
    assert rep["constant_free"]["r1"] is False
    assert rep["constant_free"]["exact"] is True


def test_reports_are_byte_identical(files, capsys, monkeypatch, tmp_path):
    argv = [
        "qform",
        "--matrix",
        files["A.csv"],
        "--law",
        "three-point",
        "--seed",
        "11",
        "--samples",
        "600",
    ]
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    monkeypatch.delenv(mc.WORKERS_ENV, raising=False)
    assert cli.main(argv + ["--out", out1]) == 0
    monkeypatch.setenv(mc.WORKERS_ENV, "3")
    assert cli.main(argv + ["--out", out2]) == 0
    capsys.readouterr()
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_samples_zero_is_analytic_only(files, capsys):
    code, out, _ = _run(
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--samples", "0"], capsys
    )
    assert code == 0
    rep = json.loads(out)
    assert "empirical" not in rep["results"]
    assert "stream_scheme" not in rep["results"]  # nothing was drawn
    assert "exact" in rep["results"]


def test_exact_section_reaches_the_space_cap(capsys, tmp_path):
    # 2^17 = 131072 outcomes: inside space.SIZE_CAP, so the report is exact.
    n = 17
    rows = [",".join("0" if i == j else str((-1) ** (i * j + i + j)) for j in range(n)) for i in range(n)]
    path = tmp_path / "A17.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(["qform", "--matrix", str(path), "--law", "rademacher", "--samples", "0"], capsys)
    assert code == 0
    assert "exact" in json.loads(out)["results"]


def test_constant_is_echoed_and_scales(files, capsys):
    code, out, _ = _run(
        [
            "qform",
            "--matrix",
            files["A.csv"],
            "--law",
            "rademacher",
            "--constant",
            "2.5",
            "--samples",
            "0",
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["constant"] == 2.5
    for key, v in rep["results"]["rates"].items():
        assert rep["results"]["scaled_rates"][key] == pytest.approx(2.5 * v, rel=1e-15)


def test_bad_inputs_exit_two(files, capsys):
    cases = [
        ["qform", "--matrix", files["dir"] + "/missing.csv", "--law", "rademacher"],
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--samples", "50"],
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--delta", "1.5"],
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--seed", "-1"],
        ["qform", "--law", "rademacher"],
        [
            "qform",
            "--matrix",
            files["A.csv"],
            "--sweep",
            files["sweep_q.json"],
            "--law",
            "rademacher",
            "--out",
            files["dir"] + "/x.json",
        ],
        ["qform", "--sweep", files["sweep_q.json"], "--law", "rademacher"],
        ["qform", "--matrix", files["A.csv"], "--law", files["dir"] + "/missing_law.json"],
        ["qform", "--matrix", files["tri.json"], "--law", "rademacher"],
        ["ustat", "--weights", files["tri.json"], "--law", "rademacher"],
        ["graph", "--graph", files["tri.json"], "--law", "rademacher", "--sweep", files["sweep_sum.json"], "--out", files["dir"] + "/g.json"],
    ]
    # Malformed JSON types: a delta that is not a number, and weight entries
    # that are not a list, a subset that is not a list, a value that is null.
    out = files["dir"] + "/bad.json"
    for i, delta in enumerate([None, [0.1], "0.1"]):
        q, g = f"{files['dir']}/q_delta{i}.json", f"{files['dir']}/g_delta{i}.json"
        Path(q).write_text(json.dumps({"sizes": [6], "samples": 1000, "delta": delta}))
        Path(g).write_text(json.dumps({"n": [8], "p": [0.4], "samples": 1000, "delta": delta}))
        cases.append(["qform", "--sweep", q, "--law", "rademacher", "--out", out])
        cases.append(["graph", "--graph", files["tri.json"], "--law", "rademacher", "--sweep", g, "--out", out])
    for i, entries in enumerate([5, [{"subset": 3, "value": 1.0}], [{"subset": [0, 1], "value": None}]]):
        w = f"{files['dir']}/w_bad{i}.json"
        Path(w).write_text(json.dumps({"n": 4, "order": 2, "entries": entries}))
        cases.append(["ustat", "--weights", w, "--law", "rademacher"])
    # Integers given as strings, floats or bools: n, order, vertices and
    # edge ends are refused rather than truncated or coerced.
    entries = [{"subset": [0, 1], "value": 1.0}]
    for i, (n, order) in enumerate([("4", 2), (4, 2.7), (True, 1), (4.0, 2)]):
        w = f"{files['dir']}/w_int{i}.json"
        Path(w).write_text(json.dumps({"n": n, "order": order, "entries": entries}))
        cases.append(["ustat", "--weights", w, "--law", "rademacher"])
    triangle = [[0, 1], [0, 2], [1, 2]]
    graphs = [(3.9, triangle)] + [(3, [bad] + triangle[1:]) for bad in ([0.9, 1], ["2", 0], [1, 2.5], [True, 2])]
    for i, (vertices, edges) in enumerate(graphs):
        g = f"{files['dir']}/g_int{i}.json"
        Path(g).write_text(json.dumps({"vertices": vertices, "edges": edges}))
        cases.append(["graph", "--graph", g, "--law", "rademacher", "--sweep", files["sweep_g.json"], "--out", out])
    # Finite entries whose sum overflows: symmetrize halves them first.
    huge = Path(files["dir"]) / "huge.csv"
    huge.write_text("0,1.5e308\n1.5e308,0\n")
    cases.append(["qform", "--matrix", str(huge), "--law", "rademacher"])
    for argv in cases:
        code, _, err = _run(argv, capsys)
        assert code == 2, argv
        assert "kolbounds:" in err


def test_seed_must_fit_one_philox_key_word(files, capsys):
    # Every stream is Philox keyed by (seed, stream id) as two 64-bit words:
    # the largest seed draws, one more is refused before any stream is made.
    out = files["dir"] + "/seed.json"
    commands = [
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--samples", "1000"],
        ["qform", "--sweep", files["sweep_q.json"], "--law", "rademacher", "--out", out],
        ["ustat", "--weights", files["w.json"], "--law", "rademacher", "--samples", "1000"],
        ["graph", "--graph", files["tri.json"], "--law", "rademacher", "--sweep", files["sweep_g.json"], "--out", out],
        ["chaos-verify"],
    ]
    for argv in commands:
        code, _, err = _run(argv + ["--seed", str(2**64)], capsys)
        assert code == 2, argv
        assert "--seed must be an integer in [0, 2**64)" in err
    for argv in commands[:4]:
        code, text, _ = _run(argv + ["--seed", str(2**64 - 1)], capsys)
        assert code == 0, argv
        report = json.loads(Path(out).read_text() if "--out" in argv else text)
        assert report["seed"] == 2**64 - 1


def test_non_finite_inputs_are_refused_where_they_are_read(files, capsys, tmp_path):
    (tmp_path / "nan.csv").write_text("0,nan\nnan,0\n")
    (tmp_path / "inf.csv").write_text("0,1,inf\n1,0,1\ninf,1,0\n")
    weights = {"n": 3, "order": 2, "entries": [{"subset": [0, 1], "value": "nan"}]}
    (tmp_path / "w_nan.json").write_text(json.dumps(weights))
    law = {"type": "finite", "atoms": [[-1.0, float("nan")], [1.0, 0.5]]}
    (tmp_path / "law_nan.json").write_text(json.dumps(law))
    cases = [
        (["qform", "--matrix", str(tmp_path / "nan.csv"), "--law", "rademacher"], "matrix entries must be finite numbers, got nan"),
        (["qform", "--matrix", str(tmp_path / "inf.csv"), "--law", "rademacher"], "matrix entries must be finite numbers, got inf"),
        (["ustat", "--weights", str(tmp_path / "w_nan.json"), "--law", "rademacher"], "weights must be finite numbers, got nan"),
        (["qform", "--matrix", files["A.csv"], "--law", str(tmp_path / "law_nan.json")], "atom probabilities must be finite numbers"),
    ]
    for argv, message in cases:
        code, out, err = _run(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("kolbounds: ") and message in err, err
        assert "Warning" not in err


def test_matrix_scale_past_the_double_range_exits_two(capsys, tmp_path):
    # At 1e170 the fourth-moment sums would overflow; analyze refuses the
    # matrix before forming them, so no RuntimeWarning (an error under the
    # test settings) and no NaN reach the report. 1e50 still fits. At 1e-200
    # the squared entries underflow and the variance reads zero, but the form
    # is not degenerate: the scale is refused, not the form (exit 3).
    for exponent, code in ((170, 2), (50, 0), (-200, 2)):
        path = tmp_path / f"big{exponent}.csv"
        a = f"1e{exponent}"
        path.write_text(f"0,{a},{a}\n{a},0,{a}\n{a},{a},0\n")
        got, out, err = _run(["qform", "--matrix", str(path), "--law", "three-point"], capsys)
        assert got == code, err
        if code == 2:
            assert out == "" and f"matrix scale max|a_ij| = {float(a):.3g} at n = 3" in err, err
            assert "rescale the matrix" in err, err
        else:
            assert json.loads(out)["results"]["analysis"]["sigma2"] > 1e100


def test_matrix_scale_below_the_double_range_exits_two_unless_degenerate(capsys, tmp_path):
    # At 1e-100 the variance divided by sigma2^2 underflowed to a zero
    # division, and at 1e-80 r2 lost its digits (0.70710284 for 0.70710678):
    # max|a_ij|^4 within 20 bits of the smallest normal double is refused
    # before any sum. 1e-75 keeps every digit of the scale-1 rates. A
    # diagonal-only form under Rademacher signs is degenerate at every scale,
    # so at 1e-200 and at 1e200 it still exits 3.
    rates = {}
    for exponent, code in ((0, 0), (-75, 0), (-80, 2), (-100, 2)):
        path = tmp_path / f"small{exponent}.csv"
        a = f"1e{exponent}"
        path.write_text(f"0,{a},{a}\n{a},0,{a}\n{a},{a},0\n")
        got, out, err = _run(["qform", "--matrix", str(path), "--law", "three-point"], capsys)
        assert got == code, err
        if code == 2:
            assert out == "" and f"matrix scale max|a_ij| = {float(a):.3g} at n = 3 is too small" in err, err
            assert "rescale the matrix" in err and "Traceback" not in err, err
        else:
            rates[exponent] = json.loads(out)["results"]["rates"]
    assert rates[-75] == pytest.approx(rates[0], rel=1e-13)
    for a in ("1e-200", "1e200"):
        path = tmp_path / f"diag{a}.csv"
        path.write_text(f"{a},0,0\n0,{a},0\n0,0,{a}\n")
        got, out, err = _run(["qform", "--matrix", str(path), "--law", "rademacher"], capsys)
        assert got == 3 and out == "" and "the quadratic form at n=3 has zero variance" in err, err


def test_weight_scale_past_the_double_range_exits_two(capsys, tmp_path):
    # At 1e160 and 1e308 the contraction sums (up to n^4 max|w|^4 at order 2)
    # would overflow, and at 1e-200 or 1e-100 their max|w|^4 underflows: the
    # scale is refused before any sum, with no RuntimeWarning and no NaN or
    # zero rate in a report. At order 1 only the variance reads the weights,
    # and at 1e-200 it underflows to zero: the scale is refused, not the
    # statistic. 1e50 still fits. An all-zero tensor is degenerate (exit 3).
    cases = [(160, 2, 2, "too large"), (308, 2, 2, "too large"), (-200, 2, 2, "too small"), (-100, 2, 2, "too small")]
    cases += [(-200, 1, 2, "the variance underflows"), (50, 2, 0, None)]
    for exponent, order, code, why in cases:
        path = tmp_path / f"w{exponent}_{order}.json"
        subsets = itertools.combinations(range(4), order)
        entries = [{"subset": list(s), "value": float(f"1e{exponent}")} for s in subsets]
        path.write_text(json.dumps({"n": 4, "order": order, "entries": entries}))
        got, out, err = _run(["ustat", "--weights", str(path), "--law", "three-point"], capsys)
        assert got == code, err
        if code == 2:
            assert out == "" and f"weight scale max|w| = {float(f'1e{exponent}'):.3g} at n = 4, order {order}" in err, err
            assert why in err and "rescale the weights" in err, err
        else:
            assert json.loads(out)["results"]["rate"] > 0.0
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 4, "order": 2, "entries": [{"subset": [0, 1], "value": 0.0}]}))
    got, out, err = _run(["ustat", "--weights", str(zero), "--law", "three-point"], capsys)
    assert got == 3 and out == "" and "the weighted statistic has zero variance" in err, err
    # Under the one-point law {0: 1} the statistic is zero whatever the
    # weights: degenerate (exit 3) at every weight scale, the ones the
    # scale guard refuses included.
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"type": "finite", "atoms": [[0.0, 1.0]]}))
    for exponent in (0, -100, 200):
        path = tmp_path / f"w{exponent}_2.json"
        entries = [{"subset": list(s), "value": float(f"1e{exponent}")} for s in itertools.combinations(range(4), 2)]
        path.write_text(json.dumps({"n": 4, "order": 2, "entries": entries}))
        got, out, err = _run(["ustat", "--weights", str(path), "--law", str(point)], capsys)
        assert got == 3 and out == "" and "the weighted statistic has zero variance" in err, (exponent, err)


def test_oversized_inputs_exit_two_before_allocating(tmp_path):
    # Each input's first dense array is predicted from n (and the order) and
    # refused past space.BYTE_CAP: a 931 GiB weight tensor, a 74.5 GiB sign
    # matrix and 5 TB of graph counter blocks; so are a row's 8-byte results,
    # 3.2 GB at 400 000 000 draws (2^25 draws is the most a row takes), from
    # --samples or a sweep's samples. The commands run in a child
    # process under a 2 GiB address-space limit, so an allocation that slips
    # past the check fails fast there (MemoryError, exit 1) instead of taking
    # the machine's memory.
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"n": 5000, "order": 3, "entries": [{"subset": [0, 1, 2], "value": 1.0}]}))
    # Tensors whose n^d passes int64 are refused by the same check, before
    # any entry is converted.
    beyond = {
        "w7.json": {"n": 10_000_000, "order": 3, "entries": [{"subset": [0, 1, 2], "value": 1.0}]},
        "w7empty.json": {"n": 10_000_000, "order": 3, "entries": []},
        "w2.json": {"n": 3_037_000_500, "order": 2, "entries": [{"subset": [0, 1], "value": 1.0}]},
        "w30.json": {"n": 10**10, "order": 30, "entries": []},
        # Past 2^1000 bytes the power is not formed, so an absurd order costs nothing.
        "w40.json": {"n": 10**10, "order": 40, "entries": []},
        "wbig.json": {"n": 10**7, "order": 10**7, "entries": []},
    }
    for name, obj in beyond.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "sizes.json").write_text('{"sizes": [100000], "samples": 1000}')
    (tmp_path / "grid.json").write_text('{"n": [100000], "p": [0.5], "samples": 1000}')
    (tmp_path / "tri.json").write_text('{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    (tmp_path / "A.csv").write_text("0,1\n1,0\n")
    (tmp_path / "long.json").write_text('{"n": [8], "p": [0.3], "samples": 400000000}')
    out = str(tmp_path / "r.json")
    cases = [
        (["ustat", "--weights", str(weights), "--law", "three-point"], "dense weight tensor of order 3 at n = 5000"),
        (["ustat", "--weights", str(tmp_path / "w7.json"), "--law", "three-point"],
         "dense weight tensor of order 3 at n = 10000000 would take 8000000000000000000000 bytes"),
        (["ustat", "--weights", str(tmp_path / "w7empty.json"), "--law", "three-point"],
         "dense weight tensor of order 3 at n = 10000000 would take 8000000000000000000000 bytes"),
        (["ustat", "--weights", str(tmp_path / "w2.json"), "--law", "three-point"],
         "dense weight tensor of order 2 at n = 3037000500 would take 73786976296002000000 bytes"),
        (["ustat", "--weights", str(tmp_path / "w30.json"), "--law", "three-point"],
         f"dense weight tensor of order 30 at n = {10**10} would take {8 * 10**300} bytes"),
        (["ustat", "--weights", str(tmp_path / "w40.json"), "--law", "three-point"],
         f"dense weight tensor of order 40 at n = {10**10} would take more than 2^1000 bytes"),
        (["ustat", "--weights", str(tmp_path / "wbig.json"), "--law", "three-point"],
         "dense weight tensor of order 10000000 at n = 10000000 would take more than 2^1000 bytes"),
        (["qform", "--sweep", str(tmp_path / "sizes.json"), "--law", "rademacher", "--out", out], "100000 x 100000"),
        (["graph", "--graph", str(tmp_path / "tri.json"), "--law", "rademacher", "--sweep", str(tmp_path / "grid.json"),
          "--out", out], "counter matrices of 100000 x 100000"),
        (["qform", "--matrix", str(tmp_path / "A.csv"), "--law", "rademacher", "--samples", "400000000", "--out", out],
         "a row of 400000000 draws"),
        (["graph", "--graph", str(tmp_path / "tri.json"), "--law", "rademacher", "--sweep", str(tmp_path / "long.json"),
          "--out", out], "a row of 400000000 draws"),
    ]
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
    code = limit + "import sys; from kolbounds.cli import main; sys.exit(main(sys.argv[1:]))"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), OPENBLAS_NUM_THREADS="1")
    for argv, what in cases:
        done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2, (argv[0], done.stderr)
        assert what in done.stderr and "bytes" in done.stderr and "Traceback" not in done.stderr, done.stderr
    assert not Path(out).exists()


def test_a_non_finite_result_exits_two_and_leaves_no_file(files, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(qform, "rate_gt", lambda q, m: float("inf"))
    out = tmp_path / "report.json"
    code, stdout, err = _run(["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == "" and "Out of range float values are not JSON compliant: inf" in err
    assert not out.exists()


def test_one_process_reuses_its_parser(files, capsys, tmp_path):
    out = str(tmp_path / "q.json")
    runs = [
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--seed", "3", "--out", out],
        ["ustat", "--weights", files["w.json"], "--law", "three-point", "--samples", "1000"],
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--no-such-flag"],
        ["qform", "--matrix", files["A.csv"], "--law", "rademacher", "--seed", "3", "--out", out],
    ]

    def outputs(fresh_parser):
        seen = []
        for argv in runs:
            if fresh_parser:
                cli._build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses bad arguments this way
                code = exc.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err, Path(out).read_bytes()))
        return seen

    cli._build_parser.cache_clear()
    reused = outputs(fresh_parser=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, *_ in reused] == [0, 0, 2, 0]
    assert reused == outputs(fresh_parser=True)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_KEYS = st.one_of(st.text(max_size=6), st.text(alphabet="{}%\"\\\x00\u00e9", max_size=3))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    _FLOATS,
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2**63, -(2**64) - 1]),
    st.text(),
    st.text(alphabet="\"\\{}\x00\x1f\n\u00e9\u20ac\U0001f600", max_size=6),
)


def _records(tree):
    # Lists of dicts with one key set, the shape of weight entries and sweep rows.
    keys = st.lists(_KEYS, max_size=3, unique=True)
    return keys.flatmap(lambda ks: st.lists(st.fixed_dictionaries({k: tree for k in ks}), max_size=4))


_TREES = st.recursive(
    _LEAVES,
    lambda tree: st.one_of(
        st.lists(tree, max_size=5),
        st.dictionaries(_KEYS, tree, max_size=5),
        st.lists(_FLOATS, max_size=6),
        st.lists(st.integers(), max_size=6),
        st.lists(st.lists(_FLOATS, max_size=3), max_size=3),
        _records(tree),
    ),
    max_leaves=30,
)


def _with_a_non_finite(tree):
    # Wraps a subtree that holds a non-finite float, so every level keeps one.
    return st.one_of(
        st.tuples(st.lists(_TREES, max_size=3), tree, st.lists(_TREES, max_size=3)).map(lambda t: t[0] + [t[1]] + t[2]),
        st.tuples(st.dictionaries(_KEYS, _TREES, max_size=3), _KEYS, tree).map(
            lambda t: {**t[0], t[1]: t[2]}
        ),
        tree.map(lambda bad: [{"k": 0.5}, {"k": bad}]),
        tree.map(lambda bad: [[1.0, 2.0], [bad]]),
    )


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_report_writer_matches_json_dumps(tree):
    indented, compact = cli._json_texts(tree, "")
    assert indented == json.dumps(tree, sort_keys=True, indent=2, allow_nan=False)
    assert compact == json.dumps(tree, sort_keys=True, separators=(",", ":"), allow_nan=False)
    # Below an indented line the same tree sits as json.dumps puts it in a dict.
    nested, _ = cli._json_texts(tree, "  ")
    assert "{\n  \"k\": " + nested + "\n}" == json.dumps({"k": tree}, sort_keys=True, indent=2, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(st.recursive(st.sampled_from([math.nan, math.inf, -math.inf]), _with_a_non_finite, max_leaves=4))
def test_report_writer_refuses_non_finite_floats_at_any_depth(tree):
    with pytest.raises(ValueError, match="not JSON compliant"):
        json.dumps(tree, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._json_texts(tree, "")


def test_report_writer_refuses_what_json_refuses():
    for obj in ([object()], {"a": np.int64(1)}, {1: "non-string key"}):
        with pytest.raises(TypeError):
            cli._json_texts(obj, "")
    # Subclasses format as their base types, as in json.
    obj = {"a": [np.float64(0.1), np.float64(-2.5)], "b": (1, 2)}
    indented, _ = cli._json_texts(obj, "")
    assert indented == json.dumps(obj, sort_keys=True, indent=2)


def _assert_dumps_texts(obj):
    # Both texts equal json.dumps', at the top level and one level down;
    # json.dumps runs first, so a writer that changed obj would show.
    expected = [
        json.dumps(obj, sort_keys=True, indent=2, allow_nan=False),
        json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False),
        json.dumps({"k": obj}, sort_keys=True, indent=2, allow_nan=False),
    ]
    indented, compact = cli._json_texts(obj, "")
    nested, nested_compact = cli._json_texts(obj, "  ")
    assert [indented, compact, "{\n  \"k\": " + nested + "\n}"] == expected
    assert nested_compact == compact


def _counting(monkeypatch, kind):
    # Counts the values the writer formats as kind.
    calls = []
    fmt = cli._REPR[kind]
    monkeypatch.setitem(cli._REPR, kind, lambda v: calls.append(v) or fmt(v))
    return calls


def test_report_writer_matches_json_dumps_at_slice_sizes(monkeypatch):
    # Lists longer than one _SLICE, many records of one template, and lists
    # whose shape breaks partway, each against json.dumps byte for byte.
    assert cli._SLICE == 1024
    rng = np.random.default_rng(30)
    n = 129
    A = np.triu(np.round(rng.standard_normal((n, n)), 1), 1) + np.diag(rng.standard_normal(n))
    A[0, 1], A[0, 2], A[1, 2], A[3, 4], A[5, 6], A[7, 8] = -0.0, 0.0, 5e-324, 1e16, 1e-5, -5e-324
    matrix = np.where(np.tri(n, k=-1, dtype=bool), A.T, A).tolist()
    assert math.copysign(1.0, matrix[1][0]) == -1.0 and matrix[2][0] == 0.0
    floats = _counting(monkeypatch, float)
    _assert_dumps_texts(matrix)
    # One repr per distinct bit pattern (-0.0 and 0.0 apart) in each of the two
    # calls, for both texts: the rounded entries repeat, and no mirrored entry
    # is formatted again.
    distinct = len(set(np.asarray(matrix).view(np.int64).ravel().tolist()))
    assert distinct < n * (n + 1) // 2 and len(floats) == 2 * distinct
    monkeypatch.undo()

    entries = [{"subset": [i % 30, 30 + i % 7, 40 + i // 100], "value": float(rng.standard_normal())} for i in range(3000)]
    ints = _counting(monkeypatch, int)
    _assert_dumps_texts({"n": 70, "order": 3, "entries": entries})
    # Per call, three slices of at most 30 + 7 + 11 distinct indices, and the two scalars.
    assert len(ints) <= 2 * (3 * (30 + 7 + 11) + 2)
    monkeypatch.undo()
    odd_keys = [{"%s": i, "{}": [float(i), -0.0], "50%{": {"}%": None, "a": True}} for i in range(2100)]
    _assert_dumps_texts(odd_keys)
    extra_key = [dict(e) for e in entries]
    extra_key[1500]["zz"] = 1
    _assert_dumps_texts(extra_key)
    int_value = [dict(e) for e in entries]
    int_value[1500]["value"] = 2
    _assert_dumps_texts(int_value)
    renamed = [dict(e) for e in entries]
    renamed[1500] = {"subset": [1, 2, 3], "zz": 1.0}
    _assert_dumps_texts(renamed)
    _assert_dumps_texts([{"a": None}] * 1500 + [{"b": None}] + [{"a": None}] * 100)
    # A dict subclass may make up values for keys it lacks; json.dumps reads only its own.
    _assert_dumps_texts([collections.defaultdict(float, a=1.5), collections.defaultdict(float, b=2.5)] * 600)
    # Each slice uniform, in a different shape from the one before.
    _assert_dumps_texts([{"a": 0.5}] * 1024 + [{"b": [1, 2]}] * 1024 + [[0.5, -0.0]] * 1100)
    rows = [[float(i), 1.0] for i in range(2000)]
    rows[1500] = [1.0, 2.0, 3.0]
    _assert_dumps_texts(rows)
    wide = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, -(10**30), 0, -1]
    _assert_dumps_texts(wide * 300)
    _assert_dumps_texts([{"i": v, "s": [v, v]} for v in wide * 200])
    _assert_dumps_texts([[], {}, [[]], [{}]] * 600 + [[1, "a", None, True, 2.5]] * 600)

    for bad in (math.nan, math.inf, -math.inf):
        column = [float(i) for i in range(3000)]
        column[1500] = bad
        records = [{"value": float(i), "subset": [i]} for i in range(3000)]
        records[2100]["value"] = bad
        for obj in (column, records, {"entries": records}):
            with pytest.raises(ValueError, match="not JSON compliant"):
                json.dumps(obj, sort_keys=True, allow_nan=False)
            with pytest.raises(ValueError, match=f"not JSON compliant: {bad!r}"):
                cli._json_texts(obj, "")


def _weights_file(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_weight_file_rejections_keep_their_messages(tmp_path, capsys):
    # The array checks in WeightTensor.from_json give the messages and exit
    # codes of the per-entry checks they replaced.
    good = [{"subset": list(s), "value": 1.0} for s in itertools.islice(itertools.combinations(range(20), 3), 1000)]
    cases = [
        ({"n": 4, "order": 2, "entries": [{"subset": [0, 1], "value": 1.0}, {"subset": [0, 2**70], "value": 1.0}]},
         f"weight subset [0, {2**70}] out of range for n=4"),
        ({"n": 4, "order": 2, "entries": [{"subset": [2**64, -(2**70)], "value": 1.0}]},
         f"weight subset [{2**64}, {-(2**70)}] out of range for n=4"),
        ({"n": 4, "order": 2, "entries": [{"subset": [0, True], "value": 1.0}]}, "weight subsets must be lists of integer indices"),
        ({"n": 4, "order": 2, "entries": [{"subset": [0, [1]], "value": 1.0}]}, "weight subsets must be lists of integer indices"),
        ({"n": 4, "order": 2, "entries": [{"subset": "01", "value": 1.0}]}, "weight subsets must be lists of integer indices"),
        ({"n": 20, "order": 3, "entries": good + [{"subset": [0, 1], "value": 1.0}]}, "weight subset [0, 1] must hold 3 distinct indices"),
        ({"n": 20, "order": 3, "entries": good + [{"subset": [5, 5, 1], "value": 1.0}]},
         "weight subset [5, 5, 1] must hold 3 distinct indices"),
        ({"n": 4, "order": 2, "entries": [{"subset": [0, 1], "value": "nan"}]}, "weights must be finite numbers, got nan"),
        ({"n": 4, "order": 2, "entries": [{"subset": [0], "value": 1.0}, {"subset": [0, 1], "value": "abc"}]},
         "could not convert string to float: 'abc'"),
        ({"n": 4, "order": 2, "entries": [{"subset": [0, 1], "value": None}]}, "weight values must be numbers"),
        ({"n": 4, "order": 2, "entries": [{"subset": [0, 1]}]}, "each weight entry needs a subset and a value"),
        ({"n": 4, "order": 2, "entries": [[0, 1]]}, "each weight entry needs a subset and a value"),
    ]
    for i, (obj, message) in enumerate(cases):
        code, out, err = _run(["ustat", "--weights", _weights_file(tmp_path, f"w{i}.json", obj), "--law", "three-point"], capsys)
        assert (code, out, err) == (2, "", f"kolbounds: {message}\n"), (i, err)
    # A repeated subset is no error: its last entry wins, in any order of indices.
    obj = {"n": 4, "order": 2, "entries": [{"subset": [0, 1], "value": 1.0}, {"subset": [2, 3], "value": 2.0},
                                           {"subset": [1, 0], "value": 3.0}]}
    code, out, err = _run(["ustat", "--weights", _weights_file(tmp_path, "repeat.json", obj), "--law", "three-point"], capsys)
    assert code == 0, err
    assert json.loads(out)["config"]["weights"]["entries"] == [{"subset": [0, 1], "value": 3.0}, {"subset": [2, 3], "value": 2.0}]


def test_the_largest_desk_report_writes_within_the_column_writer_memory(tmp_path, monkeypatch):
    # The ustat n = 40, d = 3 report (9 880 weight entries) sets the memory
    # high-water mark of perfbench's desk-reports. The per-column writer this
    # one replaced peaked at 5 755 493 traced bytes in _emit here.
    rng = np.random.default_rng(0)
    entries = [{"subset": list(s), "value": float(rng.standard_normal())} for s in itertools.combinations(range(40), 3)]
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda *a: calls.append(a) or 0)
    argv = ["ustat", "--weights", _weights_file(tmp_path, "w.json", {"n": 40, "order": 3, "entries": entries}),
            "--law", "three-point", "--out", str(tmp_path / "u.json")]
    assert cli.main(argv) == 0
    monkeypatch.undo()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli._emit(*calls[0]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5_755_493, peak
    assert len(json.loads((tmp_path / "u.json").read_text())["config"]["weights"]["entries"]) == 9880


def test_degenerate_matrix_exits_three(files, capsys):
    code, _, err = _run(["qform", "--matrix", files["zero.csv"], "--law", "rademacher"], capsys)
    assert code == 3
    assert "variance" in err


def test_law_keyword_normalization(files, capsys):
    code, out, _ = _run(
        ["qform", "--matrix", files["A.csv"], "--law", "Three_Point", "--samples", "0"], capsys
    )
    assert code == 0
    atoms = json.loads(out)["config"]["law"]["atoms"]
    assert atoms == [[-1.0, 0.25], [0.0, 0.5], [1.0, 0.25]]


def test_law_from_json_file(files, capsys):
    code, out, _ = _run(
        ["qform", "--matrix", files["A.csv"], "--law", files["law.json"], "--samples", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["config"]["law"]["atoms"][2] == [2.0, 0.25]


def test_qform_sweep_csv(files, capsys, tmp_path):
    out = str(tmp_path / "sweep.json")
    code, _, _ = _run(
        [
            "qform",
            "--sweep",
            files["sweep_q.json"],
            "--law",
            "rademacher",
            "--seed",
            "3",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    rep = json.loads(Path(out).read_text())
    rows = rep["results"]["rows"]
    assert [r["n"] for r in rows] == [6, 12]
    assert rows[0]["rate_r2"] > rows[1]["rate_r2"]
    lines = Path(out + ".csv").read_text().splitlines()
    assert lines[0] == "n,rate_r1,rate_r2,dk_emp,dkw"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 6
    assert float(first[3]) == pytest.approx(rows[0]["dk_emp"], rel=1e-15)


def test_graph_sweep_csv_and_empty_grid(files, capsys, tmp_path):
    out = str(tmp_path / "g.json")
    code, _, _ = _run(
        [
            "graph",
            "--graph",
            files["tri.json"],
            "--law",
            "rademacher",
            "--sweep",
            files["sweep_g.json"],
            "--seed",
            "5",
            "--out",
            out,
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(Path(out).read_text())["results"]["rows"]
    assert [(r["n"], r["p"]) for r in rows] == [(8, 0.4), (12, 0.4)]
    assert rows[0]["rg_rate"] > rows[1]["rg_rate"]
    lines = Path(out + ".csv").read_text().splitlines()
    assert lines[0] == "n,p,rg_rate,dk_emp,dkw"
    assert len(lines) == 3

    out2 = str(tmp_path / "empty.json")
    code, _, _ = _run(
        [
            "graph",
            "--graph",
            files["tri.json"],
            "--law",
            "rademacher",
            "--sweep",
            files["sweep_empty.json"],
            "--out",
            out2,
        ],
        capsys,
    )
    assert code == 0
    assert Path(out2 + ".csv").read_text() == "n,p,rg_rate,dk_emp,dkw\n"


def test_graph_sweep_refuses_before_any_row_runs(files, capsys, tmp_path, monkeypatch):
    # Every grid point is checked up front: no row may sample when a later
    # point is refused, and an empty grid does not excuse an unknown convention.
    def row_ran(*args, **kwargs):
        raise AssertionError("a sweep row ran before the refusal")

    monkeypatch.setattr(cli.graphweigh, "simulate_weight", row_ran)
    k4 = {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
    (tmp_path / "k4.json").write_text(json.dumps(k4))
    configs = {
        "k4_big.json": {"n": [8, 60], "p": [0.5], "samples": 1000},
        "bogus_empty.json": {"n": [], "p": [0.4], "combine": "mean"},
        "bad_p.json": {"n": [8], "p": [0.4, 1.5], "samples": 1000},
        "small_n.json": {"n": [8, 2], "p": [0.4], "samples": 1000},
    }
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    out = str(tmp_path / "x.json")
    cases = [
        (str(tmp_path / "k4.json"), str(tmp_path / "k4_big.json"), "487635 copies at n=60"),
        (files["tri.json"], str(tmp_path / "bogus_empty.json"), "combine must be 'product', got 'mean'"),
        (files["tri.json"], files["sweep_sum.json"], "combine must be 'product', got 'sum'"),
        (files["tri.json"], str(tmp_path / "bad_p.json"), "must lie in (0, 1), got 1.5"),
        (files["tri.json"], str(tmp_path / "small_n.json"), "n=2 cannot host a 3-vertex template"),
    ]
    for graph, sweep, message in cases:
        argv = ["graph", "--graph", graph, "--law", "rademacher", "--sweep", sweep, "--out", out]
        code, _, err = _run(argv, capsys)
        assert code == 2, sweep
        assert message in err
    assert not (tmp_path / "x.json").exists()

    with pytest.raises(SystemExit):
        cli.main(["graph", "--help"])
    assert 'combine, if given, must be "product"' in " ".join(capsys.readouterr().out.split())


def test_qform_sweep_refuses_before_any_row_samples(files, capsys, tmp_path, monkeypatch):
    # Every size is generated and analysed up front: the bad last size must
    # stop the sweep before the first row draws a sample.
    calls = []
    monkeypatch.setattr(cli.qform, "q_samples", lambda A, law, rng, size: calls.append(size) or np.zeros(size))
    (tmp_path / "late_bad.json").write_text(json.dumps({"sizes": [128, 1], "samples": 1000}))
    out = str(tmp_path / "x.json")
    argv = ["qform", "--sweep", str(tmp_path / "late_bad.json"), "--law", "rademacher", "--out", out]
    code, _, err = _run(argv, capsys)
    assert code == 2
    assert "sign matrices need n >= 2" in err
    assert calls == []
    assert not (tmp_path / "x.json").exists()


def _sweep_outputs(argv, out, monkeypatch, capsys):
    texts = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv(mc.WORKERS_ENV, workers)
        code, _, _ = _run(argv + ["--out", out], capsys)
        assert code == 0
        texts.append((Path(out).read_bytes(), Path(out + ".csv").read_bytes()))
    assert texts[0] == texts[1] == texts[2]
    monkeypatch.setenv(mc.WORKERS_ENV, "1")
    return json.loads(texts[0][0])


def test_pooled_sweeps_do_not_depend_on_workers(files, capsys, tmp_path, monkeypatch):
    # Each row must also equal a lone pooled row over that row's streams: the
    # sign pattern S's draws times c = fl(1/sqrt(n)), over sigma of S / sqrt(n).
    out = str(tmp_path / "s.json")
    seed = 4
    (tmp_path / "q.json").write_text(json.dumps({"sizes": [6, 12, 9], "samples": 60_000}))
    argv = ["qform", "--sweep", str(tmp_path / "q.json"), "--law", "three-point", "--seed", str(seed)]
    results = _sweep_outputs(argv, out, monkeypatch, capsys)["results"]
    assert results["stream_scheme"] == mc.STREAM_SCHEME
    rows = results["rows"]
    law = cli.three_point()
    for idx, row in enumerate(rows):
        n = row["n"]
        S = cli.sign_pattern(n, mc.stream(seed, cli._MATRIX_STREAM_BASE + idx))
        sig = qform.analyze(S / math.sqrt(n), law.moments()).sigma2 ** 0.5
        first = cli._SWEEP_STREAM_STRIDE * idx
        row_draws = (lambda rng, b: qform.q_samples(S, law, rng, b) * (1.0 / math.sqrt(n)) / sig, 60_000, first)
        (draws,) = mc.pooled_draws([row_draws], seed)
        assert row["dk_emp"] == mc.empirical_kdist(draws).value

    k4 = {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
    (tmp_path / "k4.json").write_text(json.dumps(k4))
    (tmp_path / "grid.json").write_text(json.dumps({"n": [8, 12], "p": [0.4, 0.6], "samples": 1000}))
    law = cli.Distribution.rademacher()
    for graph in (files["tri.json"], str(tmp_path / "k4.json")):
        argv = ["graph", "--graph", graph, "--law", "rademacher", "--sweep", str(tmp_path / "grid.json")]
        argv += ["--seed", str(seed)]
        rows = _sweep_outputs(argv, out, monkeypatch, capsys)["results"]["rows"]
        G = graphweigh.GraphSpec.load(graph)
        assert len(rows) == 4
        for idx, row in enumerate(rows):
            n, p = row["n"], row["p"]
            sig = graphweigh.exact_weight_moments(G, n, p, law)[1] ** 0.5
            first = cli._SWEEP_STREAM_STRIDE * idx
            row_draws = (lambda rng, b: graphweigh.simulate_weight(G, n, p, law, rng, b) / sig, 1000, first)
            (draws,) = mc.pooled_draws([row_draws], seed)
            assert row["dk_emp"] == mc.empirical_kdist(draws).value


def test_sign_sweep_rows_at_powers_of_four_are_the_scaled_matrix_draws(capsys, tmp_path):
    # At n = 16 and 64, c = fl(1/sqrt(n)) is a power of two, so a row's draws
    # from the sign pattern (float32 for these integer laws) are
    # q_samples(A) / sigma of A = S / sqrt(n) bit for bit; at n = 32 they
    # agree to round-off. A Rademacher sweep's n = 16 row reads them.
    (tmp_path / "q.json").write_text(json.dumps({"sizes": [16], "samples": 3_000}))
    out = str(tmp_path / "q.out.json")
    code, _, _ = _run(["qform", "--sweep", str(tmp_path / "q.json"), "--law", "rademacher", "--out", out], capsys)
    assert code == 0
    (row,) = json.loads(Path(out).read_text())["results"]["rows"]
    law = cli.Distribution.rademacher()
    A = cli.sign_pattern(16, mc.stream(0, cli._MATRIX_STREAM_BASE)) / 4.0
    sig = qform.analyze(A, law.moments()).sigma2 ** 0.5
    (draws,) = mc.pooled_draws([(lambda rng, b: qform.q_samples(A, law, rng, b) / sig, 3_000, 0)], 0)
    assert row["dk_emp"] == mc.empirical_kdist(draws).value
    for law in (cli.Distribution.rademacher(), cli.three_point()):
        for idx, n in enumerate((16, 64, 32)):
            S = cli.sign_pattern(n, mc.stream(5, cli._MATRIX_STREAM_BASE + idx))
            A = S / math.sqrt(n)
            sig = qform.analyze(A, law.moments()).sigma2 ** 0.5
            got = cli._sweep_q_draw(5, idx, n, law, sig, mc.stream(5, idx), 5_000)
            assert np.array_equal(got, qform.q_samples(S, law, mc.stream(5, idx), 5_000) * (1.0 / math.sqrt(n)) / sig)
            want = qform.q_samples(A, law, mc.stream(5, idx), 5_000) / sig
            if n == 32:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            else:
                assert np.array_equal(got, want), (law.values, n)


def test_graph_sweeps_with_byte_flags_do_not_depend_on_workers(files, capsys, tmp_path, monkeypatch):
    # At p = 0.3 each retention flag reads one byte and a tied one a word
    # after the weights; 60 000 draws are two chunks, so two and three
    # workers interleave them.
    (tmp_path / "grid.json").write_text(json.dumps({"n": [8, 12], "p": [0.3], "samples": 60_000}))
    argv = ["graph", "--graph", files["tri.json"], "--law", "three-point", "--sweep", str(tmp_path / "grid.json")]
    results = _sweep_outputs(argv + ["--seed", "6"], str(tmp_path / "g.json"), monkeypatch, capsys)["results"]
    assert results["stream_scheme"] == mc.STREAM_SCHEME == 3
    assert [(row["n"], row["p"]) for row in results["rows"]] == [(8, 0.3), (12, 0.3)]


def test_sweeps_that_would_reuse_streams_exit_two(files, capsys, tmp_path):
    # Row 50 of a qform sweep would start at the matrix stream block, and a
    # point drawing from more than the stride's streams would run into the
    # next row; both are refused before any row runs. The row-bytes cap
    # refuses every row long enough to reach the next row's streams, so a
    # larger cap needs a new stream layout first.
    assert space.BYTE_CAP // 8 <= cli._SWEEP_STREAM_STRIDE * mc.DRAW_CHUNK
    too_many = cli._SWEEP_STREAM_STRIDE * mc.DRAW_CHUNK + 1
    configs = {
        "q51.json": {"sizes": [3] * 51, "samples": 100},
        "q_big.json": {"sizes": [3], "samples": too_many},
        "g_big.json": {"n": [8], "p": [0.4], "samples": too_many},
    }
    for name, cfg in configs.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    out = str(tmp_path / "x.json")
    cases = [
        (["qform", "--sweep", str(tmp_path / "q51.json")], "at most 50 sizes"),
        (["qform", "--sweep", str(tmp_path / "q_big.json")], f"a row of {too_many} draws would take"),
        (
            ["graph", "--graph", files["tri.json"], "--sweep", str(tmp_path / "g_big.json")],
            f"a row of {too_many} draws would take",
        ),
    ]
    for argv, message in cases:
        code, _, err = _run(argv + ["--law", "rademacher", "--out", out], capsys)
        assert code == 2, argv
        assert message in err
    assert not (tmp_path / "x.json.csv").exists()

    (tmp_path / "q50.json").write_text(json.dumps({"sizes": [3] * 50, "samples": 100}))
    code, _, _ = _run(["qform", "--sweep", str(tmp_path / "q50.json"), "--law", "rademacher", "--out", out], capsys)
    assert code == 0
    assert len(json.loads(Path(out).read_text())["results"]["rows"]) == 50


def test_ustat_report(files, capsys):
    code, out, _ = _run(
        ["ustat", "--weights", files["w.json"], "--law", "rademacher", "--samples", "500", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["order"] == 2
    assert res["sigma2"] > 0.0
    assert res["rate"] > 0.0
    assert "exact" in res
    assert abs(res["empirical"]["value"] - res["exact"]["value"]) <= res["empirical"]["dkw"] + 0.05


def test_ustat_reports_do_not_depend_on_workers(files, capsys, tmp_path, monkeypatch):
    # 120 000 draws are three chunks, so two and three workers interleave them.
    argv = ["ustat", "--weights", files["w.json"], "--law", files["law.json"], "--samples", "120000", "--seed", "5"]
    texts = []
    for workers in ("1", "2", "3", "2"):
        monkeypatch.setenv(mc.WORKERS_ENV, workers)
        out = str(tmp_path / f"u{len(texts)}.json")
        assert cli.main(argv + ["--out", out]) == 0
        texts.append(Path(out).read_bytes())
    capsys.readouterr()
    assert len(set(texts)) == 1
    assert json.loads(texts[0])["results"]["empirical"]["n"] == 120_000


def test_cli_import_loads_no_test_only_modules():
    # scipy and hypothesis serve the tests only; importing them at run time
    # would add to every command's start-up time and resident memory.
    code = "import sys, kolbounds.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_chaos_verify_clean_and_corrupt(files, capsys, tmp_path):
    code, out, err = _run(["chaos-verify", "--seed", "0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(c["passed"] for c in rep["results"]["checks"])

    report = str(tmp_path / "corrupt.json")
    code, _, err = _run(["chaos-verify", "--seed", "0", "--corrupt", "--out", report], capsys)
    assert code == 4
    assert "identity failure:" in err
    assert "multiplication" in err
    rep = json.loads(Path(report).read_text())
    failed = [c["name"] for c in rep["results"]["checks"] if not c["passed"]]
    # single_order_bounds fails on its centring guard: the corrupt kernel's
    # scaled multiple sum is uncentered.
    assert failed == ["multiplication", "covariance_identity", "single_order_bounds"]


def test_each_report_config_holds_the_resolved_inputs_of_its_command(files, capsys, tmp_path):
    # One builder writes every config: command and seed; with a law also the
    # constant, delta, law and samples (a sweep's own delta and samples
    # where its file sets them); then the command's own inputs.
    law_keys = ["command", "constant", "delta", "law", "samples", "seed"]
    out = str(tmp_path / "r.json")
    cases = [
        ("qform", ["qform", "--matrix", files["A.csv"], "--samples", "200"], ["matrix"], (0.01, 200)),
        ("qform-sweep", ["qform", "--sweep", files["sweep_q.json"]], ["sizes"], (0.05, 1000)),
        ("ustat", ["ustat", "--weights", files["w.json"], "--delta", "0.2"], ["weights"], (0.2, 0)),
        ("graph", ["graph", "--graph", files["tri.json"], "--sweep", files["sweep_g.json"]], ["combine", "graph", "n", "p"],
         (0.01, 1000)),
    ]
    for command, argv, own, (delta, samples) in cases:
        assert cli.main(argv + ["--law", "three-point", "--seed", "5", "--out", out]) == 0, argv
        config = json.loads(Path(out).read_text())["config"]
        assert sorted(config) == sorted(law_keys + own) and config["command"] == command, argv
        assert (config["seed"], config["constant"], config["delta"], config["samples"]) == (5, None, delta, samples)
        assert config["law"] == cli._law_json(cli.three_point())
    assert cli.main(["chaos-verify", "--seed", "5", "--out", out]) == 0
    config = json.loads(Path(out).read_text())["config"]
    assert config == {"command": "chaos-verify", "corrupt": False, "n_kernels": verify.N_KERNELS, "seed": 5}
    capsys.readouterr()


def test_config_hash_tracks_content_not_path(files, capsys, tmp_path):
    alias = tmp_path / "renamed.csv"
    alias.write_text(Path(files["A.csv"]).read_text())
    argv = ["qform", "--law", "rademacher", "--samples", "0", "--matrix"]
    _, out1, _ = _run(argv + [files["A.csv"]], capsys)
    _, out2, _ = _run(argv + [str(alias)], capsys)
    assert json.loads(out1)["config_sha256"] == json.loads(out2)["config_sha256"]
    _, out3, _ = _run(argv + [files["A.csv"], "--seed", "1"], capsys)
    assert json.loads(out1)["config_sha256"] != json.loads(out3)["config_sha256"]
