"""End-to-end command line checks: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kolbounds import cli, graphweigh, mc, qform


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
    for argv in cases:
        code, _, err = _run(argv, capsys)
        assert code == 2, argv
        assert "kolbounds:" in err


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
    # Each row must also equal a lone pooled row over that row's streams.
    out = str(tmp_path / "s.json")
    seed = 4
    (tmp_path / "q.json").write_text(json.dumps({"sizes": [6, 12, 9], "samples": 60_000}))
    argv = ["qform", "--sweep", str(tmp_path / "q.json"), "--law", "three-point", "--seed", str(seed)]
    rows = _sweep_outputs(argv, out, monkeypatch, capsys)["results"]["rows"]
    law = cli.three_point()
    for idx, row in enumerate(rows):
        A = cli.sign_matrix(row["n"], mc.stream(seed, cli._MATRIX_STREAM_BASE + idx))
        sig = qform.analyze(A, law.moments()).sigma2 ** 0.5
        first = cli._SWEEP_STREAM_STRIDE * idx
        (draws,) = mc.pooled_draws([(lambda rng, b: qform.q_samples(A, law, rng, b) / sig, 60_000, first)], seed)
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


def test_sweeps_that_would_reuse_streams_exit_two(files, capsys, tmp_path):
    # Row 50 of a qform sweep would start at the matrix stream block, and a
    # point drawing from more than the stride's streams would run into the
    # next row; both are refused before any row runs.
    too_many = cli._MAX_SWEEP_SAMPLES + 1
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
        (["qform", "--sweep", str(tmp_path / "q_big.json")], "at most 500000000 samples"),
        (
            ["graph", "--graph", files["tri.json"], "--sweep", str(tmp_path / "g_big.json")],
            "at most 500000000 samples",
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
    assert "multiplication" in failed


def test_config_hash_tracks_content_not_path(files, capsys, tmp_path):
    alias = tmp_path / "renamed.csv"
    alias.write_text(Path(files["A.csv"]).read_text())
    argv = ["qform", "--law", "rademacher", "--samples", "0", "--matrix"]
    _, out1, _ = _run(argv + [files["A.csv"]], capsys)
    _, out2, _ = _run(argv + [str(alias)], capsys)
    assert json.loads(out1)["config_sha256"] == json.loads(out2)["config_sha256"]
    _, out3, _ = _run(argv + [files["A.csv"], "--seed", "1"], capsys)
    assert json.loads(out1)["config_sha256"] != json.loads(out3)["config_sha256"]
