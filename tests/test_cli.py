import json

import pytest

from gclkit.cli import build_parser, build_run_config, main
from gclkit.experiments import worker_count


def read_rows(path):
    header = None
    rows = []
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_run_case1_trimap(tmp_path):
    out = tmp_path / "case1.csv"
    code = main(
        ["run", "--case", "1", "--methods", "trimap", "--n", "1..5", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 5
    assert [int(r["N"]) for r in rows] == [1, 2, 3, 4, 5]
    for r in rows:
        assert r["method"] == "trimap"
        assert int(r["Nts"]) == 2 * int(r["N"]) + 1
        assert float(r["abs_err1"]) <= 1e-12
        assert r["rel_err_freestream"] == ""


def test_run_is_deterministic(tmp_path):
    args = ["run", "--case", "4", "--seed", "42", "--methods", "aevi,avg",
            "--n", "2..4"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_is_loss_free(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["run", "--case", "2", "--methods", "avg", "--n", "3..3",
                 "--out", str(out)]) == 0
    row = read_rows(out)[0]
    value = float(row["abs_err1"])
    # 17 significant digits round-trip doubles exactly
    assert float(format(value, ".17g")) == value
    assert row["abs_err1"] == format(value, ".17g")


def test_unknown_method_is_config_error(capsys):
    assert main(["run", "--methods", "nope"]) == 2
    assert "config" in capsys.readouterr().err


def test_bad_range_is_config_error():
    assert main(["run", "--n", "0..5"]) == 2
    assert main(["run", "--n", "5..2"]) == 2
    assert main(["run", "--n", "1..65"]) == 2


@pytest.mark.parametrize(
    "extra, config",
    [
        (["--amp", "abc"], None),
        (["--mesh", "a,b,c"], None),
        (["--lengths", "1,x,2"], None),
        (["--mesh", "0,2,2"], None),
        (["--support-radius", "-1", "--case", "5"], None),
        (["--cfl", "-1", "--freestream", "on"], None),
        (["--lengths", "inf,1,1"], None),
        (["--seed", "-1", "--case", "4"], None),
        ([], {"cfl": "abc"}),
        ([], {"nope": 1}),
        ([], {"methods": 5}),
        ([], {"seed": 42.7}),
        ([], {"seed": "42.7"}),
        ([], {"max_iters": 42.7}),
        ([], {"max_iters": "42.7"}),
        ([], {"max_iters": 0}),
        (["--max-iters", "0"], None),
        ([], {"timing": "maybe"}),
        (["--seed", "42.7", "--case", "4"], None),
        (["--max-iters", "1.5"], None),
        (["--cfl", "abc"], None),
        (["--alpha0", "x", "--case", "2"], None),
        (["--radius", "nan", "--case", "3"], None),
        (["--support-radius", "abc", "--case", "5"], None),
    ],
    ids=["amp", "mesh-text", "lengths", "mesh-zero", "support-radius", "cfl",
         "lengths-inf", "seed", "config-cfl", "config-unknown-key", "config-methods",
         "config-seed-float", "config-seed-text", "config-max-iters-float",
         "config-max-iters-text", "config-max-iters-zero", "max-iters-zero",
         "config-timing", "seed-float", "max-iters-float", "cfl-text", "alpha0-text",
         "radius-nan", "support-radius-text"],
)
def test_malformed_input_is_one_line_config_error(tmp_path, capsys, extra, config):
    argv = ["run", "--n", "1..1", "--methods", "avg", "--mesh", "2,2,2",
            "--out", str(tmp_path / "m.csv")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1


def test_config_integers_and_onoff_are_read_exactly(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 42, "max_iters": "300", "timing": "no"}))
    cfg = build_run_config(build_parser().parse_args(["run", "--config", str(path)]))
    assert (cfg.seed, cfg.max_iters, cfg.timing) == (42, 300, False)


def test_unknown_case_is_config_error():
    assert main(["run", "--case", "7"]) == 2


def test_degenerate_motion_exit_code(tmp_path, capsys):
    code = main(["run", "--case", "3", "--radius", "0.9", "--n", "2..2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "degeneracy" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "2", "methods": "avg", "n": "2..3"}))
    out = tmp_path / "out.csv"
    code = main(["run", "--config", str(cfg), "--case", "1", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    # case overridden by the flag, methods and range from the file
    assert {r["case"] for r in rows} == {"case1"}
    assert {r["method"] for r in rows} == {"avg"}
    assert [int(r["N"]) for r in rows] == [2, 3]


def test_metadata_header_echoes_configuration(tmp_path):
    out = tmp_path / "meta.csv"
    assert main(["run", "--case", "4", "--seed", "7", "--methods", "aevi",
                 "--n", "2..2", "--out", str(out)]) == 0
    head = out.read_text().splitlines()[:4]
    assert head[0].startswith("# gclkit")
    assert "case=case4" in head[1]
    assert "seed=7" in head[2]
    assert head[3] == (
        "# freestream=off cfl=1.5 max_iters=20000 convergence_drop=1e-12 "
        "rk_stages=0.25,0.16666666666666666,0.375,0.5,1.0 "
        "dissipation_blend=1.0,0.56,0.44 kappa2=1 kappa4=0.03125"
    )


def test_verify_passes_cleanly(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "13/13" in out


def test_verify_mutation_trips_closure_property(capsys):
    assert main(["verify", "--mutate-trimap", "1e-6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  trilinear closure" in out


def test_rigid_cases_accepted(tmp_path):
    out = tmp_path / "rigid.csv"
    code = main(["run", "--case", "rigid-rotation", "--methods", "trimap",
                 "--n", "1..2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert all(float(r["abs_err1"]) <= 1e-11 for r in rows)


def test_freestream_column_populated(tmp_path):
    out = tmp_path / "fs.csv"
    code = main(["run", "--case", "1", "--methods", "aevi", "--n", "2..2",
                 "--mesh", "4,4,4", "--freestream", "on", "--max-iters", "50",
                 "--out", str(out)])
    assert code == 0
    row = read_rows(out)[0]
    assert float(row["rel_err_freestream"]) <= 1e-8


def test_worker_pool_respects_thread_cap(monkeypatch):
    monkeypatch.setenv("GCLKIT_THREADS", "1")
    assert worker_count(8) == 1
    monkeypatch.setenv("GCLKIT_THREADS", "16")
    assert worker_count(4) == 4  # never more workers than jobs
    monkeypatch.delenv("GCLKIT_THREADS")
    assert worker_count(3) >= 1


def test_bad_thread_cap_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GCLKIT_THREADS", "abc")
    code = main(["run", "--case", "1", "--methods", "avg", "--n", "1..1",
                 "--mesh", "2,2,2", "--out", str(tmp_path / "t.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "GCLKIT_THREADS" in err
    assert err.count("\n") == 1


def test_csv_bytes_independent_of_worker_count(tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("GCLKIT_THREADS", threads)
        out = tmp_path / f"threads{threads}.csv"
        assert main(["run", "--case", "4", "--n", "1..4", "--mesh", "6,6,6",
                     "--methods", "lvi,aevi,avg,trimap,ts-lvi,ts-aevi",
                     "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_freestream_divergence_exit_code(tmp_path, capsys):
    code = main(["run", "--case", "2", "--methods", "avg", "--n", "2..2",
                 "--mesh", "4,4,4", "--freestream", "on", "--cfl", "1e9",
                 "--max-iters", "30", "--out", str(tmp_path / "d.csv")])
    assert code == 4
    assert "divergence" in capsys.readouterr().err
