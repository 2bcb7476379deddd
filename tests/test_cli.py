import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gclkit import experiments, rbf
from gclkit.cli import SETTINGS, build_parser, build_run_config, main
from gclkit.experiments import worker_count


def read_rows(path):
    header = None
    rows = []
    for line in Path(path).read_text().splitlines():
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
        (["--n", "1..2..3"], None),
        (["--n", "1..2.."], None),
        (["--methods", "lvi,avg,lvi"], None),
        ([], {"methods": ["avg", "avg"]}),
        # fails at once, allocating nothing
        (["--mesh", "1000000,1000000,1000000"], None),
        (["--mesh", "1500000,1500000,1500000"], None),
        (["--mesh", "2100000,2100000,2100000"], None),
        (["--mesh", "100000,100000,100000"], None),
        (["--amp", "0.1,0.1"], None),
        (["--amp", "0.1,0.1,0.1,0.1"], None),
        ([], {"amp": []}),
        (["--case", "4", "--amp", "0.01,0.02"], None),
        ([], {"out": None}),
        ([], {"out": 5}),
        # JSON booleans are not numbers
        ([], {"cfl": True, "freestream": "on"}),
        ([], {"seed": True, "case": "4"}),
        ([], {"mesh": [True, 2, 2]}),
    ],
    ids=["amp", "mesh-text", "lengths", "mesh-zero", "support-radius", "cfl",
         "lengths-inf", "seed", "config-cfl", "config-unknown-key", "config-methods",
         "config-seed-float", "config-seed-text", "config-max-iters-float",
         "config-max-iters-text", "config-max-iters-zero", "max-iters-zero",
         "config-timing", "seed-float", "max-iters-float", "cfl-text", "alpha0-text",
         "radius-nan", "support-radius-text", "range-three-parts", "range-trailing-dots",
         "methods-twice", "config-methods-twice", "mesh-exabytes", "mesh-array-too-big",
         "mesh-broadcast-too-large", "mesh-petabytes", "amp-two", "amp-four",
         "config-amp-empty", "case4-amp-two", "config-out-null", "config-out-number",
         "config-cfl-bool", "config-seed-bool", "config-mesh-bool"],
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


@pytest.mark.parametrize("mesh", ["1000000,1000000,1000000", "1500000,1500000,1500000",
                                  "2100000,2100000,2100000"])
def test_unsizable_mesh_is_refused_before_any_array(tmp_path, capsys, monkeypatch, mesh):
    # 24 bytes a vertex above the largest array numpy can size; numpy's own
    # errors were a traceback ("array is too big", "broadcast dimensions too large")
    def build_box_mesh(*args):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(experiments, "build_box_mesh", build_box_mesh)
    out = tmp_path / "m.csv"
    argv = ["run", "--mesh", mesh, "--n", "1..1", "--methods", "lvi", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    counts = mesh.replace(",", ", ")
    assert err.startswith(f"error: config: cell counts ({counts}) give ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"]
)
def test_undecodable_config_file_is_one_line_config_error(tmp_path, capsys, raw):
    # a UnicodeDecodeError and a RecursionError from the JSON decoder
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    out = tmp_path / "m.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: cannot read config file {path}: ")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize(
    "case, key, value",
    [
        ("2", "amp", "5"),
        ("3", "amp", "0.1"),
        ("5", "amp", "0.1"),
        ("1", "alpha0", "0.1"),
        ("3", "alpha0", "0.1"),
        ("4", "alpha0", "0.1"),
        ("rigid-translation", "alpha0", "0.1"),
        ("1", "radius", "0.1"),
        ("5", "radius", "0.1"),
        ("1", "seed", "3"),
        ("5", "seed", "3"),
        ("rigid-rotation", "seed", "3"),
        ("1", "support_radius", "1"),
        ("3", "support_radius", "1"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unused_motion_setting_is_one_line_config_error(tmp_path, capsys, case, key, value,
                                                          source):
    argv = ["run", "--case", case, "--n", "1..1", "--methods", "avg", "--mesh", "2,2,2",
            "--out", str(tmp_path / "m.csv")]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    case_id = f"case{case}" if case.isdigit() else case
    assert err.startswith(f"error: config: {case_id} does not use {key};")
    assert err.count("\n") == 1
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "case, settings",
    [
        ("1", ["--amp", "0.1"]),
        ("2", ["--alpha0", "0.04"]),
        ("3", ["--radius", "0.04"]),
        ("4", ["--amp", "0.04", "--seed", "3", "--support-radius", "1"]),
        ("5", ["--alpha0", "0.04", "--support-radius", "1"]),
        ("rigid-translation", ["--amp", "0.1,0.0,0.0"]),
        ("rigid-rotation", ["--alpha0", "0.04"]),
    ],
)
def test_used_motion_settings_are_accepted(tmp_path, case, settings):
    assert main(["run", "--case", case, "--n", "1..1", "--methods", "avg",
                 "--mesh", "2,2,2", "--out", str(tmp_path / "m.csv")] + settings) == 0


def test_config_integers_and_onoff_are_read_exactly(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"seed": 42, "timing": "no", "freestream": "on"})
    )
    cfg = build_run_config(build_parser().parse_args(["run", "--config", str(path)]))
    assert (cfg.seed, cfg.timing, cfg.freestream) == (42, False, True)


@pytest.mark.parametrize(
    "extra, config, named",
    [
        (["--cfl", "2"], None, "cfl"),
        (["--max-iters", "10"], None, "max_iters"),
        (["--cfl", "2", "--max-iters", "10", "--freestream", "off"], None, "cfl, max_iters"),
        ([], {"cfl": 2}, "cfl"),
        ([], {"max_iters": 10, "freestream": "off"}, "max_iters"),
    ],
)
def test_pseudo_time_setting_without_freestream_is_config_error(tmp_path, capsys, extra,
                                                                 config, named):
    # the freestream solve takes no settings: a retired flag or config key is
    # refused by name, with or without --freestream, and no CSV is written
    argv = ["run", "--case", "1", "--n", "1..1", "--methods", "avg", "--mesh", "2,2,2",
            "--out", str(tmp_path / "m.csv")]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1, err
    for key in named.split(", "):
        assert (f"'{key}'" if config else "--" + key.replace("_", "-")) in err, err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [[], ["run", "--bogus"], ["run", "--n"], ["run", "--timing", "on"],
     ["verify", "--mutate-trimap", "abc"], ["nope"], ["verify"]],
    ids=["no-command", "unknown-flag", "missing-value", "extra-value", "verify-float",
         "unknown-command", "verify"],
)
def test_usage_error_is_one_line_config_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: config:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gclkit run")
    for key in SETTINGS:
        assert "--" + key.replace("_", "-") in out, key


def test_unknown_case_is_config_error():
    assert main(["run", "--case", "7"]) == 2


def test_degenerate_motion_exit_code(tmp_path, capsys):
    code = main(["run", "--case", "3", "--radius", "0.9", "--n", "2..2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "degeneracy" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case, setting",
    [
        ("1", ["--amp", "1e308"]),
        ("rigid-rotation", ["--alpha0", "1e308"]),
        # finite velocities whose TRI-MAP face sums overflow
        ("rigid-rotation", ["--alpha0", "1e307"]),
    ],
    ids=["non-finite-geometry", "non-finite-velocity", "non-finite-face-flux"],
)
def test_non_finite_motion_is_one_line_degeneracy_error(tmp_path, case, setting):
    # every cell of 10^3 is named in cell_ids; the line shows the count and 10 ids
    out = tmp_path / "x.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gclkit", "run", "--case", case, "--n", "1..1",
         "--mesh", "10,10,10", "--methods", "avg,lvi,trimap", "--out", str(out), *setting],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 3
    assert done.stderr.startswith("error: degeneracy:") and done.stderr.count("\n") == 1
    assert "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] (1000 in all)" in done.stderr
    assert len(done.stderr.encode()) < 200, done.stderr
    assert not out.exists()


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
        "# freestream=off precond_dissipation=0.125 max_iters=50 convergence_drop=1e-12 "
        "krylov_restart=30 krylov_max=600 forcing=0.9,2,0.5 kappa2=1 kappa4=0.03125"
    )


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
                 "--mesh", "4,4,4", "--freestream", "on", "--out", str(out)])
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


def test_worker_pool_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("GCLKIT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count(20) == 1


def test_bad_thread_cap_is_config_error(tmp_path, monkeypatch, capsys):
    for cap in ("abc", "0", "-3"):
        monkeypatch.setenv("GCLKIT_THREADS", cap)
        code = main(["run", "--case", "1", "--methods", "avg", "--n", "1..1",
                     "--mesh", "2,2,2", "--out", str(tmp_path / "t.csv")])
        assert code == 2, cap
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "GCLKIT_THREADS" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()


SIX_METHODS = ["--methods", "lvi,aevi,avg,trimap,ts-lvi,ts-aevi"]
WORKER_COUNT_RUNS = [  # (rbf._CANDIDATES, arguments)
    (rbf._CANDIDATES, ["--case", "4", "--n", "1..4", "--mesh", "6,6,6"]),
    # one freestream solve per (N, field), each in its own task
    (rbf._CANDIDATES, ["--case", "5", "--n", "1..3", "--mesh", "4,4,4", "--freestream", "on"]),
    # the RBF build's grid half finds its 27 representatives' pairs in 4 chunks
    (150, ["--case", "5", "--n", "1..3", "--mesh", "4,4,4"]),
]


def test_csv_bytes_independent_of_worker_count(tmp_path, monkeypatch, under_each_worker_count):
    # a sweep is one task per N and one per (N, field), and the RBF build's
    # grid half is one more; 2 and 4 workers must still write the 1-worker
    # bytes
    out = tmp_path / "sweep.csv"
    for candidates, run in WORKER_COUNT_RUNS:
        monkeypatch.setattr(rbf, "_CANDIDATES", candidates)

        def sweep():
            assert main(["run", *run, *SIX_METHODS, "--out", str(out)]) == 0
            return out.read_bytes()

        outputs = under_each_worker_count(sweep)
        assert isinstance(outputs["1"], bytes), outputs["1"]
        assert outputs["2"] == outputs["1"] and outputs["4"] == outputs["1"], run


# rotated by up to 1 rad, the AVG field's conservation defect carries the
# converged flow more than 100% away from freestream
DIVERGING_RUN = ["--case", "2", "--alpha0", "1.0", "--methods", "avg", "--n", "1..1",
                 "--freestream", "on"]


def test_freestream_divergence_exit_code(tmp_path, capsys):
    code = main(["run", *DIVERGING_RUN, "--mesh", "4,4,4", "--out", str(tmp_path / "d.csv")])
    assert code == 4
    assert "divergence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    [
        # every Gram entry lies within 1e-14 of 1: the system misses its own
        # control values
        ["--support-radius", "1e15"],
        # the boundary points pair up 3.3e-21 apart, under 1e-12 of their
        # extent: duplicates
        ["--lengths", "1e-20,1,1"],
    ],
)
def test_failed_rbf_build_is_one_line_config_error(tmp_path, setting):
    out = tmp_path / "r.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gclkit", "run", "--case", "4", "--mesh", "3,3,3", "--n", "1..1",
         *setting, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: config: cannot build the fields of case4:"), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert not out.exists()


@pytest.mark.parametrize("radius", ["1e12", "1e15"])
def test_too_large_support_radius_is_refused_by_name(tmp_path, capsys, radius):
    # on 3^3 the spread misses control values of unit size by 8.9e-4 at
    # R = 1e12, and at 1e15 its factor meets a pivot that is not positive, a
    # miss of inf
    argv = ["run", "--case", "4", "--mesh", "3,3,3", "--n", "1..1", "--support-radius", radius,
            "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: config: cannot build the fields of case4: support radius {float(radius):g} "
        "is too large: the RBF system misses control values of unit size by "
    ), err
    assert err.count("\n") == 1 and not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "lengths, extra",
    [
        # nan in the CSV, with RuntimeWarnings
        ("1e150", []),
        # the k-d tree's distances overflow, or the mesh degenerates at t = 0
        ("1e300", []),
        ("1e100", ["--freestream", "on"]),  # a divergence
        # a face's squared area norm underflows: a subnormal abs_err1 on case
        # 4, a degeneracy at t = 1/3 on case 1
        ("1e-100", []),
    ],
)
@pytest.mark.parametrize("case", ["1", "4"])
def test_lengths_whose_geometry_overflows_are_refused_by_name(tmp_path, capsys, lengths,
                                                              extra, case):
    out = tmp_path / "l.csv"
    argv = ["run", "--case", case, "--mesh", "3,3,3", "--n", "1..1", "--methods", "avg,trimap",
            "--lengths", ",".join([lengths] * 3), *extra, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: config: lengths must lie between 1.2e-77 per cell and 1e+76, where a cell "
        f"edge^4 neither underflows nor overflows, got {(float(lengths),) * 3} on (3, 3, 3) "
        "cells\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "case, setting, value, named",
    [
        ("4", "--seed", "-1", "seed"),
        ("4", "--support-radius", "-1", "support radius"),
        ("1", "--amp", "1,2", "amplitude"),
        ("4", "--amp", "1,2,3", "rbf_amplitude"),
    ],
)
def test_motion_setting_refused_where_it_is_read_is_named(tmp_path, capsys, case, setting,
                                                          value, named):
    # motion.MotionCase.for_case judges the seed and the amplitude, the RBF
    # build the support radius
    out = tmp_path / "m.csv"
    argv = ["run", "--case", case, "--mesh", "3,3,3", "--n", "1..1", setting, value,
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and named in err and err.count("\n") == 1, err
    assert not out.exists()


def test_freestream_divergence_is_one_line_error(tmp_path):
    out = tmp_path / "d.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gclkit", "run", *DIVERGING_RUN, "--mesh", "2,2,2",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 4
    assert done.stderr.startswith("error: divergence:"), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


@pytest.mark.parametrize(
    "alpha0",
    [
        "1e20",
        "1e150",
        # the residual's RMS is 8e284: a plain 2-norm of it overflows, which
        # makes GMRES's tolerance inf and every Newton step zero, so the
        # state would never move and AVG would read rel_err 0
        "1e300",
    ],
)
def test_overflowing_freestream_solve_is_one_line_divergence(tmp_path, alpha0):
    out = tmp_path / "o.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "gclkit", "run", "--case", "rigid-rotation", "--alpha0", alpha0,
         "--n", "1..1", "--mesh", "3,3,3", "--freestream", "on", "--methods", "avg,lvi",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 4
    assert done.stderr == (
        "error: divergence: freestream run diverged: case=rigid-rotation method=avg N=1\n"
    )
    assert not out.exists()


def test_timing_fills_wall_ms_and_nothing_else(tmp_path):
    argv = ["run", "--case", "2", "--mesh", "3,3,3", "--n", "1..2", "--methods",
            "lvi,aevi,avg,trimap,ts-lvi,ts-aevi"]
    timed, plain = tmp_path / "timed.csv", tmp_path / "plain.csv"
    assert main([*argv, "--timing", "--out", str(timed)]) == 0
    assert main([*argv, "--out", str(plain)]) == 0
    rows = read_rows(timed)
    assert len(rows) == 12 and all(float(r["wall_ms"]) > 0.0 for r in rows)
    by_key = {(r["N"], r["method"]): r["wall_ms"] for r in rows}
    for (n, method), wall_ms in by_key.items():
        if method.startswith("ts-"):  # a ts-* row is its nlfd-* twin's, renamed
            assert wall_ms == by_key[n, "nlfd-" + method[3:]], (n, method)
    # the wall_ms column zeroed, the bytes of the run without --timing
    lines = timed.read_text().split("\n")
    column = next(line for line in lines if line.startswith("case,")).split(",").index("wall_ms")
    for i, line in enumerate(lines):
        if line and not line.startswith(("#", "case,")):
            fields = line.split(",")
            fields[column] = "0"
            lines[i] = ",".join(fields)
    assert "\n".join(lines) == plain.read_text()


# runs ``python -m gclkit`` with the probe's arguments, then reports whether
# any scipy module was imported
MODULE_PROBE = """
import runpy, sys
try:
    runpy.run_module("gclkit", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    print(exit.code, any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def _probe(code, *args):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_scipy_is_imported_only_by_the_rbf_cases(tmp_path):
    # the package needs numpy alone: no run, RBF cases included, loads scipy
    assert _probe("import sys, gclkit; print('scipy' in sys.modules)") == ["False"]
    run = ["run", "--mesh", "2,2,2", "--n", "1..1", "--methods", "avg"]
    out = tmp_path / "case1.csv"
    assert _probe(MODULE_PROBE, *run, "--case", "1", "--out", str(out)) == ["0", "False"]
    assert len(read_rows(out)) == 1
    out = tmp_path / "case4.csv"
    assert _probe(MODULE_PROBE, *run, "--case", "4", "--out", str(out)) == ["0", "False"]
    assert len(read_rows(out)) == 1
