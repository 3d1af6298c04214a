"""Experiment grid runner, CSV/SVG emitters, and the command-line front end.

CLI cases call main(argv) in-process, so exit codes and outputs are checked
without spawning subprocesses.
"""
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from hvsparse.core import ParameterError, add_noise_db, gaussian_instance
from hvsparse.expcli import (CSV_HEADER, CompareOutput, ExperimentSpec,
                             ProxCheckReport, ResultRow, TERMINATION_FAILED,
                             TEST3_ALPHA_PER_LEVEL, _exit_code_for,
                             _load_config_spec, _parse_alpha, _parse_seeds,
                             emit_csv, emit_svg, main, preset_spec,
                             prox_battery, run_compare, run_experiment)
from hvsparse.operators import PowerCsOperator


def tiny_spec(**overrides):
    base = ExperimentSpec(preset="custom", n=20, m=8, s=3, c_list=(2,),
                          d_list=(3,), eta_list=(1.0,), L_list=(10.0,),
                          level_db_list=(30.0,), alpha=1e-3, seeds=(0, 1),
                          solvers=("hv",), max_iters=30, tol=1e-4)
    return replace(base, **overrides)


def row_key(row):
    return tuple(getattr(row, f.name) for f in fields(ResultRow)
                 if f.name != "runtime_ms")


def test_csv_header_matches_row_fields():
    assert CSV_HEADER == ("preset,seed,solver,n,m,s,c,d,eta,L,alpha,level_db,"
                          "iterations,runtime_ms,snr_db,rel_error,"
                          "final_residual,termination")
    assert [f.name for f in fields(ResultRow)] == CSV_HEADER.split(",")


def test_preset_specs():
    t1 = preset_spec("test1")
    assert t1.eta_list == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    assert t1.compat_alpha and t1.alpha == 5.1e-5 and t1.solvers == ("hv",)
    t2 = preset_spec("test2")
    assert t2.L_list == (6.0, 8.0, 10.0, 20.0, 50.0, 100.0) and t2.compat_alpha
    t3 = preset_spec("test3")
    assert t3.alpha_mode == "per_level"
    assert t3.alpha_per_level == TEST3_ALPHA_PER_LEVEL
    assert t3.level_db_list == (10.0, 20.0, 30.0, 40.0, 50.0)
    t4 = preset_spec("test4")
    assert t4.c_list == tuple(range(1, 10)) and t4.d_list == tuple(range(1, 10))
    assert t4.max_iters == 1000
    t5 = preset_spec("test5")
    assert t5.solvers == ("hv", "ista", "st") and t5.compat_alpha
    assert not preset_spec("custom").compat_alpha
    with pytest.raises(ParameterError):
        preset_spec("test9")


def test_experiment_spec_validation():
    with pytest.raises(ParameterError):
        tiny_spec(seeds=())
    with pytest.raises(ParameterError):
        tiny_spec(eta_list=())
    with pytest.raises(ParameterError):
        tiny_spec(m=30)  # m > n
    with pytest.raises(ParameterError):
        tiny_spec(s=10)  # s > m
    with pytest.raises(ParameterError):
        tiny_spec(solvers=("hv", "fista"))
    with pytest.raises(ParameterError):
        tiny_spec(alpha_mode="oracle")
    with pytest.raises(ParameterError):
        tiny_spec(alpha=None)  # explicit mode without a weight
    with pytest.raises(ParameterError):
        tiny_spec(alpha_mode="per_level", alpha=None,
                  alpha_per_level={10.0: 1e-3})  # 30 dB missing
    with pytest.raises(ParameterError):
        tiny_spec(workers=0)
    with pytest.raises(ParameterError):
        tiny_spec(beta_over_alpha=1.5)


def test_run_experiment_grid_shape_and_order():
    rows = run_experiment(tiny_spec(eta_list=(0.0, 1.0)))
    assert len(rows) == 4  # 2 etas x 2 seeds
    keys = [(r.c, r.d, r.eta, r.L, r.level_db, r.seed, r.solver) for r in rows]
    assert keys == sorted(keys)
    assert all(r.preset == "custom" and r.n == 20 for r in rows)
    assert all(np.isfinite(r.snr_db) for r in rows)
    # same spec, fresh run: identical up to timing
    again = run_experiment(tiny_spec(eta_list=(0.0, 1.0)))
    assert [row_key(r) for r in again] == [row_key(r) for r in rows]


def test_run_experiment_parallel_matches_serial():
    serial = run_experiment(tiny_spec(eta_list=(0.0, 1.0)))
    parallel = run_experiment(tiny_spec(eta_list=(0.0, 1.0), workers=2))
    assert [row_key(r) for r in parallel] == [row_key(r) for r in serial]


def test_run_experiment_apriori_alpha_equals_noise_norm():
    # q = 2, kappa = 1 collapses the a-priori rule to alpha = delta
    spec = tiny_spec(alpha_mode="apriori", alpha=None, seeds=(0,))
    row = run_experiment(spec)[0]
    a, x_true = gaussian_instance(20, 8, 3, 0.05, np.random.SeedSequence((0, 0)))
    data = add_noise_db(PowerCsOperator(a, 2, 3).apply(x_true), 30.0,
                        np.random.SeedSequence((0, 1)))
    assert row.alpha == pytest.approx(data.noise_norm, rel=1e-12)


def test_run_experiment_discrepancy_mode():
    spec = tiny_spec(alpha_mode="discrepancy", alpha=None, seeds=(0,),
                     max_iters=60, tol=1e-4)
    row = run_experiment(spec)[0]
    assert row.alpha > 0
    assert np.isfinite(row.snr_db)


def test_overflow_rows_marked_not_raised():
    # c = d = 1 with a far-too-small step constant diverges; the harness
    # must keep going and mark the row
    spec = tiny_spec(c_list=(1,), d_list=(1,), L_list=(0.001,), max_iters=200)
    rows = run_experiment(spec)
    assert len(rows) == 2
    assert all(r.termination == TERMINATION_FAILED for r in rows)
    assert all(r.iterations == 0 for r in rows)
    assert all(math.isnan(r.snr_db) and math.isnan(r.rel_error) for r in rows)
    assert _exit_code_for(rows) == 3


def test_exit_code_for_clean_rows():
    rows = run_experiment(tiny_spec(seeds=(0,)))
    assert _exit_code_for(rows) == 0


def test_run_compare_shares_realizations():
    spec = tiny_spec(solvers=("hv", "ista", "st"), seeds=(0, 1))
    out = run_compare(spec)
    assert isinstance(out, CompareOutput)
    assert len(out.rows) == 6
    for seed in (0, 1):
        digests = {out.digests[(seed, s)] for s in ("hv", "ista", "st")}
        assert len(digests) == 1  # all solvers consumed identical data
        assert len(out.curves[(seed, "hv")]) >= 1
    assert out.digests[(0, "hv")] != out.digests[(1, "hv")]


def test_run_compare_rejects_grids():
    with pytest.raises(ParameterError, match="single grid point"):
        run_compare(tiny_spec(eta_list=(0.0, 1.0)))


def test_emit_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    emit_csv([], path)
    assert path.read_text(encoding="utf-8") == CSV_HEADER + "\n"
    rows = run_experiment(tiny_spec(seeds=(0,)))
    emit_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    cells = lines[1].split(",")
    assert len(cells) == 18
    # repr-formatted floats survive the trip bit for bit
    assert float(cells[10]) == rows[0].alpha
    assert float(cells[14]) == rows[0].snr_db
    assert int(cells[12]) == rows[0].iterations
    assert cells[17] == rows[0].termination
    # the two error columns are redundant encodings of the same quantity
    assert rows[0].snr_db == pytest.approx(-20.0 * math.log10(rows[0].rel_error),
                                           rel=1e-9)


def test_emit_svg_curves(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg({"hv": [1.0, 0.5, 0.1], "ista": [1.0, 0.9, 0.8]}, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("<polyline") == 2
    assert ">hv</text>" in text
    assert ">ista</text>" in text
    assert "iteration" in text
    with pytest.raises(ParameterError):
        emit_svg({}, tmp_path / "empty.svg")
    with pytest.raises(ParameterError):
        emit_svg({"hv": []}, tmp_path / "empty.svg")


def test_prox_battery_passes():
    report = prox_battery(count=200)
    assert isinstance(report, ProxCheckReport)
    assert report.passed
    assert report.count == 200
    assert report.max_soft_gap == 0.0
    assert report.max_bisect_gap <= 1e-9
    assert report.max_optimality_violation <= 1e-8
    with pytest.raises(ParameterError):
        prox_battery(count=0)


def test_parse_helpers():
    assert _parse_seeds("4") == (0, 1, 2, 3)
    assert _parse_seeds("0,5,9") == (0, 5, 9)
    assert _parse_alpha("3e-4") == {"alpha_mode": "explicit", "alpha": 3e-4}
    assert _parse_alpha("discrepancy") == {"alpha_mode": "discrepancy",
                                           "alpha": None}
    assert _parse_alpha("per-level") == {"alpha_mode": "per_level", "alpha": None}
    with pytest.raises(ParameterError):
        _parse_alpha("cross-validation")


def run_flags(tmp_path, *extra):
    out = tmp_path / "out.csv"
    argv = ["run", "custom", "--n", "20", "--m", "8", "--sparsity", "3",
            "--seeds", "2", "--alpha", "1e-3", "--max-iters", "30",
            "--tol", "1e-4", "--out", str(out)]
    argv.extend(extra)
    return argv, out


def test_cli_run_writes_csv(tmp_path, capsys):
    argv, out = run_flags(tmp_path)
    assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    stdout = capsys.readouterr().out
    assert "median SNR" in stdout
    assert "wrote" in stdout


def test_cli_exit_code_bad_inputs(capsys):
    assert main(["run", "test9"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "custom", "--alpha", "granular"]) == 2
    assert main(["run", "custom", "--m", "400"]) == 2
    # the rate study is its own subcommand, not a run preset
    assert main(["run", "rate"]) == 2
    assert "choose test1..test5 or custom" in capsys.readouterr().err


def test_cli_exit_code_overflow(tmp_path, capsys):
    argv, out = run_flags(tmp_path, "--c", "1", "--d", "1", "--L", "0.001",
                          "--max-iters", "200")
    assert main(argv) == 3
    assert "failed" in capsys.readouterr().out
    assert out.exists()


@pytest.mark.parametrize("argv", [["run", "custom", "--c", "x"],
                                  ["run", "custom", "--seeds", "a"],
                                  ["rate", "--deltas", "1,x"]])
def test_cli_malformed_list_flags_exit_plainly(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected" in err
    assert "_parse_" not in err


def test_cli_compare_every_solve_overflowing(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    svg = tmp_path / "cmp.svg"
    argv = ["compare", "custom", "--n", "20", "--m", "8", "--sparsity", "3",
            "--seeds", "1", "--alpha", "1e-3", "--c", "1", "--d", "1",
            "--L", "0.001", "--max-iters", "200", "--out", str(out), "--svg", str(svg)]
    # every solver of the plotted seed diverges, so there is no curve to draw
    assert main(argv) == 3
    stdout = capsys.readouterr().out
    assert stdout.count("median SNR nan dB") == 3
    assert "no curve to plot" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == ["failed_overflow"] * 3
    assert not svg.exists()


def test_cli_exit_code_unwritable_path(capsys):
    argv = ["run", "custom", "--n", "20", "--m", "8", "--sparsity", "3",
            "--seeds", "1", "--max-iters", "20",
            "--out", "/nonexistent-dir-for-sure/out.csv"]
    assert main(argv) == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_compare_upgrades_solver_set(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    svg = tmp_path / "cmp.svg"
    argv = ["compare", "custom", "--n", "20", "--m", "8", "--sparsity", "3",
            "--seeds", "1", "--alpha", "1e-3", "--max-iters", "30",
            "--tol", "1e-4", "--out", str(out), "--svg", str(svg)]
    assert main(argv) == 0
    text = svg.read_text(encoding="utf-8")
    # custom preset with fewer than two solvers pulls in all three
    assert text.count("<polyline") == 3
    for name in ("hv", "ista", "st"):
        assert f">{name}</text>" in text
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4


def test_cli_rate_study(tmp_path, capsys):
    out = tmp_path / "rate.csv"
    argv = ["rate", "--n", "20", "--m", "10", "--sparsity", "2",
            "--deltas", "1e-3,1e-2,1e-1", "--seeds", "3", "--L", "2.0",
            "--max-iters", "200", "--tol", "1e-6", "--eta", "0.0",
            "--out", str(out)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert "fitted log-log slope" in stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,alpha,median_error"
    assert len(lines) == 4


def test_cli_zero_flags_are_not_defaults(tmp_path, capsys):
    # a zero the caller typed must reach validation, not fall back to a default
    rate = ["rate", "--n", "20", "--m", "10", "--sparsity", "2", "--seeds", "3",
            "--deltas", "1e-3,1e-2,1e-1", "--max-iters", "50",
            "--out", str(tmp_path / "rate.csv")]
    assert main(rate + ["--kappa", "0"]) == 2
    assert "kappa" in capsys.readouterr().err
    assert main(rate + ["--max-iters", "0"]) == 2
    assert "max_iters" in capsys.readouterr().err
    assert main(["jac-check", "--n", "20", "--m", "8", "--scale", "0"]) == 2
    assert "scale" in capsys.readouterr().err
    # --eta and --L of the rate study take one number, not a list
    for flag in ("--eta", "--L"):
        with pytest.raises(SystemExit) as exc:
            main(rate + [flag, "0.5,1"])
        assert exc.value.code == 2
    assert not (tmp_path / "rate.csv").exists()


def test_cli_prox_and_jacobian_checks(capsys):
    assert main(["prox-check", "--count", "200"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["jac-check", "--n", "20", "--m", "8"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_config_file_loading(tmp_path):
    cfg = {"preset": "custom", "n": 24, "m": 10, "s": 3, "seeds": [0, 1],
           "solvers": ["hv"], "alpha": 2e-3, "max_iters": 40,
           "eta_list": [1.0], "L_list": [10.0]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    spec = _load_config_spec(str(path))
    assert spec.n == 24
    assert spec.seeds == (0, 1)
    assert spec.solvers == ("hv",)
    assert spec.alpha == 2e-3

    # alpha_per_level keys arrive as JSON strings and must become floats
    cfg2 = {"preset": "custom", "alpha_mode": "per_level", "alpha": None,
            "level_db_list": [30.0], "alpha_per_level": {"30.0": 5.1e-5}}
    path2 = tmp_path / "lvl.json"
    path2.write_text(json.dumps(cfg2), encoding="utf-8")
    assert _load_config_spec(str(path2)).alpha_per_level == {30.0: 5.1e-5}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 24, "granularity": 2}), encoding="utf-8")
    with pytest.raises(ParameterError, match="unknown keys"):
        _load_config_spec(str(bad))
    notjson = tmp_path / "broken.json"
    notjson.write_text("{n: 24", encoding="utf-8")
    with pytest.raises(ParameterError, match="not valid JSON"):
        _load_config_spec(str(notjson))
    alist = tmp_path / "list.json"
    alist.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ParameterError, match="JSON object"):
        _load_config_spec(str(alist))


@pytest.mark.parametrize("cfg", [{"seeds": 5}, {"eta_list": 1.0}, {"n": "200"},
                                 {"alpha_mode": "per_level",
                                  "alpha_per_level": {"10": "x"}}])
def test_cli_config_malformed_values(tmp_path, capsys, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: config {path}")


def test_cli_config_with_flag_override(tmp_path):
    cfg = {"preset": "custom", "n": 24, "m": 10, "s": 3, "seeds": [0],
           "alpha": 2e-3, "max_iters": 30, "tol": 1e-4}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["run", str(path), "--n", "30", "--out", str(out)]) == 0
    line = out.read_text(encoding="utf-8").splitlines()[1]
    assert line.split(",")[3] == "30"  # the flag beat the config value
