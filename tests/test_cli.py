"""Command line front end tests (in-process invocation)."""

import csv
import json

import numpy as np
import pytest

from mpct_eadmm import cli
from mpct_eadmm.config import default_pendulum_config


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "pendulum.json"
    path.write_text(json.dumps(default_pendulum_config()))
    return str(path)


def write_config(tmp_path, mutate=None, name="cfg.json"):
    doc = default_pendulum_config()
    if mutate:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_precompute(tmp_path, config_path, capsys):
    out = str(tmp_path / "offline.mpct")
    assert cli.main(["precompute", "--config", config_path, "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "warning" in captured  # configured rho far above the convergence bound
    report = json.loads(captured.strip().splitlines()[-1])
    assert report["rho_exceeds_bound"] is True
    assert abs(report["rho_upper_bound"] - 6 * 0.025 / 17) <= 1e-12
    out2 = str(tmp_path / "offline2.mpct")
    assert cli.main(["precompute", "--config", config_path, "--out", out2]) == 0
    with open(out, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()


def test_solve_origin(config_path, capsys):
    code = cli.main(["solve", "--config", config_path, "--x", "0,0,0", "--r", "0,0,0,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["converged"] is True
    assert max(abs(v) for v in report["u0"]) <= 1e-6


def test_solve_benchmark_state(config_path, capsys):
    code = cli.main(["solve", "--config", config_path, "--x", "0,0,1", "--r", "0,0,0,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["residual_inf"] <= 1e-4
    assert abs(report["u0"][0] - 4.5) <= 1e-9  # saturated (scaled units)


def test_solve_not_converged_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, lambda d: d.update(max_iter=3))
    code = cli.main(["solve", "--config", path, "--x", "0,0,1", "--r", "0,0,0,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["converged"] is False


def test_malformed_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, lambda d: d["model"].pop("A"))
    code = cli.main(["solve", "--config", path])
    assert code == 1
    assert "model.A" in capsys.readouterr().err


def test_simulate_benchmark_first_row(tmp_path, capsys):
    path = write_config(tmp_path, lambda d: d["sim"].update(steps=5))
    out = str(tmp_path / "traj.csv")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 0
    rows = read_csv(out)
    header = rows[0]
    assert header[:6] == ["step", "time_s", "phi", "phi_dot", "theta_dot", "u"]
    assert header[-3:] == ["iterations", "residual", "solve_time_us"]
    assert len(rows) == 6
    first = rows[1]
    assert float(first[5]) == 90.0  # saturated physical input
    assert float(first[4]) == 20.0  # initial wheel speed


def test_simulate_zero_state(tmp_path):
    path = write_config(
        tmp_path, lambda d: (d["sim"].update(steps=5), d["sim"].update(x0=[0, 0, 0]))
    )
    out = str(tmp_path / "zero.csv")
    assert cli.main(["simulate", "--config", path, "--out", out]) == 0
    for row in read_csv(out)[1:]:
        assert max(abs(float(v)) for v in row[2:5]) <= 1e-9


def test_simulate_with_artifact(tmp_path, capsys):
    cfg = write_config(tmp_path, lambda d: d["sim"].update(steps=3))
    art = str(tmp_path / "off.mpct")
    assert cli.main(["precompute", "--config", cfg, "--out", art]) == 0
    capsys.readouterr()
    out = str(tmp_path / "t.csv")
    assert cli.main(["simulate", "--config", cfg, "--artifact", art, "--out", out]) == 0
    assert len(read_csv(out)) == 4


def test_solve_rejects_artifact_of_another_horizon(tmp_path, config_path, capsys):
    short = write_config(tmp_path, lambda d: d.update(horizon=5), name="short.json")
    art = str(tmp_path / "short.mpct")
    assert cli.main(["precompute", "--config", short, "--out", art]) == 0
    capsys.readouterr()
    assert cli.main(["solve", "--config", config_path, "--artifact", art]) == 1
    err = capsys.readouterr().err
    assert "artifact has (n, m, N) = (3, 1, 5)" in err and "Traceback" not in err


def test_compare(config_path, capsys):
    code = cli.main(
        ["compare", "--config", config_path, "--trials", "3", "--iterations", "30", "--seed", "1"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["max_deviation"] <= 1e-10
    assert report["trials"] == 3


def test_compare_no_trials(config_path, capsys):
    code = cli.main(["compare", "--config", config_path, "--trials", "0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["max_deviation"] == 0.0


def test_compare_corrupted_artifact(tmp_path, config_path, capsys):
    art = str(tmp_path / "off.mpct")
    assert cli.main(["precompute", "--config", config_path, "--out", art]) == 0
    with open(art, "r+b") as fh:
        fh.seek(30)
        fh.write(b"\xff\xff")
    code = cli.main(["compare", "--config", config_path, "--artifact", art, "--trials", "1"])
    assert code == 1


def test_bench(tmp_path, config_path):
    out = str(tmp_path / "bench.csv")
    assert (
        cli.main(
            ["bench", "--config", config_path, "--horizons", "5,10", "--repeats", "2", "--out", out]
        )
        == 0
    )
    rows = read_csv(out)
    assert rows[0] == ["N", "scalar_count", "iterations", "median_time_us", "worst_time_us"]
    assert [r[0] for r in rows[1:]] == ["5", "10"]
    assert all(int(r[1]) > 0 and int(r[2]) > 0 for r in rows[1:])


def test_solve_reports_certification(tmp_path, config_path, capsys):
    argv = ["--x", "0.1,-0.2,1", "--r", "0,0,0,0"]
    assert cli.main(["solve", "--config", config_path] + argv) == 0
    out, err = capsys.readouterr()
    plain = json.loads(out)
    assert plain["converged"] is True and plain["certified"] is False
    assert plain["dual_residual"] > 1e-4
    assert "not certified optimal" in err
    path = write_config(tmp_path, lambda d: d.pop("exit_test"))
    assert cli.main(["solve", "--config", path] + argv) == 0
    out, err = capsys.readouterr()
    full = json.loads(out)
    assert full["converged"] is True and full["certified"] is True
    assert full["dual_residual"] <= 1e-4
    assert full["iterations"] > plain["iterations"]
    assert err == ""


def test_bench_keeps_exit_test(tmp_path, monkeypatch):
    seen = []

    def spy(offline, problem, x, r, initial=None):
        seen.append(problem.config.exit_test)
        return solve(offline, problem, x, r, initial)

    solve = cli.eadmm_solve
    monkeypatch.setattr(cli, "eadmm_solve", spy)
    path = write_config(tmp_path, lambda d: d.pop("exit_test"))
    argv = ["bench", "--config", path, "--horizons", "5,10", "--repeats", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    assert seen == ["primal_dual", "primal_dual"]


def test_invalid_exit_test_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, lambda d: d.update(exit_test="dual"))
    assert cli.main(["solve", "--config", path]) == 1
    assert "exit_test" in capsys.readouterr().err
