"""Command line front end tests (in-process invocation)."""

import csv
import json
import warnings

import numpy as np
import pytest
from test_config import bad_numbers, huge_integers, with_value

from mpct_eadmm import cli
from mpct_eadmm.artifact import save_offline
from mpct_eadmm.config import default_pendulum_config, load_config
from mpct_eadmm.offline import build_offline


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


def test_solve_rejects_artifact_of_another_rho(tmp_path, config_path, capsys):
    art = str(tmp_path / "default.mpct")
    assert cli.main(["precompute", "--config", config_path, "--out", art]) == 0
    capsys.readouterr()
    other = write_config(tmp_path, lambda d: d.update(rho={"base": 5, "boost": 200}))
    args = ["--x", "0,0,1", "--r", "0,0,0,0"]
    assert cli.main(["solve", "--config", other, "--artifact", art, *args]) == 1
    err = capsys.readouterr().err
    assert "artifact was built for another problem" in err and "Traceback" not in err
    assert cli.main(["solve", "--config", other, *args]) == 0
    assert abs(json.loads(capsys.readouterr().out)["u0"][0] - 4.5) <= 1e-9


def test_compare(config_path, capsys):
    code = cli.main(
        ["compare", "--config", config_path, "--trials", "3", "--iterations", "30", "--seed", "1"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["max_deviation"] <= 1e-10
    assert report["trials"] == 3


def test_compare_reports_a_nan_deviation_as_a_failure(config_path, capsys, monkeypatch):
    """A NaN deviation in one trial between finite ones is the report's
    maximum, and the check fails."""
    deviations = iter([1e-12, float("nan"), 1e-12])
    monkeypatch.setattr(cli, "interleaved_max_deviation", lambda *args, **kw: next(deviations))
    code = cli.main(["compare", "--config", config_path, "--trials", "3", "--seed", "1"])
    assert code == cli.EXIT_NUMERICAL
    assert np.isnan(json.loads(capsys.readouterr().out)["max_deviation"])


def test_compare_rejects_trials_below_one(config_path, capsys):
    """No trial or no iteration is no check, so it cannot pass one."""
    for flag, value in (("--trials", "0"), ("--trials", "-3"), ("--iterations", "0")):
        code = cli.main(["compare", "--config", config_path, flag, value])
        captured = capsys.readouterr()
        assert code == 1, (flag, value)
        assert captured.out == ""
        assert f"config error: {flag}:" in captured.err


def test_compare_corrupted_artifact(tmp_path, config_path, capsys):
    art = str(tmp_path / "off.mpct")
    assert cli.main(["precompute", "--config", config_path, "--out", art]) == 0
    with open(art, "r+b") as fh:
        fh.seek(30)
        fh.write(b"\xff\xff")
    code = cli.main(["compare", "--config", config_path, "--artifact", art, "--trials", "1"])
    assert code == 1


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


def test_invalid_exit_test_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, lambda d: d.update(exit_test="dual"))
    assert cli.main(["solve", "--config", path]) == 1
    assert "exit_test" in capsys.readouterr().err


def test_parser_offers_four_subcommands():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == ["compare", "precompute", "simulate", "solve"]


def test_non_numeric_state_or_reference_exit_code(config_path, capsys):
    for flag, value in (("--x", "0,abc,1"), ("--r", "0,0,x,0"), ("--x", "0,nan,1")):
        assert cli.main(["solve", "--config", config_path, flag, value]) == 1
        err = capsys.readouterr().err
        assert f"config error: {flag}:" in err, (flag, value)
    assert cli.main(["compare", "--config", config_path, "--seed", "-1"]) == 1
    assert "config error: --seed:" in capsys.readouterr().err


def test_bad_document_values_exit_code(tmp_path, capsys):
    for key, mutate in (
        ("seed", lambda d: d.update(seed="abc")),
        ("seed", lambda d: d.update(seed=None)),
        ("warmstart", lambda d: d.update(warmstart="false")),
        ("model", lambda d: d["model"]["x_ub"].__setitem__(0, float("nan"))),
    ):
        path = write_config(tmp_path, mutate)
        for command in ("solve", "simulate", "compare"):
            assert cli.main([command, "--config", path]) == 1, (key, command)
            assert f"config error: {key}:" in capsys.readouterr().err, (key, command)


def test_empty_dimensions_exit_code(tmp_path, capsys):
    """A model with no state or no input, or empty weights, is a config error."""
    for section, message, mutate in (
        ("model", "A must be square with at least one row", lambda d: d["model"].update(A=[])),
        (
            "model",
            "B must have at least one column",
            lambda d: d["model"].update(B=[[], [], []], u_lb=[], u_ub=[]),
        ),
        ("costs", "must not be empty", lambda d: d["costs"].update(Q_diag=[])),
        ("costs", "must not be empty", lambda d: d["costs"].update(R_diag=[], S=[])),
    ):
        path = write_config(tmp_path, mutate)
        for command in ("solve", "precompute"):
            assert cli.main([command, "--config", path]) == 1, (message, command)
            err = capsys.readouterr().err
            assert f"config error: {section}: " in err and message in err, (err, command)


def test_non_finite_state_or_reference_exit_code(tmp_path, capsys):
    for key, mutate in (
        ("sim.x0", lambda d: d["sim"].update(x0=[float("nan"), 0.0, 0.0])),
        ("sim.x0", lambda d: d["sim"].update(x0=[0.0, float("-inf"), 0.0])),
        ("reference", lambda d: d.update(reference=[float("nan"), 0.0, 0.0, 0.0])),
        ("reference", lambda d: d.update(reference=[0.0, 0.0, float("inf"), 0.0])),
    ):
        path = write_config(tmp_path, mutate)
        for command in ("solve", "simulate", "compare"):
            assert cli.main([command, "--config", path]) == 1, (key, command)
            assert f"config error: {key}:" in capsys.readouterr().err, (key, command)


def test_overflowing_weighted_reference_exit_code(tmp_path, capsys):
    """r = (1e308,) x 4 is finite, but diag(T, S) r is not: a config error
    naming the reference, exit 1, and no numpy RuntimeWarning printed."""
    path = write_config(tmp_path, lambda d: d.update(reference=[1e308] * 4))
    for command in ("solve", "simulate", "compare", "precompute"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", path]) == 1, command
        captured = capsys.readouterr()
        assert "config error: reference: " in captured.err, command
        assert "RuntimeWarning" not in captured.err + captured.out, command


def test_overflowing_weighted_reference_flag_exit_code(config_path, capsys):
    """The same reference given as --r is a config error naming --r, exit 1,
    not a numerical breakdown, and prints no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["solve", "--config", config_path, "--r", "1e308,1e308,1e308,1e308"])
    assert code == 1
    captured = capsys.readouterr()
    assert "config error: --r: " in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("key, value", bad_numbers())
def test_non_finite_or_fractional_numbers_exit_code(tmp_path, capsys, key, value):
    """A NaN, an infinity or a fractional count in a numeric setting is a
    config error naming the key, exit 1, for solve and simulate alike."""
    path = write_config(tmp_path, lambda d: with_value(d, key, value))
    for command in ("solve", "simulate"):
        assert cli.main([command, "--config", path]) == 1, command
        captured = capsys.readouterr()
        assert f"config error: {key}: " in captured.err, (command, captured.err)
        assert "Traceback" not in captured.err and captured.out == "", command


@pytest.mark.parametrize(
    "key, value, commands",
    [(key, value, ("solve", "simulate")) for key, value in huge_integers()]
    + [("sim.steps", 2**59, ("simulate",))]
    + [("horizon", 2**59, ("solve", "simulate", "precompute", "compare"))],
)
def test_integers_beyond_the_index_range_exit_code(tmp_path, capsys, key, value, commands):
    """A count beyond the C index range, or a simulation or a horizon too
    long to allocate (2**59 steps: more bytes than an address space holds),
    exits 1 with a one-line config error naming the key and no traceback."""
    path = write_config(tmp_path, lambda d: with_value(d, key, value))
    for command in commands:
        assert cli.main([command, "--config", path]) == 1, command
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key}: "), (command, captured.err)
        assert captured.err.count("\n") == 1 and captured.out == "", command


def test_output_must_be_a_file_name(tmp_path, capsys):
    """An integer output would be taken for a file descriptor by open()."""
    for value in (7, 1, ["a.csv"], True):
        path = write_config(tmp_path, lambda d: d.update(output=value))
        for command in ("simulate", "precompute"):
            assert cli.main([command, "--config", path]) == 1, (value, command)
            captured = capsys.readouterr()
            assert "config error: output:" in captured.err, (value, command)
            assert captured.out == ""
    out = tmp_path / "run.csv"

    def short_run(doc):
        doc["sim"]["steps"] = 3
        doc["output"] = str(out)

    assert cli.main(["simulate", "--config", write_config(tmp_path, short_run)]) == 0
    assert len(read_csv(out)) == 4


def test_simulate_warmstart_needs_the_gain(tmp_path, capsys):
    """An artifact built without the warmstart gain cannot warmstart a simulation."""
    cfg = write_config(tmp_path, lambda d: d["sim"].update(steps=3))
    art = str(tmp_path / "nogain.mpct")
    save_offline(build_offline(load_config(cfg).problem, with_warmstart=False), art)
    out = tmp_path / "t.csv"
    args = ["simulate", "--config", cfg, "--artifact", art, "--out", str(out)]
    assert cli.main([*args, "--warmstart"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: warmstart needs the warmstart gain")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()
    assert cli.main(args) == 0  # a cold-started simulation needs no gain
    assert len(read_csv(out)) == 4
