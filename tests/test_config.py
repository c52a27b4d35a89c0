"""JSON run-configuration parsing tests."""

import json

import numpy as np
import pytest

from mpct_eadmm.config import default_pendulum_config, load_config, parse_config
from mpct_eadmm.errors import ConfigError
from mpct_eadmm.pendulum import PENDULUM_COSTS, PENDULUM_MODEL, pendulum_problem


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_default_config_parses():
    cfg = parse_config(default_pendulum_config())
    assert cfg.problem.n == 3 and cfg.problem.m == 1 and cfg.problem.N == 12
    assert cfg.sim.steps == 250
    np.testing.assert_array_equal(cfg.x0_physical, [0.0, 0.0, 20.0])
    assert not cfg.warmstart


def test_missing_field_reports_path():
    doc = default_pendulum_config()
    del doc["model"]["B"]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "model.B" in str(exc.value)


def test_invalid_model_reports_section():
    doc = default_pendulum_config()
    doc["model"]["x_lb"] = [1.0, 0.0, 0.0]  # above x_ub on the first component
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "model" in str(exc.value)


def test_rho_forms():
    doc = default_pendulum_config()
    doc["rho"] = 7.5
    cfg = parse_config(doc)
    assert np.all(cfg.problem.rho.rho_hat == 7.5)
    doc["rho"] = {"base": 1.0, "boost": 50.0}
    cfg = parse_config(doc)
    assert cfg.problem.rho.rho_hat.max() == 50.0
    nm, N = 4, doc["horizon"]
    doc["rho"] = {
        "rho0": [1.0, 2.0, 3.0],
        "rho_s": [1.0] * nm,
        "rho_hat": [[2.0] * (N + 1)] * nm,
    }
    cfg = parse_config(doc)
    np.testing.assert_array_equal(cfg.problem.rho.rho0, [1.0, 2.0, 3.0])


def test_rho_malformed():
    doc = default_pendulum_config()
    doc["rho"] = {"bogus": 1}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "rho" in str(exc.value)
    doc["rho"] = {"base": 1.0, "boost": -2.0}
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_x0_and_reference_shapes():
    doc = default_pendulum_config()
    doc["sim"]["x0"] = [1.0, 2.0]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "sim.x0" in str(exc.value)
    doc = default_pendulum_config()
    doc["reference"] = [0.0]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "reference" in str(exc.value)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as exc:
        load_config(bad)
    assert "line" in str(exc.value)
    top = tmp_path / "top.json"
    top.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(top)


def test_config_round_trip_idempotent(tmp_path):
    doc = default_pendulum_config()
    path = write_config(tmp_path, doc)
    cfg1 = load_config(path)
    cfg2 = parse_config(json.loads(json.dumps(doc)))
    np.testing.assert_array_equal(cfg1.problem.model.A, cfg2.problem.model.A)
    np.testing.assert_array_equal(cfg1.problem.rho.rho_hat, cfg2.problem.rho.rho_hat)
    assert cfg1.problem.config.epsilon == cfg2.problem.config.epsilon


def test_exit_test_field():
    doc = default_pendulum_config()
    assert parse_config(doc).problem.config.exit_test == "primal"
    del doc["exit_test"]
    assert parse_config(doc).problem.config.exit_test == "primal_dual"
    for bad in ("dual", 1e-4, None, [1]):
        doc["exit_test"] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "exit_test"


def test_solver_fields_report_their_key():
    for key, bad in (
        ("epsilon", -1),
        ("epsilon", "abc"),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
        ("max_iter", 0),
        ("max_iter", "many"),
        ("horizon", 1),
    ):
        doc = default_pendulum_config()
        doc[key] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == key, (key, bad)
    doc = default_pendulum_config()
    doc["sim"]["substeps"] = 0
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert exc.value.field == "sim.substeps"


def test_default_document_matches_pendulum_problem():
    """The benchmark document and pendulum_problem() share one scenario source."""
    doc = json.loads(json.dumps(default_pendulum_config()))
    doc["big_bound"] = 1.0  # a retired key, ignored
    parsed = parse_config(doc).problem
    built = pendulum_problem()
    for part, names in (
        ("model", ("A", "B", "x_lb", "x_ub", "u_lb", "u_ub", "eps_x", "eps_u")),
        ("costs", ("Q_diag", "R_diag", "T", "S")),
        ("rho", ("rho0", "rho_s", "rho_hat")),
    ):
        for name in names:
            a = getattr(getattr(parsed, part), name)
            b = getattr(getattr(built, part), name)
            assert a.shape == b.shape and np.array_equal(a, b), (part, name)
    assert (parsed.N, parsed.config.epsilon, parsed.config.max_iter) == (
        built.N,
        built.config.epsilon,
        built.config.max_iter,
    )
    # The problem copies the constants, so changing it cannot change them.
    for part, constants in ((built.model, PENDULUM_MODEL), (built.costs, PENDULUM_COSTS)):
        for name, value in constants.items():
            assert not np.shares_memory(getattr(part, name), value), name
