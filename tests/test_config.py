"""JSON run-configuration parsing tests."""

import json
import sys
from dataclasses import fields

import numpy as np
import pytest

from mpct_eadmm.config import default_pendulum_config, load_config, parse_config
from mpct_eadmm.errors import ConfigError
from mpct_eadmm.pendulum import (
    PENDULUM_COSTS,
    PENDULUM_MODEL,
    PendulumParams,
    SimConfig,
    pendulum_problem,
)
from mpct_eadmm.problem import MpctConfig


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_default_config_parses():
    cfg = parse_config(default_pendulum_config())
    assert cfg.problem.n == 3 and cfg.problem.m == 1 and cfg.problem.N == 12
    assert cfg.sim.steps == 250
    np.testing.assert_array_equal(cfg.x0_physical, [0.0, 0.0, 20.0])
    assert cfg.warmstart is False and cfg.seed == 0
    doc = default_pendulum_config()
    doc.update(warmstart=True, seed=7)
    cfg = parse_config(doc)
    assert cfg.warmstart is True and cfg.seed == 7


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


def test_x0_and_reference_must_be_finite():
    for key, value in (("sim.x0", float("nan")), ("reference", float("inf"))):
        for bad in (value, -value):
            doc = default_pendulum_config()
            target = doc["sim"]["x0"] if key == "sim.x0" else doc["reference"]
            target[1] = bad
            with pytest.raises(ConfigError) as exc:
                parse_config(doc)
            assert exc.value.field == key


def test_overflowing_weighted_reference_rejected():
    """A finite reference whose weighted form diag(T, S) r overflows is a
    ConfigError naming the reference, raised without a numpy warning."""
    for reference in ([1e308] * 4, [0.0, -1e306, 0.0, 0.0], [0.0, 0.0, 1e306, 0.0]):
        doc = default_pendulum_config()
        doc["reference"] = reference
        with np.errstate(all="raise"), pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "reference" and "diag(T, S) r" in str(exc.value)
    doc = default_pendulum_config()
    doc["reference"] = [1e300, 0.0, 1e300, 1e307]
    assert parse_config(doc).reference.tolist() == doc["reference"]


def test_output_key_type():
    doc = default_pendulum_config()
    assert parse_config(doc).output is None
    doc["output"] = "run.csv"
    assert parse_config(doc).output == "run.csv"
    doc["output"] = None
    assert parse_config(doc).output is None
    for bad in (7, 1.5, ["run.csv"], {"path": "run.csv"}, False):
        doc["output"] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == "output"


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
    assert ", -Infinity, " in path.read_text()  # the unbounded body rate
    assert cfg1.problem.model.x_ub[1] == cfg2.problem.model.x_ub[1] == np.inf
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
        ("seed", "abc"),
        ("seed", None),
        ("seed", 1.5),
        ("seed", True),
        ("seed", -1),
        ("warmstart", "false"),
        ("warmstart", 0),
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


def bad_numbers():
    """(key, value): every numeric field of the solver, simulation and plant
    settings with NaN and +-inf, and every integer field also with 2.5."""
    keys = [("horizon" if f.name == "N" else f.name, f.type) for f in fields(MpctConfig)]
    keys += [("sim." + f.name, f.type) for f in fields(SimConfig)]
    keys += [("sim.pendulum." + f.name, f.type) for f in fields(PendulumParams)]
    return [
        (key, value)
        for key, kind in keys
        if kind in (int, float)
        for value in (float("nan"), float("inf"), float("-inf")) + ((2.5,) if kind is int else ())
    ]


def with_value(doc, key, value):
    """``doc`` with ``value`` at the dotted ``key``."""
    *parents, last = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    return doc


@pytest.mark.parametrize("key, value", bad_numbers())
def test_non_finite_or_fractional_numbers_report_their_key(key, value):
    """json.load reads NaN and Infinity; neither, nor a fractional count,
    is a setting, and the error names the key."""
    doc = with_value(default_pendulum_config(), key, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.loads(json.dumps(doc)))
    assert exc.value.field == key, str(exc.value)


def integer_keys():
    """The dotted keys of every integer field of the solver and simulation settings."""
    keys = [("horizon" if f.name == "N" else f.name, f.type) for f in fields(MpctConfig)]
    keys += [("sim." + f.name, f.type) for f in fields(SimConfig)]
    return [key for key, kind in keys if kind is int]


def huge_integers():
    """(key, value): every integer field with integral numbers beyond the C
    index range, as a float and as an int."""
    return [(key, value) for key in integer_keys() for value in (1e20, 2**63, -(2**63) - 1)]


@pytest.mark.parametrize("key, value", huge_integers())
def test_integers_beyond_the_index_range_report_their_key(key, value):
    """A count the kernel's Py_ssize_t loop counters cannot hold is a config
    error on its own key, not an OverflowError later or an error on another key."""
    doc = with_value(default_pendulum_config(), key, value)
    with pytest.raises(ConfigError, match="magnitude") as exc:
        parse_config(json.loads(json.dumps(doc)))
    assert exc.value.field == key, str(exc.value)


@pytest.mark.parametrize(
    "rho", [20.0, {"base": 20.0, "boost": 1000.0}], ids=["scalar", "base-boost"]
)
def test_unallocatable_horizon_reports_horizon(rho):
    """A horizon within sys.maxsize whose penalties no address space holds
    (2**59 steps: numpy's "array is too big") or no allocator gives
    (2**45 steps: 2**50 bytes, a MemoryError) is a config error on horizon,
    not on rho, where the first horizon-sized array is built."""
    for horizon in (2**59, 2**45):
        doc = default_pendulum_config()
        doc.update(horizon=horizon, rho=rho)
        with pytest.raises(ConfigError, match="cannot allocate") as exc:
            parse_config(doc)
        assert exc.value.field == "horizon", str(exc.value)


def test_integers_up_to_the_index_range_are_accepted():
    """sys.maxsize itself is a valid cap and substep count; parsing takes it."""
    doc = default_pendulum_config()
    doc["max_iter"], doc["sim"]["substeps"] = sys.maxsize, float(2**62)
    cfg = parse_config(doc)
    assert cfg.problem.config.max_iter == sys.maxsize and cfg.sim.substeps == 2**62


def test_integer_fields_take_integral_numbers_only():
    """12.0 is the integer 12; 12.7, a bool or a numeric string is not an integer."""
    doc = default_pendulum_config()
    doc.update(horizon=12.0, max_iter=30.0)
    doc["sim"].update(steps=7.0, substeps=3.0)
    cfg = parse_config(doc)
    assert (cfg.problem.N, cfg.problem.config.max_iter) == (12, 30)
    assert (cfg.sim.steps, cfg.sim.substeps) == (7, 3) and type(cfg.sim.steps) is int
    bad_counts = (("horizon", 12.7), ("max_iter", True), ("sim.steps", "250"), ("sim.steps", 0))
    for key, bad in bad_counts:
        with pytest.raises(ConfigError) as exc:
            parse_config(with_value(default_pendulum_config(), key, bad))
        assert exc.value.field == key, (key, bad)


def test_pendulum_parameters_report_their_key():
    doc = default_pendulum_config()
    doc["sim"]["pendulum"] = {"L": 0.1, "I_yy": None}
    params = parse_config(doc).pendulum
    assert params.L == 0.1 and params.I_yy == 2.0 * params.M_body * 0.1**2
    for bad, field in (
        ({"L": -1.0}, "sim.pendulum.L"),
        ({"g": "abc"}, "sim.pendulum.g"),
        ({"mass": 1.0}, "sim.pendulum"),
        ([1.0], "sim.pendulum"),
    ):
        doc["sim"]["pendulum"] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.field == field, bad


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
