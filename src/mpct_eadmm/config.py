"""JSON run-configuration parsing for the command line front end.

A configuration is a single JSON document with matrices as row-major nested
arrays. Parsing either yields a fully validated problem bundle or fails with
a field-precise :class:`ConfigError`.
"""

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, MpctError
from .pendulum import PENDULUM_COSTS, PENDULUM_MODEL, PENDULUM_RHO, PendulumParams, SimConfig
from .problem import (
    CostWeights,
    MpctConfig,
    PenaltyParams,
    SystemModel,
    build_rho,
    validate_problem,
)


@dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    problem: object  # ValidatedProblem
    sim: SimConfig
    pendulum: PendulumParams
    x0_physical: np.ndarray
    reference: np.ndarray
    warmstart: bool
    seed: int
    output: str = None


_MISSING = object()


def _get(doc, path, default=None, required=False):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[part]
    return node


def _settings(cls, doc, prefix="", renames=None):
    """A ``cls`` instance from the document keys present, its defaults for the rest.

    Each value is cast to its field's type and checked by ``cls`` on its own,
    so an invalid one raises a :class:`ConfigError` naming its key.
    """
    kwargs = {}
    for f in fields(cls):
        path = prefix + (renames or {}).get(f.name, f.name)
        value = _get(doc, path, default=_MISSING)
        if value is _MISSING:
            continue
        try:
            kwargs[f.name] = f.type(value)
            cls(**{f.name: kwargs[f.name]})
        except ConfigError:
            raise
        except (MpctError, TypeError, ValueError) as exc:
            raise ConfigError(path, str(exc)) from None
    return cls(**kwargs)


def _array(doc, path, required=True, default=None):
    val = _get(doc, path, required=required, default=default)
    if val is None:
        return None
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"not a numeric array: {exc}") from None


def _parse_rho(doc, model, config):
    spec = _get(doc, "rho", required=True)
    try:
        if isinstance(spec, (int, float)):
            return build_rho(model, config, float(spec), float(spec))
        if isinstance(spec, dict) and "base" in spec:
            return build_rho(model, config, float(spec["base"]), float(spec["boost"]))
        if isinstance(spec, dict) and "rho0" in spec:
            return PenaltyParams(
                rho0=np.asarray(spec["rho0"], dtype=float),
                rho_s=np.asarray(spec["rho_s"], dtype=float),
                rho_hat=np.asarray(spec["rho_hat"], dtype=float),
            )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, MpctError) as exc:
        raise ConfigError("rho", str(exc)) from None
    raise ConfigError("rho", "expected a scalar, {base, boost} or {rho0, rho_s, rho_hat}")


def parse_config(doc):
    """Build a RunConfig from a decoded JSON document."""
    try:
        model = SystemModel(
            A=_array(doc, "model.A"),
            B=_array(doc, "model.B"),
            x_lb=_array(doc, "model.x_lb"),
            x_ub=_array(doc, "model.x_ub"),
            u_lb=_array(doc, "model.u_lb"),
            u_ub=_array(doc, "model.u_ub"),
            eps_x=_array(doc, "model.eps_x", required=False),
            eps_u=_array(doc, "model.eps_u", required=False),
        )
    except ConfigError:
        raise
    except MpctError as exc:
        raise ConfigError("model", str(exc)) from None
    try:
        costs = CostWeights(
            Q_diag=_array(doc, "costs.Q_diag"),
            R_diag=_array(doc, "costs.R_diag"),
            T=_array(doc, "costs.T"),
            S=_array(doc, "costs.S"),
        )
    except ConfigError:
        raise
    except MpctError as exc:
        raise ConfigError("costs", str(exc)) from None
    _get(doc, "horizon", required=True)  # no default for the document
    mpct_config = _settings(MpctConfig, doc, renames={"N": "horizon"})
    rho = _parse_rho(doc, model, mpct_config)
    try:
        problem = validate_problem(model, costs, mpct_config, rho)
    except MpctError as exc:
        raise ConfigError("(problem)", str(exc)) from None
    sim = _settings(SimConfig, doc, prefix="sim.")
    pend_doc = _get(doc, "sim.pendulum", default={})
    try:
        pendulum = PendulumParams(**pend_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError("sim.pendulum", str(exc)) from None
    x0 = _array(doc, "sim.x0", required=False)
    if x0 is None:
        x0 = np.zeros(model.n)
    elif x0.shape != (model.n,):
        raise ConfigError("sim.x0", f"expected {model.n} entries, got {x0.shape}")
    reference = _array(doc, "reference", required=False)
    if reference is None:
        reference = np.zeros(model.n + model.m)
    elif reference.shape != (model.n + model.m,):
        raise ConfigError(
            "reference", f"expected {model.n + model.m} entries, got {reference.shape}"
        )
    return RunConfig(
        problem=problem,
        sim=sim,
        pendulum=pendulum,
        x0_physical=x0,
        reference=reference,
        warmstart=bool(_get(doc, "warmstart", default=False)),
        seed=int(_get(doc, "seed", default=0)),
        output=_get(doc, "output", default=None),
    )


def load_config(path):
    """Parse a JSON configuration file into a RunConfig."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return parse_config(doc)


def default_pendulum_config():
    """JSON document for the benchmark pendulum scenario.

    It is written out from the scenario constants of :mod:`.pendulum` and the
    solver and simulation defaults, and keeps the paper's primal-only exit
    test, the rule whose iteration counts and timings the benchmark
    reproduces. Its solves are feasible to ``epsilon`` but mostly not
    certified optimal; drop ``exit_test`` to get the default primal-and-dual
    test at several times the iterations.
    """
    solver = MpctConfig(exit_test="primal")
    return {
        "model": {key: value.tolist() for key, value in PENDULUM_MODEL.items()},
        "costs": {key: value.tolist() for key, value in PENDULUM_COSTS.items()},
        "horizon": solver.N,
        "rho": {"base": PENDULUM_RHO[0], "boost": PENDULUM_RHO[1]},
        "epsilon": solver.epsilon,
        "max_iter": solver.max_iter,
        "exit_test": solver.exit_test,
        "sim": {**vars(SimConfig()), "x0": [0.0, 0.0, 20.0]},
        "reference": [0.0, 0.0, 0.0, 0.0],
        "warmstart": False,
        "seed": 0,
    }
