"""Validation and penalty-construction tests."""

import numpy as np
import pytest

from mpct_eadmm.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyBox,
    HorizonTooShort,
    NonPositiveWeight,
)
from mpct_eadmm.problem import (
    CostWeights,
    MpctConfig,
    PenaltyParams,
    SystemModel,
    build_rho,
    validate_problem,
)


def small_model(**overrides):
    kwargs = dict(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [0.1]]),
        x_lb=np.array([-1.0, -1.0]),
        x_ub=np.array([1.0, 1.0]),
        u_lb=np.array([-1.0]),
        u_ub=np.array([1.0]),
    )
    kwargs.update(overrides)
    return SystemModel(**kwargs)


def test_pendulum_instance_accepted(problem):
    assert problem.n == 3 and problem.m == 1 and problem.N == 12


def test_empty_dimensions_rejected():
    """n = 0, m = 0 and empty weights are typed errors, not numpy's."""
    with pytest.raises(DimensionMismatch, match="A must be square with at least one row"):
        small_model(A=np.zeros((0, 0)), B=np.zeros((0, 1)), x_lb=[], x_ub=[])
    with pytest.raises(DimensionMismatch, match="B must have at least one column"):
        small_model(B=np.zeros((2, 0)), u_lb=[], u_ub=[])
    for q, r in ((np.zeros(0), np.ones(1)), (np.ones(2), np.zeros(0))):
        with pytest.raises(DimensionMismatch, match="Q_diag and R_diag must not be empty"):
            CostWeights(Q_diag=q, R_diag=r, T=np.eye(q.size), S=np.eye(r.size))


def test_degenerate_box_rejected():
    with pytest.raises(EmptyBox):
        small_model(x_lb=np.array([-1.0, 1.0]))


def test_tightened_box_empty_rejected():
    with pytest.raises(EmptyBox):
        small_model(eps_x=np.array([1.0, 1.0]))


def test_nan_bounds_rejected_infinite_accepted():
    nan2, nan1 = np.array([np.nan, -1.0]), np.array([np.nan])
    for name, value in (
        ("x_lb", nan2), ("x_ub", nan2[::-1]), ("u_lb", nan1), ("u_ub", nan1),
        ("eps_x", nan2), ("eps_u", nan1),
    ):
        with pytest.raises((EmptyBox, NonPositiveWeight)):
            small_model(**{name: value})
    model = small_model(x_lb=np.array([-np.inf, -1.0]), x_ub=np.array([np.inf, 1.0]))
    assert np.array_equal(model.x_ub, [np.inf, 1.0])
    with pytest.raises(NonPositiveWeight):  # an infinite margin
        small_model(x_lb=np.array([-np.inf, -1.0]), eps_x=np.array([np.inf, 0.0]))


def test_horizon_too_short():
    with pytest.raises(HorizonTooShort):
        MpctConfig(N=1)


def test_exit_test_validation():
    assert MpctConfig(N=12).exit_test == "primal_dual"
    assert MpctConfig(N=12, exit_test="primal").exit_test == "primal"
    for bad in ("dual", "", None, ["primal"]):
        with pytest.raises(ConfigError) as exc:
            MpctConfig(N=12, exit_test=bad)
        assert exc.value.field == "exit_test"


def test_dimension_cross_checks():
    model = small_model()
    costs = CostWeights(
        Q_diag=np.ones(2), R_diag=np.ones(1), T=np.eye(2), S=np.eye(1)
    )
    config = MpctConfig(N=3)
    rho = build_rho(model, config, 1.0, 1.0)
    bad = PenaltyParams(rho0=np.ones(3), rho_s=rho.rho_s, rho_hat=rho.rho_hat)
    with pytest.raises(DimensionMismatch):
        validate_problem(model, costs, config, bad)
    wrong_costs = CostWeights(
        Q_diag=np.ones(3), R_diag=np.ones(1), T=np.eye(3), S=np.eye(1)
    )
    with pytest.raises(DimensionMismatch):
        validate_problem(model, wrong_costs, config, rho)


def test_cost_weights_must_be_positive_definite():
    with pytest.raises(NonPositiveWeight):
        CostWeights(Q_diag=np.array([1.0, 0.0]), R_diag=np.ones(1), T=np.eye(2), S=np.eye(1))
    with pytest.raises(NonPositiveWeight):
        CostWeights(Q_diag=np.ones(2), R_diag=np.ones(1), T=-np.eye(2), S=np.eye(1))
    with pytest.raises(NonPositiveWeight):
        CostWeights(
            Q_diag=np.ones(2),
            R_diag=np.ones(1),
            T=np.array([[1.0, 0.5], [0.0, 1.0]]),
            S=np.eye(1),
        )


def test_penalty_params_positive():
    with pytest.raises(NonPositiveWeight):
        PenaltyParams(rho0=np.array([1.0, -1.0]), rho_s=np.ones(3), rho_hat=np.ones((3, 4)))
    with pytest.raises(NonPositiveWeight):
        PenaltyParams(rho0=np.ones(2), rho_s=np.ones(3), rho_hat=np.full((3, 4), np.inf))


def test_build_rho_pendulum_pattern(problem):
    rho = problem.rho
    n, N = problem.n, problem.N
    assert np.all(rho.rho0 == 1000.0)
    assert np.all(rho.rho_s == 1000.0)
    # First congruence column: boosted on the state part only; the input part
    # keeps the base value so the first input is not tied to the slowly
    # converging artificial reference.
    assert np.all(rho.rho_hat[:n, 0] == 1000.0)
    assert np.all(rho.rho_hat[n:, 0] == 20.0)
    assert np.all(rho.rho_hat[:, N] == 1000.0)
    assert np.all(rho.rho_hat[:, 1:N] == 20.0)
    # e.g. the fifth column is an interior one
    assert np.all(rho.rho_hat[:, 4] == 20.0)


def test_build_rho_uniform_degenerate():
    model = small_model()
    config = MpctConfig(N=4)
    rho = build_rho(model, config, 3.0, 3.0)
    assert np.all(rho.rho0 == 3.0)
    assert np.all(rho.rho_s == 3.0)
    assert np.all(rho.rho_hat == 3.0)
    assert rho.rho_hat.shape == (3, 5)


def test_build_rho_rejects_nonpositive():
    model = small_model()
    config = MpctConfig(N=4)
    with pytest.raises(NonPositiveWeight):
        build_rho(model, config, 0.0, 1.0)
    with pytest.raises(NonPositiveWeight):
        build_rho(model, config, 1.0, -2.0)
