"""Pendulum dynamics, integration and closed-loop harness tests."""

import numpy as np
import pytest

from mpct_eadmm.errors import SingularConfiguration
from mpct_eadmm.pendulum import (
    PENDULUM_A,
    PENDULUM_B,
    PENDULUM_SCALE,
    PENDULUM_TS,
    PendulumParams,
    SimConfig,
    closed_loop,
    dynamics,
    pendulum_problem,
    rk4_step,
    scale_state,
    unscale_input,
)


def test_equilibrium_derivative_zero():
    d = dynamics(np.zeros(3), 0.0, PendulumParams())
    assert not d.any()


def test_upright_instability():
    d = dynamics(np.array([0.01, 0.0, 0.0]), 0.0, PendulumParams())
    assert d[1] > 0.0


def test_singular_configuration():
    p = PendulumParams()
    singular = PendulumParams(I_yy=p.M_body * p.wheel_radius * p.L)
    with pytest.raises(SingularConfiguration):
        dynamics(np.array([np.pi, 0.0, 0.0]), 0.0, singular)


def test_params_validation():
    with pytest.raises(ValueError):
        PendulumParams(m_r=-1.0)
    p = PendulumParams()
    assert abs(p.I_yy - 2.0 * p.M_body * p.L**2) <= 1e-12


def test_rk4_equilibrium_fixed():
    x = rk4_step(np.zeros(3), 0.0, PENDULUM_TS, 10, PendulumParams())
    assert np.abs(x).max() <= 1e-15


def test_rk4_wheel_speed_linear_in_input():
    x = rk4_step(np.array([0.0, 0.0, 1.0]), 2.5, PENDULUM_TS, 7, PendulumParams())
    assert abs(x[2] - (1.0 + 2.5 * PENDULUM_TS)) <= 1e-12


def test_rk4_fourth_order():
    params = PendulumParams()
    x0 = np.array([0.05, -0.1, 1.0])
    u = 1.0
    coarse = rk4_step(x0, u, 0.1, 4, params)
    fine = rk4_step(x0, u, 0.1, 8, params)
    finest = rk4_step(x0, u, 0.1, 16, params)
    err_coarse = np.abs(coarse - finest).max()
    err_fine = np.abs(fine - finest).max()
    assert err_coarse / err_fine >= 12.0


def test_scaling_round_trip():
    x = np.array([0.0, 0.0, 20.0])
    np.testing.assert_array_equal(scale_state(x, PENDULUM_SCALE), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(scale_state(x, 1.0), x)
    u = np.array([4.5])
    np.testing.assert_array_equal(unscale_input(u, PENDULUM_SCALE), [90.0])
    scaled = scale_state(np.array([0.3, -0.2, 7.0]), PENDULUM_SCALE)
    back = scaled.copy()
    back[2] *= PENDULUM_SCALE
    np.testing.assert_array_equal(back, [0.3, -0.2, 7.0])


def test_linearization_matches_prediction_model():
    """Finite-difference Jacobian of the scaled discrete flow vs the fixed model."""
    params = PendulumParams()
    scale = PENDULUM_SCALE

    def flow(xs, us):
        x_phys = xs.copy()
        x_phys[2] *= scale
        out = rk4_step(x_phys, us * scale, PENDULUM_TS, 50, params)
        out[2] /= scale
        return out

    h = 1e-6
    A_fd = np.zeros((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        A_fd[:, j] = (flow(e, 0.0) - flow(-e, 0.0)) / (2 * h)
    B_fd = ((flow(np.zeros(3), h) - flow(np.zeros(3), -h)) / (2 * h)).reshape(3, 1)
    assert np.abs(A_fd - PENDULUM_A).max() <= 5e-3
    assert np.abs(B_fd - PENDULUM_B).max() <= 5e-3


def test_closed_loop_honors_input_bound(warm_trajectory, cold_trajectory):
    for traj in (warm_trajectory, cold_trajectory):
        assert np.abs(traj.inputs).max() <= 90.0 + 1e-9
        assert not traj.aborted
        assert len(traj.states) == len(traj.inputs) + 1


def test_closed_loop_deterministic(problem, offline):
    x0 = np.array([0.01, 0.0, 2.0])
    runs = [
        closed_loop(problem, offline, SimConfig(steps=10), x0, np.zeros(4), warmstart=True)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].states, runs[1].states)
    assert np.array_equal(runs[0].inputs, runs[1].inputs)
    assert np.array_equal(runs[0].iterations, runs[1].iterations)


def test_closed_loop_zero_state_stays_zero(problem, offline):
    traj = closed_loop(problem, offline, SimConfig(steps=10), np.zeros(3), np.zeros(4))
    assert np.abs(traj.states).max() <= 1e-9
    assert np.abs(traj.inputs).max() <= 1e-9


def test_pendulum_problem_bounds():
    p = pendulum_problem()
    np.testing.assert_allclose(p.model.x_ub, [np.pi / 8, np.inf, 3.0])
    np.testing.assert_allclose(p.model.u_ub, [4.5])
    np.testing.assert_allclose(p.costs.Q_diag, 5.0)
    assert p.costs.S[0, 0] == 0.125
