"""Pendulum dynamics, integration and closed-loop harness tests."""

from dataclasses import replace

import numpy as np
import pytest

from test_solver import reference_warmstart_predict

from mpct_eadmm import pendulum
from mpct_eadmm.errors import (
    ConfigError,
    DimensionMismatch,
    MissingWarmstartGain,
    SingularConfiguration,
)
from mpct_eadmm.offline import build_offline
from mpct_eadmm.pendulum import (
    PENDULUM_A,
    PENDULUM_B,
    PENDULUM_SCALE,
    PENDULUM_TS,
    PendulumParams,
    SimConfig,
    closed_loop,
    pendulum_problem,
    rk4_step,
    scale_state,
    unscale_input,
)
from mpct_eadmm.problem import EXIT_TESTS, validate_problem
from mpct_eadmm.solver import Scratch, cold_start, eadmm_solve


def test_equilibrium_derivative_zero():
    assert not reference_dynamics(np.zeros(3), 0.0, PendulumParams()).any()
    x = rk4_step(np.zeros(3), 0.0, PENDULUM_TS, 1, PendulumParams())
    assert x.tobytes() == np.zeros(3).tobytes()


def test_upright_instability():
    """Tilted and at rest, unforced, the body falls further."""
    x0 = np.array([0.01, 0.0, 0.0])
    assert reference_dynamics(x0, 0.0, PendulumParams())[1] > 0.0
    x = rk4_step(x0, 0.0, PENDULUM_TS, 10, PendulumParams())
    assert x[0] > x0[0] and x[1] > 0.0 and x[2] == 0.0


def test_singular_configuration():
    p = PendulumParams()
    singular = PendulumParams(I_yy=p.M_body * p.wheel_radius * p.L)
    with pytest.raises(SingularConfiguration):
        reference_dynamics(np.array([np.pi, 0.0, 0.0]), 0.0, singular)


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


# The numpy form of the plant that rk4_step replaced, kept as the reference
# the kernel's plant step must reproduce byte for byte.
def reference_dynamics(state, u, p):
    phi, phi_dot, _ = state
    den = p.I_yy + p.M_body * p.wheel_radius * p.L * np.cos(phi)
    if abs(den) < 1e-12:
        raise SingularConfiguration(f"dynamics denominator {den:.3e} at phi={phi:.6f}")
    num = (
        p.M_body * p.wheel_radius * p.L * phi_dot**2 * np.sin(phi)
        + p.M_body * p.g * p.L * np.sin(phi)
        - (p.wheel_radius**2 * (3 * p.m_r + p.M_body) + p.M_body * p.wheel_radius * p.L * np.cos(phi))
        * u
    )
    return np.array([phi_dot, num / den, u])


def reference_rk4_step(state, u, Ts, substeps, params):
    h = Ts / substeps
    x = np.asarray(state, dtype=float).copy()
    u = float(np.asarray(u).ravel()[0])
    for _ in range(substeps):
        k1 = reference_dynamics(x, u, params)
        k2 = reference_dynamics(x + 0.5 * h * k1, u, params)
        k3 = reference_dynamics(x + 0.5 * h * k2, u, params)
        k4 = reference_dynamics(x + h * k3, u, params)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_rk4_bytes_match_numpy_reference():
    """1 200 seeded (state, u, substeps) on two robots, inputs as floats and arrays."""
    rng = np.random.default_rng(17)
    robots = (PendulumParams(), PendulumParams(m_r=0.2, M_body=2.5, wheel_radius=0.08, L=0.2))
    for k in range(1200):
        params = robots[k % 2]
        state = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-8, 8), rng.uniform(-80, 80)])
        u = rng.uniform(-120, 120)
        if k % 3 == 0:
            u = np.array([u])  # as closed_loop passes the unscaled input
        substeps = int(rng.integers(1, 13))
        Ts = PENDULUM_TS if k % 5 else rng.uniform(0.001, 0.1)
        got = rk4_step(state, u, Ts, substeps, params)
        want = reference_rk4_step(state, u, Ts, substeps, params)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), k


def test_rk4_squares_through_libm_pow():
    """phi_dot ** 2 is libm's pow, as in Python, not phi_dot * phi_dot.

    The two differ in the last bit for some doubles; at this step a build
    that folded pow(v, 2.0) into v * v got phi_dot wrong by 1.78e-15.
    """
    state = np.array([-0.3552964303205943, -3.73485342415824, -69.56966637577787])
    u = 18.82224538994916
    got = rk4_step(state, u, 0.02, 10, PendulumParams())
    want = reference_rk4_step(state, u, 0.02, 10, PendulumParams())
    assert got.tobytes() == want.tobytes()


def test_rk4_singular_configuration_raises():
    p = PendulumParams()
    singular = PendulumParams(I_yy=p.M_body * p.wheel_radius * p.L)
    with pytest.raises(SingularConfiguration, match="dynamics denominator") as got:
        rk4_step(np.array([np.pi, 0.0, 0.0]), 0.0, PENDULUM_TS, 10, singular)
    with pytest.raises(SingularConfiguration) as want:
        reference_rk4_step(np.array([np.pi, 0.0, 0.0]), 0.0, PENDULUM_TS, 10, singular)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "dynamics denominator 0.000e+00 at phi=3.141593"


def test_rk4_non_finite_values_propagate_like_numpy(problem, offline):
    """An overflowing or infinite state gives the numpy form's NaN and
    infinities (Python floats raised OverflowError or ValueError there); a
    closed loop then aborts at its next solve."""
    for state in ([0.0, 1e200, 0.0], [np.inf, 0.0, 0.0], [np.nan, 0.0, 1.0]):
        got = rk4_step(np.array(state), 0.0, PENDULUM_TS, 10, PendulumParams())
        with np.errstate(all="ignore"):
            want = reference_rk4_step(np.array(state), 0.0, PENDULUM_TS, 10, PendulumParams())
        assert not np.isfinite(got[:2]).any()
        np.testing.assert_array_equal(got, want)
    x0 = np.array([0.0, 1e200, 0.0])
    traj = closed_loop(problem, offline, SimConfig(steps=3), x0, np.zeros(4), warmstart=True)
    assert traj.aborted and len(traj.inputs) == 1


def test_rk4_state_needs_three_entries():
    for state in (np.zeros(2), np.zeros(4), [0.1, 0.2], np.zeros((2, 2))):
        with pytest.raises(DimensionMismatch, match="^state must be"):
            rk4_step(state, 0.0, PENDULUM_TS, 10, PendulumParams())


def test_rk4_input_needs_one_entry():
    """Not the first of several entries, as a two-entry input once gave."""
    for u in (np.zeros(2), np.zeros(0), [1.0, 2.0]):
        with pytest.raises(DimensionMismatch, match="^u must be"):
            rk4_step(np.zeros(3), u, PENDULUM_TS, 10, PendulumParams())


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


def reference_closed_loop(problem, offline, sim, x0, reference, warmstart):
    """closed_loop's steps from the numpy plant and warm start, with
    eadmm_solve and cold_start: (states, inputs, refs, iterations,
    residuals, certified)."""
    n, m, N = problem.n, problem.m, problem.N
    states, rows = [np.asarray(x0, dtype=float)], []
    prev = x_prev = None
    for k in range(sim.steps):
        x = scale_state(states[k], sim.scale)
        if warmstart and prev is not None:
            init = reference_warmstart_predict(prev, offline.warmstart, x_prev, x)
        else:
            init = cold_start(n, m, N)
        result = eadmm_solve(offline, problem, x, reference, init)
        u = unscale_input(result.u0, sim.scale)
        rows.append((u, result.xs_us, result.iterations, result.residual_inf, result.certified))
        states.append(reference_rk4_step(states[k], u, sim.Ts, sim.substeps, PendulumParams()))
        prev, x_prev = result, x
    inputs, refs, iters, residuals, certified = (np.array(column) for column in zip(*rows))
    return np.array(states), inputs, refs, iters, residuals, certified


@pytest.mark.parametrize("exit_test", EXIT_TESTS)
def test_closed_loop_bytes_match_reference_loop(problem, offline, benchmark_x0, exit_test):
    """50 warm and 50 cold steps at N = 12: states, inputs, artificial
    references, iterations, residuals and flags equal the reference loop's
    byte for byte."""
    config = replace(problem.config, exit_test=exit_test)
    target = validate_problem(problem.model, problem.costs, config, problem.rho)
    sim, r = SimConfig(steps=50), np.zeros(problem.n + problem.m)
    for warmstart in (True, False):
        traj = closed_loop(target, offline, sim, benchmark_x0, r, warmstart=warmstart)
        want = reference_closed_loop(target, offline, sim, benchmark_x0, r, warmstart)
        got = (
            traj.states, traj.inputs, traj.artificial_refs, traj.iterations, traj.residuals,
            traj.certified,
        )
        assert not traj.aborted
        names = ("states", "inputs", "refs", "iterations", "residuals", "certified")
        for name, a, b in zip(names, got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (name, warmstart)
            assert a.tobytes() == b.tobytes(), (name, warmstart)


RESULT_ARRAYS = ("z1", "z2", "z3", "lam", "u0", "xs_us")
OUTCOME = ("iterations", "residual_inf", "converged", "dual_residual", "certified")


def test_warm_loop_results_outlive_the_shared_scratch(
    problem, offline, benchmark_x0, zero_ref, monkeypatch
):
    """Results a caller keeps from a warm loop stay as they were returned.

    The solve is wrapped the way a step recorder wraps it: every (x, result)
    is kept, with copies of its arrays and its outcome taken at the time.
    Each result is the state the loop passed in. After 50 warm steps, all
    solved on the offline data's one scratch, every kept result equals its
    copies byte for byte, and no result array shares memory with a scratch
    buffer.
    """
    kept = []

    def keep(offline_data, problem, x, r, initial=None):
        result = eadmm_solve(offline_data, problem, x, r, initial)
        assert result is initial
        copies = {name: getattr(result, name).copy() for name in RESULT_ARRAYS}
        outcome = [np.float64(getattr(result, name)).tobytes() for name in OUTCOME]
        kept.append((x, x.copy(), result, copies, outcome))
        return result

    monkeypatch.setattr(pendulum, "eadmm_solve", keep)
    sim = SimConfig(steps=50)
    trajectory = closed_loop(problem, offline, sim, benchmark_x0, zero_ref, warmstart=True)
    assert len(kept) == 50 and not trajectory.aborted
    buffers = [getattr(offline.scratch, name) for name in Scratch.__slots__]
    odd = 0
    for k, (x, x_copy, result, copies, outcome) in enumerate(kept):
        assert x.tobytes() == x_copy.tobytes(), k
        for name, copy in copies.items():
            array = getattr(result, name)
            assert array.tobytes() == copy.tobytes(), (k, name)
            assert not any(np.shares_memory(array, b) for b in buffers), (k, name)
        assert [np.float64(getattr(result, name)).tobytes() for name in OUTCOME] == outcome, k
        odd += result.iterations % 2
    assert 0 < odd < 50  # both buffer parities occur along the chain


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


def test_warmstart_without_gain_is_a_typed_error(problem):
    """Offline data built without the gain cannot warmstart; nothing is simulated."""
    data = build_offline(problem, with_warmstart=False)
    with pytest.raises(MissingWarmstartGain, match="warmstart gain"):
        closed_loop(problem, data, SimConfig(steps=3), np.zeros(3), np.zeros(4), warmstart=True)
    traj = closed_loop(problem, data, SimConfig(steps=3), np.zeros(3), np.zeros(4))
    assert len(traj.inputs) == 3 and not traj.aborted


def test_unallocatable_trajectory_is_a_config_error(problem, offline):
    """A simulation of 2**59 steps, whose record no address space holds, is
    a ConfigError on sim.steps before any step, not numpy's ValueError."""
    with pytest.raises(ConfigError, match="cannot allocate") as exc:
        closed_loop(problem, offline, SimConfig(steps=2**59), np.zeros(3), np.zeros(4))
    assert exc.value.field == "sim.steps"


def test_pendulum_problem_bounds():
    p = pendulum_problem()
    np.testing.assert_allclose(p.model.x_ub, [np.pi / 8, np.inf, 3.0])
    np.testing.assert_allclose(p.model.u_ub, [4.5])
    np.testing.assert_allclose(p.costs.Q_diag, 5.0)
    assert p.costs.S[0, 0] == 0.125
