"""Online iteration tests: each sparse operation against dense algebra."""

from dataclasses import replace

import numpy as np
import pytest

from mpct_eadmm import dense
from mpct_eadmm.errors import DimensionMismatch, NumericalBreakdown
from mpct_eadmm.solver import (
    banded_forward_backward,
    cold_start,
    compute_residual,
    dual_residual,
    eadmm_solve,
    solve_qp1,
    solve_qp2,
    solve_qp3,
    update_duals,
)
from mpct_eadmm.offline import build_offline, factor_block_tridiagonal
from mpct_eadmm.pendulum import pendulum_problem
from mpct_eadmm.problem import (
    CostWeights,
    MpctConfig,
    SystemModel,
    build_rho,
    validate_problem,
)


def random_state(rng, problem):
    state = cold_start(problem.n, problem.m, problem.N)
    state.z1 = rng.standard_normal(state.z1.shape)
    state.z2 = rng.standard_normal(state.z2.shape)
    state.z3 = rng.standard_normal(state.z3.shape)
    state.lam = rng.standard_normal(state.lam.shape)
    state.lam[problem.n :, 0] = 0.0
    return state


def dense_problem(problem, x, r):
    return dense.assemble_dense(
        problem.model, problem.costs, problem.rho, problem.N, x, r
    )


def test_cold_start_all_zero():
    state = cold_start(3, 1, 12)
    for arr in (state.z1, state.z2, state.z3, state.lam, state.gamma):
        assert not arr.any()
    assert state.iterations == 0


def test_qp1_zero_fixed_point(problem, offline):
    state = cold_start(problem.n, problem.m, problem.N)
    solve_qp1(state, offline, problem.rho, np.zeros(problem.n))
    assert not state.z1.any()


def test_qp1_tiny_instance_first_column():
    """Unconstrained first-column optimum pulls halfway toward the measured state."""
    model = SystemModel(
        A=np.array([[1.0]]),
        B=np.array([[1.0]]),
        x_lb=np.array([-5.0]),
        x_ub=np.array([5.0]),
        u_lb=np.array([-1.0]),
        u_ub=np.array([1.0]),
    )
    costs = CostWeights(Q_diag=np.ones(1), R_diag=np.ones(1), T=np.eye(1), S=np.eye(1))
    config = MpctConfig(N=2)
    rho = build_rho(model, config, 2.0, 2.0)
    problem = validate_problem(model, costs, config, rho)
    offline = build_offline(problem, with_warmstart=False)
    state = cold_start(1, 1, 2)
    solve_qp1(state, offline, rho, np.array([10.0]))
    np.testing.assert_allclose(state.z1[:, 0], [5.0, 0.0], atol=1e-14)


def test_qp1_saturates_at_bounds(problem, offline):
    rng = np.random.default_rng(0)
    state = random_state(rng, problem)
    state.lam *= 1e6  # push the unconstrained optimum far outside the boxes
    solve_qp1(state, offline, problem.rho, np.zeros(problem.n))
    assert np.all(state.z1[:, 1:-1] >= offline.z_lb[:, None] - 0.0)
    assert np.all(state.z1[:, 1:-1] <= offline.z_ub[:, None] + 0.0)
    assert np.all(state.z1[:, -1] >= offline.z_lb_s)
    assert np.all(state.z1[:, -1] <= offline.z_ub_s)


def test_qp2_zero_inputs(problem, offline):
    state = cold_start(problem.n, problem.m, problem.N)
    solve_qp2(state, offline, problem.rho, np.zeros(problem.n + problem.m))
    assert not state.z2.any()


def test_qp2_matches_dense_minimizer(problem, offline):
    rng = np.random.default_rng(1)
    x = np.zeros(problem.n)
    r = np.zeros(problem.n + problem.m)
    dp = dense_problem(problem, x, r)
    ts_r = np.zeros(problem.n + problem.m)
    worst_dev = worst_sub = 0.0
    for _ in range(100):
        state = random_state(rng, problem)
        solve_qp2(state, offline, problem.rho, ts_r)
        z1 = state.z1.flatten(order="F")
        z3 = state.z3.flatten(order="F")
        lam = dense.pack_duals(state.lam, problem.n, problem.m, problem.N)
        q2 = dp.q2_lin + dp.A2.T @ (dp.rho_full * (dp.A1 @ z1 + dp.A3 @ z3 - dp.b))
        q2 += dp.A2.T @ lam
        z2_ref, _ = dense.prop1_solve(dp.H2, q2, dp.G2, np.zeros(dp.G2.shape[0]))
        worst_dev = max(worst_dev, np.abs(state.z2 - z2_ref).max())
        worst_sub = max(worst_sub, np.abs(dp.G2 @ state.z2).max())
    assert worst_dev <= 1e-10
    assert worst_sub <= 1e-9


def test_qp3_zero_inputs(problem, offline):
    state = cold_start(problem.n, problem.m, problem.N)
    AB = np.hstack([problem.model.A, problem.model.B])
    solve_qp3(state, offline, problem.rho, AB)
    # With q3 = 0 the state part of z3 is -H3_inv times the Schur multiplier,
    # so z3 = 0 also says the banded solve returned zero.
    assert not state.z3.any()


def test_qp3_matches_dense_kkt(problem, offline):
    rng = np.random.default_rng(2)
    dp = dense_problem(problem, np.zeros(problem.n), np.zeros(problem.n + problem.m))
    AB = np.hstack([problem.model.A, problem.model.B])
    worst_dev = worst_feas = 0.0
    for _ in range(100):
        state = random_state(rng, problem)
        solve_qp3(state, offline, problem.rho, AB)
        z1 = state.z1.flatten(order="F")
        lam = dense.pack_duals(state.lam, problem.n, problem.m, problem.N)
        q3 = dp.A3.T @ (dp.rho_full * (dp.A1 @ z1 + dp.A2 @ state.z2 - dp.b))
        q3 += dp.A3.T @ lam
        z3_ref, _ = dense.prop1_solve(dp.H3, q3, dp.G3, np.zeros(dp.G3.shape[0]))
        z3 = state.z3.flatten(order="F")
        worst_dev = max(worst_dev, np.abs(z3 - z3_ref).max())
        worst_feas = max(worst_feas, np.abs(dp.G3 @ z3).max())
    assert worst_dev <= 1e-9
    assert worst_feas <= 1e-8


def test_banded_forward_backward_identity():
    alphas = [np.zeros((2, 2)) for _ in range(3)]
    beta_hats = [np.eye(2) for _ in range(4)]
    c = np.arange(8, dtype=float).reshape(2, 4, order="F")
    z = banded_forward_backward(alphas, beta_hats, c)
    np.testing.assert_allclose(z, c, atol=1e-15)


def test_banded_forward_backward_small_tridiagonal():
    W = np.array([[2.0, -1.0], [-1.0, 2.0]])
    alphas, beta_hats = factor_block_tridiagonal(
        [W[:1, :1], W[1:, 1:]], [W[:1, 1:]]
    )
    c = np.array([[1.0, 0.0]])
    z = banded_forward_backward(alphas, beta_hats, c)
    np.testing.assert_allclose(z.ravel(), [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_residual_matches_dense(problem, offline):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(problem.n)
    dp = dense_problem(problem, x, np.zeros(problem.n + problem.m))
    for _ in range(20):
        state = random_state(rng, problem)
        gamma, res = compute_residual(state, offline, x)
        z1 = state.z1.flatten(order="F")
        z3 = state.z3.flatten(order="F")
        ref = dp.A1 @ z1 + dp.A2 @ state.z2 + dp.A3 @ z3 - dp.b
        packed = dense.pack_duals(gamma, problem.n, problem.m, problem.N)
        assert np.abs(packed - ref).max() <= 1e-14
        assert abs(res - np.abs(ref).max()) <= 1e-14
        assert not gamma[problem.n :, 0].any()


def test_residual_zero_cases(problem, offline):
    state = cold_start(problem.n, problem.m, problem.N)
    _, res = compute_residual(state, offline, np.zeros(problem.n))
    assert res == 0.0
    # feasible point: z1 columns consistent with z2 + z3 and the terminal tie
    rng = np.random.default_rng(4)
    state.z2 = rng.standard_normal(problem.n + problem.m)
    state.z3 = rng.standard_normal(state.z3.shape)
    state.z3[:, -1] = 0.0
    state.z1 = state.z2[:, None] + state.z3
    _, res = compute_residual(state, offline, state.z1[: problem.n, 0])
    assert res <= 1e-15


def test_dual_residual_matches_dense(problem):
    rng = np.random.default_rng(8)
    n, m, N = problem.n, problem.m, problem.N
    x = rng.uniform(-0.3, 0.3, n)
    r = rng.standard_normal(n + m)
    dp = dense_problem(problem, x, r)
    it = dense.dense_iterate_zero(dp)
    rho = dp.rho_full
    for k in range(40):
        nxt = dense.dense_eadmm_step(dp, it)
        if k % 8 == 7:
            dz2, dz3 = nxt.z2 - it.z2, nxt.z3 - it.z3
            ref = max(
                np.abs(dp.A1.T @ (rho * (dp.A2 @ dz2 + dp.A3 @ dz3))).max(),
                np.abs(dp.A2.T @ (rho * (dp.A3 @ dz3))).max(),
            )
            state = cold_start(n, m, N)
            state.z2 = nxt.z2
            state.z3 = nxt.z3.reshape(n + m, N + 1, order="F")
            prev_z3 = it.z3.reshape(n + m, N + 1, order="F")
            got = dual_residual(it.z2, prev_z3, state, problem.rho)
            assert ref > 0.0
            assert abs(got - ref) <= 1e-10
        it = nxt


def test_primal_exit_stops_earlier_on_the_same_iterates(problem, offline):
    x = np.array([0.1, -0.2, 1.0])
    r = np.zeros(problem.n + problem.m)

    def with_config(**kw):
        return validate_problem(
            problem.model, problem.costs, replace(problem.config, **kw), problem.rho
        )

    full = eadmm_solve(offline, problem, x, r)
    plain = eadmm_solve(offline, with_config(exit_test="primal"), x, r)
    assert plain.converged and plain.residual_inf <= problem.config.epsilon
    assert plain.dual_residual > problem.config.epsilon and not plain.certified
    assert plain.iterations < full.iterations
    # Capped where the primal test stopped, the default test has walked the
    # same iterates but does not report convergence.
    capped = eadmm_solve(offline, with_config(max_iter=plain.iterations), x, r)
    assert not capped.converged and not capped.certified
    assert capped.dual_residual == plain.dual_residual
    for name in ("z1", "z2", "z3", "lam"):
        assert np.array_equal(getattr(capped, name), getattr(plain, name))


def test_update_duals(problem, offline):
    rng = np.random.default_rng(5)
    state = random_state(rng, problem)
    state.gamma = rng.standard_normal(state.gamma.shape)
    state.gamma[problem.n :, 0] = 0.0
    lam_before = state.lam.copy()
    update_duals(state, problem.rho)
    n, N = problem.n, problem.N
    delta = state.lam - lam_before
    np.testing.assert_allclose(delta[:n, 0], problem.rho.rho0 * state.gamma[:n, 0], atol=1e-14)
    np.testing.assert_allclose(
        delta[:, 1 : N + 2], problem.rho.rho_hat * state.gamma[:, 1 : N + 2], atol=1e-14
    )
    np.testing.assert_allclose(
        delta[:, N + 2], problem.rho.rho_s * state.gamma[:, N + 2], atol=1e-14
    )
    assert not state.lam[n:, 0].any()
    state.gamma[:] = 0.0
    lam_before = state.lam.copy()
    update_duals(state, problem.rho)
    assert np.array_equal(state.lam, lam_before)


def test_eadmm_solve_converges_and_extracts(problem, offline):
    x = np.array([0.0, 0.0, 1.0])
    r = np.zeros(problem.n + problem.m)
    result = eadmm_solve(offline, problem, x, r)
    assert result.converged and result.certified
    assert result.residual_inf <= problem.config.epsilon
    assert result.dual_residual <= problem.config.epsilon
    assert np.array_equal(result.u0, result.z1[problem.n :, 0])
    assert np.array_equal(result.xs_us, result.z2)
    assert result.metadata["rho_exceeds_bound"] is True
    # box feasibility of the returned trajectory block
    assert np.all(result.z1[:, 1:-1] >= offline.z_lb[:, None])
    assert np.all(result.z1[:, 1:-1] <= offline.z_ub[:, None])


def test_eadmm_solve_steady_state_fixed_point(problem, offline):
    xs = np.array([0.0, 0.0, 0.5])
    r = np.concatenate([xs, np.zeros(problem.m)])
    result = eadmm_solve(offline, problem, xs, r)
    assert result.converged
    assert np.abs(result.xs_us[: problem.n] - xs).max() <= 1e-2


def test_eadmm_solve_not_converged_flag(problem):
    capped = validate_problem(
        problem.model, problem.costs, MpctConfig(N=12, epsilon=1e-12, max_iter=5), problem.rho
    )
    offline = build_offline(capped, with_warmstart=False)
    result = eadmm_solve(offline, capped, np.array([0.0, 0.0, 1.0]), np.zeros(4))
    assert not result.converged
    assert result.iterations == 5


def test_eadmm_solve_dimension_checks(problem, offline):
    with pytest.raises(DimensionMismatch):
        eadmm_solve(offline, problem, np.zeros(2), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        eadmm_solve(offline, problem, np.zeros(3), np.zeros(3))


def test_eadmm_solve_rejects_mismatched_offline_and_initial(problem, offline):
    short = build_offline(pendulum_problem(N=5), with_warmstart=False)
    with pytest.raises(DimensionMismatch, match="offline"):
        eadmm_solve(short, problem, np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionMismatch, match="initial"):
        eadmm_solve(offline, problem, np.zeros(3), np.zeros(4), initial=cold_start(3, 1, 5))


def test_eadmm_solve_numerical_breakdown(problem, offline):
    state = cold_start(problem.n, problem.m, problem.N)
    state.z2[:] = np.nan
    with pytest.raises(NumericalBreakdown):
        eadmm_solve(offline, problem, np.zeros(3), np.zeros(4), initial=state)
