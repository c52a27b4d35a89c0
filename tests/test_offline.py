"""Offline precomputation tests against dense reference algebra."""

import numpy as np
import pytest

from mpct_eadmm import dense
from mpct_eadmm.errors import FactorizationFailure, RankDeficientG2
from mpct_eadmm.offline import (
    build_offline,
    cholesky_band,
    compute_banded_cholesky,
    compute_h1_inverse,
    compute_h3_inverse,
    compute_m2,
    compute_rho_upper_bound,
    compute_warmstart_gain,
    factor_block_tridiagonal,
)
from mpct_eadmm.problem import CostWeights, PenaltyParams, SystemModel
from mpct_eadmm.solver import SolverState, warmstart_predict
from mpct_eadmm.pendulum import pendulum_problem


def uniform_rho(n, m, N, value):
    return PenaltyParams(
        rho0=np.full(n, value),
        rho_s=np.full(n + m, value),
        rho_hat=np.full((n + m, N + 1), value),
    )


def dense_diag_column_block(H, nm, N):
    return np.diag(H).reshape(nm, N + 1, order="F")


def test_h1_inverse_small_uniform():
    rho = uniform_rho(1, 1, 2, 2.0)
    H1_inv = compute_h1_inverse(rho)
    expected = np.array([[0.25, 0.5, 0.25], [0.5, 0.5, 0.25]])
    np.testing.assert_allclose(H1_inv, expected, rtol=0, atol=1e-15)


def test_h1_inverse_interior_columns_uniform():
    rho = uniform_rho(2, 1, 6, 7.0)
    H1_inv = compute_h1_inverse(rho)
    assert np.all(H1_inv[:, 1:6] == 1.0 / 7.0)


def test_h1_h3_inverse_match_dense_diagonal(problem):
    nm, N = problem.n + problem.m, problem.N
    dp = dense.assemble_dense(
        problem.model, problem.costs, problem.rho, N, np.zeros(3), np.zeros(4)
    )
    h1 = dense_diag_column_block(dp.H1, nm, N)
    h3 = dense_diag_column_block(dp.H3, nm, N)
    H1_inv = compute_h1_inverse(problem.rho)
    H3_inv = compute_h3_inverse(problem.costs, problem.rho)
    # reciprocal consistency: elementwise product with the dense diagonal is 1
    np.testing.assert_allclose(H1_inv * h1, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(H3_inv * h3, 1.0, rtol=0, atol=1e-12)


def test_h3_inverse_arithmetic(problem):
    H3_inv = compute_h3_inverse(problem.costs, problem.rho)
    # interior columns carry the base penalty 20
    expected = np.array([1 / 25.0, 1 / 25.0, 1 / 25.0, 1 / 20.025])
    np.testing.assert_allclose(H3_inv[:, 4], expected, rtol=0, atol=1e-15)


def test_m2_identities(problem):
    model = problem.model
    M2 = compute_m2(model, problem.costs, problem.rho)
    G2 = np.hstack([model.A - np.eye(model.n), model.B])
    assert np.abs(G2 @ M2).max() <= 1e-10
    assert np.abs(M2 - M2.T).max() <= 1e-12


def test_m2_solves_reference_subproblem(problem):
    """z2 = M2 q2 is the exact minimizer over the steady-state subspace."""
    model, costs, rho = problem.model, problem.costs, problem.rho
    n, m = model.n, model.m
    M2 = compute_m2(model, costs, rho)
    H2 = np.zeros((n + m, n + m))
    H2[:n, :n] = costs.T
    H2[n:, n:] = costs.S
    H2 += np.diag(rho.rho_hat.sum(axis=1) + rho.rho_s)
    G2 = np.hstack([model.A - np.eye(n), model.B])
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        q2 = rng.standard_normal(n + m)
        z2 = M2 @ q2
        g = H2 @ z2 + q2
        mu, *_ = np.linalg.lstsq(G2.T, -g, rcond=None)
        worst = max(worst, np.abs(g + G2.T @ mu).max(), np.abs(G2 @ z2).max())
    assert worst <= 1e-9


def test_m2_rank_deficient():
    model = SystemModel(
        A=np.eye(2),
        B=np.array([[1.0], [0.0]]),
        x_lb=-np.ones(2),
        x_ub=np.ones(2),
        u_lb=-np.ones(1),
        u_ub=np.ones(1),
    )
    costs = CostWeights(Q_diag=np.ones(2), R_diag=np.ones(1), T=np.eye(2), S=np.eye(1))
    rho = uniform_rho(2, 1, 4, 1.0)
    with pytest.raises(RankDeficientG2):
        compute_m2(model, costs, rho)


def test_banded_cholesky_tridiagonal_case():
    """With B = 0 and unit inverse diagonal the Schur matrix is tridiag(-1,2,-1)."""
    N = 6
    model = SystemModel(
        A=np.array([[1.0]]),
        B=np.array([[0.0]]),
        x_lb=np.array([-1.0]),
        x_ub=np.array([1.0]),
        u_lb=np.array([-1.0]),
        u_ub=np.array([1.0]),
    )
    H3_inv = np.ones((2, N + 1))
    alphas, beta_hats = compute_banded_cholesky(model, H3_inv, N)
    W = 2.0 * np.eye(N) - np.eye(N, k=1) - np.eye(N, k=-1)
    C = np.linalg.cholesky(W).T
    for k in range(N):
        assert abs(1.0 / beta_hats[k][0, 0] - C[k, k]) <= 1e-12
        if k < N - 1:
            assert abs(alphas[k][0, 0] - C[k, k + 1]) <= 1e-12


def test_banded_cholesky_reconstruction(problem, offline):
    n, m, N = problem.n, problem.m, problem.N
    dp = dense.assemble_dense(
        problem.model, problem.costs, problem.rho, N, np.zeros(n), np.zeros(n + m)
    )
    W = dp.G3 @ np.linalg.solve(dp.H3, dp.G3.T)
    Wc = np.zeros((N * n, N * n))
    for k in range(N):
        block = offline.beta_hats[k].copy()
        np.fill_diagonal(block, 1.0 / np.diag(block))
        Wc[k * n : (k + 1) * n, k * n : (k + 1) * n] = block
        if k < N - 1:
            Wc[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = offline.alphas[k]
    err = np.linalg.norm(Wc.T @ Wc - W) / np.linalg.norm(W)
    assert err <= 1e-10


def test_banded_cholesky_shapes_minimum_horizon(problem):
    H3_inv = compute_h3_inverse(problem.costs, problem.rho)[:, :3]
    alphas, beta_hats = compute_banded_cholesky(problem.model, H3_inv, 2)
    assert len(alphas) == 1 and len(beta_hats) == 2


def test_cholesky_band_matches_dense_factor():
    """The derived band is the dense Cholesky factor in LAPACK upper band storage."""
    rng = np.random.default_rng(23)
    dims = [(1, 1, 2), (1, 3, 6), (2, 3, 2), (3, 1, 12)]
    dims += [
        (int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 15)))
        for _ in range(8)
    ]
    for n, m, N in dims:
        model = SystemModel(
            A=rng.standard_normal((n, n)),
            B=rng.standard_normal((n, m)),
            x_lb=-np.ones(n),
            x_ub=np.ones(n),
            u_lb=-np.ones(m),
            u_ub=np.ones(m),
        )
        costs = CostWeights(
            Q_diag=rng.uniform(0.01, 10, n),
            R_diag=rng.uniform(0.01, 10, m),
            T=_random_spd(rng, n),
            S=_random_spd(rng, m),
        )
        rho = _random_rho(rng, n, m, N)
        H3_inv = compute_h3_inverse(costs, rho)
        band = cholesky_band(*compute_banded_cholesky(model, H3_inv, N))
        dp = dense.assemble_dense(model, costs, rho, N, np.zeros(n), np.zeros(n + m))
        U = np.linalg.cholesky(dp.G3 @ np.linalg.solve(dp.H3, dp.G3.T)).T
        kd = 2 * n - 1
        expected = np.zeros((kd + 1, N * n))
        for j in range(N * n):
            for i in range(max(0, j - kd), j + 1):
                expected[kd + i - j, j] = U[i, j]
        assert band.shape == expected.shape
        assert np.abs(band - expected).max() <= 1e-12 * np.abs(U).max(), (n, m, N)


def test_factorization_failure_on_indefinite_blocks():
    diag = [np.array([[1.0]]), np.array([[-5.0]])]
    off = [np.array([[0.1]])]
    with pytest.raises(FactorizationFailure):
        factor_block_tridiagonal(diag, off)


def test_rho_upper_bound_values(problem):
    assert abs(compute_rho_upper_bound(problem.costs) - 6.0 * 0.025 / 17.0) <= 1e-12
    unit = CostWeights(Q_diag=np.ones(2), R_diag=np.ones(1), T=np.eye(2), S=np.eye(1))
    assert abs(compute_rho_upper_bound(unit) - 6.0 / 17.0) <= 1e-15
    bigger = CostWeights(
        Q_diag=np.ones(2) * 2, R_diag=np.ones(1) * 3, T=np.eye(2), S=np.eye(1)
    )
    assert compute_rho_upper_bound(bigger) >= compute_rho_upper_bound(unit)


def test_rho_exceeds_bound_flag(problem, offline):
    assert offline.rho_exceeds_bound is True
    low = pendulum_problem(rho_base=1e-3, rho_boosted=1e-3)
    assert build_offline(low, with_warmstart=False).rho_exceeds_bound is False


def _random_spd(rng, k):
    G = rng.standard_normal((k, k))
    M = G @ G.T + 0.1 * np.eye(k)
    return 0.5 * (M + M.T)


def _random_rho(rng, n, m, N):
    return PenaltyParams(
        rho0=rng.uniform(0.1, 50, n),
        rho_s=rng.uniform(0.1, 50, n + m),
        rho_hat=rng.uniform(0.1, 50, (n + m, N + 1)),
    )


def assert_gain_close(gain, rows, bound):
    for name in ("P_z2", "P_z3_head", "P_lambda_head"):
        assert np.abs(getattr(gain, name) - getattr(rows, name)).max() <= bound, name


def test_warmstart_gain_support(oracle_gain):
    """The closed-form gain is the oracle's support, for any rho and horizon."""
    rng = np.random.default_rng(17)
    dims = [(3, 1, 2), (1, 3, 5), (2, 3, 2)]
    dims += [
        (int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 15)))
        for _ in range(9)
    ]
    for n, m, N in dims:
        model = SystemModel(
            A=rng.standard_normal((n, n)),
            B=rng.standard_normal((n, m)),
            x_lb=-np.ones(n),
            x_ub=np.ones(n),
            u_lb=-np.ones(m),
            u_ub=np.ones(m),
        )
        costs = CostWeights(
            Q_diag=rng.uniform(0.01, 10, n),
            R_diag=rng.uniform(0.01, 10, m),
            T=_random_spd(rng, n),
            S=_random_spd(rng, m),
        )
        gain = compute_warmstart_gain(costs)
        for horizon in (N, N + 3):
            for _ in range(2):
                rho = _random_rho(rng, n, m, horizon)
                P, rows, off_support = oracle_gain(model, costs, rho, horizon)
                assert_gain_close(gain, rows, 1e-10 * max(1.0, np.abs(P).max()))
                assert off_support <= 1e-9


def test_warmstart_gain_pendulum_horizons(oracle_gain):
    for N in (2, 12, 100):
        prob = pendulum_problem(N=N)
        P, rows, _ = oracle_gain(prob.model, prob.costs, prob.rho, N)
        gain = build_offline(prob).warmstart
        assert_gain_close(gain, rows, 1e-10 * max(1.0, np.abs(P).max()))


def test_warmstart_reduced_matches_full(problem, offline, oracle_gain):
    """The reduced-row update reproduces the full-gain update."""
    n, m, N = problem.n, problem.m, problem.N
    nm, nz = n + m, (N + 1) * (n + m)
    full, _, off_support = oracle_gain(problem.model, problem.costs, problem.rho, N)
    rng = np.random.default_rng(5)
    prev = _random_result(rng, n, m, N)
    for _ in range(100):
        dx = rng.standard_normal(n)
        state = warmstart_predict(prev, offline, np.zeros(n), dx)
        z2_full = prev.z2 - full[nz : nz + nm] @ dx
        z3_full = prev.z3.flatten(order="F") - full[nz + nm : 2 * nz + nm] @ dx
        lam_full = dense.pack_duals(prev.lam, n, m, N) - full[2 * nz + nm :] @ dx
        # the two updates differ exactly by the (numerically zero) rows
        # outside the declared support
        tol = 1e-12 + off_support * np.abs(dx).sum()
        assert np.abs(state.z2 - z2_full).max() <= tol
        assert np.abs(state.z3.flatten(order="F") - z3_full).max() <= tol
        assert np.abs(dense.pack_duals(state.lam, n, m, N) - lam_full).max() <= tol


def _random_result(rng, n, m, N):
    nm = n + m
    lam = rng.standard_normal((nm, N + 3))
    lam[n:, 0] = 0.0
    z1 = rng.standard_normal((nm, N + 1))
    return SolverState(
        z1=z1,
        z2=rng.standard_normal(nm),
        z3=rng.standard_normal((nm, N + 1)),
        lam=lam,
        iterations=1,
        residual_inf=0.0,
        converged=True,
        u0=z1[n:, 0].copy(),
        xs_us=np.zeros(nm),
    )


def test_warmstart_zero_displacement(problem, offline):
    rng = np.random.default_rng(9)
    prev = _random_result(rng, problem.n, problem.m, problem.N)
    state = warmstart_predict(prev, offline, np.ones(3), np.ones(3))
    assert np.array_equal(state.z1, prev.z1)
    assert np.array_equal(state.z2, prev.z2)
    assert np.array_equal(state.z3, prev.z3)
    assert np.array_equal(state.lam, prev.lam)


def test_scalar_count_affine_in_horizon(problem):
    counts = {}
    for N in (5, 10, 20, 40):
        prob = pendulum_problem(N=N)
        counts[N] = build_offline(prob, with_warmstart=False).scalar_count()
    a = (counts[10] - counts[5]) // 5
    b = counts[5] - 5 * a
    for N, c in counts.items():
        assert c == a * N + b


@pytest.mark.parametrize("N", [2, 12, 100])
def test_boxes_are_the_three_stored_columns(N):
    """box_lb and box_ub are C-ordered (n+m) x 3 at every horizon: stage 0
    with unbounded state rows, stages 1 to N - 1, and the tightened stage N.
    Spread over the stages they are the dense oracle's per-stage bounds."""
    problem = pendulum_problem(N=N)
    model, n = problem.model, problem.n
    offline = build_offline(problem, with_warmstart=False)
    free = np.full(n, np.inf)
    want_lb = [
        np.concatenate([-free, model.u_lb]),
        np.concatenate([model.x_lb, model.u_lb]),
        np.concatenate([model.x_lb + model.eps_x, model.u_lb + model.eps_u]),
    ]
    want_ub = [
        np.concatenate([free, model.u_ub]),
        np.concatenate([model.x_ub, model.u_ub]),
        np.concatenate([model.x_ub - model.eps_x, model.u_ub - model.eps_u]),
    ]
    dp = dense.assemble_dense(
        model, problem.costs, problem.rho, N, np.zeros(n), np.zeros(n + problem.m)
    )
    sides = ((offline.box_lb, want_lb, dp.z1_lb), (offline.box_ub, want_ub, dp.z1_ub))
    for box, want, spread in sides:
        assert box.shape == (n + problem.m, 3) and box.flags.c_contiguous
        for col, column in enumerate(want):
            assert box[:, col].tobytes() == column.tobytes(), col
        stages = np.repeat(box, [1, N - 1, 1], axis=1)
        assert stages.flatten(order="F").tobytes() == spread.tobytes()
