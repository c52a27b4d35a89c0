"""Acceptance suite: one criterion per test, one pass/fail line each.

Each test prints a single summary line with the measured quantity and the
required bound before asserting, so the run log doubles as the acceptance
report.
"""

import time

import numpy as np

from mpct_eadmm import dense
from mpct_eadmm.compare import interleaved_max_deviation, sample_states
from mpct_eadmm.offline import (
    build_offline,
    cholesky_band,
    compute_rho_upper_bound,
    factor_block_tridiagonal,
)
from mpct_eadmm.pendulum import (
    PENDULUM_A,
    PENDULUM_B,
    PENDULUM_TS,
    PendulumParams,
    pendulum_problem,
    rk4_step,
)
from mpct_eadmm.problem import MpctConfig, PenaltyParams, validate_problem
from mpct_eadmm.solver import banded_forward_backward, eadmm_solve


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_sparse_dense_equivalence(problem, offline, zero_ref):
    rng = np.random.default_rng(2024)
    states = sample_states(problem.model, rng, 20)
    t0 = time.perf_counter()
    worst = max(
        interleaved_max_deviation(problem, offline, x, zero_ref, iterations=50)
        for x in states
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(
        1,
        "sparse/dense equivalence",
        ok,
        f"max deviation {worst:.3e} (<= 1e-10), runtime {elapsed:.1f}s (< 30s)",
    )
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_solution_quality(problem, offline, zero_ref):
    rng = np.random.default_rng(7)
    states = sample_states(problem.model, rng, 50)
    n, m, N = problem.n, problem.m, problem.N
    worst_kkt = worst_cong = 0.0
    for x in states:
        result = eadmm_solve(offline, problem, x, zero_ref)
        assert result.converged
        dp = dense.assemble_dense(problem.model, problem.costs, problem.rho, N, x, zero_ref)
        kkt = dense.kkt_residual(
            dp,
            result.z1.flatten(order="F"),
            result.z2,
            result.z3.flatten(order="F"),
            dense.pack_duals(result.lam, n, m, N),
        )
        cong = np.abs(result.z2[:, None] + result.z3 - result.z1).max()
        worst_kkt = max(worst_kkt, kkt)
        worst_cong = max(worst_cong, cong)
    ok = worst_kkt <= 1e-3 and worst_cong <= 1e-4
    report(
        2,
        "solution quality",
        ok,
        f"max KKT residual {worst_kkt:.3e} (<= 1e-3), "
        f"max congruence error {worst_cong:.3e} (<= 1e-4), 50 states",
    )
    assert worst_cong <= 1e-4
    assert worst_kkt <= 1e-3


def test_criterion_3a_first_input_saturates(warm_trajectory, cold_trajectory):
    u_warm = float(warm_trajectory.inputs[0][0])
    u_cold = float(cold_trajectory.inputs[0][0])
    err = max(abs(u_warm - 90.0), abs(u_cold - 90.0))
    ok = err <= 1e-6
    report(
        "3a",
        "first input saturates",
        ok,
        f"first applied input {u_cold:.9f} physical, deviation from 90: {err:.3e} (<= 1e-6)",
    )
    assert err <= 1e-6


def test_criterion_3b_state_convergence(warm_trajectory):
    final = np.abs(np.asarray(warm_trajectory.states)[-1]).max()
    ok = final <= 1e-2
    report(
        "3b",
        "state convergence",
        ok,
        f"final state inf-norm {final:.3e} after 250 steps (<= 1e-2)",
    )
    assert final <= 1e-2


def test_criterion_3c_warmstart_indistinguishable(warm_trajectory, cold_trajectory):
    state_dev = np.abs(
        np.asarray(warm_trajectory.states) - np.asarray(cold_trajectory.states)
    ).max()
    input_dev = np.abs(
        np.asarray(warm_trajectory.inputs) - np.asarray(cold_trajectory.inputs)
    ).max()
    worst = max(state_dev, input_dev)
    ok = worst <= 1e-6
    report(
        "3c",
        "warm/cold trajectory agreement",
        ok,
        f"max per-step deviation {worst:.3e} (states {state_dev:.3e}, "
        f"inputs {input_dev:.3e}; <= 1e-6)",
    )
    assert worst <= 1e-6


def test_criterion_4_warmstart_benefit(
    problem, offline, warm_trajectory, cold_trajectory, oracle_gain
):
    warm_total = int(np.sum(warm_trajectory.iterations))
    cold_total = int(np.sum(cold_trajectory.iterations))
    P, rows, support = oracle_gain(problem.model, problem.costs, problem.rho, problem.N)
    gain_bound = 1e-10 * max(1.0, float(np.abs(P).max()))
    gain_err = max(
        float(np.abs(getattr(offline.warmstart, name) - getattr(rows, name)).max())
        for name in ("P_z2", "P_z3_head", "P_lambda_head")
    )
    ok = warm_total <= cold_total and support <= 1e-9 and gain_err <= gain_bound
    report(
        4,
        "warmstart benefit",
        ok,
        f"total iterations {warm_total} warm <= {cold_total} cold; "
        f"oracle gain support residual {support:.3e} (<= 1e-9); "
        f"gain vs oracle {gain_err:.3e} (<= {gain_bound:.1e})",
    )
    assert warm_total <= cold_total
    assert support <= 1e-9
    assert gain_err <= gain_bound


def test_criterion_5_memory_linearity():
    horizons = (5, 10, 20, 40)
    counts = {
        N: build_offline(pendulum_problem(N=N), with_warmstart=False).scalar_count()
        for N in horizons
    }
    a = (counts[10] - counts[5]) // 5
    b = counts[5] - 5 * a
    residual = max(abs(counts[N] - (a * N + b)) for N in horizons)
    ok = residual == 0
    report(
        5,
        "memory linearity",
        ok,
        f"counts {counts} fit {a}*N + {b} with residual {residual} (== 0)",
    )
    assert residual == 0


def test_criterion_6_rho_bound(problem, zero_ref):
    bound = compute_rho_upper_bound(problem.costs)
    value_err = abs(bound - 6.0 * 0.025 / 17.0)
    rho_val = 0.9 * bound
    n, m, N = problem.n, problem.m, problem.N
    rho = PenaltyParams(
        rho0=np.full(n, rho_val),
        rho_s=np.full(n + m, rho_val),
        rho_hat=np.full((n + m, N + 1), rho_val),
    )
    slow = validate_problem(
        problem.model, problem.costs, MpctConfig(N=N, epsilon=1e-4, max_iter=100000), rho
    )
    offline = build_offline(slow, with_warmstart=False)
    rng = np.random.default_rng(42)
    states = sample_states(problem.model, rng, 10)
    converged = [eadmm_solve(offline, slow, x, zero_ref).converged for x in states]
    ok = value_err <= 1e-12 and all(converged)
    report(
        6,
        "rho bound calculator",
        ok,
        f"bound error {value_err:.3e} (<= 1e-12); below-bound rho converged on "
        f"{sum(converged)}/10 states within 100000 iterations",
    )
    assert value_err <= 1e-12
    assert all(converged)


def test_criterion_7_banded_solver_property_suite():
    rng = np.random.default_rng(99)
    worst = 0.0
    cases = 0
    dims = [(n, N) for n in (1, 2, 3, 5) for N in (2, 5, 12, 30)]
    while cases < 100:
        n, N = dims[cases % len(dims)]
        diag, off = [], []
        for k in range(N):
            M = rng.standard_normal((n, n))
            diag.append(M @ M.T + (n + 2) * np.eye(n))
            if k < N - 1:
                off.append(0.3 * rng.standard_normal((n, n)))
        W = np.zeros((N * n, N * n))
        for k in range(N):
            W[k * n : (k + 1) * n, k * n : (k + 1) * n] = diag[k]
            if k < N - 1:
                W[k * n : (k + 1) * n, (k + 1) * n : (k + 2) * n] = off[k]
                W[(k + 1) * n : (k + 2) * n, k * n : (k + 1) * n] = off[k].T
        alphas, beta_hats = factor_block_tridiagonal(diag, off)
        c = rng.standard_normal((n, N))
        flat = c.flatten(order="F")  # overwritten by the solution
        z = banded_forward_backward(cholesky_band(alphas, beta_hats), flat).reshape(n, N, order="F")
        ref = np.linalg.solve(W, c.flatten(order="F")).reshape(n, N, order="F")
        rel = np.abs(z - ref).max() / max(1.0, np.abs(ref).max())
        worst = max(worst, rel)
        cases += 1
    ok = worst <= 1e-12
    report(
        7,
        "banded solver property suite",
        ok,
        f"worst relative error {worst:.3e} over {cases} random SPD systems (<= 1e-12)",
    )
    assert worst <= 1e-12


def test_criterion_8_integrator_order():
    params = PendulumParams()
    x0 = np.array([0.05, -0.1, 1.0])
    u = 1.0
    finest = rk4_step(x0, u, 0.1, 16, params)
    err_coarse = np.abs(rk4_step(x0, u, 0.1, 4, params) - finest).max()
    err_fine = np.abs(rk4_step(x0, u, 0.1, 8, params) - finest).max()
    ratio = err_coarse / err_fine
    scale = 20.0

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
    jac_err = max(np.abs(A_fd - PENDULUM_A).max(), np.abs(B_fd - PENDULUM_B).max())
    ok = ratio >= 12.0 and jac_err <= 5e-3
    report(
        8,
        "integrator order",
        ok,
        f"step-halving error ratio {ratio:.1f} (>= 12); "
        f"linearization deviation {jac_err:.2e} per entry (<= 5e-3)",
    )
    assert ratio >= 12.0
    assert jac_err <= 5e-3
