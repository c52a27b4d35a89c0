"""Online iteration tests: each sparse operation against dense algebra."""

import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrs

from mpct_eadmm import dense, kernel, solver
from mpct_eadmm.errors import (
    DimensionMismatch,
    MissingWarmstartGain,
    NumericalBreakdown,
    ProblemMismatch,
)
from mpct_eadmm.solver import (
    Scratch,
    SolverState,
    banded_forward_backward,
    cold_start,
    compute_residual,
    dual_residual,
    eadmm_solve,
    solve_qp1,
    solve_qp2,
    solve_qp3,
    update_duals,
    warmstart_predict,
)
from mpct_eadmm.offline import build_offline, cholesky_band, factor_block_tridiagonal
from mpct_eadmm.pendulum import PendulumParams, SimConfig, closed_loop, pendulum_problem, rk4_step
from mpct_eadmm.problem import (
    EXIT_TESTS,
    CostWeights,
    MpctConfig,
    SystemModel,
    build_rho,
    validate_problem,
)


def random_state(rng, problem, offline):
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
    for arr in (state.z1, state.z2, state.z3, state.lam):
        assert not arr.any()
    assert state.iterations == 0


def test_gamma_lives_in_the_scratch_not_the_state(offline):
    """A state carries the four iterates; the equality residual, which every
    iteration recomputes, is a buffer of the offline data's scratch, and a
    state has no scratch."""
    state = cold_start(3, 1, 12)
    for name in ("gamma", "scratch"):
        assert name not in SolverState.__slots__ and not hasattr(state, name)
    assert "gamma" in Scratch.__slots__ and offline.scratch.gamma.shape == (4, 15)
    with pytest.raises(AttributeError):
        state.gamma = np.zeros((4, 15))


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
    state = random_state(rng, problem, offline)
    state.lam *= 1e6  # push the unconstrained optimum far outside the boxes
    solve_qp1(state, offline, problem.rho, np.zeros(problem.n))
    assert np.all(state.z1[:, 1:-1] >= offline.box_lb[:, 1:2] - 0.0)
    assert np.all(state.z1[:, 1:-1] <= offline.box_ub[:, 1:2] + 0.0)
    assert np.all(state.z1[:, -1] >= offline.box_lb[:, 2])
    assert np.all(state.z1[:, -1] <= offline.box_ub[:, 2])


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
        state = random_state(rng, problem, offline)
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
        state = random_state(rng, problem, offline)
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
    band = cholesky_band(np.zeros((3, 2, 2)), np.stack([np.eye(2)] * 4))
    c = np.arange(8, dtype=float)
    rhs = c.copy()
    z = banded_forward_backward(band, rhs)
    np.testing.assert_allclose(z, c, atol=1e-15)
    assert np.shares_memory(z, rhs)  # a contiguous right-hand side is solved in place
    with pytest.raises(DimensionMismatch, match=r"^rhs must be .* shape \(8,\)"):
        banded_forward_backward(band, c.reshape(2, 4, order="F"))  # one column per block


def test_banded_forward_backward_small_tridiagonal():
    W = np.array([[2.0, -1.0], [-1.0, 2.0]])
    alphas, beta_hats = factor_block_tridiagonal(
        [W[:1, :1], W[1:, 1:]], [W[:1, 1:]]
    )
    c = np.array([1.0, 0.0])
    z = banded_forward_backward(cholesky_band(alphas, beta_hats), c)
    np.testing.assert_allclose(z, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_residual_matches_dense(problem, offline):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(problem.n)
    dp = dense_problem(problem, x, np.zeros(problem.n + problem.m))
    for _ in range(20):
        state = random_state(rng, problem, offline)
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
    _, res = compute_residual(state, offline, state.z1[: problem.n, 0].copy())
    assert res <= 1e-15


def test_dual_residual_matches_dense(problem, offline):
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
            state.z3 = np.ascontiguousarray(nxt.z3.reshape(n + m, N + 1, order="F"))
            prev_z3 = np.ascontiguousarray(it.z3.reshape(n + m, N + 1, order="F"))
            got = dual_residual(it.z2, prev_z3, state, offline, problem.rho)
            assert ref > 0.0
            assert abs(got - ref) <= 1e-10
        it = nxt


def test_primal_exit_stops_earlier_on_the_same_iterates(problem, offline):
    x = np.array([0.1, -0.2, 1.0])
    r = np.zeros(problem.n + problem.m)
    full = eadmm_solve(offline, problem, x, r)
    plain = eadmm_solve(offline, with_config(problem, exit_test="primal"), x, r)
    assert plain.converged and plain.residual_inf <= problem.config.epsilon
    assert plain.dual_residual > problem.config.epsilon and not plain.certified
    assert plain.iterations < full.iterations
    # Capped where the primal test stopped, the default test has walked the
    # same iterates but does not report convergence.
    capped = eadmm_solve(offline, with_config(problem, max_iter=plain.iterations), x, r)
    assert not capped.converged and not capped.certified
    assert capped.dual_residual == plain.dual_residual
    for name in ("z1", "z2", "z3", "lam"):
        assert np.array_equal(getattr(capped, name), getattr(plain, name))


def test_update_duals(problem, offline):
    rng = np.random.default_rng(5)
    state = random_state(rng, problem, offline)
    gamma = offline.scratch.gamma
    gamma[:] = rng.standard_normal(gamma.shape)
    gamma[problem.n :, 0] = 0.0
    lam_before = state.lam.copy()
    update_duals(state, offline, problem.rho)
    n, N = problem.n, problem.N
    delta = state.lam - lam_before
    np.testing.assert_allclose(delta[:n, 0], problem.rho.rho0 * gamma[:n, 0], atol=1e-14)
    np.testing.assert_allclose(
        delta[:, 1 : N + 2], problem.rho.rho_hat * gamma[:, 1 : N + 2], atol=1e-14
    )
    np.testing.assert_allclose(
        delta[:, N + 2], problem.rho.rho_s * gamma[:, N + 2], atol=1e-14
    )
    assert not state.lam[n:, 0].any()
    gamma[:] = 0.0
    lam_before = state.lam.copy()
    update_duals(state, offline, problem.rho)
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
    # box feasibility of the returned trajectory block
    assert np.all(result.z1[:, 1:-1] >= offline.box_lb[:, 1:2])
    assert np.all(result.z1[:, 1:-1] <= offline.box_ub[:, 1:2])


def test_eadmm_solve_returns_the_state_it_iterated(problem, offline):
    """A solve fills the outcome of the state it is given and returns that
    object, in its own arrays; a cold solve returns a new state."""
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(problem.n + problem.m)
    state = cold_start(problem.n, problem.m, problem.N)
    assert not state.converged and state.u0 is None and math.isnan(state.residual_inf)
    arrays = (state.z1, state.z2, state.z3, state.lam)
    assert eadmm_solve(offline, problem, x, r, initial=state) is state
    assert state.converged and state.certified and state.iterations > 0
    assert state.residual_inf <= problem.config.epsilon
    assert state.dual_residual <= problem.config.epsilon
    assert np.array_equal(state.u0, state.z1[problem.n :, 0])
    assert np.array_equal(state.xs_us, state.z2)
    assert not np.shares_memory(state.u0, state.z1)
    assert not np.shares_memory(state.xs_us, state.z2)
    assert (state.z1, state.z2, state.z3, state.lam) == arrays  # updated in place
    cold = eadmm_solve(offline, problem, x, r)
    assert isinstance(cold, SolverState) and cold is not state
    assert not any(np.shares_memory(a, b) for a, b in zip((cold.z1, cold.z2), arrays))
    assert cold.u0.tobytes() == state.u0.tobytes() and cold.iterations == state.iterations


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


def test_offline_data_of_another_problem_of_the_same_size_is_rejected(problem, offline):
    """Offline data built for the benchmark problem, with a problem of the
    same (n, m, N) whose base penalty is 2 instead of 20 or whose Q is 50 I
    instead of 5 I: eadmm_solve and closed_loop raise ProblemMismatch, where
    a solve would certify the wrong input. The exit test is not part of the
    offline data, so a problem differing only there is accepted."""
    x, r = np.array([0.0, 0.0, 1.0]), np.zeros(problem.n + problem.m)
    other_q = replace(problem.costs, Q_diag=np.full(problem.n, 50.0))
    others = (
        pendulum_problem(rho_base=2.0),
        validate_problem(problem.model, other_q, problem.config, problem.rho),
    )
    for other in others:
        assert (other.n, other.m, other.N) == (problem.n, problem.m, problem.N)
        with pytest.raises(ProblemMismatch, match="built for another"):
            eadmm_solve(offline, other, x, r)
        with pytest.raises(ProblemMismatch, match="built for another"):
            closed_loop(other, offline, SimConfig(), x, r)
    assert eadmm_solve(offline, with_config(problem, exit_test="primal"), x, r).converged


def test_eadmm_solve_numerical_breakdown(problem, offline):
    state = cold_start(problem.n, problem.m, problem.N)
    state.z2[:] = np.nan
    with pytest.raises(NumericalBreakdown):
        eadmm_solve(offline, problem, np.zeros(3), np.zeros(4), initial=state)
    # One NaN or infinity in one entry of an iterate the first stage reads.
    x = np.array([0.1, -0.2, 1.0])
    for name, at in (("z2", (0,)), ("z3", (0, 1)), ("lam", (0, 1))):
        for value in (np.nan, np.inf, -np.inf):
            state = cold_start(problem.n, problem.m, problem.N)
            getattr(state, name)[at] = value
            with pytest.raises(NumericalBreakdown, match="non-finite residual"):
                eadmm_solve(offline, problem, x, np.zeros(4), initial=state)


# The numpy form of diag(T, S) r that the kernel's solve replaced, kept as
# the reference it must reproduce byte for byte.
def linear_terms(problem, r):
    """Per-solve constants of the iteration: diag(T, S) r and the model's [A B]."""
    n = problem.n
    ts_r = np.empty(n + problem.m)
    np.dot(problem.costs.T, r[:n], out=ts_r[:n])
    np.dot(problem.costs.S, r[n:], out=ts_r[n:])
    return ts_r, problem.model.AB


def kernel_ts_r(problem, offline, r):
    """diag(T, S) r as the kernel's solve forms it: a solve of no iteration."""
    state = cold_start(problem.n, problem.m, problem.N)
    operands = solver.solve_operands(state, offline, problem, np.zeros(problem.n), r)
    assert kernel.load().solve(*operands, 1e-4, False, 0)[:2] == (solver.CAPPED, 0)
    return offline.scratch.ts_r


@pytest.mark.parametrize("case", range(9))
def test_kernel_weighted_reference_bit_identical_to_numpy(case):
    """The kernel's diag(T, S) r against the two np.dot calls, byte for byte:
    the case's reference, signed zeros, infinities, NaN, 1e308 and values
    spread over 16 decades. The cases include n = 1, where numpy takes its
    one-product scalar path (which keeps -0.0), and m > n."""
    problem, _, _, r = match_cases()[case]
    nm = problem.n + problem.m
    offline = build_offline(problem, with_warmstart=False)
    rng = np.random.default_rng(59 + case)
    refs = [r, np.full(nm, -0.0), np.zeros(nm), np.full(nm, 1e308), np.full(nm, -1e308)]
    for special in (-0.0, np.inf, -np.inf, np.nan):
        for at in range(nm):
            ref = rng.standard_normal(nm)
            ref[at] = special
            refs.append(ref)
    refs += [rng.standard_normal(nm) * 10.0 ** rng.integers(-8, 8, nm) for _ in range(20)]
    for k, ref in enumerate(refs):
        with np.errstate(over="ignore", invalid="ignore"):
            want, _ = linear_terms(problem, ref)
        got = kernel_ts_r(problem, offline, ref)
        assert got.tobytes() == want.tobytes(), (k, got, want)


# Reference step: the five stage bodies written plainly in numpy, with a
# fresh temporary for every operation. The compiled kernel must reproduce
# them bit for bit.
def reference_step(ref, offline, rho, x, ts_r, AB):
    n, N = offline.n, offline.N
    # solve_qp1
    z2, lam = ref.z2, ref.lam
    v = rho.rho_hat * (z2[:, None] + ref.z3) + lam[:, 1 : N + 2]
    v[:, 0] -= lam[:, 0]
    v[:n, 0] += rho.rho0 * x
    v[:, N] += rho.rho_s * z2 + lam[:, N + 2]
    v *= offline.H1_inv
    stages = [1, N - 1, 1]  # box columns: stage 0, stages 1 to N - 1, stage N
    lb, ub = (np.repeat(box, stages, axis=1) for box in (offline.box_lb, offline.box_ub))
    np.clip(v, lb, ub, out=ref.z1)
    # solve_qp2
    z1 = ref.z1
    q2 = np.sum(rho.rho_hat * (ref.z3 - z1), axis=1) + np.sum(lam[:, 1:], axis=1)
    q2 -= rho.rho_s * z1[:, N] + ts_r
    ref.z2 = offline.M2 @ q2
    # solve_qp3
    q3 = rho.rho_hat * (ref.z2[:, None] - z1) + lam[:, 1 : N + 2]
    t = offline.H3_inv * q3
    c = t[:n, 1:] - AB @ t[:, :N]
    mu, _ = dpbtrs(offline.band, c.ravel(order="F"))
    mu = mu.reshape(N, n).T
    q3[:, :N] += AB.T @ mu
    q3[:n, 1:] -= mu
    ref.z3 = -offline.H3_inv * q3
    # compute_residual
    g = ref.gamma
    g[:n, 0] = z1[:n, 0] - x
    g[n:, 0] = 0.0
    g[:, 1 : N + 2] = ref.z2[:, None] + ref.z3 - z1
    g[:, N + 2] = ref.z2 - z1[:, N]
    res = float(np.max(np.abs(g)))
    # update_duals
    lam[:n, 0] += rho.rho0 * g[:n, 0]
    lam[:, 1 : N + 2] += rho.rho_hat * g[:, 1 : N + 2]
    lam[:, N + 2] += rho.rho_s * g[:, N + 2]
    return res


def reference_dual_residual(z2_prev, z3_prev, ref, rho):
    rh = rho.rho_hat
    dz2 = ref.z2 - z2_prev
    wdz3 = rh * (ref.z3 - z3_prev)
    s1 = rh * dz2[:, None] + wdz3
    s1[:, -1] += rho.rho_s * dz2
    s2 = np.sum(wdz3, axis=1)
    return max(float(np.max(np.abs(s1))), float(np.max(np.abs(s2))))


ITERATES = ("z1", "z2", "z3", "lam", "gamma")


def iterate(state, offline, name):
    """The iterate ``name`` of a solver state or a reference namespace; a
    solver state's gamma is in the scratch of the offline data it was solved on."""
    if name == "gamma" and isinstance(state, SolverState):
        return offline.scratch.gamma
    return getattr(state, name)


def assert_steps_match_reference(problem, offline, state, x, r, iterations=200):
    """Step ``state`` through eadmm_solve, one iteration per call, and a copy
    through the reference; compare every iteration."""
    one_step = with_config(problem, max_iter=1)
    ts_r, AB = linear_terms(problem, r)
    ref = copied(state, offline)
    for k in range(iterations):
        prev, ref_prev = (state.z2.copy(), state.z3.copy()), (ref.z2, ref.z3)
        result = eadmm_solve(offline, one_step, x, r, initial=state)
        assert result.residual_inf == reference_step(ref, offline, problem.rho, x, ts_r, AB), k
        for name in ITERATES:
            got, want = iterate(state, offline, name), getattr(ref, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, k)
        dual = dual_residual(*prev, state, offline, problem.rho)
        assert dual == reference_dual_residual(*ref_prev, ref, problem.rho), k
    assert state.iterations == iterations


def random_problem(rng, n, m, N):
    """A seeded random problem with a stable A and a zero lower input bound."""

    def spd(k):
        M = rng.standard_normal((k, k))
        return M @ M.T + 0.1 * np.eye(k)

    G = rng.standard_normal((n, n))
    model = SystemModel(
        A=0.95 * G / np.abs(np.linalg.eigvals(G)).max(),
        B=rng.standard_normal((n, m)),
        x_lb=-rng.uniform(0.5, 2.0, n),
        x_ub=rng.uniform(0.5, 2.0, n),
        u_lb=np.concatenate([[0.0], -rng.uniform(0.5, 2.0, m - 1)]),
        u_ub=rng.uniform(0.5, 2.0, m),
    )
    costs = CostWeights(
        Q_diag=rng.uniform(0.1, 10, n), R_diag=rng.uniform(0.1, 10, m), T=spd(n), S=spd(m)
    )
    config = MpctConfig(N=N, max_iter=2000)
    rho = build_rho(model, config, rng.uniform(0.5, 20), rng.uniform(20, 1000))
    return validate_problem(model, costs, config, rho)


def match_cases():
    """(problem, x, x_next, r): the pendulum at three horizons and random problems."""
    cases = []
    for N in (2, 12, 100):
        problem = pendulum_problem(N=N)
        r = np.array([0.0, 0.0, 0.5, 0.0]) if N == 12 else np.zeros(4)
        cases.append((problem, np.array([0.1, -0.2, 1.0]), np.array([0.12, -0.25, 0.97]), r))
    rng = np.random.default_rng(31)
    dims = [(3, 1, 2), (1, 3, 5), (2, 3, 4), (2, 2, 9)]
    dims += [
        (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 12)))
        for _ in range(2)
    ]
    for n, m, N in dims:
        problem = random_problem(rng, n, m, N)
        x = 0.5 * problem.model.x_ub * rng.uniform(-1, 1, n)
        x_next = x + 0.05 * rng.standard_normal(n)
        cases.append((problem, x, x_next, rng.standard_normal(n + m)))
    return cases


@pytest.mark.parametrize("case", range(9))
def test_iterates_bit_identical_to_reference_step(case):
    """Cold and warm starts; z1, z2, z3, lambda, gamma, both residuals, every iteration."""
    problem, x, x_next, r = match_cases()[case]
    n, m, N = problem.n, problem.m, problem.N
    offline = build_offline(problem)
    assert_steps_match_reference(problem, offline, cold_start(n, m, N), x, r)
    prev = eadmm_solve(offline, problem, x, r)
    warm = warmstart_predict(prev, offline, x, x_next)
    assert warm.z1.any() and warm.lam.any()
    assert_steps_match_reference(problem, offline, warm, x_next, r)


# The numpy form of warmstart_predict that the kernel's warm_shift replaced,
# kept as the reference it must reproduce byte for byte. Its gamma, which
# warm_shift leaves zero in the offline data's scratch, is zeros of lambda's
# shape.
def reference_warmstart_predict(prev, gain, x_prev, x_next):
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    n = gain.P_z3_head.shape[0]
    state = SolverState(
        z1=prev.z1.copy(),
        z2=prev.z2.copy(),
        z3=prev.z3.copy(),
        lam=prev.lam.copy(),
    )
    dx = x_next - x_prev
    state.z2 -= gain.P_z2 @ dx
    state.z3[:n, 0] -= gain.P_z3_head @ dx
    state.lam[:n, 0] -= gain.P_lambda_head[:n] @ dx
    state.lam[:n, 1] -= gain.P_lambda_head[n:] @ dx
    return state


@pytest.mark.parametrize("case", range(9))
def test_warm_shift_bit_identical_to_reference(case):
    """z1, z2, z3, lambda and gamma of warmstart_predict against its numpy
    form, byte for byte, from a solved state: to the case's next state, to
    the same state, and by displacements spread over 16 decades. The cases
    include n = 1, where numpy's ``@`` does not call dgemv, and m > n. The
    new state's iterates share no memory with the previous solution, and
    the offline data's scratch gamma, filled with noise before each warm
    start, comes out zero."""
    problem, x, x_next, r = match_cases()[case]
    n = problem.n
    offline = build_offline(problem)
    prev = eadmm_solve(offline, problem, x, r)
    rng = np.random.default_rng(53 + case)
    targets = [x_next, x.copy()]
    targets += [x + rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n) for _ in range(20)]
    sources = (prev.z1, prev.z2, prev.z3, prev.lam)
    for k, target in enumerate(targets):
        offline.scratch.gamma[:] = rng.standard_normal(prev.lam.shape)
        got = warmstart_predict(prev, offline, x, target)
        want = reference_warmstart_predict(prev, offline.warmstart, x, target)
        for name in ITERATES:
            a = iterate(got, offline, name)
            b = np.zeros_like(prev.lam) if name == "gamma" else getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, k)
            assert not any(np.shares_memory(a, source) for source in sources), (name, k)
        assert got.iterations == 0


def test_warmstart_predict_rejects_shapes_that_do_not_fit(problem, offline):
    """A gain block, a previous solution or a state of the wrong shape is a
    DimensionMismatch naming it, not numpy's broadcasting error."""
    x, x_next = np.array([0.1, -0.2, 1.0]), np.array([0.12, -0.25, 0.97])
    prev = eadmm_solve(offline, problem, x, np.zeros(problem.n + problem.m))
    gain = offline.warmstart

    def with_gain(**blocks):
        return replace(offline, warmstart=replace(gain, **blocks))

    bad = [
        ("P_z2", prev, with_gain(P_z2=np.zeros((6, 3))), x, x_next),
        ("P_z3_head", prev, with_gain(P_z3_head=np.zeros((3, 2))), x, x_next),
        ("P_lambda_head", prev, with_gain(P_lambda_head=np.zeros((3, 3))), x, x_next),
        ("prev_z1", replace(prev, z1=np.zeros(4)), offline, x, x_next),
        ("prev_z2", replace(prev, z2=np.zeros(6)), offline, x, x_next),
        ("prev_z3", replace(prev, z3=np.zeros((4, 12))), offline, x, x_next),
        ("prev_lam", replace(prev, lam=np.zeros((4, 13))), offline, x, x_next),
        ("x_prev", prev, offline, x[:2], x_next),
        ("x_next", prev, offline, x, np.append(x_next, 0.0)),
    ]
    for name, *args in bad:
        with pytest.raises(DimensionMismatch, match=f"^{name} must be"):
            warmstart_predict(*args)


def test_state_reuse_across_solves_matches_reference_step():
    """Solves that continue one state, or a warm start from it, with new inputs.

    Every later solve here changes x and r, the warm start replaces the
    arrays, one solve runs on a state whose z1 and lambda and the offline
    data's scratch gamma a caller replaced, and the last one on another
    problem of the same size
    (other A, other penalties). Each must match the reference step byte for
    byte.
    """
    base = pendulum_problem(N=12)
    n, m, N = base.n, base.m, base.N
    config = MpctConfig(N=N, epsilon=1e-300, max_iter=40)
    capped = validate_problem(base.model, base.costs, config, base.rho)
    model = replace(base.model, A=0.9 * base.model.A)
    other = validate_problem(model, base.costs, config, build_rho(model, config, 5.0, 200.0))
    pendulum, changed = (capped, build_offline(capped)), (other, build_offline(other))
    rng = np.random.default_rng(41)
    cases = [(rng.uniform(-0.3, 0.3, n), rng.uniform(-1, 1, n + m)) for _ in range(6)]

    def solve_and_check(state, x, r, ref, target=pendulum):
        problem, offline = target
        before = state.iterations
        result = eadmm_solve(offline, problem, x, r, initial=state)
        ts_r, AB = linear_terms(problem, r)
        for _ in range(40):
            res = reference_step(ref, offline, problem.rho, x, ts_r, AB)
        assert result.iterations == before + 40 and not result.converged
        assert result.residual_inf == res
        for name in ITERATES:
            got = iterate(state, offline, name)
            assert got.tobytes() == getattr(ref, name).tobytes(), name
        return result

    state = cold_start(n, m, N)
    ref = copied(state, pendulum[1])
    solve_and_check(state, *cases[0], ref)
    result = solve_and_check(state, *cases[1], ref)
    warm = warmstart_predict(result, pendulum[1], cases[1][0], cases[2][0])
    ref = copied(warm, pendulum[1])
    solve_and_check(warm, *cases[2], ref)
    solve_and_check(warm, *cases[3], ref)
    for name in ("z1", "lam"):
        setattr(warm, name, getattr(warm, name).copy())
    pendulum[1].scratch.gamma = pendulum[1].scratch.gamma.copy()
    solve_and_check(warm, *cases[4], ref)
    solve_and_check(warm, *cases[5], ref, changed)


def copied(state, offline):
    return SimpleNamespace(**{name: iterate(state, offline, name).copy() for name in ITERATES})


def reference_solve(problem, offline, ref, x, r):
    """eadmm_solve's loop over :func:`reference_step`, from the iterates in ``ref``.

    Returns (iterations, primal residual, dual residual, converged) and
    raises NumericalBreakdown as eadmm_solve does.
    """
    config = problem.config
    ts_r, AB = linear_terms(problem, r)
    res, dual = math.inf, math.nan
    for k in range(1, config.max_iter + 1):
        prev = ref.z2, ref.z3
        with np.errstate(invalid="ignore", over="ignore"):
            res = reference_step(ref, offline, problem.rho, x, ts_r, AB)
        if not math.isfinite(res):
            raise NumericalBreakdown(f"non-finite residual at iteration {k}")
        if res <= config.epsilon:
            dual = reference_dual_residual(*prev, ref, problem.rho)
            if config.exit_test == "primal" or dual <= config.epsilon:
                return k, res, dual, True
    return config.max_iter, res, dual, False


def float_bytes(value):
    return np.float64(value).tobytes()


def assert_solve_matches_reference(problem, offline, state, x, r):
    """One eadmm_solve from ``state`` against :func:`reference_solve` from a copy."""
    ref = copied(state, offline)
    iterations, res, dual, converged = reference_solve(problem, offline, ref, x, r)
    result = eadmm_solve(offline, problem, x, r, initial=state)
    assert (result.iterations, result.converged) == (iterations, converged)
    assert float_bytes(result.residual_inf) == float_bytes(res)
    assert float_bytes(result.dual_residual) == float_bytes(dual)
    assert result.certified == (converged and dual <= problem.config.epsilon)
    for name in ITERATES:
        assert iterate(state, offline, name).tobytes() == getattr(ref, name).tobytes(), name
    return result


def with_config(problem, **changes):
    return validate_problem(
        problem.model, problem.costs, replace(problem.config, **changes), problem.rho
    )


@pytest.mark.parametrize("case", range(9))
def test_whole_solve_bit_identical_to_reference_loop(case):
    """Cold and warm solves under both exit tests: iterates, residuals, counts, flags."""
    problem, x, x_next, r = match_cases()[case]
    n, m, N = problem.n, problem.m, problem.N
    offline = build_offline(problem)
    for exit_test in EXIT_TESTS:
        target = with_config(problem, exit_test=exit_test)
        cold = assert_solve_matches_reference(target, offline, cold_start(n, m, N), x, r)
        warm = warmstart_predict(cold, offline, x, x_next)
        assert_solve_matches_reference(target, offline, warm, x_next, r)


def test_capped_and_broken_down_solves_match_reference_loop(problem, offline):
    """A solve that hits the cap, and NaNs planted in an iterate: the same
    iteration, the same message and the same iterates as the reference loop."""
    n, m, N = problem.n, problem.m, problem.N
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(n + m)
    capped = with_config(problem, epsilon=1e-12, max_iter=37)
    result = assert_solve_matches_reference(capped, offline, cold_start(n, m, N), x, r)
    assert result.iterations == 37 and not result.converged
    for name, at in (("z2", (1,)), ("z3", (2, 5)), ("lam", (0, 3))):
        state = cold_start(n, m, N)
        getattr(state, name)[at] = np.nan
        ref = copied(state, offline)
        with pytest.raises(NumericalBreakdown) as want:
            reference_solve(problem, offline, ref, x, r)
        with pytest.raises(NumericalBreakdown) as got:
            eadmm_solve(offline, problem, x, r, initial=state)
        assert str(got.value) == str(want.value), name
        assert state.iterations == int(str(want.value).rsplit(" ", 1)[1])
        for key in ITERATES:
            got = iterate(state, offline, key)
            np.testing.assert_array_equal(got, getattr(ref, key), err_msg=key)


def test_stage_path_matches_kernel_path(monkeypatch):
    """eadmm_solve with its stages replaced by pass-through wrappers (as a
    tracer replaces them) runs them, and gives the kernel path's bytes."""
    runs = []
    for traced in (False, True):
        calls = []
        if traced:
            for name in STAGES:

                def passed(*args, _fn=getattr(solver, name)):
                    calls.append(_fn)
                    return _fn(*args)

                monkeypatch.setattr(solver, name, passed)
        outputs = []

        def outcome(state, offline):
            return (
                [iterate(state, offline, name).tobytes() for name in ITERATES]
                + [state.iterations, state.converged, state.certified]
                + [float_bytes(state.residual_inf), float_bytes(state.dual_residual)]
            )

        for problem, x, x_next, r in match_cases()[:5]:
            offline = build_offline(problem)
            for exit_test in EXIT_TESTS:
                target = with_config(problem, exit_test=exit_test)
                cold = eadmm_solve(offline, target, x, r)
                outputs.append(outcome(cold, offline))
                warm = warmstart_predict(cold, offline, x, x_next)
                warm = eadmm_solve(offline, target, x_next, r, initial=warm)
                outputs.append(outcome(warm, offline))
        assert bool(calls) == traced
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_stages_called_directly_follow_their_arguments(problem, offline):
    """The same x object with another rho, then another [A B], feeds the stages anew."""
    n, m, N = problem.n, problem.m, problem.N
    x = np.array([0.1, -0.2, 1.0])
    AB = np.hstack([problem.model.A, problem.model.B])
    other_rho = build_rho(problem.model, problem.config, 5.0, 200.0)
    reused = cold_start(n, m, N)
    for rho, ab in ((problem.rho, AB), (other_rho, AB), (other_rho, 0.5 * AB)):
        fresh = cold_start(n, m, N)
        for state in (reused, fresh):
            state.z2[:] = 0.25
            state.z3[:] = 0.25  # z2 + z3 = 0.5
            state.lam[:] = 1.0
            solve_qp1(state, offline, rho, x)
            solve_qp3(state, offline, rho, ab)
        assert reused.z1.tobytes() == fresh.z1.tobytes()
        assert reused.z3.tobytes() == fresh.z3.tobytes()


STAGES = (
    "solve_qp1",
    "solve_qp2",
    "solve_qp3",
    "banded_forward_backward",
    "compute_residual",
    "update_duals",
)


def test_traced_solve_calls_each_stage_once_through_module_globals(problem, offline, monkeypatch):
    """A tracer that replaces a stage at module level sees every call."""
    counts = dict.fromkeys(STAGES, 0)
    for name in STAGES:

        def counted(*args, _name=name, _fn=getattr(solver, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(solver, name, counted)
    capped = validate_problem(
        problem.model, problem.costs, MpctConfig(N=12, epsilon=1e-12, max_iter=25), problem.rho
    )
    result = eadmm_solve(offline, capped, np.array([0.1, -0.2, 1.0]), np.zeros(4))
    assert result.iterations == 25 and not result.converged
    assert counts == dict.fromkeys(STAGES, 25)


def test_solve_result_unchanged_by_later_solves(problem, offline):
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(problem.n + problem.m)
    first = eadmm_solve(offline, problem, x, r)
    names = ("z1", "z2", "z3", "lam", "u0", "xs_us")
    kept = {name: getattr(first, name).copy() for name in names}
    x_next = np.array([0.12, -0.25, 0.97])
    warm = eadmm_solve(
        offline, problem, x_next, r, warmstart_predict(first, offline, x, x_next)
    )
    eadmm_solve(offline, problem, -x, r)
    again = eadmm_solve(offline, problem, x, r)
    for name in names:
        assert np.array_equal(getattr(first, name), kept[name]), name
        assert np.array_equal(getattr(again, name), kept[name]), name
        assert not np.shares_memory(getattr(first, name), getattr(warm, name)), name


def state_bytes(state):
    """A solved state's own bytes: its iterates, copies and outcome."""
    arrays = [getattr(state, name).tobytes() for name in ("z1", "z2", "z3", "lam", "u0", "xs_us")]
    return arrays + [
        state.iterations, state.converged, state.certified,
        float_bytes(state.residual_inf), float_bytes(state.dual_residual),
    ]


def solved_bytes(state, offline):
    """state_bytes and the gamma that the solve left in the offline data's scratch."""
    return state_bytes(state) + [offline.scratch.gamma.tobytes()]


def test_warm_starts_from_one_result_share_its_scratch_safely(problem, offline):
    """Two states warm-started from one result are solved on the scratch of
    the offline data it was solved on. Solved in either order, each gives
    the bytes of a solve on offline data of its own, and the first result
    stays intact."""
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(problem.n + problem.m)
    targets = (np.array([0.12, -0.25, 0.97]), np.array([0.05, -0.1, 1.1]))
    first = eadmm_solve(offline, problem, x, r)
    want = []
    for target in targets:
        own = build_offline(problem)
        state = warmstart_predict(first, own, x, target)
        want.append(solved_bytes(eadmm_solve(own, problem, target, r, state), own))
    assert {w[6] % 2 for w in want} == {0, 1}  # one odd and one even iteration count
    for order in ((0, 1), (1, 0)):
        first = eadmm_solve(offline, problem, x, r)
        kept = {name: getattr(first, name).copy() for name in ("z1", "z2", "z3", "lam")}
        states = [warmstart_predict(first, offline, x, t) for t in targets]
        for k in order:
            got = solved_bytes(eadmm_solve(offline, problem, targets[k], r, states[k]), offline)
            assert got == want[k], (order, k)
        for name, copy in kept.items():
            assert getattr(first, name).tobytes() == copy.tobytes(), (order, name)


def test_states_interleaved_on_one_offline_data_match_separate_solves(problem):
    """Two cold states, each continued by capped solves of 3 and 4
    iterations, and a warm chain, solved in turn on one offline data: every
    solve gives the bytes of the same solves run on offline data of their
    own, one per state."""
    r = np.zeros(problem.n + problem.m)
    caps = (with_config(problem, max_iter=3), with_config(problem, max_iter=4), problem)
    starts = (np.array([0.1, -0.2, 1.0]), np.array([-0.05, 0.1, 0.4]), np.array([0.0, 0.0, 2.0]))

    def run(datas):
        states = [cold_start(problem.n, problem.m, problem.N) for _ in caps]
        out = []
        for step in range(6):
            for k, (data, target) in enumerate(zip(datas, caps)):
                x = starts[k] * 0.9**step
                if k == 2 and step:  # the warm chain
                    states[k] = warmstart_predict(states[k], data, x / 0.9, x)
                eadmm_solve(data, target, x, r, states[k])
                out.append(solved_bytes(states[k], data))
        return out

    shared = build_offline(problem)
    assert run([shared] * 3) == run([build_offline(problem) for _ in caps])


def test_threads_solving_on_one_offline_data_give_the_sequential_bytes(problem):
    """Four threads, each running cold solves and a warm chain on one
    offline data, with thread switches as often as the interpreter allows:
    every solved state has the bytes of the same solves run one after
    another."""
    data = build_offline(problem)
    r = np.zeros(problem.n + problem.m)
    rng = np.random.default_rng(61)
    runs = [rng.uniform(-0.3, 0.3, (12, problem.n)) for _ in range(4)]

    def worker(xs):
        out, warm = [], None
        for k, x in enumerate(xs):
            out.append(state_bytes(eadmm_solve(data, problem, x, r)))
            warm = None if warm is None else warmstart_predict(warm, data, xs[k - 1], x)
            warm = eadmm_solve(data, problem, x, r, warm)
            out.append(state_bytes(warm))
        return out

    want = [worker(xs) for xs in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            got = list(pool.map(worker, runs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("traced", [False, True])
def test_iterates_stay_in_their_arrays(problem, offline, traced, monkeypatch):
    """Cold and warm solves of odd and even iteration counts, on the kernel
    path and through the stage functions: each of a state's four iterates
    is the same array object after the solve as before it."""
    if traced:
        for name in STAGES:
            monkeypatch.setattr(solver, name, lambda *args, _fn=getattr(solver, name): _fn(*args))
    x, x_next = np.array([0.1, -0.2, 1.0]), np.array([0.12, -0.25, 0.97])
    r = np.zeros(problem.n + problem.m)
    parities = set()

    def check(state, target, point):
        arrays = [state.z1, state.z2, state.z3, state.lam]
        eadmm_solve(offline, target, point, r, state)
        assert all(a is b for a, b in zip([state.z1, state.z2, state.z3, state.lam], arrays))
        parities.add(state.iterations % 2)

    for max_iter in (1, 2, 5, 8, problem.config.max_iter):
        target = with_config(problem, max_iter=max_iter)
        cold = cold_start(problem.n, problem.m, problem.N)
        check(cold, target, x)
        check(warmstart_predict(cold, offline, x, x_next), target, x_next)
    assert parities == {0, 1}


def poison(scratch, n):
    """Fills every buffer of ``scratch`` with NaN but gamma's structural
    padding (column 0, rows n to nm - 1), which stays zero as Scratch says."""
    for name in Scratch.__slots__:
        getattr(scratch, name)[...] = np.nan
    scratch.gamma[n:, 0] = 0.0


def test_qp1_reads_nothing_from_the_scratch(problem):
    """solve_qp1 forms z2 + z3 from the state: its bytes are the same
    whatever an earlier stage left in the work space."""
    clean, dirty = (build_offline(problem, with_warmstart=False) for _ in range(2))
    rng = np.random.default_rng(71)
    for _ in range(10):
        state = random_state(rng, problem, clean)
        twin = SolverState(*(a.copy() for a in (state.z1, state.z2, state.z3, state.lam)))
        x = rng.standard_normal(problem.n)
        poison(dirty.scratch, problem.n)
        solve_qp1(state, clean, problem.rho, x)
        solve_qp1(twin, dirty, problem.rho, x)
        assert not np.isnan(state.z1).any()
        assert twin.z1.tobytes() == state.z1.tobytes()


@pytest.mark.parametrize("traced", [False, True])
def test_solves_from_a_poisoned_scratch_give_a_clean_scratchs_bytes(problem, traced, monkeypatch):
    """Cold and warm solves under both exit tests, on the kernel path and
    through the stage functions, on offline data whose scratch is poisoned
    before each solve: the iterates, gamma, residuals, counts and flags of
    the same solves on offline data whose scratch is not."""
    if traced:
        for name in STAGES:
            monkeypatch.setattr(solver, name, lambda *args, _fn=getattr(solver, name): _fn(*args))
    x, x_next = np.array([0.1, -0.2, 1.0]), np.array([0.12, -0.25, 0.97])
    r = np.array([0.0, 0.0, 0.5, 0.0])
    runs = []
    for dirty in (False, True):
        offline, outputs = build_offline(problem), []

        def solve(point, initial=None):
            if dirty:
                poison(offline.scratch, problem.n)
            state = eadmm_solve(offline, target, point, r, initial)
            outputs.append(
                [iterate(state, offline, name).tobytes() for name in ITERATES]
                + [state.iterations, state.converged, state.certified]
                + [float_bytes(state.residual_inf), float_bytes(state.dual_residual)]
            )
            return state

        for exit_test in EXIT_TESTS:
            target = with_config(problem, exit_test=exit_test)
            cold = solve(x)
            solve(x_next, warmstart_predict(cold, offline, x, x_next))
        runs.append(outputs)
    assert runs[0] == runs[1]


def test_warm_start_without_the_gain_is_a_typed_error(problem):
    """warmstart_predict on offline data built without the gain raises
    MissingWarmstartGain, not an AttributeError."""
    data = build_offline(problem, with_warmstart=False)
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(problem.n + problem.m)
    solved = eadmm_solve(data, problem, x, r)
    with pytest.raises(MissingWarmstartGain, match="warmstart gain"):
        warmstart_predict(solved, data, x, x)


def test_non_finite_entries_propagate_like_numpy(problem, offline):
    """A NaN or an infinity in z2, z3 or lambda ends in the same entries, with
    the same values, as in the numpy reference step (clip and abs-max
    included), and the solve breaks down at its first iteration."""
    rng = np.random.default_rng(43)
    x, r = np.array([0.1, -0.2, 1.0]), np.zeros(problem.n + problem.m)
    one_step = with_config(problem, max_iter=1)
    ts_r, AB = linear_terms(problem, r)
    for name, at in (("z2", (1,)), ("z3", (1, 5)), ("lam", (2, 4))):
        for value in (np.nan, np.inf, -np.inf):
            state = random_state(rng, problem, offline)
            getattr(state, name)[at] = value
            ref = copied(state, offline)
            with pytest.raises(NumericalBreakdown, match="at iteration 1$"):
                eadmm_solve(offline, one_step, x, r, initial=state)
            with np.errstate(invalid="ignore", over="ignore"):
                want = reference_step(ref, offline, problem.rho, x, ts_r, AB)
            assert not np.isfinite(want), (name, value)
            for key in ITERATES:
                got = iterate(state, offline, key)
                np.testing.assert_array_equal(got, getattr(ref, key), err_msg=key)
    # A NaN in the first term of the dual residual's max() and none in the
    # second: Python's max() keeps the NaN.
    state = random_state(rng, problem, offline)
    z2_prev, z3_prev = state.z2.copy(), state.z3.copy()
    z2_prev[0] = np.nan
    want = reference_dual_residual(z2_prev, z3_prev, state, problem.rho)
    assert np.isnan(want) and np.isnan(dual_residual(z2_prev, z3_prev, state, offline, problem.rho))


def max_step_scan(values):
    """numpy's abs-max as the kernel's max_step folds it from 0: a NaN, once
    met, stays; so the first NaN's |value|, its payload kept, wins."""
    m = 0.0
    for v in values:
        v = abs(v)
        if m == m and not v <= m:
            m = v
    return m


def quiet_nan(payload, negative):
    bits = 0x7FF8000000000000 | payload | (1 << 63 if negative else 0)
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("n, m, N", [(3, 1, 12), (2, 1, 2), (2, 1, 11)])
def test_residual_keeps_the_first_nan_in_every_lane(n, m, N):
    """compute_residual's abs-max runs in four lanes over gamma's flat entries
    and a scalar tail. Whichever lane or the tail holds the first NaN, and
    whatever payload and sign the NaNs carry, the residual's bytes are the
    first NaN's |value|, as max_step's scan gives it. (3 + 1) (12 + 3) = 60
    entries leave no tail; 15 and 42 leave 3 and 2."""
    problem = pendulum_problem(N=N) if n == 3 else random_problem(np.random.default_rng(N), n, m, N)
    offline = build_offline(problem, with_warmstart=False)
    nm, cols, gc = n + m, N + 1, N + 3
    size, x = nm * gc, np.zeros(n)
    lanes = {}  # the first entry fed by z3 of each lane, and of the tail
    for i in range(nm):
        for j in range(cols):
            k = i * gc + j + 1
            lanes.setdefault("tail" if k >= size - size % 4 else k % 4, (k, i, j))
    assert len(lanes) == (4 if size % 4 == 0 else 5)
    rng = np.random.default_rng(n + N)
    places = [[a] for a in lanes.values()] + [
        [a, b] for a in lanes.values() for b in lanes.values() if a != b
    ]
    for case, chosen in enumerate(places):
        state = random_state(rng, problem, offline)
        nans = []
        for t, (k, i, j) in enumerate(chosen):
            state.z3[i, j] = quiet_nan(0x1234 * (case + 1) + t, negative=(case + t) % 2 == 1)
            nans.append(k)
        gamma, res = compute_residual(state, offline, x)
        flat = gamma.ravel()
        assert sorted(np.flatnonzero(np.isnan(flat))) == sorted(nans), case
        want = max_step_scan(flat.tolist())
        assert np.float64(res).tobytes() == np.float64(want).tobytes(), (case, chosen)
        assert np.float64(want).tobytes() == np.abs(flat[min(nans)]).tobytes()


def test_signed_zeros_on_a_zero_bound_clip_like_numpy(problem):
    """solve_qp1's first column, its vectorized interior columns and its last
    column clip a linear term of -0.0 or +0.0 against a bound of -0.0 or
    +0.0, below or above, as np.clip does: z1's bytes equal
    reference_step's, which keeps the bound on a tie."""
    offline = build_offline(problem, with_warmstart=False)
    n, N, rho = problem.n, problem.N, problem.rho
    ts_r, AB = linear_terms(problem, np.zeros(n + problem.m))
    columns = (0, N // 2, N)
    rng = np.random.default_rng(67)
    for bound in (0.0, -0.0):
        for side in ("lb", "ub"):
            for signs in np.ndindex(2, 2, 2):
                state = random_state(rng, problem, offline)
                x = rng.standard_normal(n)
                for i in (0, n):  # a state row and the input row
                    # z2 = -0.0 keeps each z2 + z3 the sign of z3; the
                    # initial-state dual enters with a minus, so +0.0 keeps it
                    state.z2[i], state.lam[i, 0] = -0.0, 0.0
                    for box, (j, sign) in enumerate(zip(columns, signs)):
                        v = -0.0 if sign else 0.0
                        state.z3[i, j], state.lam[i, j + 1] = v, v
                        offline.box_lb[i, box] = bound if side == "lb" else -np.inf
                        offline.box_ub[i, box] = bound if side == "ub" else np.inf
                    if i < n:
                        x[i] = -0.0 if signs[0] else 0.0
                    state.lam[i, N + 2] = -0.0 if signs[2] else 0.0
                ref = copied(state, offline)
                solve_qp1(state, offline, rho, x)
                reference_step(ref, offline, rho, x, ts_r, AB)
                assert state.z1.tobytes() == ref.z1.tobytes(), (bound, side, signs)
                for i in (0, n):
                    for j in columns:
                        assert ref.z1[i, j] == 0.0
                        assert np.signbit(ref.z1[i, j]) == np.signbit(bound), (i, j)


@pytest.mark.parametrize("N", [2, 6, 7, 14, 126, 127, 300])
def test_row_sums_follow_numpy_summation_order(N):
    """solve_qp2 and dual_residual byte for byte against the numpy expressions.

    Their row sums run over N + 1 and N + 2 terms, which at these horizons
    cover every branch of numpy's pairwise sum: fewer than 8 terms, 8 to
    128, and more than 128. Entries spread over 16 decades, so that another
    summation order shows in the last bits.
    """
    problem = pendulum_problem(N=N)
    offline = build_offline(problem, with_warmstart=False)
    rho, nm = problem.rho, problem.n + problem.m
    rng = np.random.default_rng(N)

    def spread(shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)

    for _ in range(20):
        state = random_state(rng, problem, offline)
        state.z3, state.lam = spread(state.z3.shape), spread(state.lam.shape)
        ts_r = spread(nm)
        z1, z3, lam = state.z1, state.z3, state.lam
        q2 = np.sum(rho.rho_hat * (z3 - z1), axis=1) + np.sum(lam[:, 1:], axis=1)
        q2 -= rho.rho_s * z1[:, N] + ts_r
        want = offline.M2 @ q2
        solve_qp2(state, offline, rho, ts_r)
        assert state.z2.tobytes() == want.tobytes()
        z2_prev, z3_prev = spread(nm), spread(z3.shape)
        got = dual_residual(z2_prev, z3_prev, state, offline, rho)
        assert got == reference_dual_residual(z2_prev, z3_prev, state, rho)


@pytest.mark.parametrize("N", [2, 12, 100, 400])
def test_kernel_band_solve_matches_f2py_dpbtrs(N):
    """banded_forward_backward, the kernel's dpbtrs (scipy's cython_lapack
    pointer), against scipy's f2py wrapper of the same routine, byte for byte."""
    band = build_offline(pendulum_problem(N=N), with_warmstart=False).band
    rng = np.random.default_rng(N)
    for _ in range(2000):
        c = rng.standard_normal(band.shape[1]) * 10.0 ** rng.integers(-6, 6)
        want, info = dpbtrs(band, c)
        assert info == 0
        assert banded_forward_backward(band, c) is c
        assert c.tobytes() == want.tobytes()


# What each kernel entry point reads (R) and writes (W), by the operand names
# of the kernel's table. The argument order is the solver's.
R, W = "read", "written"
KERNEL_OPERANDS = {
    "qp1": dict(z1=W, z3=R, lam=R, z2=R, x=R, columns=R, H1_inv=R, z1_lb=R, z1_ub=R),
    "qp2": dict(z1=R, z2=W, z3=R, lam=R, columns=R, ts_r=R, M2=R, work=W, q2=W),
    "qp3_rhs": dict(
        z1=R, rhs=W, q3=W, work=W, prod=W, z2=R, lam=R, columns=R, H3_inv=R, AB=R
    ),
    "qp3_update": dict(q3=R, z3=W, rhs=R, prod=W, AB=R, H3_inv=R),
    "residual": dict(z1=R, gamma=W, z2=R, z3=R, x=R),
    "duals": dict(lam=W, columns=R, gamma=R),
    "dual_residual": dict(z3=R, z3_spare=R, z2=R, z2_spare=R, columns=R, work=W),
    "band_solve": dict(band=R, rhs=W),
    "solve": dict(
        z1=W, z2=W, z3=W, lam=W, gamma=W, z2_spare=W, z3_spare=W, q2=W, q3=W, work=W,
        prod=W, rhs=W, ts_r=W, x=R, r=R, T=R, S=R, AB=R, columns=R, H1_inv=R, z1_lb=R, z1_ub=R,
        M2=R, H3_inv=R, band=R,
    ),
    "warm_shift": dict(
        prev_z1=R, prev_z2=R, prev_z3=R, prev_lam=R, P_z3_head=R, P_z2=R, P_lambda_head=R,
        x_prev=R, x_next=R, z1=W, z2=W, z3=W, lam=W, gamma=W,
    ),
    "plant_step": dict(next_state=W, state=R, u=R),
}


@functools.cache
def kernel_calls():
    """Per entry point, the names and copies of the arguments the package
    passes it: the stages as their Python functions call them, one call
    each, solve as solve_operands lists them, and warm_shift and plant_step
    as warmstart_predict and rk4_step call them."""
    problem = pendulum_problem(N=12)
    offline = build_offline(problem)
    state = random_state(np.random.default_rng(47), problem, offline)
    x, rho = np.array([0.1, -0.2, 1.0]), problem.rho
    r = np.array([0.0, 0.0, 0.5, 0.0])
    sc = offline.scratch
    ts_r, AB = sc.ts_r, problem.model.AB
    ts_r[:] = linear_terms(problem, r)[0]
    real, calls, passed = kernel.load(), {}, {}

    def recorded(entry, args):
        known = dict(
            z1=state.z1, z2=state.z2, z3=state.z3, lam=state.lam, gamma=sc.gamma,
            z2_spare=sc.z2, z3_spare=sc.z3, q2=sc.q2, q3=sc.q3, work=sc.work,
            prod=sc.prod, rhs=sc.rhs, x=x, r=r, T=problem.costs.T, S=problem.costs.S, ts_r=ts_r,
            AB=AB, columns=rho.columns, H1_inv=offline.H1_inv, z1_lb=offline.box_lb,
            z1_ub=offline.box_ub, M2=offline.M2, H3_inv=offline.H3_inv, band=offline.band,
        )
        names = {id(a): name for name, a in known.items()}
        if entry not in calls:  # copied before the call writes its outputs
            calls[entry] = [(names.get(id(a)), copied_argument(a)) for a in args]
            passed[entry] = args
        return getattr(real, entry)(*args)

    def named_after(entry, known):
        """Names the arguments of ``entry`` by the arrays they share memory with."""
        calls[entry] = [
            (next((k for k, v in known.items() if np.shares_memory(a, v)), None), copy)
            if isinstance(a, np.ndarray) else (None, copy)
            for a, (_, copy) in zip(passed[entry], calls[entry])
        ]

    class Recorder:
        def __getattr__(self, entry):
            return lambda *args: recorded(entry, args)

    solver_load = kernel.load
    kernel.load = Recorder
    try:
        solve_qp1(state, offline, rho, x)
        solve_qp2(state, offline, rho, ts_r)
        solve_qp3(state, offline, rho, AB)
        compute_residual(state, offline, x)
        update_duals(state, offline, rho)
        dual_residual(sc.z2, sc.z3, state, offline, rho)
        x_next, gain = np.array([0.12, -0.25, 0.97]), offline.warmstart
        warm = warmstart_predict(state, offline, x, x_next)
        plant_state, u = np.array([0.01, 0.2, 3.0]), np.array([1.5])
        next_state = rk4_step(plant_state, u, 0.02, 10, PendulumParams())
    finally:
        kernel.load = solver_load
    named_after("warm_shift", dict(
        prev_z1=state.z1, prev_z2=state.z2, prev_z3=state.z3, prev_lam=state.lam,
        P_z3_head=gain.P_z3_head, P_z2=gain.P_z2, P_lambda_head=gain.P_lambda_head, x_prev=x,
        x_next=x_next, z1=warm.z1, z2=warm.z2, z3=warm.z3, lam=warm.lam, gamma=sc.gamma,
    ))
    named_after("plant_step", dict(next_state=next_state, state=plant_state, u=u))
    operands = solver.solve_operands(state, offline, problem, x, r)
    recorded("solve", (*operands, problem.config.epsilon, False, 50))
    return calls


def copied_argument(a):
    return a.copy(order="K") if isinstance(a, np.ndarray) else a


def wrong_order(a):
    """The same values in the other memory order; a strided view for a vector,
    and a misaligned copy for a one-entry vector or matrix, which numpy counts
    as contiguous in either order."""
    if a.size == 1:
        misaligned = np.zeros(a.nbytes + 1, dtype=np.uint8)[1:].view(np.float64)
        misaligned = misaligned.reshape(a.shape)
        misaligned[...] = a
        return misaligned
    if a.ndim == 1:
        return np.repeat(a, 2)[::2]
    return np.ascontiguousarray(a) if a.flags.f_contiguous else np.asfortranarray(a)


def wrong_shape(a, first):
    """One column for an entry point's first operand if it is a matrix, whose
    shape sets the others'; one more last extent for any other."""
    if first and a.ndim == 2:
        return a[:, :1].copy()
    return np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))


def read_only(a):
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "entry, name", [(entry, name) for entry, ops in KERNEL_OPERANDS.items() for name in ops]
)
def test_kernel_checks_every_operand(entry, name):
    """A wrong dtype, the wrong memory order, a wrong shape and, for an
    output, a read-only array: each raises DimensionMismatch naming the
    operand, and no array is written. For x the wrong shape has n + m rows,
    one more than the kernel takes."""
    given = kernel_calls()[entry]  # the arrays, then solve's three scalars
    names = [n for n, a in given if isinstance(a, np.ndarray)]
    assert sorted(names) == sorted(KERNEL_OPERANDS[entry])
    at = names.index(name)
    spoilers = [
        lambda a: np.zeros_like(a, dtype=np.float32),
        wrong_order,
        lambda a: wrong_shape(a, at == 0),
    ]
    if KERNEL_OPERANDS[entry][name] == W:
        spoilers.append(read_only)
    fn = getattr(kernel.load(), entry)
    for spoil in spoilers:
        args = [copied_argument(a) for _, a in given]
        args[at] = spoil(args[at])
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        for a in arrays:
            if a.flags.writeable:
                a[...] = 7.0
        before = [a.tobytes() for a in arrays]
        with pytest.raises(DimensionMismatch, match=f"^{name} must be"):
            fn(*args)
        assert [a.tobytes() for a in arrays] == before, spoil
    fn(*[copied_argument(a) for _, a in given])  # the unspoilt arguments pass
