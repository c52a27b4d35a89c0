"""Tests of the dense reference implementation itself."""

from dataclasses import replace

import numpy as np
import pytest

from mpct_eadmm import dense
from mpct_eadmm.compare import interleaved_max_deviation, sample_states
from mpct_eadmm.errors import NumericalBreakdown
from mpct_eadmm.problem import (
    CostWeights,
    MpctConfig,
    SystemModel,
    build_rho,
    validate_problem,
)


def tiny_problem(N=2):
    """A scalar system with no bounds."""
    model = SystemModel(
        A=np.array([[0.5]]),
        B=np.array([[1.0]]),
        x_lb=np.array([-np.inf]),
        x_ub=np.array([np.inf]),
        u_lb=np.array([-np.inf]),
        u_ub=np.array([np.inf]),
    )
    costs = CostWeights(
        Q_diag=np.array([2.0]), R_diag=np.array([1.0]), T=np.eye(1) * 3.0, S=np.eye(1)
    )
    config = MpctConfig(N=N)
    rho = build_rho(model, config, 1.0, 1.0)
    return validate_problem(model, costs, config, rho)


def test_assembly_shapes_tiny():
    p = tiny_problem()
    dp = dense.assemble_dense(p.model, p.costs, p.rho, p.N, np.zeros(1), np.zeros(2))
    assert dp.b.size == 1 + 4 * 2
    assert dp.A1.shape == (9, 6) and dp.A3.shape == (9, 6) and dp.A2.shape == (9, 2)
    # A2 column pattern: zero block then a stack of identities
    assert not dp.A2[:1].any()
    for j in range(4):
        np.testing.assert_array_equal(dp.A2[1 + 2 * j : 3 + 2 * j], np.eye(2))


def test_assembly_identities_pendulum(problem):
    dp = dense.assemble_dense(
        problem.model, problem.costs, problem.rho, problem.N, np.zeros(3), np.zeros(4)
    )
    nm = problem.n + problem.m
    assert np.linalg.matrix_rank(dp.A1) == (problem.N + 1) * nm
    assert np.linalg.matrix_rank(dp.A2) == nm
    A3tA3 = dp.A3.T @ dp.A3
    assert abs(np.linalg.norm(A3tA3, 2) - 1.0) <= 1e-12
    A1tA1 = dp.A1.T @ dp.A1
    assert np.abs(A1tA1 - np.diag(np.diag(A1tA1))).max() <= 1e-14
    np.testing.assert_allclose(dp.A2.T @ dp.A2, (problem.N + 2) * np.eye(nm), atol=1e-14)


def test_prop1_self_consistency():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        H = M @ M.T + 6 * np.eye(6)
        G = rng.standard_normal((2, 6))
        q = rng.standard_normal(6)
        b = rng.standard_normal(2)
        z, mu = dense.prop1_solve(H, q, G, b)
        assert np.abs(H @ z + q + G.T @ mu).max() <= 1e-10
        assert np.abs(G @ z - b).max() <= 1e-10


def test_dense_step_zero_fixed_point():
    p = tiny_problem()
    dp = dense.assemble_dense(p.model, p.costs, p.rho, p.N, np.zeros(1), np.zeros(2))
    it = dense.dense_iterate_zero(dp)
    out = dense.dense_eadmm_step(dp, it)
    for arr in (out.z1, out.z2, out.z3, out.lam):
        assert np.abs(arr).max() <= 1e-14


def test_dense_replay_deterministic(problem):
    x = np.array([0.1, -0.2, 0.5])
    dp = dense.assemble_dense(problem.model, problem.costs, problem.rho, problem.N, x, np.zeros(4))
    seqs = []
    for _ in range(2):
        it = dense.dense_iterate_zero(dp)
        residuals = []
        for _ in range(50):
            it = dense.dense_eadmm_step(dp, it)
            gamma = dp.A1 @ it.z1 + dp.A2 @ it.z2 + dp.A3 @ it.z3 - dp.b
            residuals.append(np.abs(gamma).max())
        assert np.all(np.isfinite(residuals))
        seqs.append(residuals)
    assert seqs[0] == seqs[1]


def test_sample_states_finite_and_inside_infinite_boxes():
    lb = np.array([-np.inf, -np.inf, 3.0, -np.inf, -2.0])
    ub = np.array([np.inf, -10.0, np.inf, 5.0, 2.0])
    model = SystemModel(A=np.eye(5), B=np.ones((5, 1)), x_lb=lb, x_ub=ub, u_lb=[-1], u_ub=[1])
    states = sample_states(model, np.random.default_rng(3), 200)
    assert states.shape == (200, 5) and np.all(np.isfinite(states))
    assert np.all((states > lb) & (states < ub))
    assert np.abs(states[:, 0]).max() <= 0.9  # no bounds: central 90 % of [-1, 1]


def test_sparse_matches_dense_single_instance(problem, offline):
    dev = interleaved_max_deviation(
        problem, offline, np.array([0.0, 0.0, 1.0]), np.zeros(4), iterations=50
    )
    assert dev <= 1e-10


def test_non_finite_sparse_iterate_breaks_down(problem, offline):
    """A reference the config accepts whose weighted form overflows makes
    the sparse residual NaN: the harness raises, as a solve does, instead of
    reading the NaN iterates as zero deviation."""
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalBreakdown, match="at iteration 1$"):
            interleaved_max_deviation(problem, offline, np.zeros(3), np.full(4, 1e308))


def test_nan_deviation_is_kept(problem, offline, monkeypatch):
    """A NaN in one dense iterate at the third of six iterations, with
    finite iterates before and after it, makes the worst deviation NaN."""
    real, clean = dense.dense_eadmm_step, []

    def poisoned_once(dprob, it):
        out = real(dprob, clean[-1] if clean else it)
        clean.append(out)
        if len(clean) == 3:
            out = replace(out, z2=np.where(np.arange(out.z2.size) == 1, np.nan, out.z2))
        return out

    x, r = np.array([0.0, 0.0, 1.0]), np.zeros(4)
    assert np.isfinite(interleaved_max_deviation(problem, offline, x, r, iterations=6))
    monkeypatch.setattr(dense, "dense_eadmm_step", poisoned_once)
    assert np.isnan(interleaved_max_deviation(problem, offline, x, r, iterations=6))
    assert len(clean) == 6


def _solve_equality_qp(p, dp):
    """Ground-truth KKT solve of the full (unconstrained-box) extended problem."""
    nz = dp.A1.shape[1]
    nm = p.n + p.m
    nvar = 2 * nz + nm
    H = np.zeros((nvar, nvar))
    H[nz : nz + nm, nz : nz + nm] = dp.TS
    H[nz + nm :, nz + nm :] = np.diag(dp.QR_diag)
    q = np.concatenate([np.zeros(nz), dp.q2_lin, np.zeros(nz)])
    Acat = np.hstack([dp.A1, dp.A2, dp.A3])
    G2r = np.hstack([np.zeros((dp.G2.shape[0], nz)), dp.G2, np.zeros((dp.G2.shape[0], nz))])
    G3r = np.hstack([np.zeros((dp.G3.shape[0], nz + nm)), dp.G3])
    J = np.vstack([Acat, G2r, G3r])
    rhs_eq = np.concatenate([dp.b, np.zeros(J.shape[0] - dp.b.size)])
    K = np.block([[H, J.T], [J, np.zeros((J.shape[0], J.shape[0]))]])
    sol = np.linalg.lstsq(K, np.concatenate([-q, rhs_eq]), rcond=None)[0]
    z = sol[:nvar]
    lam = sol[nvar : nvar + dp.b.size]
    return z[:nz], z[nz : nz + nm], z[nz + nm :], lam


def test_kkt_residual_exact_solution():
    p = tiny_problem()
    dp = dense.assemble_dense(p.model, p.costs, p.rho, p.N, np.array([0.3]), np.zeros(2))
    z1, z2, z3, lam = _solve_equality_qp(p, dp)
    assert dense.kkt_residual(dp, z1, z2, z3, lam) <= 1e-9


def test_kkt_residual_flags_infeasibility():
    p = tiny_problem()
    dp = dense.assemble_dense(p.model, p.costs, p.rho, p.N, np.array([0.3]), np.zeros(2))
    z1, z2, z3, lam = _solve_equality_qp(p, dp)
    z1 = z1 + 1.0  # breaks the congruence constraints
    assert dense.kkt_residual(dp, z1, z2, z3, lam) > 1e-4

