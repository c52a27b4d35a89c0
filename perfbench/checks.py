"""Correctness checks on solver outputs, computed independently of the solver.

Every returned solution is checked against the problem data alone: the
coupling equalities of the three-block splitting, the prediction dynamics of
the deviation block and the steady-state condition of the artificial
reference. A seeded subset is also replayed against the dense oracle.
"""

import numpy as np

from mpct_eadmm import compare, dense

# Pass bound of `mpct compare` on the sparse-vs-dense iterate deviation.
COMPARE_BOUND = 1e-8
# The deviation and reference subproblems are solved exactly; what is left of
# their equality constraints is rounding error.
SUBPROBLEM_TOL = 1e-8
ITERATIONS_REPLAYED = 50


def residuals(problem, x, result):
    """(equality, dynamics, steady-state) inf-norm residuals of a solution.

    equality: initial state z1_0 = x, congruence z1_j = z2 + z3_j for every
    stage, terminal z1_N = z2. dynamics: the deviation trajectory z3 obeys
    x_{j+1} = A x_j + B u_j. steady state: (A - I) xs + B us = 0.
    """
    A, B = problem.model.A, problem.model.B
    n, N = problem.n, problem.N
    z1, z2, z3 = result.z1, result.z2, result.z3
    equality = max(
        float(np.abs(z1[:n, 0] - x).max()),
        float(np.abs(z2[:, None] + z3 - z1).max()),
        float(np.abs(z2 - z1[:, N]).max()),
    )
    dynamics = float(np.abs(A @ z3[:n, :N] + B @ z3[n:, :N] - z3[:n, 1:]).max())
    steady = float(np.abs(A @ z2[:n] - z2[:n] + B @ z2[n:]).max())
    return equality, dynamics, steady


def check_solution(problem, x, result):
    """(ok, equality residual) of a solution reported as converged.

    ok means the equality residual meets the exit tolerance and the
    subproblem constraints hold to rounding error.
    """
    equality, dynamics, steady = residuals(problem, x, result)
    ok = (
        equality <= problem.config.epsilon
        and dynamics <= SUBPROBLEM_TOL
        and steady <= SUBPROBLEM_TOL
    )
    return ok, equality


def objective(problem, r, result):
    """MPCT cost of a solution: stage cost of z3 plus offset cost of z2 - r."""
    costs, n = problem.costs, problem.n
    qr = np.concatenate([costs.Q_diag, costs.R_diag])
    d = result.z2 - r
    return float(
        np.sum(qr[:, None] * result.z3**2)
        + d[:n] @ costs.T @ d[:n]
        + d[n:] @ costs.S @ d[n:]
    )


def dense_replay(problem, offline_data, cases):
    """Replay (x, r, result) cases against the dense oracle.

    Returns the worst sparse-vs-dense iterate deviation over the first
    ITERATIONS_REPLAYED iterations and the worst KKT residual of the returned
    solutions.
    """
    n, m, N = problem.n, problem.m, problem.N
    worst_dev, worst_kkt = 0.0, 0.0
    for x, r, result in cases:
        dev = compare.interleaved_max_deviation(
            problem, offline_data, x, r, iterations=ITERATIONS_REPLAYED
        )
        dprob = dense.assemble_dense(problem.model, problem.costs, problem.rho, N, x, r)
        kkt = dense.kkt_residual(
            dprob,
            result.z1.flatten(order="F"),
            result.z2,
            result.z3.flatten(order="F"),
            dense.pack_duals(result.lam, n, m, N),
        )
        worst_dev, worst_kkt = max(worst_dev, dev), max(worst_kkt, kkt)
    return worst_dev, worst_kkt
