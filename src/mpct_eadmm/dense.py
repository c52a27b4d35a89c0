"""Dense, naive reference implementation used to validate the sparse solver.

Everything here assembles the full constraint matrices explicitly and solves
the per-iteration subproblems with generic dense linear algebra. It is
deliberately slow and deliberately independent of the sparse code paths: the
only shared knowledge is the problem definition itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularKkt


@dataclass
class DenseExtendedProblem:
    """Explicit three-block splitting of one MPCT instance."""

    n: int
    m: int
    N: int
    A1: np.ndarray
    A2: np.ndarray
    A3: np.ndarray
    b: np.ndarray
    rho_full: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    H3: np.ndarray
    G2: np.ndarray
    G3: np.ndarray
    z1_lb: np.ndarray
    z1_ub: np.ndarray
    q2_lin: np.ndarray  # -(T x_r, S u_r)
    TS: np.ndarray  # diag(T, S)
    QR_diag: np.ndarray  # stage weights repeated over all N+1 steps


@dataclass
class DenseIterate:
    """Flat-vector iterate of the dense replay."""

    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    lam: np.ndarray


def splitting_matrices(n, m, N):
    """Coupling matrices A1, A2, A3 of the three-block splitting.

    Rows: the initial-state constraint, the N+1 congruence constraints
    z1_j = z2 + z3_j, and the terminal equality z1_N = z2.
    """
    nm = n + m
    nz = (N + 1) * nm
    m_z = n + (N + 1) * nm + nm
    A1 = np.zeros((m_z, nz))
    A2 = np.zeros((m_z, nm))
    A3 = np.zeros((m_z, nz))
    A1[:n, :n] = np.eye(n)
    for j in range(N + 1):
        row = n + j * nm
        col = j * nm
        A1[row : row + nm, col : col + nm] = -np.eye(nm)
        A2[row : row + nm] = np.eye(nm)
        A3[row : row + nm, col : col + nm] = np.eye(nm)
    A1[m_z - nm :, nz - nm :] = -np.eye(nm)
    A2[m_z - nm :] = np.eye(nm)
    return A1, A2, A3


def assemble_dense(model, costs, rho, N, x, r):
    """Build the explicit splitting matrices for a given state and reference."""
    n, m = model.n, model.m
    nm = n + m
    nz = (N + 1) * nm
    A1, A2, A3 = splitting_matrices(n, m, N)
    b = np.zeros(A1.shape[0])
    b[:n] = np.asarray(x, dtype=float).ravel()
    rho_full = np.concatenate([rho.rho0, rho.rho_hat.flatten(order="F"), rho.rho_s])
    TS = np.zeros((nm, nm))
    TS[:n, :n] = costs.T
    TS[n:, n:] = costs.S
    QR_diag = np.tile(np.concatenate([costs.Q_diag, costs.R_diag]), N + 1)
    H1 = A1.T @ (rho_full[:, None] * A1)
    H2 = TS + A2.T @ (rho_full[:, None] * A2)
    H3 = np.diag(QR_diag) + A3.T @ (rho_full[:, None] * A3)
    G2 = np.hstack([model.A - np.eye(n), model.B])
    G3 = np.zeros((N * n, nz))
    AB = np.hstack([model.A, model.B])
    for j in range(N):
        G3[j * n : (j + 1) * n, j * nm : (j + 1) * nm] = AB
        G3[j * n : (j + 1) * n, (j + 1) * nm : (j + 1) * nm + n] = -np.eye(n)
    big = 1e10
    z1_lb = np.concatenate(
        [
            np.concatenate([np.full(n, -big), model.u_lb]),
            np.tile(np.concatenate([model.x_lb, model.u_lb]), N - 1),
            np.concatenate([model.x_lb + model.eps_x, model.u_lb + model.eps_u]),
        ]
    )
    z1_ub = np.concatenate(
        [
            np.concatenate([np.full(n, big), model.u_ub]),
            np.tile(np.concatenate([model.x_ub, model.u_ub]), N - 1),
            np.concatenate([model.x_ub - model.eps_x, model.u_ub - model.eps_u]),
        ]
    )
    r = np.asarray(r, dtype=float).ravel()
    q2_lin = -np.concatenate([costs.T @ r[:n], costs.S @ r[n:]])
    return DenseExtendedProblem(
        n=n,
        m=m,
        N=N,
        A1=A1,
        A2=A2,
        A3=A3,
        b=b,
        rho_full=rho_full,
        H1=H1,
        H2=H2,
        H3=H3,
        G2=G2,
        G3=G3,
        z1_lb=z1_lb,
        z1_ub=z1_ub,
        q2_lin=q2_lin,
        TS=TS,
        QR_diag=QR_diag,
    )


def prop1_solve(H, q, G, b):
    """Explicit solution of an equality-constrained strictly convex QP.

    min 1/2 z'Hz + q'z s.t. Gz = b, via the Schur complement on the dual.
    """
    try:
        H_inv_q = np.linalg.solve(H, q)
        H_inv_GT = np.linalg.solve(H, G.T)
        W = G @ H_inv_GT
        mu = np.linalg.solve(W, -(G @ H_inv_q + b))
    except np.linalg.LinAlgError as exc:
        raise SingularKkt(str(exc)) from None
    z = -(H_inv_GT @ mu + H_inv_q)
    return z, mu


def dense_iterate_zero(problem):
    nz = (problem.N + 1) * (problem.n + problem.m)
    return DenseIterate(
        z1=np.zeros(nz),
        z2=np.zeros(problem.n + problem.m),
        z3=np.zeros(nz),
        lam=np.zeros(problem.b.size),
    )


def dense_eadmm_step(problem, it):
    """One full iteration of the three-block splitting with dense algebra."""
    p = problem
    rho = p.rho_full
    q1 = p.A1.T @ (rho * (p.A2 @ it.z2 + p.A3 @ it.z3 - p.b)) + p.A1.T @ it.lam
    z1 = np.clip(-q1 / np.diag(p.H1), p.z1_lb, p.z1_ub)
    q2 = p.q2_lin + p.A2.T @ (rho * (p.A1 @ z1 + p.A3 @ it.z3 - p.b)) + p.A2.T @ it.lam
    z2, _ = prop1_solve(p.H2, q2, p.G2, np.zeros(p.G2.shape[0]))
    q3 = p.A3.T @ (rho * (p.A1 @ z1 + p.A2 @ z2 - p.b)) + p.A3.T @ it.lam
    z3, _ = prop1_solve(p.H3, q3, p.G3, np.zeros(p.G3.shape[0]))
    gamma = p.A1 @ z1 + p.A2 @ z2 + p.A3 @ z3 - p.b
    lam = it.lam + rho * gamma
    return DenseIterate(z1=z1, z2=z2, z3=z3, lam=lam)


def pack_duals(lam_cols, n, m, N):
    """Column-block dual storage -> flat dual vector of the dense splitting."""
    return np.concatenate(
        [lam_cols[:n, 0], lam_cols[:, 1 : N + 2].flatten(order="F"), lam_cols[:, N + 2]]
    )


def _stationarity_residual(g, G):
    """inf-norm of the component of g orthogonal to the row space of G."""
    mu, *_ = np.linalg.lstsq(G.T, -g, rcond=None)
    return float(np.abs(g + G.T @ mu).max())


def kkt_residual(problem, z1, z2, z3, lam, face_tol=1e-9):
    """First-order optimality residual of the original problem at a point.

    Combines the coupling-equality residual, the per-block subspace residuals
    and the stationarity of each block; box-constrained components are tested
    with a clipped gradient (only components strictly inside their box count).
    """
    p = problem
    eq = float(np.abs(p.A1 @ z1 + p.A2 @ z2 + p.A3 @ z3 - p.b).max())
    zset = max(
        float(np.abs(p.G3 @ z3).max()),
        float(np.abs(p.G2 @ z2).max()),
    )
    g1 = p.A1.T @ lam
    inside = (z1 > p.z1_lb + face_tol) & (z1 < p.z1_ub - face_tol)
    s1 = float(np.abs(g1[inside]).max()) if np.any(inside) else 0.0
    g2 = p.TS @ z2 + p.q2_lin + p.A2.T @ lam
    s2 = _stationarity_residual(g2, p.G2)
    g3 = p.QR_diag * z3 + p.A3.T @ lam
    s3 = _stationarity_residual(g3, p.G3)
    return max(eq, zset, s1, s2, s3)


def map_to_original(z1, z2, z3, n, m, N):
    """Recover the original trajectory variables from the split ones."""
    nm = n + m
    z1c = z1.reshape(nm, N + 1, order="F")
    z3c = z3.reshape(nm, N + 1, order="F")
    x_traj = z1c[:n].T.copy()
    u_traj = z1c[n:].T.copy()
    xs, us = z2[:n].copy(), z2[n:].copy()
    congruence_err = float(np.abs(z3c + z2[:, None] - z1c).max())
    return x_traj, u_traj, xs, us, congruence_err
