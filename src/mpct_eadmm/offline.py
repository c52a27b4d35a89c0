"""Offline precomputation for the extended-ADMM MPCT solver.

Everything the online iteration needs is computed here once per problem:
the diagonal inverses of the first and third subproblem Hessians, the small
dense gain solving the artificial-reference subproblem, the banded block
Cholesky factors of the deviation subproblem's Schur complement, the stage
bound vectors and the (sparse) warmstart gain. All of it together occupies
a number of scalars that is affine in the prediction horizon.
"""

from dataclasses import dataclass

import numpy as np

from .dense import splitting_matrices
from .errors import FactorizationFailure, RankDeficientG2, SupportViolation

# Singular values below RANK_RTOL * sigma_max are treated as zero.
RANK_RTOL = 1e-10


def compute_h1_inverse(rho):
    """Reciprocal diagonal of the trajectory subproblem Hessian, column-block form.

    Column 0 adds the initial-state penalty on its state part, the last column
    adds the terminal penalty, interior columns carry only the congruence
    penalty.
    """
    n = rho.rho0.size
    h1 = rho.rho_hat.copy()
    h1[:n, 0] += rho.rho0
    h1[:, -1] += rho.rho_s
    return 1.0 / h1


def compute_h3_inverse(costs, rho):
    """Reciprocal diagonal of the deviation subproblem Hessian, column-block form."""
    qr = np.concatenate([costs.Q_diag, costs.R_diag])
    return 1.0 / (qr[:, None] + rho.rho_hat)


def compute_m2(model, costs, rho):
    """Dense gain mapping the linear term of the reference subproblem to its minimizer.

    The subproblem minimizes a strictly convex quadratic over the steady-state
    subspace {(xs, us) : (A - I) xs + B us = 0}; its solution is z2 = M2 q2.
    """
    n, m = model.n, model.m
    H2 = np.zeros((n + m, n + m))
    H2[:n, :n] = costs.T
    H2[n:, n:] = costs.S
    H2 += np.diag(rho.rho_hat.sum(axis=1) + rho.rho_s)
    G2 = np.hstack([model.A - np.eye(n), model.B])
    H2_inv = np.linalg.inv(H2)
    W2 = G2 @ H2_inv @ G2.T
    svals = np.linalg.svd(W2, compute_uv=False)
    if svals[-1] <= RANK_RTOL * svals[0]:
        raise RankDeficientG2(
            "steady-state constraint matrix [(A - I) B] is numerically rank deficient"
        )
    M2 = H2_inv @ G2.T @ np.linalg.inv(W2) @ G2 @ H2_inv - H2_inv
    return 0.5 * (M2 + M2.T)


def factor_block_tridiagonal(diag_blocks, offdiag_blocks):
    """Block Cholesky of a symmetric positive definite block-tridiagonal matrix.

    ``diag_blocks`` are the N diagonal n-by-n blocks and ``offdiag_blocks``
    the N-1 super-diagonal blocks. Returns (alphas, beta_hats) where the
    upper factor has beta blocks on the diagonal and alpha blocks above it;
    beta_hats carry the reciprocals of the beta diagonals so the online
    substitution multiplies instead of divides.
    """
    N = len(diag_blocks)
    alphas, beta_hats = [], []
    prev_alpha = None
    for k in range(N):
        Wkk = diag_blocks[k]
        if prev_alpha is not None:
            Wkk = Wkk - prev_alpha.T @ prev_alpha
        try:
            beta = np.linalg.cholesky(Wkk).T  # upper triangular
        except np.linalg.LinAlgError:
            raise FactorizationFailure(
                f"non-positive pivot in block {k} of the banded Cholesky"
            ) from None
        if k < N - 1:
            # beta^T alpha = W_{k,k+1}; beta^T is lower triangular.
            alpha = np.linalg.solve(beta.T, offdiag_blocks[k])
            alphas.append(alpha)
            prev_alpha = alpha
        beta_hat = beta.copy()
        np.fill_diagonal(beta_hat, 1.0 / np.diag(beta))
        beta_hats.append(beta_hat)
    return alphas, beta_hats


def compute_banded_cholesky(model, H3_inv, N):
    """Factor the Schur complement of the deviation subproblem.

    The matrix is block tridiagonal with diagonal blocks
    [A B] D_j [A B]^T + diag of the state part of D_{j+1}
    and super-diagonal blocks -diag(state part of D_{j+1}) A^T,
    where D_j is the j-th diagonal block of the inverse Hessian.
    """
    n = model.n
    AB = np.hstack([model.A, model.B])
    diag_blocks, offdiag_blocks = [], []
    for j in range(N):
        Dj = H3_inv[:, j]
        Dj1x = H3_inv[:n, j + 1]
        diag_blocks.append((AB * Dj) @ AB.T + np.diag(Dj1x))
        if j < N - 1:
            offdiag_blocks.append(-(Dj1x[:, None] * model.A.T))
    return factor_block_tridiagonal(diag_blocks, offdiag_blocks)


def compute_rho_upper_bound(costs):
    """Theoretical penalty upper bound guaranteeing convergence.

    Equals 6/17 times the smallest stage weight; the constraint matrix of the
    strongly convex block has unit spectral norm, so no norm computation is
    needed.
    """
    mu3 = min(costs.Q_diag.min(), costs.R_diag.min())
    return 6.0 * mu3 / 17.0


@dataclass
class WarmstartGain:
    """Reduced sensitivity gain for the warmstart prediction step.

    Only the artificial reference, the leading state block of the deviation
    variables and the first two dual state blocks move when the measured
    state changes; all other rows of the full gain are numerically zero
    (asserted at build time via ``support_residual``).
    """

    P_z2: np.ndarray
    P_z3_head: np.ndarray
    P_lambda_head: np.ndarray
    support_residual: float
    singular_kkt: bool = False


def warmstart_sensitivity(model, costs, rho, N):
    """Sensitivity of the optimizer and duals to the measured state.

    Solves the first-order optimality system of the equality-constrained
    problem for the derivative with respect to the initial state. Returns the
    full gain, rows stacked as (z1, z2, z3, lambda) of the dense splitting,
    and whether the system was singular (the minimum-norm solution is taken).
    """
    n, m = model.n, model.m
    nm = n + m
    nz = (N + 1) * nm
    Az = np.hstack(splitting_matrices(n, m, N))
    m_z = Az.shape[0]
    nw = 2 * nz + nm + m_z
    Hz = np.zeros((2 * nz + nm, 2 * nz + nm))
    Hz[nz : nz + n, nz : nz + n] = costs.T
    Hz[nz + n : nz + nm, nz + n : nz + nm] = costs.S
    qr = np.concatenate([costs.Q_diag, costs.R_diag])
    Hz[nz + nm :, nz + nm :] = np.diag(np.tile(qr, N + 1))
    K = np.zeros((nw, nw))
    K[: 2 * nz + nm, : 2 * nz + nm] = Hz
    K[: 2 * nz + nm, 2 * nz + nm :] = Az.T
    K[2 * nz + nm :, : 2 * nz + nm] = Az
    rhs = np.zeros((nw, n))
    rhs[2 * nz + nm : 2 * nz + nm + n] = np.eye(n)
    Y, _, rank, _ = np.linalg.lstsq(K, rhs, rcond=RANK_RTOL)
    return -Y, rank < nw


def compute_warmstart_gain(model, costs, rho, N, support_tol=1e-9):
    """Reduced rows of :func:`warmstart_sensitivity`, support checked.

    Checks that the rows outside the declared support are numerically zero
    and returns the reduced rows. The trajectory block is discarded
    unconditionally since the online iteration overwrites it before use.
    """
    n, m = model.n, model.m
    nm = n + m
    nz = (N + 1) * nm
    P, singular = warmstart_sensitivity(model, costs, rho, N)
    z2_rows = P[nz : nz + nm]
    z3 = P[nz + nm : 2 * nz + nm]
    lam = P[2 * nz + nm :]
    off_support = float(
        max(np.abs(z3[n:]).max(initial=0.0), np.abs(lam[2 * n :]).max(initial=0.0))
    )
    p_max = float(np.abs(P).max())
    if off_support > support_tol * max(1.0, p_max):
        raise SupportViolation(
            f"warmstart gain support residual {off_support:.3e} exceeds "
            f"{support_tol:.1e} * max(1, {p_max:.3e})"
        )
    return WarmstartGain(
        P_z2=z2_rows.copy(),
        P_z3_head=z3[:n].copy(),
        P_lambda_head=lam[: 2 * n].copy(),
        support_residual=off_support,
        singular_kkt=singular,
    )


@dataclass
class OfflineData:
    """Precomputed solver ingredients, immutable once built.

    All horizon-indexed data is stored in column-block layout ((n+m) rows,
    one column per prediction step).
    """

    n: int
    m: int
    N: int
    H1_inv: np.ndarray
    H3_inv: np.ndarray
    M2: np.ndarray
    alphas: list
    beta_hats: list
    z_lb: np.ndarray
    z_ub: np.ndarray
    z_lb_s: np.ndarray
    z_ub_s: np.ndarray
    u_only_lb: np.ndarray
    u_only_ub: np.ndarray
    rho_upper_bound: float
    rho_exceeds_bound: bool
    warmstart: WarmstartGain = None

    def scalar_count(self):
        """Number of scalars in the stored representation.

        The beta_hat blocks count only their upper triangles (the strict lower
        part is structurally zero and never serialized). Affine in N.
        """
        n, m, N = self.n, self.m, self.N
        nm = n + m
        count = 2 * nm * (N + 1)  # H1_inv, H3_inv
        count += nm * nm  # M2
        count += (N - 1) * n * n  # alphas
        count += N * (n * (n + 1) // 2)  # beta_hats, packed triangles
        count += 6 * nm  # bound vectors
        return count


def build_offline(problem, with_warmstart=True):
    """Run all offline precomputation for a validated problem."""
    model, costs, rho = problem.model, problem.costs, problem.rho
    n, m, N = problem.n, problem.m, problem.N
    H1_inv = compute_h1_inverse(rho)
    H3_inv = compute_h3_inverse(costs, rho)
    M2 = compute_m2(model, costs, rho)
    alphas, beta_hats = compute_banded_cholesky(model, H3_inv, N)
    z_lb = np.concatenate([model.x_lb, model.u_lb])
    z_ub = np.concatenate([model.x_ub, model.u_ub])
    z_lb_s = np.concatenate([model.x_lb + model.eps_x, model.u_lb + model.eps_u])
    z_ub_s = np.concatenate([model.x_ub - model.eps_x, model.u_ub - model.eps_u])
    # The state part of stage 0 is free: it is pinned by the initial-state
    # penalty, not by a box.
    u_only_lb = np.concatenate([np.full(n, -np.inf), model.u_lb])
    u_only_ub = np.concatenate([np.full(n, np.inf), model.u_ub])
    bound = compute_rho_upper_bound(costs)
    rho_max = max(rho.rho0.max(), rho.rho_s.max(), rho.rho_hat.max())
    gain = compute_warmstart_gain(model, costs, rho, N) if with_warmstart else None
    return OfflineData(
        n=n,
        m=m,
        N=N,
        H1_inv=H1_inv,
        H3_inv=H3_inv,
        M2=M2,
        alphas=alphas,
        beta_hats=beta_hats,
        z_lb=z_lb,
        z_ub=z_ub,
        z_lb_s=z_lb_s,
        z_ub_s=z_ub_s,
        u_only_lb=u_only_lb,
        u_only_ub=u_only_ub,
        rho_upper_bound=bound,
        rho_exceeds_bound=bool(rho_max >= bound),
        warmstart=gain,
    )
