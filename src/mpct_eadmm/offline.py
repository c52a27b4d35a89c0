"""Offline precomputation for the extended-ADMM MPCT solver.

Everything the online iteration needs is computed here once per problem:
the diagonal inverses of the first and third subproblem Hessians, the small
dense gain solving the artificial-reference subproblem, the banded block
Cholesky factors of the deviation subproblem's Schur complement, the stage
boxes and the (sparse) warmstart gain. All of it together occupies
a number of scalars that is affine in the prediction horizon.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import FactorizationFailure, RankDeficientG2
from .solver import Scratch

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
    the N-1 super-diagonal blocks. Returns (alphas, beta_hats), stacked as
    (N-1, n, n) and (N, n, n) arrays, where the upper factor has beta blocks
    on the diagonal and alpha blocks above it; beta_hats carry the
    reciprocals of the beta diagonals in place of the diagonals.
    """
    N, n = len(diag_blocks), diag_blocks[0].shape[0]
    alphas, beta_hats = np.empty((N - 1, n, n)), np.empty((N, n, n))
    for k in range(N):
        Wkk = diag_blocks[k]
        if k > 0:
            Wkk = Wkk - alphas[k - 1].T @ alphas[k - 1]
        try:
            beta = np.linalg.cholesky(Wkk).T  # upper triangular
        except np.linalg.LinAlgError:
            raise FactorizationFailure(
                f"non-positive pivot in block {k} of the banded Cholesky"
            ) from None
        if k < N - 1:
            # beta^T alpha = W_{k,k+1}; beta^T is lower triangular.
            alphas[k] = np.linalg.solve(beta.T, offdiag_blocks[k])
        beta_hats[k] = beta
    d = np.arange(n)
    beta_hats[:, d, d] = 1.0 / beta_hats[:, d, d]
    return alphas, beta_hats


def cholesky_band(alphas, beta_hats):
    """Upper band of the block Cholesky factor in LAPACK storage.

    The factor U (W = U' U) has bandwidth kd = 2n - 1, so the band is a
    (2n, N n) Fortran-ordered array with U[i, j] at row kd + i - j of
    column j, as ``dpbtrs`` reads it. Derived from the factor blocks of
    :func:`factor_block_tridiagonal`, whose diagonals it reciprocates back.
    """
    N, n = beta_hats.shape[:2]
    # Built transposed: column k n + b of U, from alpha_{k-1} and beta_k,
    # ends with its diagonal entry in slot kd.
    cols = np.zeros((N, n, 2 * n))
    for b in range(n):
        cols[1:, b, n - 1 - b : 2 * n - 1 - b] = alphas[:, :, b]
        cols[:, b, 2 * n - 1 - b :] = beta_hats[:, : b + 1, b]
    cols[:, :, -1] = 1.0 / cols[:, :, -1]
    return cols.reshape(N * n, 2 * n).T


def compute_banded_cholesky(model, H3_inv, N):
    """Factor the Schur complement of the deviation subproblem.

    The matrix is block tridiagonal with diagonal blocks
    [A B] D_j [A B]^T + diag of the state part of D_{j+1}
    and super-diagonal blocks -diag(state part of D_{j+1}) A^T,
    where D_j is the j-th diagonal block of the inverse Hessian.
    """
    n = model.n
    AB = model.AB
    D = H3_inv[:, :N].T[:, None, :]
    Dx1 = H3_inv[:n, 1 : N + 1].T[:, :, None]
    diag_blocks = (AB * D) @ AB.T + Dx1 * np.eye(n)
    offdiag_blocks = -(Dx1[:-1] * model.A.T)
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
    state changes; every other row of the full gain is exactly zero.
    """

    P_z2: np.ndarray
    P_z3_head: np.ndarray
    P_lambda_head: np.ndarray


def compute_warmstart_gain(costs):
    """Closed-form sensitivity of the coupling problem to the measured state.

    The gain is the derivative of minus (z2, z3, lambda) with respect to x of
    the equality-constrained problem min 1/2 z2' diag(T, S) z2 + 1/2 z3' Q z3
    subject to the coupling constraints A1 z1 + A2 z2 + A3 z3 = (x, 0). The
    trajectory block z1 is free, so stationarity in z1 zeroes every dual but
    the initial-state one and its copy in the stage-0 state congruence; then
    z3 vanishes beyond stage 0, the input parts vanish, and the stage-0 state
    splits as x = xs + z3_0 with T xs = Q z3_0. With F = (T + Q)^-1 this gives
    xs = F Q x and z3_0 = F T x, independent of the penalty and the horizon.
    """
    n, m = costs.Q_diag.size, costs.R_diag.size
    F = np.linalg.inv(costs.T + np.diag(costs.Q_diag))
    FT = F @ costs.T
    QFT = costs.Q_diag[:, None] * FT
    P_z2 = np.zeros((n + m, n))
    P_z2[:n] = -F * costs.Q_diag
    return WarmstartGain(P_z2=P_z2, P_z3_head=-FT, P_lambda_head=np.vstack([QFT, QFT]))


@dataclass
class OfflineData:
    """Precomputed solver ingredients and the solver's work space.

    All horizon-indexed data is stored in column-block layout ((n+m) rows,
    one column per prediction step), but for the trajectory block's boxes
    ``box_lb`` and ``box_ub``: (n+m) x 3, stage 0 (state rows unbounded),
    stages 1 to N - 1 and the tightened stage N. ``fingerprint`` is the
    problem's (:func:`~.problem.problem_fingerprint`). Only ``band``
    (:func:`cholesky_band`) is derived on construction, at build and at
    load, and not serialized. Every array the compiled iteration kernel
    reads (the inverse Hessians, M2, the boxes) is held in C order, built or
    loaded; ``band`` is in Fortran order. Every solve and warm start on this
    data writes into its one ``scratch`` (:class:`~.solver.Scratch`), which
    is not counted in :meth:`scalar_count`.
    """

    n: int
    m: int
    N: int
    H1_inv: np.ndarray
    H3_inv: np.ndarray
    M2: np.ndarray
    alphas: np.ndarray
    beta_hats: np.ndarray
    box_lb: np.ndarray
    box_ub: np.ndarray
    rho_upper_bound: float
    rho_exceeds_bound: bool
    fingerprint: bytes
    warmstart: WarmstartGain = None
    band: np.ndarray = field(init=False, repr=False)
    scratch: Scratch = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The compiled kernel reads these in C order; a loaded artifact
        # reshapes the inverse Hessians from column-major bytes.
        self.H1_inv = np.ascontiguousarray(self.H1_inv, dtype=float)
        self.H3_inv = np.ascontiguousarray(self.H3_inv, dtype=float)
        self.M2 = np.ascontiguousarray(self.M2, dtype=float)
        self.band = cholesky_band(self.alphas, self.beta_hats)
        self.scratch = Scratch(self.n, self.m, self.N)

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
        count += 6 * nm  # box columns
        return count


def build_offline(problem, with_warmstart=True):
    """Run all offline precomputation for a validated problem."""
    model, costs, rho = problem.model, problem.costs, problem.rho
    n, m, N = problem.n, problem.m, problem.N
    H1_inv = compute_h1_inverse(rho)
    H3_inv = compute_h3_inverse(costs, rho)
    M2 = compute_m2(model, costs, rho)
    alphas, beta_hats = compute_banded_cholesky(model, H3_inv, N)
    lb, ub = np.concatenate([model.x_lb, model.u_lb]), np.concatenate([model.x_ub, model.u_ub])
    eps = np.concatenate([model.eps_x, model.eps_u])
    # Stage 0, stages 1 to N - 1, the tightened stage N. The state part of
    # stage 0 is free: it is pinned by the initial-state penalty, not by a box.
    free = np.arange(n + m) < n
    box_lb = np.column_stack([np.where(free, -np.inf, lb), lb, lb + eps])
    box_ub = np.column_stack([np.where(free, np.inf, ub), ub, ub - eps])
    bound = compute_rho_upper_bound(costs)
    rho_max = max(rho.rho0.max(), rho.rho_s.max(), rho.rho_hat.max())
    gain = compute_warmstart_gain(costs) if with_warmstart else None
    return OfflineData(
        n=n,
        m=m,
        N=N,
        H1_inv=H1_inv,
        H3_inv=H3_inv,
        M2=M2,
        alphas=alphas,
        beta_hats=beta_hats,
        box_lb=box_lb,
        box_ub=box_ub,
        rho_upper_bound=bound,
        rho_exceeds_bound=bool(rho_max >= bound),
        fingerprint=problem.fingerprint,
        warmstart=gain,
    )
