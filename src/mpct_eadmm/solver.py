"""Online extended-ADMM iteration for the MPCT problem.

All per-iteration work is matrix-free apart from the small dense gain of the
artificial-reference subproblem and the banded triangular substitutions; no
horizon-sized matrix is ever formed. Horizon-indexed iterates live in
column-block layout: one (n+m) column per prediction step.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown


@dataclass
class SolverState:
    """Iterates of the three-block splitting.

    z1: trajectory block, column j holds (x_j, u_j).
    z2: artificial reference (xs, us).
    z3: deviation block, column j holds (x_j - xs, u_j - us).
    lambda_/gamma: duals and equality residual; column 0 is the initial-state
    constraint (last m entries are structural padding and stay zero), columns
    1..N+1 the congruence constraints, column N+2 the terminal equalities.
    """

    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    iterations: int = 0


@dataclass
class SolveResult:
    """Converged (or best-effort) solution of one MPCT problem instance.

    ``converged`` says the configured exit test passed within the iteration
    cap. ``certified`` says more: both the primal residual ``residual_inf``
    and the dual residual ``dual_residual`` are within ``epsilon``, so the
    point is near-optimal, not only feasible. Under the default exit test the
    two flags agree; under the paper's primal-only test a converged solve can
    be uncertified. ``dual_residual`` is the value at the last iteration that
    passed the primal test, NaN when none did.
    """

    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    lam: np.ndarray
    iterations: int
    residual_inf: float
    converged: bool
    u0: np.ndarray
    xs_us: np.ndarray
    metadata: dict = field(default_factory=dict)
    dual_residual: float = float("nan")
    certified: bool = False


def cold_start(n, m, N):
    """All-zero solver state for the given dimensions."""
    nm = n + m
    return SolverState(
        z1=np.zeros((nm, N + 1)),
        z2=np.zeros(nm),
        z3=np.zeros((nm, N + 1)),
        lam=np.zeros((nm, N + 3)),
        gamma=np.zeros((nm, N + 3)),
    )


def solve_qp1(state, offline, rho, x):
    """Update the trajectory block: componentwise clip of the diagonal QP optimum.

    The negated linear term is assembled columnwise from the congruence
    penalties, the initial-state penalty (first column) and the terminal
    penalties (last column); no matrix products are involved.
    """
    n, N = offline.n, offline.N
    z2, z3, lam = state.z2, state.z3, state.lam
    rh = rho.rho_hat
    v0 = rh[:, 0] * (z2 + z3[:, 0]) + lam[:, 1] - lam[:, 0]
    v0[:n] += rho.rho0 * x
    state.z1[:, 0] = np.clip(v0 * offline.H1_inv[:, 0], offline.u_only_lb, offline.u_only_ub)
    vmid = rh[:, 1:N] * (z2[:, None] + z3[:, 1:N]) + lam[:, 2 : N + 1]
    state.z1[:, 1:N] = np.clip(
        vmid * offline.H1_inv[:, 1:N], offline.z_lb[:, None], offline.z_ub[:, None]
    )
    vN = rh[:, N] * z3[:, N] + (rh[:, N] + rho.rho_s) * z2 + lam[:, N + 1] + lam[:, N + 2]
    state.z1[:, N] = np.clip(vN * offline.H1_inv[:, N], offline.z_lb_s, offline.z_ub_s)
    return state.z1


def solve_qp2(state, offline, rho, ts_r):
    """Update the artificial reference through the precomputed dense gain.

    ``ts_r`` is the reference weighted by the offset cost, diag(T, S) r.
    """
    N = offline.N
    z1, z3, lam = state.z1, state.z3, state.lam
    rh = rho.rho_hat
    q2 = (
        -ts_r
        + rh[:, N] * z3[:, N]
        - (rh[:, N] + rho.rho_s) * z1[:, N]
        + lam[:, N + 1]
        + lam[:, N + 2]
    )
    q2 += np.sum(rh[:, :N] * (z3[:, :N] - z1[:, :N]) + lam[:, 1 : N + 1], axis=1)
    state.z2 = offline.M2 @ q2
    return state.z2


def banded_forward_backward(alphas, beta_hats, c):
    """Solve W z = c given the banded block Cholesky factors of W.

    Forward substitution with the transposed factor, then backward
    substitution; the stored reciprocal diagonals turn every division into a
    multiplication. ``c`` has one n-column per block.
    """
    N = c.shape[1]
    n = c.shape[0]
    z = c.copy()
    for k in range(N):
        zk = z[:, k]
        if k > 0:
            zk -= alphas[k - 1].T @ z[:, k - 1]
        bh = beta_hats[k]
        for j in range(n):
            zk[j] = (zk[j] - bh[:j, j] @ zk[:j]) * bh[j, j]
    for k in range(N - 1, -1, -1):
        zk = z[:, k]
        if k < N - 1:
            zk -= alphas[k] @ z[:, k + 1]
        bh = beta_hats[k]
        for j in range(n - 1, -1, -1):
            zk[j] = (zk[j] - bh[j, j + 1 :] @ zk[j + 1 :]) * bh[j, j]
    return z


def solve_qp3(state, offline, rho, AB):
    """Update the deviation block via the banded Schur-complement solve.

    ``AB`` is the horizontally stacked prediction model [A B].
    """
    n, N = offline.n, offline.N
    z1, z2, lam = state.z1, state.z2, state.lam
    q3 = rho.rho_hat * (z2[:, None] - z1) + lam[:, 1 : N + 2]
    t = offline.H3_inv * q3
    c = t[:n, 1:] - AB @ t[:, :N]
    mu = banded_forward_backward(offline.alphas, offline.beta_hats, c)
    q3[:, :N] += AB.T @ mu
    q3[:n, 1:] -= mu
    state.z3 = -offline.H3_inv * q3
    return state.z3


def compute_residual(state, offline, x):
    """Equality-constraint residual in column-block layout and its inf-norm."""
    n, N = offline.n, offline.N
    g = state.gamma
    g[:n, 0] = state.z1[:n, 0] - x
    g[n:, 0] = 0.0
    g[:, 1 : N + 2] = state.z2[:, None] + state.z3 - state.z1
    g[:, N + 2] = state.z2 - state.z1[:, N]
    res = float(np.max(np.abs(g)))
    return g, res


def dual_residual(z2_prev, z3_prev, state, rho):
    """Dual (stationarity) residual of blocks 1 and 2 over one iteration.

    With D = A2 dz2 + A3 dz3 the change of the later blocks' contribution to
    the coupling constraints, block 1 misses stationarity by A1' rho D and
    block 2 by A2' rho A3 dz3 (Boyd et al. 2011, section 3.3, with three
    blocks); block 3 is exactly stationary after the dual update. Both are
    assembled columnwise from the iterate change and the penalties. Returns
    the larger inf-norm.
    """
    rh = rho.rho_hat
    dz2 = state.z2 - z2_prev
    wdz3 = rh * (state.z3 - z3_prev)
    s1 = rh * dz2[:, None] + wdz3
    s1[:, -1] += rho.rho_s * dz2
    s2 = np.sum(wdz3, axis=1)
    return max(float(np.max(np.abs(s1))), float(np.max(np.abs(s2))))


def update_duals(state, rho):
    """Gradient-ascent dual update with the componentwise penalty."""
    n = rho.rho0.size
    N = rho.rho_hat.shape[1] - 1
    state.lam[:n, 0] += rho.rho0 * state.gamma[:n, 0]
    state.lam[:, 1 : N + 2] += rho.rho_hat * state.gamma[:, 1 : N + 2]
    state.lam[:, N + 2] += rho.rho_s * state.gamma[:, N + 2]
    return state.lam


def linear_terms(problem, r):
    """Per-solve constants of the iteration: diag(T, S) r and [A B]."""
    n = problem.n
    ts_r = np.concatenate([problem.costs.T @ r[:n], problem.costs.S @ r[n:]])
    AB = np.hstack([problem.model.A, problem.model.B])
    return ts_r, AB


def eadmm_step(state, offline, rho, x, ts_r, AB):
    """One extended-ADMM iteration in place; returns the primal residual.

    The stages are called through module globals, so replacing one at module
    level (as a tracer does) takes effect here.
    """
    solve_qp1(state, offline, rho, x)
    solve_qp2(state, offline, rho, ts_r)
    solve_qp3(state, offline, rho, AB)
    _, res = compute_residual(state, offline, x)
    update_duals(state, rho)
    state.iterations += 1
    return res


def eadmm_solve(offline, problem, x, r, initial=None):
    """Run the extended-ADMM iteration until the exit test passes or the cap.

    Every iteration whose primal (equality) residual is within
    ``config.epsilon`` also evaluates the dual residual
    (:func:`dual_residual`). The default exit test stops when that is within
    ``epsilon`` too; ``exit_test="primal"``, the paper's rule, stops on the
    primal residual alone. Either way the iterates are the same, and the
    result's ``certified`` flag says whether both residuals were within
    ``epsilon`` at exit.

    Returns a :class:`SolveResult`; non-convergence is reported through the
    ``converged`` flag, not an exception. Offline data, an initial state or
    vectors whose dimensions do not match the problem raise
    :class:`DimensionMismatch`; a non-finite residual aborts with
    :class:`NumericalBreakdown`.
    """
    n, m, N = problem.n, problem.m, problem.N
    nm = n + m
    if (offline.n, offline.m, offline.N) != (n, m, N):
        raise DimensionMismatch(
            f"offline data has (n, m, N) = {(offline.n, offline.m, offline.N)}, "
            f"the problem {(n, m, N)}"
        )
    rho = problem.rho
    eps = problem.config.epsilon
    primal_only = problem.config.exit_test == "primal"
    max_iter = problem.config.max_iter
    x = np.asarray(x, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    if x.shape != (n,) or r.shape != (nm,):
        raise DimensionMismatch(
            f"x must have shape ({n},) and r shape ({nm},); got {x.shape}, {r.shape}"
        )
    state = initial if initial is not None else cold_start(n, m, N)
    shapes = [a.shape for a in (state.z1, state.z2, state.z3, state.lam, state.gamma)]
    if shapes != [(nm, N + 1), (nm,), (nm, N + 1), (nm, N + 3), (nm, N + 3)]:
        raise DimensionMismatch(f"initial state shapes {shapes} do not fit {(n, m, N)}")
    ts_r, AB = linear_terms(problem, r)
    converged = False
    res = np.inf
    dual = float("nan")
    for _ in range(max_iter):
        # eadmm_step replaces z2 and z3, so these stay the old iterates.
        z2_prev, z3_prev = state.z2, state.z3
        res = eadmm_step(state, offline, rho, x, ts_r, AB)
        if not np.isfinite(res):
            raise NumericalBreakdown(
                f"non-finite residual at iteration {state.iterations}"
            )
        if res <= eps:
            dual = dual_residual(z2_prev, z3_prev, state, rho)
            if primal_only or dual <= eps:
                converged = True
                break
    return SolveResult(
        z1=state.z1,
        z2=state.z2,
        z3=state.z3,
        lam=state.lam,
        iterations=state.iterations,
        residual_inf=res,
        converged=converged,
        u0=state.z1[n:, 0].copy(),
        xs_us=state.z2.copy(),
        metadata={"rho_exceeds_bound": offline.rho_exceeds_bound},
        dual_residual=dual,
        certified=converged and dual <= eps,
    )


def warmstart_predict(prev, gain, x_prev, x_next):
    """First-order shift of the previous solution for a new measured state.

    Only the artificial reference, the leading state block of the deviation
    variables and the first two dual state blocks are updated; the trajectory
    block is left untouched since the first iteration overwrites it.
    """
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    n = gain.P_z3_head.shape[0]
    if x_prev.shape != (n,) or x_next.shape != (n,):
        raise DimensionMismatch(f"states must have shape ({n},)")
    nm, Np1 = prev.z1.shape
    m = nm - n
    state = cold_start(n, m, Np1 - 1)
    state.z1 = prev.z1.copy()
    state.z2 = prev.z2.copy()
    state.z3 = prev.z3.copy()
    state.lam = prev.lam.copy()
    dx = x_next - x_prev
    state.z2 -= gain.P_z2 @ dx
    state.z3[:n, 0] -= gain.P_z3_head @ dx
    state.lam[:n, 0] -= gain.P_lambda_head[:n] @ dx
    state.lam[:n, 1] -= gain.P_lambda_head[n:] @ dx
    return state
