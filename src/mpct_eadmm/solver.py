"""Online extended-ADMM iteration for the MPCT problem.

All per-iteration work is matrix-free apart from the small dense gain of the
artificial-reference subproblem and one LAPACK band solve; no horizon-sized
matrix is ever formed. Horizon-indexed iterates live in
column-block layout: one (n+m) column per prediction step. Each solve
allocates its scratch buffers once; the iterations write into them and into
the iterates in place, with every element computed by the same
floating-point expression as an allocating implementation would.

At these array sizes a numpy call costs more than its arithmetic, so an
iteration is a flat sequence of ufunc, BLAS and LAPACK calls on operands
built before it:

- Bind once. Every view a stage reads (the column blocks of z1, lambda and
  gamma, the sub-blocks of its scratch, the band solve's right-hand side
  in both layouts) and every per-solve constant (rho0 * x, [A B]') is built
  on first use and kept in the state's :class:`Scratch`, keyed by the
  identity of the arrays and inputs it was built from. A stage given a
  state whose z1, lambda or gamma was replaced, or another x, rho or
  [A B], rebinds first, so a stage called directly computes what it would
  compute from freshly sliced operands; within a solve nothing is rebound.
  z2 and z3 are never bound: they swap with scratch buffers each iteration.
  Slicing ``lam[:, 1:N+2]`` of a (4, 15) array cost 0.21 us (minimum;
  median 0.37 us) and reading a bound view 0.01 us (numpy 2.4, one thread
  of a 2-vCPU Xeon host, 25 alternated timeit runs). An iteration built
  about 30 views when each stage sliced its own; it now builds two, the
  ``z2[:, None]`` of :func:`solve_qp3` and :func:`compute_residual`.
- Pass by position. Ufuncs, ``np.add.reduce`` and ``np.dot`` take their
  output buffer as a positional argument. For the reductions this saved
  nothing measurable on that host: ``np.add.reduce(w, 1, None, out)`` took
  0.96 us (median 1.72 us) against 0.90 us (median 1.76 us) with
  ``axis=``/``out=`` keywords, on a (4, 13) operand. ``ndarray.clip`` and
  ``np.dot`` cost less per call than ``np.clip`` and ``@`` and give the
  same results.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbtrs

from .errors import DimensionMismatch, NumericalBreakdown


class Scratch:
    """Buffers that one solve's iterations write into, and operands bound once.

    Buffers: ``zsum`` is z2 + z3 broadcast over the columns, as the last
    :func:`compute_residual` left it; the next :func:`solve_qp1` reads it.
    ``z2``/``z3`` receive the next iterates of :func:`solve_qp2` and
    :func:`solve_qp3`, which then swap them with the state's, so the
    previous iterates stay readable for :func:`dual_residual`. The rest are
    work space reused across the stages: ``q3`` and ``work`` have the shape
    of z3, ``wide`` that of the duals, ``prod`` holds (n+m) x N matrix
    products, ``rhs`` the band solve's right-hand side (one row per block,
    the layout ``dpbtrs`` reads; ``rhs_flat`` is that layout and ``mu`` the
    (n, N) view of it, which the solve overwrites with its solution) and
    ``v0``/``v1``/``v2`` three (n+m)-vectors. The views of these buffers
    are built with them.

    Bound operands: :func:`bound` takes the views of a state's z1, lambda
    and gamma; ``rho0_x`` (rho0 * x, into its own buffer) and ``ABt``
    ([A B]') are set by the stage that reads them. Each remembers the objects it was built from
    (``z1``, ``lam``, ``gamma``, ``x``, ``rho``, ``AB``), which the stages
    compare by identity.
    """

    __slots__ = (
        "zsum", "z2", "z3", "q3", "work", "wide", "prod", "rhs", "v0", "v1", "v2",
        "dz2_col", "q3_head", "q3_tail", "q3_last", "t_head", "t_next",
        "prod_state", "rhs_flat", "mu",
        "z1", "lam", "gamma", "z1_first", "z1_head", "z1_last",
        "lam_first", "lam_mid", "lam_tail", "lam_last", "g_head", "g_mid", "g_last",
        "x", "rho", "rho0_x", "AB", "ABt",
    )

    def __init__(self, n, m, N):
        nm = n + m
        self.zsum = np.zeros((nm, N + 1))
        self.z2 = np.empty(nm)
        self.z3 = np.empty((nm, N + 1))
        self.q3 = q3 = np.empty((nm, N + 1))
        self.work = work = np.empty((nm, N + 1))
        self.wide = np.empty((nm, N + 3))
        self.prod = prod = np.empty((nm, N))
        self.rhs = rhs = np.empty((N, n))
        self.v0, self.v1, self.v2 = np.empty((3, nm))
        self.rho0_x = np.empty(n)
        self.dz2_col = self.v0[:, None]
        self.q3_head, self.q3_tail, self.q3_last = q3[:, :N], q3[:n, 1:], q3[:, N]
        self.t_head, self.t_next = work[:, :N], work[:n, 1:]
        self.prod_state = prod[:n]
        self.rhs_flat = rhs.reshape(-1)
        self.mu = rhs.T
        self.z1 = self.lam = self.gamma = self.x = self.rho = self.AB = None


def bound(state):
    """The state's scratch, with the column-block views of the state's z1,
    lambda and gamma taken unless it holds them already."""
    sc = state.scratch
    z1, lam, gamma = state.z1, state.lam, state.gamma
    if sc.z1 is not z1 or sc.lam is not lam or sc.gamma is not gamma:
        N, n = sc.rhs.shape
        sc.z1, sc.lam, sc.gamma = z1, lam, gamma
        sc.z1_first, sc.z1_head, sc.z1_last = z1[:, 0], z1[:n, 0], z1[:, N]
        sc.lam_first, sc.lam_mid = lam[:, 0], lam[:, 1 : N + 2]
        sc.lam_tail, sc.lam_last = lam[:, 1:], lam[:, N + 2]
        sc.g_head, sc.g_mid, sc.g_last = gamma[:n, 0], gamma[:, 1 : N + 2], gamma[:, N + 2]
    return sc


@dataclass
class SolverState:
    """Iterates of the three-block splitting, and their scratch buffers.

    z1: trajectory block, column j holds (x_j, u_j).
    z2: artificial reference (xs, us).
    z3: deviation block, column j holds (x_j - xs, u_j - us).
    lambda_/gamma: duals and equality residual; column 0 is the initial-state
    constraint (last m entries are structural padding and stay zero), columns
    1..N+1 the congruence constraints, column N+2 the terminal equalities.
    scratch: see :class:`Scratch`; :func:`eadmm_step` expects its ``zsum`` to
    equal z2 + z3, which holds for a cold start and which
    :func:`eadmm_solve` sets on entry.
    """

    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    scratch: Scratch = field(repr=False)
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
    passed the primal test, NaN when none did. The arrays are the solve's
    state's own: a later solve that continues from the same state object as
    ``initial`` writes over them, one from :func:`warmstart_predict` does not.
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
        scratch=Scratch(n, m, N),
    )


def solve_qp1(state, offline, rho, x):
    """Update the trajectory block: componentwise clip of the diagonal QP optimum.

    The negated linear term is assembled columnwise in z1 from the congruence
    penalties (on ``scratch.zsum``), the initial-state penalty (first
    column) and the terminal penalties (last column), then clipped against
    the per-stage boxes in place; no matrix products are involved.
    """
    sc = bound(state)
    if sc.x is not x or sc.rho is not rho:
        sc.x, sc.rho = x, rho
        np.multiply(rho.rho0, x, sc.rho0_x)
    v = np.multiply(rho.rho_hat, sc.zsum, state.z1)
    v += sc.lam_mid
    first = sc.z1_first
    first -= sc.lam_first
    head = sc.z1_head
    head += sc.rho0_x
    terminal = np.multiply(rho.rho_s, state.z2, sc.v1)
    terminal += sc.lam_last
    last = sc.z1_last
    last += terminal
    v *= offline.H1_inv
    return v.clip(offline.z1_lb, offline.z1_ub, v)


def solve_qp2(state, offline, rho, ts_r):
    """Update the artificial reference through the precomputed dense gain.

    ``ts_r`` is the reference weighted by the offset cost, diag(T, S) r.
    """
    sc = bound(state)
    w = np.subtract(state.z3, state.z1, sc.work)
    w *= rho.rho_hat
    q2 = np.add.reduce(w, 1, None, sc.v0)
    q2 += np.add.reduce(sc.lam_tail, 1, None, sc.v1)
    tail = np.multiply(rho.rho_s, sc.z1_last, sc.v1)
    tail += ts_r
    q2 -= tail
    z2 = np.dot(offline.M2, q2, sc.z2)
    sc.z2, state.z2 = state.z2, z2
    return z2


def banded_forward_backward(band, c):
    """Solve W z = c given the upper band of W's Cholesky factor.

    ``band`` is the LAPACK upper band storage of :func:`offline.cholesky_band`;
    one ``dpbtrs`` call does the forward and the backward substitution.
    ``c`` is in ``dpbtrs``'s layout: block j in entries j*n to (j+1)*n - 1,
    optionally with one column per right-hand side. The solution comes back
    in the same layout, and overwrites ``c`` when ``c`` is a contiguous
    float array, as :func:`solve_qp3` lays it out. A ``c`` whose leading
    dimension is not the band's order raises :class:`DimensionMismatch`.
    """
    z, info = dpbtrs(band, c, overwrite_b=1)
    if info:
        raise DimensionMismatch(f"dpbtrs rejected argument {-info}: c has shape {c.shape}")
    return z


def solve_qp3(state, offline, rho, AB):
    """Update the deviation block via the banded Schur-complement solve.

    ``AB`` is the horizontally stacked prediction model [A B].
    """
    sc = bound(state)
    if sc.AB is not AB:
        sc.AB, sc.ABt = AB, AB.T
    q3 = np.subtract(state.z2[:, None], state.z1, sc.q3)
    q3 *= rho.rho_hat
    q3 += sc.lam_mid
    np.multiply(offline.H3_inv, q3, sc.work)
    np.subtract(sc.t_next, np.dot(AB, sc.t_head, sc.prod_state), sc.mu)
    banded_forward_backward(offline.band, sc.rhs_flat)
    head = sc.q3_head
    head += np.dot(sc.ABt, sc.mu, sc.prod)
    tail = sc.q3_tail
    tail -= sc.mu
    z3 = np.multiply(offline.neg_H3_inv, q3, sc.z3)
    sc.z3, state.z3 = state.z3, z3
    return z3


def compute_residual(state, offline, x):
    """Equality-constraint residual in column-block layout and its inf-norm.

    Also leaves z2 + z3 in ``scratch.zsum`` for the next :func:`solve_qp1`.
    The padding of gamma's first column is not written: it is zero from
    :func:`cold_start` or :func:`warmstart_predict` on.
    """
    sc = bound(state)
    z2 = state.z2
    zsum = np.add(z2[:, None], state.z3, sc.zsum)
    np.subtract(sc.z1_head, x, sc.g_head)
    np.subtract(zsum, state.z1, sc.g_mid)
    np.subtract(z2, sc.z1_last, sc.g_last)
    g = state.gamma
    return g, float(np.abs(g, sc.wide).max())


def dual_residual(z2_prev, z3_prev, state, rho):
    """Dual (stationarity) residual of blocks 1 and 2 over one iteration.

    With D = A2 dz2 + A3 dz3 the change of the later blocks' contribution to
    the coupling constraints, block 1 misses stationarity by A1' rho D and
    block 2 by A2' rho A3 dz3 (Boyd et al. 2011, section 3.3, with three
    blocks); block 3 is exactly stationary after the dual update. Both are
    assembled columnwise from the iterate change and the penalties, in the
    state's scratch buffers. Returns the larger inf-norm.
    """
    rh, sc = rho.rho_hat, state.scratch
    dz2 = np.subtract(state.z2, z2_prev, sc.v0)
    wdz3 = np.subtract(state.z3, z3_prev, sc.work)
    wdz3 *= rh
    s1 = np.multiply(rh, sc.dz2_col, sc.q3)
    s1 += wdz3
    last = sc.q3_last
    last += np.multiply(rho.rho_s, dz2, sc.v1)
    s2 = np.add.reduce(wdz3, 1, None, sc.v2)
    return max(float(np.abs(s1, s1).max()), float(np.abs(s2, s2).max()))


def update_duals(state, rho):
    """Gradient-ascent dual update with the componentwise penalty, in place."""
    lam = state.lam
    lam += np.multiply(rho.columns, state.gamma, state.scratch.wide)
    return lam


def linear_terms(problem, r):
    """Per-solve constants of the iteration: diag(T, S) r and [A B]."""
    n = problem.n
    ts_r = np.empty(n + problem.m)
    np.dot(problem.costs.T, r[:n], out=ts_r[:n])
    np.dot(problem.costs.S, r[n:], out=ts_r[n:])
    AB = np.concatenate((problem.model.A, problem.model.B), axis=1)
    return ts_r, AB


def eadmm_step(state, offline, rho, x, ts_r, AB):
    """One extended-ADMM iteration in place; returns the primal residual.

    Expects ``state.scratch.zsum`` to hold z2 + z3 (see :class:`SolverState`).
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

    The iterations write into the state's scratch buffers; none allocates
    array storage. Returns a :class:`SolveResult`; non-convergence is reported
    through the ``converged`` flag, not an exception. Offline data, an
    initial state or vectors whose dimensions do not match the problem raise
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
    np.add(state.z2[:, None], state.z3, out=state.scratch.zsum)
    ts_r, AB = linear_terms(problem, r)
    converged = False
    res = math.inf
    dual = math.nan
    for _ in range(max_iter):
        # eadmm_step swaps z2 and z3 with their scratch buffers, so these
        # stay the old iterates until the next step.
        z2_prev, z3_prev = state.z2, state.z3
        res = eadmm_step(state, offline, rho, x, ts_r, AB)
        if not math.isfinite(res):
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
    nm, cols = prev.z1.shape
    state = SolverState(
        z1=prev.z1.copy(),
        z2=prev.z2.copy(),
        z3=prev.z3.copy(),
        lam=prev.lam.copy(),
        gamma=np.zeros_like(prev.lam),
        scratch=Scratch(n, nm - n, cols - 1),
    )
    dx = x_next - x_prev
    state.z2 -= gain.P_z2 @ dx
    state.z3[:n, 0] -= gain.P_z3_head @ dx
    state.lam[:n, 0] -= gain.P_lambda_head[:n] @ dx
    state.lam[:n, 1] -= gain.P_lambda_head[n:] @ dx
    return state
