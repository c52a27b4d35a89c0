"""Online extended-ADMM iteration for the MPCT problem.

All per-iteration work is matrix-free apart from the small dense gain of the
artificial-reference subproblem and one LAPACK band solve; no horizon-sized
matrix is ever formed. Horizon-indexed iterates live in column-block
layout: one (n+m) column per prediction step. A :class:`SolverState` holds
the four iterates and its last solve's outcome; :func:`eadmm_solve`
iterates it in its own arrays and returns it. The work space, a
:class:`Scratch`, is the offline data's, built once with it.

At these array sizes a numpy call costs more than its arithmetic, so the
iteration runs in a compiled C kernel (``_kernel.c``, built on first use by
:mod:`.kernel`). :func:`eadmm_solve` makes one kernel call per solve, on the
arrays :func:`solve_operands` lists: the reference weighted by the offset
cost, diag(T, S) r, then stages, exit tests and the band solve all run in
C. :func:`warmstart_predict` makes one more. The kernel checks every entry
point's operands with one binder, and is the package's only binding of
LAPACK's ``dpbtrs``.

Each stage below also stays a Python function with its signature, making
one kernel call on the same C stage body (:func:`solve_qp3` two, around
:func:`banded_forward_backward`). No other module of the package calls
them; the tests step through them. :func:`eadmm_solve` runs its iterations
through them instead of the one kernel call only when one of the six stage
globals has been replaced, as a tracer that times the stages does; the
iterates are the same either way, but a traced run times this path, not the
kernel's. That dispatch exists for the tracer alone and goes once the kernel
times its stages itself. The kernel keeps these rules:

- Expression order. Every element comes from the same IEEE expression, in
  the same order, as the numpy stage bodies that ``tests/test_solver.py``
  keeps as its reference, so the iterates are bit-identical to them.
- Summation order. A row sum is ``np.add.reduce``'s: 0 plus numpy's
  pairwise sum (eight accumulators up to 128 terms, halves above). The
  matrix products are the BLAS calls ``np.dot`` makes, through scipy's
  BLAS (for diag(T, S) r with a 1 x 1 block, numpy's one scalar product),
  and the band solve is the LAPACK routine scipy's f2py ``dpbtrs``
  calls. Abs-max and clip propagate NaN as numpy's do.
- Flags. It is compiled with ``-O3 -ffp-contract=off`` and never with
  value-changing options such as ``-ffast-math`` or ``-march``. -O3 is
  value-safe: its vectorizer turns the stage loops, which are branch-free
  and run along rows, into SIMD code that computes each element by the
  same IEEE expression, and without fast-math it reorders no reduction.
  The abs-max of gamma folds in four lanes of its own: every |value| is
  +0 or more, so the lanes' maximum is the serial fold's, and a NaN is
  looked up again from the start.
- Memory. It allocates nothing and writes only into the iterates and
  scratch buffers it is given; the iterates stay in their arrays. Every
  operand must be a C-contiguous float64 array of the shape the call's
  first operand and its x or [A B] imply (outputs writeable; the band
  Fortran-contiguous); anything else raises :class:`DimensionMismatch`
  before any element is read.
- Threads. It never releases the GIL, and a solve or a warm start is one
  kernel call, so threads may solve on one offline data; the stage path,
  one kernel call per stage, may not.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import DimensionMismatch, MissingWarmstartGain, NumericalBreakdown, ProblemMismatch


class Scratch:
    """Buffers that the iterations write into; ``OfflineData.scratch``.

    The stages share it only within an iteration: ``gamma``, the equality
    residual in lambda's layout (see :class:`SolverState`), from
    :func:`compute_residual` to :func:`update_duals`; ``q3`` (shape of z3)
    and ``rhs`` within :func:`solve_qp3`, the deviation subproblem's linear
    term and the band solve's right-hand side in ``dpbtrs``'s layout (block
    j in entries j*n to (j+1)*n - 1), which the solve overwrites with its
    solution; and the spares ``z2``/``z3``, the previous iterates, which
    :func:`dual_residual` reads: each iteration copies the state's there
    before the stages overwrite them (the kernel trades pointers and copies
    the last iterates back). ``q2``, ``work`` (shape of z3) and ``prod``
    ((n+m) x N products with [A B] and its transpose) do not outlive the
    kernel call that writes them, and ``ts_r`` is the solve's diag(T, S) r.

    A scratch holds no state between solves: :func:`eadmm_solve` writes
    ``ts_r`` on entry, and the iterations write every other buffer before
    they read it; :func:`solve_qp1` reads none. gamma's padding is zero
    from construction and no stage writes it; :func:`warmstart_predict`,
    which uses gamma as temporary space, zeroes all of gamma after. So
    states solved on one offline data, in any order, never see each other.
    """

    __slots__ = ("gamma", "z2", "z3", "q2", "q3", "work", "prod", "rhs", "ts_r")

    def __init__(self, n, m, N):
        nm = n + m
        self.gamma = np.zeros((nm, N + 3))
        self.z2 = np.empty(nm)
        self.z3 = np.empty((nm, N + 1))
        self.q2 = np.empty(nm)
        self.q3 = np.empty((nm, N + 1))
        self.work = np.empty((nm, N + 1))
        self.prod = np.empty((nm, N))
        self.rhs = np.empty(N * n)
        self.ts_r = np.empty(nm)


@dataclass(slots=True)
class SolverState:
    """Iterates of the three-block splitting and the outcome of their last solve.

    z1: trajectory block, column j holds (x_j, u_j).
    z2: artificial reference (xs, us).
    z3: deviation block, column j holds (x_j - xs, u_j - us).
    lam: duals; column 0 is the initial-state constraint (last m entries are
    structural padding and stay zero), columns 1..N+1 the congruence
    constraints, column N+2 the terminal equalities.
    iterations: iterations run on this state, over all its solves.

    A solve writes the four arrays in place; it never replaces them.

    The other fields are what the state's last :func:`eadmm_solve`
    reported (their defaults before any). ``converged`` says the configured
    exit test passed within the iteration cap. ``certified`` says more:
    both the primal residual ``residual_inf`` and the dual residual
    ``dual_residual`` are within ``epsilon``, so the point is near-optimal,
    not only feasible. Under the default exit test the two flags agree;
    under the paper's primal-only test a converged solve can be
    uncertified. ``dual_residual`` is the value at the last iteration that
    passed the primal test, NaN when none did. ``u0`` and ``xs_us`` are
    copies of the first input and of z2. A later solve of this state object
    writes over its iterates and outcome; one of a state that
    :func:`warmstart_predict` made from it does not.
    """

    z1: np.ndarray
    z2: np.ndarray
    z3: np.ndarray
    lam: np.ndarray
    iterations: int = 0
    residual_inf: float = math.nan
    converged: bool = False
    dual_residual: float = math.nan
    certified: bool = False
    u0: np.ndarray = None
    xs_us: np.ndarray = None


def cold_start(n, m, N):
    """All-zero iterates for the given dimensions; nothing else is allocated."""
    nm = n + m
    return SolverState(
        z1=np.zeros((nm, N + 1)),
        z2=np.zeros(nm),
        z3=np.zeros((nm, N + 1)),
        lam=np.zeros((nm, N + 3)),
    )


def solve_qp1(state, offline, rho, x):
    """Update the trajectory block: componentwise clip of the diagonal QP optimum.

    The negated linear term is assembled columnwise from the congruence
    penalties (on z2 + z3), the initial-state penalty (first column) and
    the terminal penalties (last column), scaled by the diagonal inverse
    Hessian and clipped against the offline data's three box columns into
    z1; no matrix products and no scratch buffer are involved.
    """
    kernel.load().qp1(
        state.z1, state.z3, state.lam, state.z2, x,
        rho.columns, offline.H1_inv, offline.box_lb, offline.box_ub,
    )
    return state.z1


def solve_qp2(state, offline, rho, ts_r):
    """Update the artificial reference through the precomputed dense gain.

    ``ts_r`` is the reference weighted by the offset cost, diag(T, S) r.
    """
    sc = offline.scratch
    kernel.load().qp2(
        state.z1, state.z2, state.z3, state.lam, rho.columns, ts_r, offline.M2, sc.work, sc.q2
    )
    return state.z2


def banded_forward_backward(band, c):
    """Solve W z = c given the upper band of W's Cholesky factor.

    ``band`` is the LAPACK upper band storage of :func:`offline.cholesky_band`;
    one ``dpbtrs`` call in the kernel does the forward and the backward
    substitution. ``c``, a writeable C-contiguous float64 vector in
    ``dpbtrs``'s layout (block j in entries j*n to (j+1)*n - 1), is
    overwritten with the solution and returned. Any other ``c`` or band
    raises :class:`DimensionMismatch`.
    """
    kernel.load().band_solve(band, c)
    return c


def solve_qp3(state, offline, rho, AB):
    """Update the deviation block via the banded Schur-complement solve.

    ``AB`` is the horizontally stacked prediction model [A B]. The kernel
    forms the Schur system's right-hand side in ``scratch.rhs``,
    :func:`banded_forward_backward` solves it in place, and the kernel
    recovers z3 from the solution.
    """
    k, sc = kernel.load(), offline.scratch
    k.qp3_rhs(
        state.z1, sc.rhs, sc.q3, sc.work, sc.prod, state.z2, state.lam, rho.columns,
        offline.H3_inv, AB,
    )
    banded_forward_backward(offline.band, sc.rhs)
    k.qp3_update(sc.q3, state.z3, sc.rhs, sc.prod, AB, offline.H3_inv)
    return state.z3


def compute_residual(state, offline, x):
    """Equality-constraint residual in column-block layout and its inf-norm.

    The residual goes to ``scratch.gamma``, whose padding it leaves zero.
    """
    sc = offline.scratch
    res = kernel.load().residual(state.z1, sc.gamma, state.z2, state.z3, x)
    return sc.gamma, res


def dual_residual(z2_prev, z3_prev, state, offline, rho):
    """Dual (stationarity) residual of blocks 1 and 2 over one iteration.

    With D = A2 dz2 + A3 dz3 the change of the later blocks' contribution to
    the coupling constraints, block 1 misses stationarity by A1' rho D and
    block 2 by A2' rho A3 dz3 (Boyd et al. 2011, section 3.3, with three
    blocks); block 3 is exactly stationary after the dual update. Both are
    assembled columnwise from the iterate change and the penalties, in the
    offline data's scratch buffers. Returns the larger inf-norm.
    """
    return kernel.load().dual_residual(
        state.z3, z3_prev, state.z2, z2_prev, rho.columns, offline.scratch.work
    )


def update_duals(state, offline, rho):
    """Dual ascent on ``scratch.gamma`` with the componentwise penalty, in place."""
    kernel.load().duals(state.lam, rho.columns, offline.scratch.gamma)
    return state.lam


# How a solve's iterations ended: the cap, the exit test, or a residual that
# is not finite. The kernel's solve returns the same codes.
CAPPED, CONVERGED, BREAKDOWN = 0, 1, 2


def _stage_functions():
    """The six stage globals, as :func:`eadmm_solve` finds them now."""
    return (
        solve_qp1, solve_qp2, solve_qp3, banded_forward_backward, compute_residual, update_duals
    )


def _stage_loop(state, offline, problem, x, r, eps, primal_only, max_iter):
    """The iterations of :func:`eadmm_solve` as calls of the stage functions.

    The stages are called through their module globals, so a tracer that
    replaces one at module level sees every call. A kernel ``solve`` of no
    iteration first forms diag(T, S) r, as the kernel path does.
    Returns (status, primal residual, dual residual).
    """
    _kernel_loop(state, offline, problem, x, r, eps, primal_only, 0)
    sc, rho, AB = offline.scratch, problem.rho, problem.model.AB
    res, dual = math.inf, math.nan
    for _ in range(max_iter):
        # The previous z2 and z3, which the stages overwrite in place.
        np.copyto(sc.z2, state.z2)
        np.copyto(sc.z3, state.z3)
        solve_qp1(state, offline, rho, x)
        solve_qp2(state, offline, rho, sc.ts_r)
        solve_qp3(state, offline, rho, AB)
        _, res = compute_residual(state, offline, x)
        update_duals(state, offline, rho)
        state.iterations += 1
        if not math.isfinite(res):
            return BREAKDOWN, res, dual
        if res <= eps:
            dual = dual_residual(sc.z2, sc.z3, state, offline, rho)
            if primal_only or dual <= eps:
                return CONVERGED, res, dual
    return CAPPED, res, dual


def solve_operands(state, offline, problem, x, r):
    """The arrays of the kernel's ``solve``, in its argument order."""
    sc, costs = offline.scratch, problem.costs
    return (
        state.z1, state.z2, state.z3, state.lam, sc.gamma, sc.z2, sc.z3, sc.q2, sc.q3,
        sc.work, sc.prod, sc.rhs, sc.ts_r, x, r, costs.T, costs.S, problem.model.AB,
        problem.rho.columns, offline.H1_inv, offline.box_lb, offline.box_ub, offline.M2,
        offline.H3_inv, offline.band,
    )


def _kernel_loop(state, offline, problem, x, r, eps, primal_only, max_iter):
    """The iterations of :func:`_stage_loop` in one kernel call, bit for bit."""
    operands = solve_operands(state, offline, problem, x, r)
    status, iterations, res, dual = kernel.load().solve(*operands, eps, primal_only, max_iter)
    state.iterations += iterations
    return status, res, dual


def eadmm_solve(offline, problem, x, r, initial=None):
    """Run the extended-ADMM iteration until the exit test passes or the cap.

    Every iteration whose primal (equality) residual is within
    ``config.epsilon`` also evaluates the dual residual
    (:func:`dual_residual`). The default exit test stops when that is within
    ``epsilon`` too; ``exit_test="primal"``, the paper's rule, stops on the
    primal residual alone. Either way the iterates are the same, and the
    state's ``certified`` flag says whether both residuals were within
    ``epsilon`` at exit.

    The iterations run in one kernel call, or through the stage functions
    when one of them was replaced (see the module docstring); both write
    into the state's arrays and the offline data's scratch buffers and
    allocate no array storage. The kernel forms diag(T, S) r in
    ``scratch.ts_r`` first; a reference whose weighted form is not finite
    breaks down at the first iteration.

    Returns ``initial``, or a new :func:`cold_start` state, with its outcome
    fields filled; non-convergence is reported through the ``converged``
    flag, not an exception. Offline data whose fingerprint is another
    problem's raises :class:`ProblemMismatch`; if its dimensions differ,
    it, an initial state or vectors that do not fit the problem raise
    :class:`DimensionMismatch`, as do initial-state arrays that are not
    C-contiguous float64; a
    non-finite residual aborts with :class:`NumericalBreakdown` once the
    outcome is filled. If the compiled kernel has to be built and cannot
    be, the first solve raises :class:`KernelBuildFailure`.
    """
    n, m, N = problem.n, problem.m, problem.N
    nm = n + m
    if offline.fingerprint != problem.fingerprint:
        if (offline.n, offline.m, offline.N) == (n, m, N):
            raise ProblemMismatch("offline data was built for another model, costs or rho")
        raise DimensionMismatch(
            f"offline data has (n, m, N) = {(offline.n, offline.m, offline.N)}, "
            f"the problem {(n, m, N)}"
        )
    config = problem.config
    x = np.asarray(x, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    if x.shape != (n,) or r.shape != (nm,):
        raise DimensionMismatch(
            f"x must have shape ({n},) and r shape ({nm},); got {x.shape}, {r.shape}"
        )
    state = initial if initial is not None else cold_start(n, m, N)
    if (
        state.z1.shape != (nm, N + 1)
        or state.z2.shape != (nm,)
        or state.z3.shape != (nm, N + 1)
        or state.lam.shape != (nm, N + 3)
    ):
        shapes = [a.shape for a in (state.z1, state.z2, state.z3, state.lam)]
        raise DimensionMismatch(f"initial state shapes {shapes} do not fit {(n, m, N)}")
    loop = _kernel_loop if _stage_functions() == KERNEL_STAGES else _stage_loop
    primal_only = config.exit_test == "primal"
    status, res, dual = loop(
        state, offline, problem, x, r, config.epsilon, primal_only, config.max_iter
    )
    state.residual_inf, state.dual_residual = res, dual
    state.converged = status == CONVERGED
    state.certified = state.converged and dual <= config.epsilon
    state.u0, state.xs_us = state.z1[n:, 0].copy(), state.z2.copy()
    if status == BREAKDOWN:
        raise NumericalBreakdown(f"non-finite residual at iteration {state.iterations}")
    return state


# The stage globals as this module defines them. While none is replaced,
# eadmm_solve runs its iterations in one kernel call.
KERNEL_STAGES = _stage_functions()


def warmstart_predict(prev, offline, x_prev, x_next):
    """First-order shift of the previous solution for a new measured state.

    Only the artificial reference, the leading state block of the deviation
    variables and the first two dual state blocks are updated; the trajectory
    block is left untouched since the first iteration overwrites it.

    Returns a new :class:`SolverState` whose iterates share no memory with
    ``prev``, so solving it leaves ``prev``'s arrays intact. One kernel call
    fills the iterates: it copies prev's z1, z2, z3 and lambda and subtracts
    the four products of ``offline.warmstart``, the gain, with
    x_next - x_prev, each the BLAS call numpy's ``@`` makes, using the
    offline data's scratch gamma as temporary space and zeroing it after.
    Offline data built without the gain raises
    :class:`MissingWarmstartGain`. The previous solution's arrays and the
    gain's blocks must be C-contiguous float64 arrays whose shapes fit each
    other and the offline data, and the states must have n entries;
    anything else raises :class:`DimensionMismatch`.
    """
    gain = offline.warmstart
    if gain is None:
        raise MissingWarmstartGain(
            "a warm start needs the warmstart gain, but the offline data was built without it"
        )
    x_prev = np.asarray(x_prev, dtype=float).ravel()
    x_next = np.asarray(x_next, dtype=float).ravel()
    z1, z2, z3, lam = (np.empty(a.shape) for a in (prev.z1, prev.z2, prev.z3, prev.lam))
    kernel.load().warm_shift(
        prev.z1, prev.z2, prev.z3, prev.lam, gain.P_z3_head, gain.P_z2, gain.P_lambda_head,
        x_prev, x_next, z1, z2, z3, lam, offline.scratch.gamma,
    )
    return SolverState(z1=z1, z2=z2, z3=z3, lam=lam)
