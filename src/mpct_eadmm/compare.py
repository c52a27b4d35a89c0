"""Sparse-vs-dense equivalence harness.

Runs the matrix-free iteration and the dense replay side by side from the
same cold start and reports the worst per-iteration deviation across all
iterates, which is the package's central correctness check. The sparse side
is :func:`eadmm_solve` itself, one iteration per call, so the check covers
the loop that every solve runs.
"""

from dataclasses import replace

import numpy as np

from . import dense
from .problem import validate_problem
from .solver import cold_start, eadmm_solve

SAMPLE_CAP = 1.0
SAMPLE_FRACTION = 0.9


def sample_states(model, rng, count):
    """Draw random states from the interior of the state box.

    An infinite bound is placed 2 SAMPLE_CAP beyond the other bound, that
    bound first limited to [-SAMPLE_CAP, SAMPLE_CAP]; a component with no
    bounds thus gets [-SAMPLE_CAP, SAMPLE_CAP]. Each component is sampled
    from the central SAMPLE_FRACTION of its interval.
    """
    cap, lb, ub = SAMPLE_CAP, model.x_lb, model.x_ub
    lo = np.where(np.isfinite(lb), lb, np.minimum(ub, cap) - 2 * cap)
    hi = np.where(np.isfinite(ub), ub, np.maximum(lb, -cap) + 2 * cap)
    mid = 0.5 * (lo + hi)
    half = 0.5 * SAMPLE_FRACTION * (hi - lo)
    return mid + rng.uniform(-1.0, 1.0, size=(count, model.n)) * half


def interleaved_max_deviation(problem, offline, x, r, iterations=50):
    """Max absolute difference between sparse and dense iterates.

    Both runs start cold. The sparse run continues one state through
    :func:`eadmm_solve` with an iteration cap of 1, so every call runs one
    iteration of the solver's own loop. After every iteration all four
    iterate blocks are compared. Returns the worst deviation seen over the
    whole run; a NaN deviation is kept, not dropped. A non-finite sparse
    residual raises :class:`NumericalBreakdown`, as a solve does.
    """
    n, m, N = problem.n, problem.m, problem.N
    x = np.asarray(x, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    one_step = validate_problem(
        problem.model, problem.costs, replace(problem.config, max_iter=1), problem.rho
    )
    dprob = dense.assemble_dense(problem.model, problem.costs, problem.rho, N, x, r)
    dit = dense.dense_iterate_zero(dprob)
    state = cold_start(n, m, N)
    worst = 0.0
    for _ in range(iterations):
        eadmm_solve(offline, one_step, x, r, initial=state)
        dit = dense.dense_eadmm_step(dprob, dit)
        # np.max keeps a NaN where Python's max() may drop it.
        worst = np.max([
            worst,
            np.abs(state.z1.flatten(order="F") - dit.z1).max(),
            np.abs(state.z2 - dit.z2).max(),
            np.abs(state.z3.flatten(order="F") - dit.z3).max(),
            np.abs(dense.pack_duals(state.lam, n, m, N) - dit.lam).max(),
        ])
    return float(worst)
