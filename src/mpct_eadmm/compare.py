"""Sparse-vs-dense equivalence harness.

Runs the matrix-free iteration and the dense replay side by side from the
same cold start and reports the worst per-iteration deviation across all
iterates, which is the package's central correctness check.
"""

import numpy as np

from . import dense
from .solver import cold_start, eadmm_step, linear_terms

# Bound magnitudes at or above this are stand-ins for "unconstrained" and get
# capped when sampling random states.
UNBOUNDED_SENTINEL = 1e6


def sample_states(model, rng, count, cap=1.0, fraction=0.9):
    """Draw random states from the interior of the state box.

    Components whose bounds are effectively unbounded are sampled from
    [-cap, cap]; bounded components from the central ``fraction`` of their
    interval.
    """
    lo = np.where(model.x_lb <= -UNBOUNDED_SENTINEL, -cap, model.x_lb)
    hi = np.where(model.x_ub >= UNBOUNDED_SENTINEL, cap, model.x_ub)
    mid = 0.5 * (lo + hi)
    half = 0.5 * fraction * (hi - lo)
    return mid + rng.uniform(-1.0, 1.0, size=(count, model.n)) * half


def interleaved_max_deviation(problem, offline, x, r, iterations=50):
    """Max absolute difference between sparse and dense iterates.

    Both runs start cold; after every iteration all four iterate blocks are
    compared. Returns the worst deviation seen over the whole run.
    """
    n, m, N = problem.n, problem.m, problem.N
    x = np.asarray(x, dtype=float).ravel()
    r = np.asarray(r, dtype=float).ravel()
    dprob = dense.assemble_dense(problem.model, problem.costs, problem.rho, N, x, r)
    dit = dense.dense_iterate_zero(dprob)
    state = cold_start(n, m, N)
    ts_r, AB = linear_terms(problem, r)
    worst = 0.0
    for _ in range(iterations):
        eadmm_step(state, offline, problem.rho, x, ts_r, AB)
        dit = dense.dense_eadmm_step(dprob, dit)
        dev = max(
            float(np.abs(state.z1.flatten(order="F") - dit.z1).max()),
            float(np.abs(state.z2 - dit.z2).max()),
            float(np.abs(state.z3.flatten(order="F") - dit.z3).max()),
            float(np.abs(dense.pack_duals(state.lam, n, m, N) - dit.lam).max()),
        )
        worst = max(worst, dev)
    return worst
