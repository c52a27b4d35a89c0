"""Shared fixtures: the benchmark problem and cached closed-loop runs."""

import numpy as np
import pytest

from mpct_eadmm import dense
from mpct_eadmm.offline import WarmstartGain, build_offline
from mpct_eadmm.pendulum import SimConfig, closed_loop, pendulum_problem


@pytest.fixture(scope="session")
def problem():
    return pendulum_problem()


@pytest.fixture(scope="session")
def offline(problem):
    return build_offline(problem)


@pytest.fixture(scope="session")
def zero_ref(problem):
    return np.zeros(problem.n + problem.m)


@pytest.fixture(scope="session")
def benchmark_x0():
    """Physical initial state of the benchmark scenario."""
    return np.array([0.0, 0.0, 20.0])


@pytest.fixture(scope="session")
def warm_trajectory(problem, offline, benchmark_x0, zero_ref):
    return closed_loop(problem, offline, SimConfig(), benchmark_x0, zero_ref, warmstart=True)


@pytest.fixture(scope="session")
def cold_trajectory(problem, offline, benchmark_x0, zero_ref):
    return closed_loop(problem, offline, SimConfig(), benchmark_x0, zero_ref, warmstart=False)


@pytest.fixture(scope="session")
def oracle_gain():
    """Warmstart gain of the dense oracle, as a function of the problem data.

    ``oracle_gain(model, costs, rho, N)`` returns the full sensitivity P of
    :func:`dense.state_sensitivity`, its support rows as a
    :class:`WarmstartGain` and the inf-norm of its other z3 and dual rows.
    """

    def split(model, costs, rho, N):
        n, m = model.n, model.m
        nm, nz = n + m, (N + 1) * (n + m)
        dp = dense.assemble_dense(model, costs, rho, N, np.zeros(n), np.zeros(nm))
        P = dense.state_sensitivity(dp)
        z3, lam = P[nz + nm : 2 * nz + nm], P[2 * nz + nm :]
        rows = WarmstartGain(P_z2=P[nz : nz + nm], P_z3_head=z3[:n], P_lambda_head=lam[: 2 * n])
        off_support = max(np.abs(z3[n:]).max(), np.abs(lam[2 * n :]).max())
        return P, rows, float(off_support)

    return split
