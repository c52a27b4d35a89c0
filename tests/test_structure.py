"""Structure of the package: module boundaries read from its import
statements, and the memory an online solve allocates."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np

import mpct_eadmm
from mpct_eadmm.offline import build_offline
from mpct_eadmm.pendulum import pendulum_problem
from mpct_eadmm.solver import eadmm_solve

PACKAGE = Path(mpct_eadmm.__file__).parent


def package_imports(module):
    """Names of the package modules that ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "mpct_eadmm":
                    continue
                path = path[1:]
            found.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mpct_eadmm."):
                    found.add(alias.name.split(".")[1])
    return found


def test_public_surface():
    """Every exported name resolves; offline and banded internals stay in their modules."""
    for name in mpct_eadmm.__all__:
        assert hasattr(mpct_eadmm, name), name
    internals = {
        "compute_banded_cholesky",
        "compute_h1_inverse",
        "compute_h3_inverse",
        "compute_m2",
        "factor_block_tridiagonal",
        "banded_forward_backward",
    }
    assert not internals & set(mpct_eadmm.__all__)
    assert not any(hasattr(mpct_eadmm, name) for name in internals)


def test_sparse_path_and_oracle_are_separate():
    """The solver never uses the dense oracle, and the oracle uses no sparse code."""
    assert "dense" not in package_imports("offline")
    assert "dense" not in package_imports("solver")
    assert not package_imports("dense") & {"offline", "solver", "compare"}


def test_online_solve_forms_no_horizon_sized_matrix():
    """A cold solve at N = 100 allocates a few times the factor's band.

    The band holds 2n x N n doubles (14.4 KB for the pendulum); one dense
    N n x N n matrix would take 720 KB, fifty times as much.
    """
    problem = pendulum_problem(N=100)
    n, N = problem.n, problem.N
    data = build_offline(problem, with_warmstart=False)
    assert data.band.size == 2 * n * N * n
    x, r = np.array([0.1, 0.0, 0.5]), np.zeros(n + problem.m)
    eadmm_solve(data, problem, x, r)  # lazy imports and caches outside the trace
    tracemalloc.start()
    try:
        eadmm_solve(data, problem, x, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * data.band.nbytes
