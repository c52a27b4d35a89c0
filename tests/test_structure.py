"""Structure of the package: module boundaries read from its import
statements, the memory an online solve allocates, and how the compiled
kernel is built."""

import ast
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mpct_eadmm
from mpct_eadmm import cli, kernel
from mpct_eadmm.config import default_pendulum_config
from mpct_eadmm.errors import KernelBuildFailure
from mpct_eadmm.offline import build_offline
from mpct_eadmm.pendulum import pendulum_problem
from mpct_eadmm.solver import cold_start, eadmm_solve, solve_qp1

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


STAGE_FUNCTIONS = {
    "solve_qp1",
    "solve_qp2",
    "solve_qp3",
    "banded_forward_backward",
    "compute_residual",
    "dual_residual",
    "update_duals",
}


def solver_names(tree):
    """What a module's imports take from the solver: names, or ``solver``
    itself where the module is imported whole."""
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            for alias in node.names:
                if module in (".solver", "mpct_eadmm.solver"):
                    taken.add(alias.name)
                elif module in (".", "mpct_eadmm") and alias.name == "solver":
                    taken.add("solver")
        elif isinstance(node, ast.Import):
            taken.update("solver" for alias in node.names if alias.name == "mpct_eadmm.solver")
    return taken


def test_only_the_solver_runs_the_iteration():
    """One iteration in the package: only solver.py calls the stage
    functions, and compare, cli and pendulum take only the solve and the
    two ways to start one from the solver."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "solver":
            continue
        calls = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not calls & STAGE_FUNCTIONS, path.name
    for module in ("compare", "cli", "pendulum"):
        taken = solver_names(ast.parse((PACKAGE / f"{module}.py").read_text()))
        assert taken <= {"eadmm_solve", "cold_start", "warmstart_predict"}, module


def calls_named(tree, name):
    """The calls in ``tree`` of a function or method called ``name``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_offline_data_allocates_a_scratch():
    """One place builds the solver's work space: the one ``Scratch(`` call in
    the package is in OfflineData.__post_init__, so the work space is
    allocated once per offline data, at build and at load, and never by a
    cold start, a warm start or a solve."""
    builders, total = set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += len(calls_named(tree, "Scratch"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and calls_named(method, "Scratch"):
                        builders.add(f"{path.stem}.{node.name}.{method.name}")
    assert total == 1
    assert builders == {"offline.OfflineData.__post_init__"}


def test_no_package_code_rebinds_an_iterate():
    """A solver state's iterate arrays never move: no package code assigns
    an attribute named z1, z2, z3 or lam of another object (a class may set
    its own, as Scratch names its spares); solves write into the arrays."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else []
            targets += [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
            for leaf in (leaf for target in targets for leaf in ast.walk(target)):
                if isinstance(leaf, ast.Attribute) and getattr(leaf.value, "id", None) != "self":
                    assert leaf.attr not in {"z1", "z2", "z3", "lam"}, (path.name, leaf.lineno)


def test_solver_forms_no_matrix_product_in_python():
    """diag(T, S) r is the kernel's: eadmm_solve, and the rest of solver.py,
    call no np.dot or np.matmul and use no ``@``."""
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    solve = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "eadmm_solve"
    )
    for scope in (solve, tree):
        assert not calls_named(scope, "dot") and not calls_named(scope, "matmul")
        assert not any(
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            for node in ast.walk(scope)
        )


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


def test_kernel_compiles_without_warnings(tmp_path):
    strict = ["-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so")]
    command = [*kernel.compile_command(), *strict]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr


def test_kernel_flags_keep_ieee_arithmetic():
    """No contraction into fused multiply-adds and no value-changing optimisation.

    The kernel builds at -O3, whose vectorizer keeps each element's IEEE
    expression; these options would not. -mfma and any -march may bring in
    fused multiply-add instructions, and -march or -mtune=native make the
    build depend on the host; the others let gcc assume no NaN or infinity,
    reassociate sums, replace divisions by reciprocals or ignore the sign of
    zero.
    """
    flags = kernel.compile_command()
    assert "-ffp-contract=off" in flags
    value_changing = {
        "-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-mfma", "-mtune=native",
        "-ffinite-math-only", "-fassociative-math", "-freciprocal-math", "-fno-signed-zeros",
    }
    assert not value_changing & set(flags), value_changing & set(flags)
    assert not [flag for flag in flags if flag.startswith("-march=")], flags


def test_kernel_allocates_nothing():
    """The kernel source calls no allocator.

    tracemalloc sees only Python's allocations, so this keeps
    test_online_solve_forms_no_horizon_sized_matrix meaningful for the
    kernel's arithmetic.
    """
    source = kernel.SOURCE.read_text()
    assert not re.search(r"(malloc|calloc|realloc|alloca)\s*\(", source, re.IGNORECASE)


@pytest.fixture
def fresh_load():
    """kernel.load without its memo, restored afterwards."""
    kernel.load.cache_clear()
    yield kernel.load
    kernel.load.cache_clear()


def test_second_load_reuses_the_cached_build(fresh_load, monkeypatch):
    fresh_load()  # builds if no build is cached yet
    fresh_load.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran although a build was cached")

    monkeypatch.setattr(kernel.subprocess, "run", no_compiler)
    assert hasattr(fresh_load(), "qp1")


def test_unwritable_cache_builds_in_a_private_directory(fresh_load, monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(kernel, "CACHE", blocker / "__pycache__")  # mkdir fails
    assert hasattr(fresh_load(), "qp1")
    assert list(tmp_path.iterdir()) == [blocker]


def test_simultaneous_first_builds_leave_one_complete_build(tmp_path):
    """Two processes that find no cached build compile at once; both load."""
    script = (
        "import sys; from pathlib import Path; from mpct_eadmm import kernel; "
        "kernel.CACHE = Path(sys.argv[1]); assert hasattr(kernel.load(), 'qp1')"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    procs = [
        subprocess.Popen([sys.executable, "-c", script, str(tmp_path)], env=env) for _ in range(2)
    ]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    names = [path.name for path in tmp_path.iterdir()]
    assert len(names) == 1 and names[0].startswith("_kernel.") and not names[0].endswith(".tmp")


def test_failed_build_is_a_typed_error(fresh_load, monkeypatch, tmp_path, capsys):
    """The first stage call raises it, naming the command and the compiler's
    last lines; ``mpct solve`` exits 1 with the message."""
    failing = [sys.executable, "-c", "import sys; sys.exit('cc1: fatal error: no kernel today')"]
    monkeypatch.setattr(kernel, "compile_command", lambda: failing)
    problem = pendulum_problem(N=2)
    data = build_offline(problem, with_warmstart=False)
    with pytest.raises(KernelBuildFailure, match="no kernel today") as err:
        solve_qp1(cold_start(3, 1, 2), data, problem.rho, np.zeros(3))
    assert sys.executable in str(err.value)
    assert not list(kernel.CACHE.glob("*.tmp"))
    config = tmp_path / "pendulum.json"
    config.write_text(json.dumps(default_pendulum_config()))
    assert cli.main(["solve", "--config", str(config), "--x", "0,0,1", "--r", "0,0,0,0"]) == 1
    assert "no kernel today" in capsys.readouterr().err


@pytest.mark.parametrize("module, name", [("cython_blas", "dgemm"), ("cython_lapack", "dpbtrs")])
def test_missing_scipy_function_fails_the_kernel_import(module, name):
    """The BLAS and LAPACK pointers the kernel takes from scipy must exist; a
    missing one is an ImportError naming it."""
    kernel.load()  # build outside the child process, if no build is cached
    script = (
        f"import scipy.linalg.{module} as source; del source.__pyx_capi__[{name!r}]; "
        "from mpct_eadmm import kernel; kernel.load()"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode != 0
    assert f"ImportError: scipy.linalg.{module} has no {name}" in done.stderr
