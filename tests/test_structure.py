"""Module boundaries of the package, read from its import statements."""

import ast
from pathlib import Path

import mpct_eadmm

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


def test_sparse_path_and_oracle_are_separate():
    """The solver never uses the dense oracle, and the oracle uses no sparse code."""
    assert "dense" not in package_imports("offline")
    assert "dense" not in package_imports("solver")
    assert not package_imports("dense") & {"offline", "solver", "compare"}
