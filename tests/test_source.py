"""Source-level guards on the package code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qotsim
from qotsim import harness

PACKAGE = Path(qotsim.__file__).parent


def test_no_assert_statements_in_package():
    """Invariants must not rest on `assert`, which `python -O` strips."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports(tree: ast.AST):
    """Every module name an import statement of `tree` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_every_exported_name_exists():
    """A name left in `__all__` after its module or class is gone would only
    fail at a caller's star import."""
    assert [name for name in qotsim.__all__ if not hasattr(qotsim, name)] == []


def test_no_module_imports_scipy_stats():
    """scipy.stats costs ~66 MB of memory; the package does its chi-square in
    numpy and needs only scipy.special."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if name == "scipy.stats" or name.startswith("scipy.stats.")
    ]
    assert found == []


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_scipy_stats_not_imported_with_package():
    """Importing the package loads no scipy; only the privacy test loads
    scipy.special, on its first call."""
    code = ("import sys, qotsim, qotsim.harness, qotsim.cli; "
            "print('scipy' in sys.modules)")
    assert _run_python(code) == "False"


def test_privacy_test_leaves_scipy_stats_unloaded():
    code = ("import sys; from qotsim import harness; "
            "harness.privacy_independence_test(harness.validate_params(3, 1, 6), 50, 1); "
            "print('scipy.special' in sys.modules, 'scipy.stats' in sys.modules)")
    assert _run_python(code) == "True False"


def _random_tables():
    """Seeded 2xk tables, k = 1..8: small, large (p < 1e-20) and 2x2 counts."""
    rng = np.random.default_rng(20260)
    for i in range(400):
        k = 1 + i % 8
        scale = (8, 60, 2_000, 10**6)[i // 8 % 4]
        table = rng.integers(0, scale, size=(2, k))
        if i % 3 == 0:  # strongly dependent rows: tiny p-values
            table[1] = rng.integers(0, 4, size=k)
            table[0] += scale
        yield table


def test_chi2_contingency_is_scipys():
    from scipy.stats import chi2_contingency

    tables = [np.array([[30, 12, 25], [18, 27, 22]]), np.array([[30, 12], [18, 27]]),
              np.array([[5], [9]]), *_random_tables()]
    seen = {"yates": 0, "dof0": 0, "tiny": 0}
    for table in tables:
        try:
            ref = chi2_contingency(table)
        except ValueError:  # a zero expected count: both must refuse
            with pytest.raises(ValueError):
                harness.chi2_contingency(table)
            continue
        stat, p, dof, freq = harness.chi2_contingency(table)
        assert (stat, p, dof) == tuple(ref)[:3]
        assert np.array_equal(freq, ref[3])
        seen["yates"] += dof == 1
        seen["dof0"] += dof == 0
        seen["tiny"] += p < 1e-20
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("table", [
    [[0, 0, 0], [3, 1, 2]],  # a zero row: zero expected counts
    [[4, 0], [7, 0]],        # a zero column
    np.zeros((2, 0), dtype=int),
    [[0, 0], [0, 0]],        # scipy would return NaNs here
    [[1, -1], [2, 3]],
])
def test_chi2_contingency_rejects_tables_without_a_test(table):
    with pytest.raises(ValueError):
        harness.chi2_contingency(np.array(table))
