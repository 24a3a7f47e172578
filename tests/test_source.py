"""Source-level guards on the package code."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_scipy_stats_not_imported_with_package():
    """scipy.stats is most of the import time; only the privacy test loads it."""
    code = ("import sys, qotsim, qotsim.harness, qotsim.cli; "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_chi2_contingency_is_scipys():
    from scipy.stats import chi2_contingency

    # 2x3, and 2x2, where scipy applies Yates' continuity correction
    for table in (np.array([[30, 12, 25], [18, 27, 22]]), np.array([[30, 12], [18, 27]])):
        assert harness.chi2_contingency(table)[1] == chi2_contingency(table)[1]
