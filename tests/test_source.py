"""Source-level guards on the package code."""

import ast
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _caches(source: str):
    """(function name, takes arguments, bounded) for each function of
    `source` decorated with functools' cache or lru_cache; a bare lru_cache
    holds 128 entries, a maxsize of None or a plain cache every entry."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        takes = bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            name = ast.unparse(call.func if call else dec).split(".")[-1]
            if name == "cache":
                yield node.name, takes, False
            elif name == "lru_cache":
                size = call and [k.value for k in call.keywords if k.arg == "maxsize"] + call.args
                bounded = not size or (isinstance(size[0], ast.Constant)
                                       and type(size[0].value) is int)
                yield node.name, takes, bounded


def test_the_cache_scan_finds_unbounded_caches():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@functools.cache\ndef a(x): pass\n@lru_cache(maxsize=None)\ndef b(x): pass\n"
              "@functools.lru_cache(None)\ndef c(*x): pass\n@lru_cache(maxsize=SIZE)\n"
              "def d(x=1): pass\n@lru_cache(maxsize=8)\ndef e(x): pass\n@lru_cache\n"
              "def f(x): pass\n@cache\ndef g(): pass\n")
    assert [(f, bounded) for f, _, bounded in _caches(source)] == [
        ("a", False), ("b", False), ("c", False), ("d", False), ("e", True), ("f", True),
        ("g", False)]
    assert [f for f, takes, _ in _caches(source) if not takes] == ["g"]


def test_every_cache_with_arguments_is_bounded():
    """A cache keyed on arguments keeps an entry per key unless its maxsize is
    a finite int, and a sweep over N, say, would keep them all.  A cache of
    a function without arguments holds one value."""
    caches = [(f"{path.name}:{f}", takes, bounded) for path in sorted(PACKAGE.glob("*.py"))
              for f, takes, bounded in _caches(path.read_text(encoding="utf-8"))]
    assert [name for name, takes, bounded in caches if takes and not bounded] == []
    names = {name for name, _, _ in caches}  # the scan sees the package's caches
    assert {"params.py:_checkpoints", "params.py:_bound_constants", "params.py:_validated",
            "harness.py:_popcount_bits", "harness.py:_key_text"} <= names


def _imports(tree: ast.AST):
    """Every module name an import statement of `tree` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_the_scalar_reference_imports_only_the_draws_and_params():
    """tests/reference.py checks the engine, so the only package code it
    runs is the draws it reads and the params it is given."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    names = {name for name in _imports(tree) if name.split(".")[0] == "qotsim"}
    allowed = {"qotsim.protocol", "qotsim.protocol.Draws", "qotsim.params",
               "qotsim.params.Case", "qotsim.params.ProtocolParams",
               "qotsim.params.validate_params"}
    assert names and names <= allowed, names - allowed


def test_every_exported_name_exists():
    """A name left in `__all__` after its module or class is gone would only
    fail at a caller's star import."""
    assert [name for name in qotsim.__all__ if not hasattr(qotsim, name)] == []


def test_no_module_imports_scipy_stats():
    """scipy.special alone costs ~25 MB of memory; the package does its
    chi-square in numpy and takes p from a closed form, so it imports no
    scipy at all."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imports(ast.parse(path.read_text(encoding="utf-8")))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert found == []


def test_the_harness_names_no_strategy():
    """Each STRATEGIES row says which verdicts its strategy gets and which
    inputs it refuses: the harness names no row and imports no bound, the
    row holds no bound to dispatch on, and no __post_init__ picks out a
    kind by name."""
    from qotsim.adversary import STRATEGIES, StrategySpec

    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    assert [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and node.value in STRATEGIES] == []
    bounds = {"correctness_epsilon", "privacy_epsilon", "commitment_attack_bound", "min_N",
              "hoeffding_bound"}
    assert {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names} & bounds == set()
    assert "bound" not in {field.name for field in dataclasses.fields(StrategySpec)}

    def names_kind(node):
        return isinstance(node, ast.Attribute) and node.attr == "kind" or (
            isinstance(node, ast.Name) and node.id == "kind")

    found = [
        f"{path.name}:{compare.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
        for compare in ast.walk(func) if isinstance(compare, ast.Compare)
        if any(map(names_kind, [compare.left, *compare.comparators]))
        and any(isinstance(side, ast.Constant) for side in [compare.left, *compare.comparators])
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
    """Importing the package loads no scipy."""
    code = ("import sys, qotsim, qotsim.harness, qotsim.cli; "
            "print('scipy' in sys.modules)")
    assert _run_python(code) == "False"


def test_package_set_up_leaves_numpy_random_unloaded():
    """numpy.random loads on the first Philox, not with the package: the
    set-up the benchmark times (imports and one validate_params) leaves it
    out, and importing it costs ~13 ms."""
    code = ("import sys, qotsim, qotsim.harness, qotsim.cli; "
            "qotsim.harness.validate_params(3, 1, 6); print('numpy.random' in sys.modules)")
    assert _run_python(code) == "False"


def test_exact_layer_never_loads_numpy():
    """The exact layer is integer code: the package's imports, its exact calls and the
    CLI's exact commands (the first through ``python -m qotsim.cli``), help and usage
    errors leave numpy unloaded.  The first engine call loads it and binds every
    module's `np` to numpy itself, not to the stand-in."""
    code = """
import contextlib, io, runpy, sys
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    sys.argv = ["qotsim", "bounds", "--n", "2", "--m", "1", "--N", "18"]
    try:
        runpy.run_module("qotsim.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes.append(exc.code)
    import qotsim, qotsim.harness
    from qotsim import cli
    from qotsim.params import build_bound_report, exact_failure_oracle, validate_params
    validate_params(3, 1, 6)
    build_bound_report(2, 1, 18)
    exact_failure_oracle(validate_params(4, 1, 40), "privacy")
    for argv in ("bounds --n 2 --m 1 --N 18", "oracle --n 3 --m 1 --N 6 --event correctness",
                 "bounds --n 2 --m 1 --N 7", "--help"):
        try:
            codes.append(cli.main(argv.split()))
        except SystemExit as exc:
            codes.append(exc.code)
print(codes, "numpy" in sys.modules)
from qotsim.protocol import run_protocol
run_protocol(validate_params(3, 1, 6), None, None, 1)
print([name for name in ("protocol", "channel", "harness", "adversary", "commitment", "params")
       if sys.modules["qotsim." + name].np is not sys.modules["numpy"]])
"""
    assert _run_python(code) == "[0, 0, 0, 2, 0] False\n[]"


def test_threaded_first_use_matches_the_serial_run():
    """Eight threads make the process's first engine call at once, switching threads
    every microsecond: none raises, and each trial's status and recovered bits are the
    serial run's.  A stand-in whose attribute read is not guarded by the import lock
    hands a thread a half-imported numpy here."""
    code = """
import sys, threading
sys.setswitchinterval(1e-6)
from qotsim.params import validate_params
from qotsim.protocol import run_protocol
params, barrier, results, errors = validate_params(3, 1, 6), threading.Barrier(8), {}, []
def first_use(k):
    try:
        barrier.wait(60)
        outcome = run_protocol(params, None, None, k)
        results[k] = (outcome.status, outcome.recovered)
    except BaseException as exc:
        errors.append(repr(exc))
threads = [threading.Thread(target=first_use, args=(k,)) for k in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
serial = {}
for k in range(8):
    outcome = run_protocol(params, None, None, k)
    serial[k] = (outcome.status, outcome.recovered)
print(errors, results == serial, len(results), any(thread.is_alive() for thread in threads))
"""
    assert _run_python(code) == "[] True 8 False"


def test_privacy_test_leaves_scipy_stats_unloaded():
    """Nor does a privacy test, which runs the package's only chi-square."""
    code = ("import sys; from qotsim import harness; "
            "harness.privacy_independence_test(harness.validate_params(3, 1, 6), 50, 1); "
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    assert _run_python(code) == "[]"


def test_privacy_test_runs_without_scipy():
    """With scipy made unimportable, the CLI's privacy test exits and prints
    exactly as it does with scipy present."""
    run = ("from qotsim import cli; "
           "print('exit', cli.main(['privacy-test', '--n', '3', '--m', '1', '--N', '6', "
           "'--trials-per-choice', '50']))")
    normal = _run_python(run)
    assert normal.endswith("exit 0")
    assert _run_python("import sys; sys.modules['scipy'] = None; " + run) == normal


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


def _ulps_off(dof, x, p):
    """|p - Q(dof/2, x/2)| in units in the last place of the regularized upper
    incomplete gamma function at 60 digits, or None where that is below
    1e-300, near the subnormals, whose ulp is not relative."""
    import mpmath

    with mpmath.workdps(60):
        ref = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                              regularized=True)
        if ref < 1e-300:
            return None
        return float(abs(mpmath.mpf(p) - ref)) / math.ulp(float(ref))


def test_chi2_contingency_is_scipys():
    """stat, dof and the expected counts are scipy.stats' to the bit; p, from
    the closed-form tail, lies within 4(1 + x/2) ulp of a 60-digit reference
    and within 1e-12 of scipy's p (whose own error reaches ~74(1 + x/2) ulp)."""
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
        assert (stat, dof) == (ref[0], ref[2])
        assert np.array_equal(freq, ref[3])
        assert math.isclose(p, ref[1], rel_tol=1e-12), (table, p, ref[1])
        if dof:
            err = _ulps_off(dof, stat, p)
            assert err is None or err <= 4 * (1 + stat / 2), (table, err)
        else:
            assert p == 1.0
        seen["yates"] += dof == 1
        seen["dof0"] += dof == 0
        seen["tiny"] += p < 1e-20
    assert min(seen.values()) >= 10, seen


_GRID_DOFS = [*range(1, 16), 31, 60, 101]


def test_chi2_sf_on_a_grid_and_at_its_ends():
    """The closed-form tail over a seeded grid, and at its ends."""
    rng = np.random.default_rng(7919)
    for dof in _GRID_DOFS:
        for lo, hi in ((0, 3), (3, 60), (60, 1300)):
            for x in rng.uniform(lo, hi, 12).tolist():
                p = harness._chi2_sf(dof, x)
                err = _ulps_off(dof, x, p)
                assert err is None or err <= 4 * (1 + x / 2), (dof, x, err)
        assert harness._chi2_sf(dof, 0.0) == 1.0
        assert harness._chi2_sf(dof, 1e5) == 0.0
        assert harness._chi2_sf(dof, math.inf) == 0.0
    import mpmath

    p = harness._chi2_sf(10_000, 10_000.0)
    assert math.isfinite(p)
    assert math.isclose(p, float(mpmath.gammainc(5_000, 5_000, mpmath.inf, regularized=True)),
                        rel_tol=1e-9)


@settings(max_examples=300, deadline=None)
@given(dof=st.integers(1, 400), x=st.floats(0, 1300), dx=st.floats(0, 1300))
def test_chi2_sf_is_a_tail(dof, x, dx):
    """p lies in [0, 1], does not rise with x and does not fall with dof.  At
    neighbouring inputs the float sums are not exactly monotone, so each
    comparison allows twice the accuracy bound of the larger x, 4(1 + x/2)
    ulp a side: 2^-49 (1 + x/2) relative."""
    p = harness._chi2_sf(dof, x)
    assert 0.0 <= p <= 1.0
    slack = 1 + 2.0**-49 * (1 + (x + dx) / 2)
    assert harness._chi2_sf(dof, x + dx) <= p * slack
    assert harness._chi2_sf(dof + 1, x) * slack >= p


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chi2_contingency_names_a_non_finite_cell(value):
    with pytest.raises(ValueError, match=rf"non-finite value {value} at \(0, 1\)"):
        harness.chi2_contingency(np.array([[1, value], [2, 3]]))


def test_a_failing_property_test_hides_no_later_test(tmp_path):
    """Under this project's pytest settings (warnings are errors), a file
    whose failing @given test comes first reports both of its tests: the
    report of the failure must not crash the session."""
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]


def test_each_mutant_of_the_register_finds_its_text_once():
    """tests/mutants.py names the code it mutates by its text: each entry's
    old text occurs exactly once in its file, and no two entries share a name."""
    import mutants

    counts = {name: (mutants.ROOT / file).read_text(encoding="utf-8").count(old)
              for name, file, old, _, _ in mutants.MUTANTS}
    assert len(counts) == len(mutants.MUTANTS)
    assert counts == dict.fromkeys(counts, 1)
