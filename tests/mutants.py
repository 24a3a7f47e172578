"""The mutant register: hand-made faults that the tests must catch.

Each entry is (name, file, old text, new text, pytest selector).  The old
text occurs exactly once in its file (tier-1 checks this, so a refactor that
moves the code fails loudly and updates the entry).  Run from the repository
root, ``python tests/mutants.py`` copies the tree to a temporary directory
per mutant, checks that the selector passes on the unmutated copy, applies
the patch and requires the selector to fail under ``-x``.  It prints
killed/total and exits 1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL, ADVERSARY, HARNESS, PARAMS, CLI, CHANNEL = (f"src/qotsim/{name}.py" for name in (
    "protocol", "adversary", "harness", "params", "cli", "channel"))

# lines of the CLI's usage-error boundary, which two CLI mutants edit
_CHECKS = "        config, work = _COMMANDS[args.command][0](args)\n"
_OPEN_OUT = ('        if (out := getattr(args, "out", None)) is not None:  # to write, not '
             'truncated yet\n            created = not os.path.lexists(out)\n'
             '            open(out, "a", encoding="utf-8").close()\n')

MUTANTS = [
    ("step-5 target block +1", PROTOCOL,
     "block = np.where(targets, count - 1, np.arange(n, 2 * n) - count)",
     "block = np.where(targets, count, np.arange(n, 2 * n) - count)",
     "tests/test_reference.py"),
    ("step-5 other block -1", PROTOCOL,
     "block = np.where(targets, count - 1, np.arange(n, 2 * n) - count)",
     "block = np.where(targets, count - 1, np.arange(n, 2 * n) - count - 1)",
     "tests/test_reference.py"),
    ("step-5 coverage check dropped", PROTOCOL,
     "    state.abort(wrong, Status.ABORT_INVALID_MESSAGE)",
     "    pass",
     "tests/test_protocol.py -k illegal_family"),
    ("step-5 size check reduced to row counts", PROTOCOL,
     "any(np.shape(f) != (state.rows, s) for f in family)",
     "any(len(f) != state.rows for f in family)",
     "tests/test_protocol.py -k illegal_family"),
    ("step-5 range guard skipped", PROTOCOL,
     "    if family.view(np.uint64).max() >= N:",
     "    if False:",
     "tests/test_protocol.py -k illegal_family"),
    ("step-5 slot type check widened to floats", PROTOCOL,
     ".dtype, np.integer)):",
     ".dtype, np.number)):",
     "tests/test_protocol.py -k illegal_family"),
    ("fixed labels built from the unchecked choices", PROTOCOL,
     "chosen[[c - 1 for c in labels]] = True",
     "chosen[[c - 1 for c in choices]] = True",
     "tests/test_protocol.py -k fixed_inputs"),
    ("trial outcome read past its stage", PROTOCOL,
     "        if (now := self.state.stage) != self.stage:\n",
     "        if (now := self.state.stage) is None:\n",
     "tests/test_protocol.py -k not_read_past"),
    ("step-5 claimed subsets need s - 1 matches", PROTOCOL,
     "matched < claimed.sum(axis=1) * s,",
     "matched < claimed.sum(axis=1) * (s - 1),",
     "tests/test_reference.py"),
    ("commit-cheat accepts at the least rejecting word", ADVERSARY,
     "return largest >> np.uint64(11) < np.uint64(",
     "return largest >> np.uint64(11) <= np.uint64(",
     "tests/test_adversary.py -k float_rule"),
    ("commit-cheat judges each row by its least word", ADVERSARY,
     "largest = np.ascontiguousarray(words.T).max(axis=0)",
     "largest = np.ascontiguousarray(words.T).min(axis=0)",
     "tests/test_adversary.py -k float_rule"),
    ("commit-cheat threshold without its ceil", ADVERSARY,
     "np.uint64(math.ceil(p * 2**53))",
     "np.uint64(int(p * 2**53))",
     "tests/test_adversary.py -k float_rule"),
    ("privacy feature takes the largest least cell", HARNESS,
     "firsts = state.cells.min(axis=0).argmin(axis=1)[live]",
     "firsts = state.cells.min(axis=0).argmax(axis=1)[live]",
     "tests/test_harness.py -k recount"),
    ("chi-square test takes Yates' correction at dof 2", HARNESS,
     "    if dof == 1:\n",
     "    if dof == 2:\n",
     "tests/test_source.py -k chi2_contingency_is_scipys"),
    ("curious Alice's guess drops its m-th subset", ADVERSARY,
     "return (firsts <= np.sort(firsts, axis=1)",
     "return (firsts < np.sort(firsts, axis=1)",
     "tests/test_adversary.py -k curious"),
    ("chi-square test skips its finiteness scan", HARNESS,
     "    if not np.isfinite(observed).all():",
     "    if False:",
     "tests/test_source.py -k non_finite"),
    ("chi-square tail not capped at 1", HARNESS,
     "    return min(p, 1.0)",
     "    return p",
     "tests/test_source.py -k chi2_sf"),
    ("step-4 unveils the kept slot's pair", PROTOCOL,
     "4 * j + 2 - 2 * d[j]",
     "4 * j + 2 * d[j]",
     "tests/test_engine.py -k every_unveil"),
    ("transcript records drop the last line", PROTOCOL,
     'json.loads("[" + ",".join(self.lines) + "]")',
     'json.loads("[" + ",".join(self.lines[:-1]) + "]")',
     "tests/test_stability.py -k read_back"),
    ("transcript seq counts from 1", PROTOCOL,
     "enumerate(lines)",
     "enumerate(lines, 1)",
     "tests/test_stability.py -k read_back"),
    ("transcript seq colon followed by a space", PROTOCOL,
     """f'{{"seq":{seq},""",
     """f'{{"seq": {seq},""",
     "tests/test_stability.py -k read_back"),
    ("step 4 marks the removed slots of aborted rows too", PROTOCOL,
     "state.removed.reshape(-1)[cells] = state.live()[:, None]",
     "state.removed.reshape(-1)[cells] = True",
     "tests/test_reference.py"),
    ("family read back without the row offsets", PROTOCOL,
     "np.sort(self.cells - self.offsets, axis=0)",
     "np.sort(self.cells, axis=0)",
     "tests/test_reference.py"),
    ("rows with no targets read the word before their own", PROTOCOL,
     "picked = packed < first.reshape(-1)[state.offsets + count[:, -1:] * s]",
     "picked = packed <= first.reshape(-1)[state.offsets + count[:, -1:] * s - 1]",
     "tests/test_engine.py -k legal_family_of_rows_with_no_targets"),
    ("walk step off by one past M = 300", PARAMS,
     "        pair = pair * ((N - M) * (N - M - 1)) // ((M + 2) * (M + 3))\n",
     "        pair = pair * ((N - M) * (N - M - 1)) // ((M + 2) * (M + 3)) + (M > 300)\n",
     "tests/test_params.py -k exact_oracle_matches_comb_sum_past_brute_force"),
    ("walk checkpoints cached without a bound", PARAMS,
     "@functools.lru_cache(maxsize=32)\ndef _checkpoints(",
     "@functools.lru_cache(maxsize=None)\ndef _checkpoints(",
     "tests/test_source.py -k every_cache_with_arguments_is_bounded"),
    ("dishonest-removal run ends one match early", PARAMS,
     "return [((p.m + 1) * p.subset_size, p.N - p.x + 1)]",
     "return [((p.m + 1) * p.subset_size, p.N - p.x)]",
     "tests/test_params.py -k event_runs_equal_the_feasibility_reference"),
    ("bound report looks (n, m) up unchecked", PARAMS,
     "    _require_choice_count(n, m)  # before the lookup: [2], True and 2.0 are refused\n",
     "",
     "tests/test_params.py -k checks_its_arguments_before_the_cache"),
    ("high-case deviation uses k = 2m + 3", PARAMS,
     "if case_of(n, m) is Case.LOW else 2 * m + 1\n",
     "if case_of(n, m) is Case.LOW else 2 * m + 3\n",
     "tests/test_params.py -k bound_layer_is_pinned"),
    ("privacy deviation loses its low-case sign", PARAMS,
     "return -delta if case_of(n, m) is Case.LOW else delta",
     "return delta if case_of(n, m) is Case.LOW else delta",
     "tests/test_params.py -k sign_anomaly"),
    ("CLI work runs inside the usage-error boundary", CLI,
     _CHECKS,
     _CHECKS + "        done = work()\n        work = lambda: done\n",
     "tests/test_cli.py -k bug_not_a_usage_error"),
    ("CLI opens --out before the subcommand's checks", CLI,
     _CHECKS + _OPEN_OUT,
     _OPEN_OUT + _CHECKS,
     "tests/test_cli.py -k refused_command_leaves_no_out_file"),
    ("CLI keeps the --out file its check made when the work raises", CLI,
     "            os.remove(out)\n",
     "            pass\n",
     "tests/test_cli.py -k crash_leaves_no_new_out_file"),
    ("CLI truncates --out before the work", CLI,
     'open(out, "a", encoding="utf-8").close()',
     'open(out, "w", encoding="utf-8").close()',
     "tests/test_cli.py -k crash_keeps_an_existing_out_file"),
    ("CLI skips an empty --out", CLI,
     'if (out := getattr(args, "out", None)) is not None:',
     'if out := getattr(args, "out", None):',
     "tests/test_cli.py -k empty_out"),
    ("block does not check its width", CHANNEL,
     '(("width", width), ("start", start), ("count", count))',
     '(("start", start), ("count", count))',
     "tests/test_channel.py -k block_refuses"),
    ("numpy imported with the package", PARAMS,
     "np = _Numpy()",
     "import numpy as np",
     "tests/test_source.py -k exact_layer_never_loads_numpy"),
    ("stand-in never rebinds np", PARAMS,
     "                module.np = numpy\n",
     "                pass\n",
     "tests/test_source.py -k exact_layer_never_loads_numpy"),
]


def _pytest(tree: Path, selector: str) -> bool:
    """Whether `selector` passes in the copy `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          *selector.split()], cwd=tree, env=env, capture_output=True,
                         timeout=300)
    return run.returncode == 0


def main() -> int:
    start, killed, passed = time.perf_counter(), 0, {}
    with tempfile.TemporaryDirectory() as scratch:
        for k, (name, file, old, new, selector) in enumerate(MUTANTS):
            tree = Path(scratch) / str(k)
            for part in ("src", "tests", "demos"):
                shutil.copytree(ROOT / part, tree / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", tree)
            if selector not in passed:
                passed[selector] = _pytest(tree, selector)
            if not passed[selector]:
                print(f"BROKEN  {name}: `{selector}` fails unmutated")
                return 1
            path = tree / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE   {name}: its old text occurs {text.count(old)} times in {file}")
                return 1
            path.write_text(text.replace(old, new), encoding="utf-8")
            caught = not _pytest(tree, selector)
            killed += caught
            print(f"{'killed' if caught else 'SURVIVED'} {name}  ({selector})", flush=True)
            shutil.rmtree(tree)
    print(f"{killed}/{len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
