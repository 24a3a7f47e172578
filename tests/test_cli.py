"""CLI behavior: exit codes, flag handling, output files, seed env var."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qotsim import cli
from qotsim.cli import build_parser, main


def _cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "qotsim.cli", *args],
        capture_output=True, text=True, timeout=120, env=full_env,
    )


def test_oracle_subcommand_exact_value(capsys):
    for n, N, event, exact in (
        ("3", "6", "correctness", "7/64"),
        ("4", "40", "privacy_dishonest_removal", "1014902986909/1099511627776"),
    ):
        code = main(["oracle", "--n", n, "--m", "1", "--N", N, "--event", event])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["probability"]["exact"] == exact
        assert doc["probability"]["float"] == pytest.approx(float(Fraction(exact)))


def test_bounds_subcommand_table_format(capsys):
    code = main(["bounds", "--n", "2", "--m", "1", "--format", "table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2*exp(-N/18)" in out


def test_run_requires_N_or_auto_N(capsys):
    code = main(["run", "--n", "3", "--m", "1", "--trials", "10"])
    assert code == 2
    assert "one of --N or --auto-N" in capsys.readouterr().err


def test_run_refuses_both_N_and_auto_N(capsys):
    """Neither flag wins: --auto-N is not dropped in favour of --N."""
    code = main(["run", "--n", "3", "--m", "1", "--N", "6", "--auto-N", "100", "--trials", "10"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "error: --N and --auto-N cannot be used together\n"
    assert out == ""


def test_run_auto_N_picks_admissible(capsys):
    code = main(["run", "--n", "4", "--m", "1", "--auto-N", "36",
                 "--trials", "200", "--seed", "1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["config"]["N"] == 40


def test_run_writes_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--n", "3", "--m", "1", "--N", "6", "--trials", "500",
                 "--seed", "3", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == stdout


def test_attack_exit_code_zero_on_pass(capsys):
    code = main(["attack", "--strategy", "greedy", "--n", "2", "--m", "1",
                 "--N", "6", "--trials", "3000", "--seed", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(v["passed"] for v in doc["verdicts"])
    # strict Alice catches every dishonest removal, so the reference is 0
    code = main(["attack", "--strategy", "dishonest-removal", "--strict-alice",
                 "--n", "4", "--m", "1", "--N", "40", "--trials", "300", "--seed", "12"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["stats"]["oracle_exact"] == "0"
    assert all(v["passed"] for v in doc["verdicts"])


def test_commitment_figures_at_underflowing_p(capsys):
    """p^((N-x)/n) and eps^N both underflow to 0.0 at p = 1e-300."""
    code = main(["bounds", "--n", "4", "--m", "1", "--N", "40", "--p", "1e-300"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["bounds"]["commitment_bound"] == 0.0
    code = main(["attack", "--strategy", "commit-cheat", "--p", "1e-300", "--n", "4",
                 "--m", "1", "--N", "40", "--trials", "1000", "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    verdict = {v["criterion"]: v for v in doc["verdicts"]}["commitment_bound_lt_eps_pow_N"]
    assert verdict["passed"] and verdict["empirical"] == 0.0


def test_attack_rejects_honest_strategy():
    proc = _cli("attack", "--strategy", "honest", "--n", "2", "--m", "1",
                "--N", "6", "--trials", "10", "--seed", "0")
    assert proc.returncode == 2


def test_attack_rejects_p_for_a_strategy_that_ignores_it():
    proc = _cli("attack", "--strategy", "greedy", "--p", "7", "--n", "2", "--m", "1",
                "--N", "6", "--trials", "100", "--seed", "1")
    assert proc.returncode == 2
    assert proc.stderr == "error: p applies only to commit-cheat, got p=7.0 for 'greedy'\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("attack", "--strategy", "greedy", "--n", "2", "--m", "1", "--N", "6",
     "--trials", "100", "--seed", "1"),
    ("oracle", "--n", "3", "--m", "1", "--N", "6", "--event", "correctness"),
])
def test_closed_stdout_ends_without_traceback(args):
    """The reader's end of the pipe is closed before the CLI writes a byte."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qotsim.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_privacy_test_subcommand(capsys):
    code = main(["privacy-test", "--n", "3", "--m", "1", "--N", "6",
                 "--trials-per-choice", "800", "--seed", "4"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["independence"]["all_pass"] is True


def test_privacy_test_leaky_exit_code_one(capsys):
    code = main(["privacy-test", "--n", "3", "--m", "1", "--N", "6",
                 "--trials-per-choice", "800", "--seed", "4", "--leaky"])
    assert code == 1


def test_seed_env_var_sets_default():
    with_env = _cli("run", "--n", "3", "--m", "1", "--N", "6",
                    "--trials", "300", env={"QOTSIM_SEED": "99"})
    explicit = _cli("run", "--n", "3", "--m", "1", "--N", "6",
                    "--trials", "300", "--seed", "99")
    assert with_env.stdout == explicit.stdout


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_bad_seed_env_var_is_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv("QOTSIM_SEED", value)
    code = main(["oracle", "--n", "3", "--m", "1", "--N", "6", "--event", "correctness"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: QOTSIM_SEED must be an integer, got {value!r}\n"


def test_privacy_test_with_an_untestable_vector_fails_without_error(capsys):
    # at seed 7 every session of choice vector (3) aborts
    code = main(["privacy-test", "--n", "3", "--m", "1", "--N", "6",
                 "--trials-per-choice", "1", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)["independence"]
    assert report["untestable_vectors"] == [[3]]
    assert report["all_pass"] is False


def test_inadmissible_params_error():
    proc = _cli("oracle", "--n", "2", "--m", "1", "--N", "7",
                "--event", "correctness")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--bits", "1,0", "bits: need 3 values"),
    ("--choices", "5", "choices: choice indices must lie in [1, 3]"),
    ("--trials", "0", "trials must be >= 1"),
])
def test_run_bad_input_is_usage_error(flag, value, message):
    """Bad input fails at the boundary: one error line and exit 2, no traceback."""
    args = {"--n": "3", "--m": "1", "--N": "6", "--trials": "100", "--seed": "1"}
    args[flag] = value
    proc = _cli("run", *(part for item in args.items() for part in item))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {message}")
    assert proc.stdout == ""


@pytest.mark.parametrize("args, message", [
    (("bounds", "--n", "2", "--m", "1", "--N", "7"), "removal count x = 7/3"),
    (("bounds", "--n", "2", "--m", "2"), "require 1 <= m < n"),
    (("bounds", "--n", "2", "--m", "1", "--p", "1.5"), "cheat probability must be in (0,1)"),
    (("bounds", "--n", "2", "--m", "1", "--N", "18", "--p", "0"),
     "cheat probability must be in (0,1)"),
    (("privacy-test", "--n", "3", "--m", "1", "--N", "6", "--trials-per-choice", "0"),
     "trials_per_choice must be >= 1"),
    (("attack", "--strategy", "dishonest-removal", "--n", "2", "--m", "1", "--N", "6",
      "--trials", "10", "--seed", "1"),
     "dishonest-removal strategy applies to the low case only"),
])
def test_bounds_and_privacy_bad_input_is_usage_error(args, message, capsys):
    """An escaping exception would fail the call itself, so no traceback."""
    assert main(list(args)) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("args", [
    ("run", "--n", "3", "--m", "1", "--N", "6", "--trials", "10", "--seed", "1"),
    ("attack", "--strategy", "greedy", "--n", "2", "--m", "1", "--N", "6", "--trials", "10",
     "--seed", "1"),
    ("privacy-test", "--n", "3", "--m", "1", "--N", "6", "--trials-per-choice", "10",
     "--seed", "1"),
])
def test_unwritable_out_is_usage_error(args, tmp_path, capsys):
    """The --out file opens before the experiment runs, so a bad path costs no work."""
    path = tmp_path / "missing" / "report.json"
    assert main([*args, "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: [Errno 2] No such file or directory") and err.count("\n") == 1
    assert str(path) in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ("privacy-test", "--n", "3", "--m", "1", "--N", "6", "--trials-per-choice", "0"),
    ("privacy-test", "--n", "3", "--m", "1", "--N", "6", "--trials-per-choice", "10",
     "--seed", str(2**63)),
    ("run", "--n", "3", "--m", "1", "--N", "6", "--trials", "0"),
    ("attack", "--strategy", "commit-cheat", "--n", "3", "--m", "1", "--N", "6",
     "--trials", "10"),
], ids=["privacy-no-trials", "privacy-seed", "run-no-trials", "attack-no-p"])
def test_refused_command_leaves_no_out_file(args, tmp_path, capsys):
    """Every argument is checked before --out is opened: exit 2 creates no file."""
    path = tmp_path / "report.json"
    assert main([*args, "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not path.exists()


SEED_COMMANDS = {
    "run": ("run", "--n", "3", "--m", "1", "--N", "6", "--trials", "10"),
    "attack": ("attack", "--strategy", "greedy", "--n", "3", "--m", "1", "--N", "6",
               "--trials", "10"),
    "privacy-test": ("privacy-test", "--n", "3", "--m", "1", "--N", "6",
                     "--trials-per-choice", "10"),
}
SEED_RANGE_ERROR = "error: seed must be in [-2**63, 2**63 - 1], got "


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 99999999999999999999999])
def test_seed_outside_64_bits_is_usage_error(command, seed, capsys):
    assert main([*SEED_COMMANDS[command], "--seed", str(seed)]) == 2
    out, err = capsys.readouterr()
    assert err == f"{SEED_RANGE_ERROR}{seed}\n"
    assert out == ""


@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_seed_env_var_outside_64_bits_is_usage_error(command):
    proc = _cli(*SEED_COMMANDS[command], env={"QOTSIM_SEED": "99999999999999999999999"})
    assert proc.returncode == 2
    assert proc.stderr == f"{SEED_RANGE_ERROR}99999999999999999999999\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", SEED_COMMANDS)
@pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
def test_seed_at_the_64_bit_limits_runs(command, seed, capsys):
    assert main([*SEED_COMMANDS[command], "--seed", str(seed)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["config"]["seed"] == seed


WORK = {  # subcommand: the work call it makes through qotsim.cli, and a valid command line
    "run": ("run_experiment", ("run", "--n", "3", "--m", "1", "--N", "6", "--trials", "10")),
    "attack": ("run_experiment", ("attack", "--strategy", "greedy", "--n", "2", "--m", "1",
                                  "--N", "6", "--trials", "10")),
    "privacy-test": ("privacy_independence_test", ("privacy-test", "--n", "3", "--m", "1",
                                                   "--N", "6", "--trials-per-choice", "10")),
    "oracle": ("exact_failure_oracle", ("oracle", "--n", "3", "--m", "1", "--N", "6",
                                        "--event", "correctness")),
}


@pytest.mark.parametrize("command", WORK)
def test_an_error_raised_by_the_work_is_a_bug_not_a_usage_error(command, monkeypatch, capsys):
    """Only the checks run inside the usage-error boundary: a ValueError from the
    work itself escapes main with its traceback, and no `error:` line is printed."""
    name, args = WORK[command]

    def bug(*_args, **_kwargs):
        raise ValueError("simulated bug")
    monkeypatch.setattr(cli, name, bug)
    with pytest.raises(ValueError, match="simulated bug"):
        main(list(args))
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "attack", "privacy-test"])
def test_a_crash_keeps_an_existing_out_file(command, monkeypatch, tmp_path, capsys):
    """--out is written only once the work is done: a work that raises leaves the old
    report byte for byte, and the next good run replaces all of it."""
    name, args = WORK[command]
    path, old = tmp_path / "report.json", b'{"old": "report"}\n' * 1000

    def bug(*_args, **_kwargs):
        raise ValueError("simulated bug")
    path.write_bytes(old)
    with monkeypatch.context() as patch:
        patch.setattr(cli, name, bug)
        with pytest.raises(ValueError, match="simulated bug"):
            main([*args, "--out", str(path)])
    assert path.read_bytes() == old
    capsys.readouterr()
    main([*args, "--out", str(path)])
    assert path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "attack", "privacy-test"])
def test_a_crash_leaves_no_new_out_file(command, monkeypatch, tmp_path):
    """Checking a missing --out creates it; a work that raises then removes it again,
    and its exception escapes main unchanged."""
    name, args = WORK[command]
    path = tmp_path / "report.json"

    def bug(*_args, **_kwargs):  # runs after the check made the file
        raise ValueError(f"simulated bug, --out exists: {path.exists()}")
    monkeypatch.setattr(cli, name, bug)
    with pytest.raises(ValueError, match="simulated bug, --out exists: True") as raised:
        main([*args, "--out", str(path)])
    assert raised.traceback[-1].name == "bug"
    assert not path.exists()


@pytest.mark.parametrize("command", ["run", "attack", "privacy-test"])
def test_an_empty_out_is_a_usage_error(command, monkeypatch, capsys):
    """`--out ""` names no file, so its check fails to open it: one error line and exit
    2, with no work done, never a report printed and silently not written."""
    name, args = WORK[command]
    calls = []
    monkeypatch.setattr(cli, name, lambda *call, **kwargs: calls.append(call))
    assert main([*args, "--out", ""]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""
    assert calls == []


FLAGS = {  # subcommand: (option, required, default) of each flag, in the parser's order
    "bounds": [("--n", True, None), ("--m", True, None), ("--N", False, None),
               ("--p", False, None), ("--format", False, "structured")],
    "run": [("--n", True, None), ("--m", True, None), ("--N", False, None),
            ("--auto-N", False, None), ("--trials", True, None), ("--seed", False, 0),
            ("--bits", False, None), ("--choices", False, None), ("--out", False, None),
            ("--format", False, "structured")],
    "attack": [("--n", True, None), ("--m", True, None), ("--strategy", True, None),
               ("--p", False, None), ("--strict-alice", False, False), ("--N", True, None),
               ("--trials", True, None), ("--seed", False, 0), ("--out", False, None),
               ("--format", False, "structured")],
    "privacy-test": [("--n", True, None), ("--m", True, None), ("--N", True, None),
                     ("--trials-per-choice", True, None), ("--seed", False, 0),
                     ("--leaky", False, False), ("--out", False, None)],
    "oracle": [("--n", True, None), ("--m", True, None), ("--N", True, None),
               ("--event", True, None)],
}


def test_the_flag_surface_is_pinned(monkeypatch):
    """No flag is dropped, added, made (not) required or re-defaulted, and their order,
    which argparse's usage line and required-argument error follow, holds."""
    monkeypatch.delenv("QOTSIM_SEED", raising=False)
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    surface = {name: [(" ".join(action.option_strings), action.required, action.default)
                      for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)]
               for name, parser in commands.items()}
    assert surface == FLAGS
