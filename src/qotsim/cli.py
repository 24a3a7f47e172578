"""Command-line interface.

Subcommands: `bounds` (security-bound report), `run` (honest Monte Carlo),
`attack` (adversarial Monte Carlo), `privacy-test` (choice-vector
distinguishability), `oracle` (exact event probability).  Exit code 0 iff every
verdict passes.  Each subcommand checks all of its input first and `--out`
last, before any work: bad input (inadmissible parameters, or strategy for
them, neither or both of --N and --auto-N, malformed bits, choices or seed, a
cheat probability outside (0, 1) or not for commit-cheat, too few trials, an
`--out` path that will not open, "" too) prints one `error:` line and exits 2.  An
exception raised during the work is a simulator bug: it ends with a traceback,
never an `error:` line, and leaves `--out` as it was (a report, or no file).  A
closed stdout exits 1.  QOTSIM_SEED sets the default seed; flags override.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .adversary import STRATEGIES, Strategy
from .harness import (
    ExperimentConfig,
    all_verdicts_pass,
    check_bounds,
    check_run,
    emit_report,
    exact_failure_oracle,
    privacy_independence_test,
    run_experiment,
)
from .params import _EVENTS, build_bound_report, smallest_valid_N, validate_params


def _default_seed() -> int:
    return int(os.environ.get("QOTSIM_SEED", "0"))


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


# A subcommand checks every argument (ValueError on bad input) and returns its report's
# config and `work`: work() -> (passed, emit_report's stats, verdicts and extra).

def _bounds(args):
    report = build_bound_report(args.n, args.m, N=args.N, p=args.p)
    return {"command": "bounds", "n": args.n, "m": args.m, "N": args.N, "p": args.p,
            "seed": None}, lambda: (True, {"extra": {"bounds": dataclasses.asdict(report)}})


def _experiment(config: ExperimentConfig):
    def work():
        stats = run_experiment(config)
        verdicts = check_bounds(stats, config.params)
        return all_verdicts_pass(verdicts), {"stats": stats, "verdicts": verdicts}
    return work


def _run(args):
    if (args.N is None) == (args.auto_N is None):  # neither or both
        raise ValueError("one of --N or --auto-N is required" if args.N is None
                         else "--N and --auto-N cannot be used together")
    N = args.N if args.N is not None else smallest_valid_N(args.n, args.m, args.auto_N)
    config = ExperimentConfig(args.n, args.m, N, args.trials, args.seed,
                              bits=args.bits, choices=args.choices)
    return {"command": "run", "n": args.n, "m": args.m, "N": N, "trials": args.trials,
            "seed": args.seed, "bits": list(args.bits) if args.bits else None,
            "choices": list(args.choices) if args.choices else None}, _experiment(config)


def _attack(args):
    strategy = Strategy(args.strategy, p=args.p, strict_alice=args.strict_alice)
    config = ExperimentConfig(args.n, args.m, args.N, args.trials, args.seed, strategy)
    return {"command": "attack", "strategy": args.strategy, "p": args.p,
            "strict_alice": args.strict_alice, "n": args.n, "m": args.m, "N": args.N,
            "trials": args.trials, "seed": args.seed}, _experiment(config)


def _privacy_test(args):
    params = validate_params(args.n, args.m, args.N)
    check_run("trials_per_choice", args.trials_per_choice, args.seed)
    def work():
        report = privacy_independence_test(params, args.trials_per_choice, args.seed,
                                           leaky=args.leaky)
        return report["all_pass"], {"extra": {"independence": report}}
    return {"command": "privacy-test", "n": args.n, "m": args.m, "N": args.N,
            "trials_per_choice": args.trials_per_choice, "seed": args.seed,
            "leaky": args.leaky}, work


def _oracle(args):
    params = validate_params(args.n, args.m, args.N)
    def work():
        value = exact_failure_oracle(params, args.event)
        return True, {"extra": {"probability": {"exact": str(value), "float": float(value)}}}
    return {"command": "oracle", "n": args.n, "m": args.m, "N": args.N, "event": args.event,
            "seed": None}, work


# name: (handler, help, flags in order); a bare string names a flag of build_parser's `shared`
_COMMANDS = {
    "bounds": (_bounds, "report every security bound for (n, m)", (
        "--n", "--m", ("--N", dict(type=int, default=None)),
        ("--p", dict(type=float, default=None, help="commitment cheat probability")),
        "--format")),
    "run": (_run, "honest Monte Carlo experiment", (
        "--n", "--m", ("--N", dict(type=int, default=None)),
        ("--auto-N", dict(type=int, default=None, metavar="FLOOR",
                          help="use the smallest admissible N >= FLOOR")),
        "--trials", "--seed",
        ("--bits", dict(type=_csv_ints, default=None, help="default: drawn per trial")),
        ("--choices", dict(type=_csv_ints, default=None, help="default: drawn per trial")),
        "--out", "--format")),
    "attack": (_attack, "adversarial Monte Carlo experiment", (
        "--n", "--m",
        ("--strategy", dict(choices=[k for k in STRATEGIES if k != "honest"], required=True)),
        ("--p", dict(type=float, default=None)), ("--strict-alice", dict(action="store_true")),
        "--N", "--trials", "--seed", "--out", "--format")),
    "privacy-test": (_privacy_test, "choice-vector distinguishability test", (
        "--n", "--m", "--N", ("--trials-per-choice", dict(type=int, required=True)), "--seed",
        ("--leaky", dict(action="store_true",
                         help="run the deliberately leaky positive-control Bob")),
        "--out")),
    "oracle": (_oracle, "exact event probability", (
        "--n", "--m", "--N", ("--event", dict(choices=tuple(_EVENTS), required=True)))),
}


def build_parser() -> argparse.ArgumentParser:
    shared = {  # flags several subcommands take; --seed's default reads QOTSIM_SEED here
        "--n": dict(type=int, required=True, help="Alice's bit count"),
        "--m": dict(type=int, required=True, help="Bob's choice count"),
        "--N": dict(type=int, required=True),
        "--trials": dict(type=int, required=True),
        "--seed": dict(type=int, default=_default_seed()),
        "--out": dict(type=str, default=None),
        "--format": dict(choices=("structured", "table"), default="structured"),
    }
    parser = argparse.ArgumentParser(prog="qotsim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            option, kwargs = (flag, shared[flag]) if isinstance(flag, str) else flag
            p.add_argument(option, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # the reader is gone: no traceback, and no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str] | None) -> int:
    try:
        _default_seed()
    except ValueError:
        print(f"error: QOTSIM_SEED must be an integer, got {os.environ['QOTSIM_SEED']!r}",
              file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:  # the one usage-error boundary: every check, then --out, and no work
        config, work = _COMMANDS[args.command][0](args)
        if (out := getattr(args, "out", None)) is not None:  # to write, not truncated yet
            created = not os.path.lexists(out)
            open(out, "a", encoding="utf-8").close()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        passed, parts = work()  # an exception here is a simulator bug: it keeps its traceback
    except BaseException:
        if out and created:  # the check made this file, so a crash leaves none
            os.remove(out)
        raise
    text = emit_report(config, **parts, fmt=getattr(args, "format", "structured"))
    if out:
        with open(out, "w", encoding="utf-8") as file:
            file.write(text + "\n")
    print(text, flush=True)  # a closed stdout raises here, inside main
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
