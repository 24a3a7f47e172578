"""Command-line interface.

Subcommands: `bounds` (security-bound report), `run` (honest Monte Carlo),
`attack` (adversarial Monte Carlo), `privacy-test` (choice-vector
distinguishability), `oracle` (exact event probability).  Exit code 0 iff
every verdict passes; bad input (inadmissible parameters, or strategy for
them, neither or both of --N and --auto-N, malformed bits, choices or seed,
a cheat probability outside (0, 1) or not for commit-cheat, too few trials,
an `--out` file that will not open; it is opened before any work) prints
one `error:` line and exits 2; a closed stdout exits 1.  QOTSIM_SEED sets
the default seed; flags override.
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
    check_privacy_test,
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="Alice's bit count")
    p.add_argument("--m", type=int, required=True, help="Bob's choice count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qotsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="report every security bound for (n, m)")
    _add_common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--p", type=float, default=None, help="commitment cheat probability")
    p.add_argument("--format", choices=("structured", "table"), default="structured")

    p = sub.add_parser("run", help="honest Monte Carlo experiment")
    _add_common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--auto-N", type=int, default=None, metavar="FLOOR",
                   help="use the smallest admissible N >= FLOOR")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--bits", type=_csv_ints, default=None, help="default: drawn per trial")
    p.add_argument("--choices", type=_csv_ints, default=None, help="default: drawn per trial")
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("structured", "table"), default="structured")
    p.set_defaults(strategy="honest", p=None, strict_alice=False)

    p = sub.add_parser("attack", help="adversarial Monte Carlo experiment")
    _add_common(p)
    p.add_argument("--strategy", choices=[k for k in STRATEGIES if k != "honest"],
                   required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--strict-alice", action="store_true")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("structured", "table"), default="structured")
    p.set_defaults(auto_N=None, bits=None, choices=None)

    p = sub.add_parser("privacy-test", help="choice-vector distinguishability test")
    _add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials-per-choice", type=int, required=True)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--leaky", action="store_true",
                   help="run the deliberately leaky positive-control Bob")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("oracle", help="exact event probability")
    _add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--event", choices=tuple(_EVENTS), required=True)

    return parser


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write_out(text: str, out) -> None:
    if out:
        with out:
            out.write(text + "\n")
    print(text, flush=True)  # a closed stdout raises here, inside main


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
        return _usage_error(f"QOTSIM_SEED must be an integer, got {os.environ['QOTSIM_SEED']!r}")
    args = build_parser().parse_args(argv)

    if args.command == "bounds":
        try:
            report = build_bound_report(args.n, args.m, N=args.N, p=args.p)
        except ValueError as exc:
            return _usage_error(exc)
        config = {"command": "bounds", "n": args.n, "m": args.m, "N": args.N,
                  "p": args.p, "seed": None}
        text = emit_report(config, extra={"bounds": dataclasses.asdict(report)},
                           fmt=args.format)
        _write_out(text, None)
        return 0

    if args.command in ("run", "attack"):
        if (args.N is None) == (args.auto_N is None):  # neither or both
            return _usage_error("one of --N or --auto-N is required" if args.N is None
                                else "--N and --auto-N cannot be used together")
        try:
            N = args.N if args.N is not None else smallest_valid_N(args.n, args.m, args.auto_N)
            params = validate_params(args.n, args.m, N)
            config = ExperimentConfig(
                n=args.n, m=args.m, N=N, trials=args.trials, seed=args.seed,
                strategy=Strategy(args.strategy, p=args.p, strict_alice=args.strict_alice),
                bits=args.bits, choices=args.choices,
            )
            out = open(args.out, "w", encoding="utf-8") if args.out else None
        except (ValueError, OSError) as exc:
            return _usage_error(exc)
        stats = run_experiment(config)
        verdicts = check_bounds(stats, params)
        doc_cfg = {"command": args.command}
        if args.command == "attack":
            doc_cfg |= {"strategy": args.strategy, "p": args.p, "strict_alice": args.strict_alice}
        doc_cfg |= {"n": args.n, "m": args.m, "N": N, "trials": args.trials, "seed": args.seed}
        if args.command == "run":
            doc_cfg |= {"bits": list(args.bits) if args.bits else None,
                        "choices": list(args.choices) if args.choices else None}
        text = emit_report(doc_cfg, stats=stats, verdicts=verdicts, fmt=args.format)
        _write_out(text, out)
        return 0 if all_verdicts_pass(verdicts) else 1

    if args.command == "privacy-test":
        try:
            params = validate_params(args.n, args.m, args.N)
            check_privacy_test(args.trials_per_choice, args.seed)
            out = open(args.out, "w", encoding="utf-8") if args.out else None
        except (ValueError, OSError) as exc:
            return _usage_error(exc)
        report = privacy_independence_test(params, args.trials_per_choice, args.seed,
                                           leaky=args.leaky)
        doc_cfg = {"command": "privacy-test", "n": args.n, "m": args.m,
                   "N": args.N, "trials_per_choice": args.trials_per_choice,
                   "seed": args.seed, "leaky": args.leaky}
        text = emit_report(doc_cfg, extra={"independence": report})
        _write_out(text, out)
        return 0 if report["all_pass"] else 1

    if args.command == "oracle":
        try:
            params = validate_params(args.n, args.m, args.N)
        except ValueError as exc:
            return _usage_error(exc)
        value = exact_failure_oracle(params, args.event)
        config = {"command": "oracle", "n": args.n, "m": args.m, "N": args.N,
                  "event": args.event, "seed": None}
        text = emit_report(
            config,
            extra={"probability": {"exact": str(value), "float": float(value)}},
        )
        _write_out(text, None)
        return 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
