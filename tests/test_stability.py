"""Cross-commit stability: fixed seeds give the same rows, byte for byte.

Each case runs 256 trials of one Bob at one parameter set through the batch
engine and hashes every row's status and, for each completed row, its
announced family, claimed labels and recovered bits.  A second table hashes
the message transcript of one single session per way a session can end:
completed, or aborted at step 2, 4 or 5 for each reason.  The digests are
fixed: an optimisation of the engine must leave them unchanged, and a
change to the random-stream contract (which words a trial owns, or how a
phase reads them) has to update this table on purpose and say so in
CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from qotsim.adversary import DishonestRemovalBob, GreedyBob, LeakyBob, PostponeBob
from qotsim.channel import RandomSource
from qotsim.cli import main
from qotsim.params import Case, validate_params
from qotsim.protocol import (
    STATUSES,
    HonestBob,
    Status,
    draw_sessions,
    phase1_transmit,
    phase2_challenge,
    run_protocol,
)

ROWS = 256
SETS = ((3, 1, 6), (2, 1, 18), (4, 1, 40), (4, 2, 20))
# label -> (Bob, strict Alice)
BOBS = {
    "honest": (HonestBob, False),
    "greedy": (GreedyBob, False),
    "dishonest-removal": (DishonestRemovalBob, False),
    "dishonest-removal-strict": (DishonestRemovalBob, True),
    "leaky": (LeakyBob, False),
    "postpone": (PostponeBob, False),  # steps 1-2 only
}

DIGESTS = {
    "honest/3,1,6": "020ebb7287913ce7",
    "honest/2,1,18": "aa6a6ca3993affab",
    "honest/4,1,40": "5cc33f7aae7de4f3",
    "honest/4,2,20": "2c2ea1de816f4d5a",
    "greedy/3,1,6": "3e7e50d023142d7e",
    "greedy/2,1,18": "4ce6389f783340aa",
    "greedy/4,1,40": "40a66fa691bea95d",
    "greedy/4,2,20": "b6a21a44defa5765",
    "dishonest-removal/4,1,40": "08dde4814e2a7d7c",
    "dishonest-removal-strict/4,1,40": "f5c22e35d04167e3",
    "leaky/3,1,6": "ef4dd6cf7a3c4822",
    "leaky/2,1,18": "462c0d94fdf0f64f",
    "leaky/4,1,40": "21b6873028588801",
    "leaky/4,2,20": "6ce4d992a81972a2",
    "postpone/3,1,6": "75fa6d12aedadd7e",
    "postpone/2,1,18": "2c8e9e7a814269c3",
    "postpone/4,1,40": "f5c22e35d04167e3",
    "postpone/4,2,20": "43e1dc980837a343",
}


def digest(label: str, nmN: tuple[int, int, int]) -> str:
    """Hash of the rows of trials 0..ROWS-1 of the case's stream."""
    params = validate_params(*nmN)
    bob, strict = BOBS[label]
    rng = RandomSource(20260).stream(f"{label}/{','.join(map(str, nmN))}")
    if bob is PostponeBob:
        state = phase1_transmit(params, draw_sessions(params, rng, 0, ROWS), bob=bob())
        phase2_challenge(state)
    else:
        state = run_protocol(params, None, None, draw_sessions(params, rng, 0, ROWS),
                             bob=bob(), strict_removal=strict)
    h = hashlib.sha256(state.status.astype("<i1").tobytes())
    if state.recovered is not None:
        done = state.status == 0
        for part in (state.family[done], state.claimed[done], state.recovered[done]):
            h.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


CASES = [
    f"{label}/{','.join(map(str, nmN))}"
    for label, (bob, _) in BOBS.items()
    for nmN in SETS
    # dishonest removal applies to the low case only
    if bob is not DishonestRemovalBob or validate_params(*nmN).case is Case.LOW
]


def test_every_case_has_a_digest():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", CASES)
def test_rows_match_the_recorded_digest(case):
    label, _, nmN = case.partition("/")
    assert digest(label, tuple(int(v) for v in nmN.split(","))) == DIGESTS[case]


class _RepeatingBob(HonestBob):
    """Announces his first subset n times: right count and sizes, not disjoint."""

    def build_family(self, state):
        family, claimed = super().build_family(state)
        return [family[0]] * len(family), claimed


# One single-session transcript per way a session can end.  case ->
# (set, Bob, strict Alice, seed, status, stage at the end, digest).  Step 3
# has no check and runs on every row, so a step-2 abort ends at stage 3.
TRANSCRIPTS = {
    "completed/3,1,6": ((3, 1, 6), HonestBob, False, 0, Status.COMPLETED, 7,
                        "5b09168d52bcb8a7"),
    "completed/2,1,18": ((2, 1, 18), HonestBob, False, 0, Status.COMPLETED, 7,
                         "b731ad8db5055047"),
    "completed/4,1,40": ((4, 1, 40), HonestBob, False, 0, Status.COMPLETED, 7,
                         "a4065eeb62c9f5e1"),
    "step2-cheat/3,1,6": ((3, 1, 6), PostponeBob, False, 0, Status.ABORT_CHEAT_DETECTED, 3,
                          "c3b404eb4e3edc2e"),
    "step4-short/2,1,18": ((2, 1, 18), HonestBob, False, 13,
                           Status.ABORT_INSUFFICIENT_MATCHES, 4, "c393081c672c380e"),
    "step5-insufficient/2,1,18": ((2, 1, 18), HonestBob, False, 12,
                                  Status.ABORT_INSUFFICIENT_MATCHES, 5, "31a2bae7e4a74150"),
    "step4-cheat/4,1,40": ((4, 1, 40), DishonestRemovalBob, True, 0,
                           Status.ABORT_CHEAT_DETECTED, 4, "afffb06e280a4930"),
    "step5-invalid/3,1,6": ((3, 1, 6), _RepeatingBob, False, 0,
                            Status.ABORT_INVALID_MESSAGE, 5, "0fec994c2046ad65"),
}


@pytest.mark.parametrize("case", TRANSCRIPTS)
def test_transcript_matches_the_recorded_digest(case):
    nmN, bob, strict, seed, status, stage, expected = TRANSCRIPTS[case]
    params = validate_params(*nmN)
    outcome = run_protocol(params, None, None, seed, bob=bob(), strict_removal=strict)
    # the same session as a one-row batch shows the stage it ended at
    state = run_protocol(params, None, None, draw_sessions(params, RandomSource(seed), 0, 1),
                         bob=bob(), strict_removal=strict)
    assert (outcome.status, STATUSES[state.status[0]], state.stage) == (status, status, stage)
    assert hashlib.sha256(outcome.transcript.to_jsonl()).hexdigest()[:16] == expected


@pytest.mark.parametrize("case", TRANSCRIPTS)
def test_transcript_lines_read_back_as_its_records(case):
    """Each message's line is written from a template, not by json.dumps; it
    must still be exactly the compact JSON of the record it reads back as,
    and the records must be numbered 0, 1, 2, ... in order."""
    nmN, bob, strict, seed, *_ = TRANSCRIPTS[case]
    outcome = run_protocol(validate_params(*nmN), None, None, seed, bob=bob(), strict_removal=strict)
    lines = outcome.transcript.to_jsonl().decode("utf-8").split("\n")
    assert lines[-1] == ""
    for line in lines[:-1]:
        assert line == json.dumps(json.loads(line), separators=(",", ":"))
    assert [record["seq"] for record in outcome.transcript.records] == list(range(len(lines) - 1))


# The stdout of one CLI command per report shape, byte for byte: case ->
# (digest, arguments).  The report writer and the float rounding must leave
# every digest unchanged.
CLI_DIGESTS = {
    "oracle/structured": (
        "d7c9c1e9b37df649", "oracle --n 4 --m 1 --N 40 --event privacy_dishonest_removal"),
    "run/structured": ("648effa48ba86f5a", "run --n 3 --m 1 --N 6 --trials 300 --seed 5"),
    "run/table": (
        "e68a3a86269240c3",
        "run --n 2 --m 1 --N 18 --trials 300 --seed 5 --bits 1,0 --choices 2 --format table"),
    "attack/structured": (
        "9c7c7858fc62799a",
        "attack --strategy commit-cheat --p 0.3 --n 3 --m 1 --N 6 --trials 300 --seed 2"),
    "attack/table": (
        "a3db7783ee16e47d",
        "attack --strategy dishonest-removal --n 4 --m 1 --N 40 --trials 100 --seed 2 "
        "--format table"),
    "bounds/structured": ("da61e83c0517ec05", "bounds --n 4 --m 1 --N 40 --p 0.5"),
    "bounds/table": ("64c08a5e54b159db", "bounds --n 3 --m 2 --p 1e-300 --format table"),
    "privacy-test/structured": (
        "e6fb400964120230", "privacy-test --n 3 --m 1 --N 6 --trials-per-choice 100 --seed 4"),
    # every session of choice vector (3) aborts: the untestable-vector report
    "privacy-test/untestable": (
        "4cb1c6a43fc81ebf", "privacy-test --n 3 --m 1 --N 6 --trials-per-choice 1 --seed 7"),
}


@pytest.mark.parametrize("case", CLI_DIGESTS)
def test_cli_stdout_matches_the_recorded_digest(case, capsys):
    expected, args = CLI_DIGESTS[case]
    main(args.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == expected
