"""Cross-commit stability: fixed seeds give the same rows, byte for byte.

Each case runs 256 trials of one Bob at one parameter set through the batch
engine and hashes every row's status and, for each completed row, its
announced family, claimed labels and recovered bits.  The digests are
fixed: an optimisation of the engine must leave them unchanged, and a
change to the random-stream contract (which words a trial owns, or how a
phase reads them) has to update this table on purpose and say so in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from qotsim.adversary import DishonestRemovalBob, GreedyBob, LeakyBob, PostponeBob
from qotsim.channel import RandomSource
from qotsim.params import Case, validate_params
from qotsim.protocol import (
    HonestBob,
    Trials,
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
        state = run_protocol(params, None, None, Trials(rng, 0, ROWS), bob=bob(),
                             strict_removal=strict)
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
