"""Batched-engine tests: row k of a batch is exactly the single run of trial k."""

import itertools

import numpy as np
import pytest

from qotsim.adversary import (
    STRATEGIES,
    DishonestRemovalBob,
    GreedyBob,
    LeakyBob,
    PostponeBob,
    Strategy,
)
from qotsim.channel import RandomSource
from qotsim.params import Case, validate_params
from qotsim.protocol import (
    BATCH_WORDS,
    CHUNK,
    HonestBob,
    Trials,
    chunks,
    draw_sessions,
    phase1_transmit,
    phase2_challenge,
    run_protocol,
    session_width,
)

SETS = ((3, 1, 6), (2, 1, 18), (4, 1, 40))
ROWS = 64

# (label, strategy row or None, Bob, strict Alice)
SESSIONS = [
    ("honest", "honest", HonestBob, False),
    ("greedy", "greedy", GreedyBob, False),
    ("dishonest-removal", "dishonest-removal", DishonestRemovalBob, False),
    ("dishonest-removal-strict", "dishonest-removal", DishonestRemovalBob, True),
    ("curious-alice", "curious-alice", HonestBob, False),
    ("leaky", None, LeakyBob, False),
    ("postpone", "postpone", PostponeBob, False),
]
CASES = [
    pytest.param(nmN, label, kind, bob, strict, id=f"{label}-{nmN}")
    for nmN in SETS
    for label, kind, bob, strict in SESSIONS
    # dishonest removal applies to the low case only
    if bob is not DishonestRemovalBob or validate_params(*nmN).case is Case.LOW
]


def _run(params, rng, start, count, bob, strict):
    if bob is PostponeBob:  # steps 1-2 only
        state = phase1_transmit(params, draw_sessions(params, rng, start, count), bob=bob())
        phase2_challenge(state)
        return state
    return run_protocol(params, None, None, Trials(rng, start, count), bob=bob(),
                        strict_removal=strict)


def _row(state, k):
    """Status, and for a completed row its recovered chosen bits, family and
    claimed labels."""
    status = int(state.status[k])
    if status != 0 or state.recovered is None:
        return status, None
    return status, (
        state.recovered[k][state.chosen[k]].tolist(),
        state.family[k].tolist(),
        np.flatnonzero(state.claimed[k]).tolist(),
    )


@pytest.mark.parametrize("nmN,label,kind,bob,strict", CASES)
def test_batch_row_equals_single_trial(nmN, label, kind, bob, strict):
    params = validate_params(*nmN)
    rng = RandomSource(2024).stream(label)
    batch = _run(params, rng, 0, ROWS, bob, strict)
    singles = [_run(params, rng, k, 1, bob, strict) for k in range(ROWS)]
    assert [_row(batch, k) for k in range(ROWS)] == [_row(s, 0) for s in singles]
    if kind is not None:
        spec = STRATEGIES[kind]
        strategy = Strategy(kind, strict_alice=strict)
        events = spec.hit(spec.run(params, strategy, rng, 0, ROWS))
        single = [bool(spec.hit(spec.run(params, strategy, rng, k, 1))[0]) for k in range(ROWS)]
        assert events.tolist() == single


@pytest.mark.parametrize("nmN,label,kind,bob,strict", CASES)
def test_batch_transcript_is_its_first_trials_transcript(nmN, label, kind, bob, strict):
    """A batch logs its row 0: the transcript of trials k .. k+63 equals that
    of trial k alone, for the first completed and the first aborted trials."""
    params = validate_params(*nmN)
    rng = RandomSource(2025).stream(label)

    def transcript(start, count):
        state = run_protocol(params, None, None, Trials(rng, start, count), bob=bob(),
                             strict_removal=strict, record_transcript=True)
        return state.transcript.to_jsonl()

    status = run_protocol(params, None, None, Trials(rng, 0, 4 * ROWS), bob=bob(),
                          strict_removal=strict).status
    first = np.flatnonzero(status == 0)[:3].tolist() + np.flatnonzero(status != 0)[:3].tolist()
    assert first
    for k in first:
        assert transcript(k, ROWS) == transcript(k, 1)


def test_batches_cover_every_trial_and_shrink_at_large_N():
    assert list(chunks(CHUNK + 1, validate_params(4, 1, 40))) == [(0, CHUNK), (CHUNK, 1)]
    large = validate_params(4, 1, 1000)
    batches = list(chunks(10_000, large))
    counts = [count for _, count in batches]
    assert max(counts) * session_width(large) <= BATCH_WORDS
    assert [start for start, _ in batches] == list(itertools.accumulate([0] + counts[:-1]))
    assert sum(counts) == 10_000


@pytest.mark.parametrize("bob", [HonestBob, LeakyBob])
def test_concatenated_blocks_with_row_masks_equal_separate_batches(bob):
    """Rows of several Trials blocks, each with its own chosen labels, run as
    one batch exactly as each block does alone."""
    params = validate_params(4, 2, 20)
    root = RandomSource(77)
    parts = [(Trials(root.stream("a"), 5, 30), (1, 3)), (Trials(root.stream("b"), 0, 20), (2, 4))]
    mask = np.concatenate([np.isin(np.arange(1, 5), labels)[None].repeat(t.count, axis=0)
                           for t, labels in parts])
    batch = run_protocol(params, (0,) * 4, mask, [t for t, _ in parts], bob=bob())
    alone = [run_protocol(params, (0,) * 4, labels, t, bob=bob()) for t, labels in parts]
    assert [_row(batch, k) for k in range(batch.rows)] == [
        _row(state, k) for state in alone for k in range(state.rows)]


def test_row_mask_must_fit_the_batch():
    params = validate_params(3, 1, 6)
    block = Trials(RandomSource(1), 0, 4)
    for mask in (np.eye(3, dtype=bool), np.ones((4, 3), dtype=bool)):
        with pytest.raises(ValueError, match="choice mask"):
            run_protocol(params, None, mask, block)
