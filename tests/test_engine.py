"""Batched-engine tests: row k of a batch is exactly the single run of trial k."""

import copy
import hashlib
import itertools
import random

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
from qotsim.params import Case, smallest_valid_N, validate_params
from qotsim.protocol import (
    BATCH_WORDS,
    STATUSES,
    Draws,
    HonestBob,
    Status,
    TrialOutcome,
    announce_bases,
    chunks,
    decode,
    draw_sessions,
    mask_bits,
    phase1_transmit,
    phase2_challenge,
    removal_phase,
    run_protocol,
    _legal_family,
    _order,
    select_subsets,
    session_width,
)
import reference
from test_stability import _RepeatingBob

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
    return run_protocol(params, None, None, draw_sessions(params, rng, start, count),
                        bob=bob(), strict_removal=strict)


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
    """Row 0 of a batch that starts mid-stream: the transcript of trials
    k .. k+63 read at row 0 equals that of trial k alone, for the first
    completed and the first aborted trials."""
    params = validate_params(*nmN)
    rng = RandomSource(2025).stream(label)

    def transcript(start, count):
        state = run_protocol(params, None, None, draw_sessions(params, rng, start, count),
                             bob=bob(), strict_removal=strict)
        return TrialOutcome(state).transcript.to_jsonl()

    status = run_protocol(params, None, None, draw_sessions(params, rng, 0, 4 * ROWS),
                          bob=bob(), strict_removal=strict).status
    first = np.flatnonzero(status == 0)[:3].tolist() + np.flatnonzero(status != 0)[:3].tolist()
    assert first
    for k in first:
        assert transcript(k, ROWS) == transcript(k, 1)


VIEW_CASES = [
    pytest.param(nmN, label, bob, strict, id=f"{label}-{nmN}")
    for nmN in (*SETS, (4, 2, 20), (5, 2, 25))
    for label, _, bob, strict in [*SESSIONS, ("repeating", None, _RepeatingBob, False)]
    if bob is not DishonestRemovalBob or validate_params(*nmN).case is Case.LOW
]


@pytest.mark.parametrize("nmN,label,bob,strict", VIEW_CASES)
def test_every_row_reads_as_its_single_trial(nmN, label, bob, strict):
    """TrialOutcome(state, k) of a 256-row batch equals the outcome of trial
    k run alone: status, recovered bits and transcript bytes."""
    params = validate_params(*nmN)
    rng = RandomSource(2026).stream(label)

    def run(start, count):
        return run_protocol(params, None, None, draw_sessions(params, rng, start, count),
                            bob=bob(), strict_removal=strict)

    state = run(0, 4 * ROWS)
    for k in range(state.rows):
        row, alone = TrialOutcome(state, k), TrialOutcome(run(k, 1))
        assert (row.status, row.recovered) == (alone.status, alone.recovered), k
        assert row.transcript.to_jsonl() == alone.transcript.to_jsonl(), k


# The transcript bytes of every row of a 64-row batch at each acceptance set,
# for every Bob of VIEW_CASES (dishonest removal in the low case only):
# case -> sha256 prefix over the rows' to_jsonl(), in row order.
BOBS = {label: (bob, strict) for label, _, bob, strict in
        [*SESSIONS, ("repeating", None, _RepeatingBob, False)]}
BATCH_TRANSCRIPTS = {
    "honest/3,1,6": "a6213d2a35f46e9d",
    "greedy/3,1,6": "eaa14d9122b19948",
    "curious-alice/3,1,6": "085c6377ed51fa19",
    "leaky/3,1,6": "64a2a6a1a40e36f9",
    "postpone/3,1,6": "27ddb410483ef23d",
    "repeating/3,1,6": "6793a52f8191555b",
    "honest/2,1,18": "eb1b976e11e12223",
    "greedy/2,1,18": "f45d1c6aa3a255cb",
    "curious-alice/2,1,18": "0176ca9f2d8f0758",
    "leaky/2,1,18": "f6b4d1f261afd283",
    "postpone/2,1,18": "dc96e8da47b5cbe1",
    "repeating/2,1,18": "5a1a6ff7514477f1",
    "honest/4,1,40": "83a671da1e3a70eb",
    "greedy/4,1,40": "ba87d3428f6d88bd",
    "dishonest-removal/4,1,40": "84606476360d26c4",
    "dishonest-removal-strict/4,1,40": "434a7ec5a893152e",
    "curious-alice/4,1,40": "313a245dc443986a",
    "leaky/4,1,40": "515e68c5e03e4162",
    "postpone/4,1,40": "d689ff3d7c738ee7",
    "repeating/4,1,40": "d09fcc3d0eebe4d1",
}


@pytest.mark.parametrize("case", BATCH_TRANSCRIPTS)
def test_batch_transcripts_match_the_recorded_digest(case):
    label, _, nmN = case.partition("/")
    bob, strict = BOBS[label]
    params = validate_params(*(int(v) for v in nmN.split(",")))
    state = run_protocol(params, None, None,
                         draw_sessions(params, RandomSource(2027).stream(label), 0, ROWS),
                         bob=bob(), strict_removal=strict)
    digest = hashlib.sha256()
    for k in range(state.rows):
        digest.update(TrialOutcome(state, k).transcript.to_jsonl())
    assert digest.hexdigest()[:16] == BATCH_TRANSCRIPTS[case]


@pytest.mark.parametrize("nmN,stop", [pytest.param(nmN, stop, id=f"{nmN}-step{stop}")
                                      for nmN in ((3, 1, 6), (4, 1, 40)) for stop in range(2, 8)])
def test_a_run_stopped_after_any_step_reads_row_by_row(nmN, stop):
    """Phases driven by hand and stopped after step `stop`: every row reads
    as a session.  Its transcript is the full run's messages of steps up to
    `stop` (so none of a step the state has not reached), it recovers
    nothing before step 7, and its status is the full run's once the row
    has aborted or finished; a live row before step 7 is in progress."""
    params = validate_params(*nmN)
    draws = draw_sessions(params, RandomSource(2029).stream("stop"), 0, ROWS)
    state = phase1_transmit(params, draws, None, draws.inputs, draws.chosen(params.m))
    for phase in (phase2_challenge, announce_bases, removal_phase, select_subsets, mask_bits,
                  decode)[:stop - 1]:
        phase(state)
    assert state.stage == stop
    full = run_protocol(params, None, None, draws)
    for k in range(ROWS):
        row, whole = TrialOutcome(state, k), TrialOutcome(full, k)
        aborted = 0 < full.aborted_at[k] <= stop
        assert row.status is (whole.status if aborted or stop == 7
                              else Status.IN_PROGRESS), k
        assert row.recovered == (whole.recovered if stop == 7 else {}), k
        assert row.transcript.records == [
            r for r in whole.transcript.records if r["step"] <= stop], k


@pytest.mark.parametrize("nmN", SETS, ids=str)
def test_every_row_of_a_postpone_batch_reads(nmN):
    """Postpone Bob's run stops after step 2: every row reads its status
    (in progress if it survived the challenges), recovers nothing, and its
    transcript holds step-1 and step-2 messages only."""
    params = validate_params(*nmN)
    state = _run(params, RandomSource(2030).stream("postpone"), 0, ROWS, PostponeBob, False)
    assert state.stage == 2
    if params.N == 6:  # a row survives the challenges with probability (3/4)^N
        assert (state.status == 0).any()
    for k in range(ROWS):
        row = TrialOutcome(state, k)
        assert row.status is (STATUSES[state.status[k]] if state.status[k]
                              else Status.IN_PROGRESS), k
        assert row.recovered == {}, k
        assert {r["step"] for r in row.transcript.records} == {1, 2}, k


@pytest.mark.parametrize("row", [-1, ROWS, True, 1.0])
def test_a_row_outside_the_batch_is_refused(row):
    params = validate_params(3, 1, 6)
    state = run_protocol(params, None, None, draw_sessions(params, RandomSource(2031), 0, ROWS))
    assert TrialOutcome(state, np.int64(ROWS - 1)).row == ROWS - 1
    with pytest.raises(ValueError, match=rf"row must be an int in \[0, {ROWS}\), got {row!r}"):
        TrialOutcome(state, row)


@pytest.mark.parametrize("case", BATCH_TRANSCRIPTS)
def test_every_unveil_opens_a_distinct_committed_id(case):
    """Commitments are ideal, so nothing but the transcript shows what Bob
    opens.  In every row: the unveil ids are distinct committed ids in
    0..4N-1; step 2 opens ids 4i + 2d_i (+1) and step 4 ids 4j + 2(1 - d_j)
    (+1), which never meet; a row past step 4 opens exactly x slots."""
    label, _, nmN = case.partition("/")
    bob, strict = BOBS[label]
    params = validate_params(*(int(v) for v in nmN.split(",")))
    state = run_protocol(params, None, None,
                         draw_sessions(params, RandomSource(2028).stream(label), 0, ROWS),
                         bob=bob(), strict_removal=strict)
    N, x = params.N, params.x
    slots = np.arange(N)
    for k in range(state.rows):
        records = TrialOutcome(state, k).transcript.records
        committed = {r["payload"]["id"] for r in records if r["kind"] == "commit"}
        opened = {step: [r["payload"]["id"] for r in records
                         if r["kind"] == "unveil" and r["step"] == step] for step in (2, 4)}
        ids = opened[2] + opened[4]
        assert committed == set(range(4 * N)), k
        assert len(set(ids)) == len(ids) and set(ids) <= committed, k
        d = state.draws.d[k]
        challenged = 4 * slots + 2 * d
        assert sorted(opened[2]) == sorted([*challenged, *(challenged + 1)]), k
        kept = 4 * slots + 2 * (1 - d)
        assert not set(opened[4]) & {*challenged, *(challenged + 1)}, k
        assert set(opened[4]) <= {*kept, *(kept + 1)}, k
        if state.status[k] == 0 or state.aborted_at[k] > 4:
            assert len(opened[4]) == 2 * x, k


def test_batches_cover_every_trial_and_shrink_at_large_N():
    """A full batch holds as many rows as fit in the word budget, so it
    shrinks as the width grows with N; the batches tile the trials."""
    full = {}
    for nmN in [(3, 1, 6), (2, 1, 18), (4, 1, 40), (4, 1, 1000)]:
        width = session_width(validate_params(*nmN))
        rows = full[nmN] = BATCH_WORDS // width
        trials = 2 * rows + 7
        batches = list(chunks(trials, width))
        counts = [count for _, count in batches]
        assert counts == [rows, rows, 7], nmN
        assert [start for start, _ in batches] == list(itertools.accumulate([0] + counts[:-1]))
        assert sum(counts) == trials
    assert full[(4, 1, 1000)] < full[(4, 1, 40)] < full[(2, 1, 18)] < full[(3, 1, 6)]
    assert list(chunks(3, BATCH_WORDS * 2)) == [(0, 1), (1, 1), (2, 1)]  # one row at least


@pytest.mark.parametrize("mixed", [False, True])
def test_legal_family_of_rows_with_no_targets_covers_their_survivors(mixed):
    """A row with no target labels picks no slot for them: every label takes
    survivors in order of the last N keys.  With all rows' targets empty, or
    every other row's, each live row's family is the scalar reference's, and
    covers its survivors where they hold matches enough for its targets."""
    params, T = validate_params(4, 1, 40), 64
    draws = draw_sessions(params, RandomSource(2032).stream("no targets"), 0, T)
    state = phase1_transmit(params, draws, inputs=draws.inputs, chosen=draws.chosen(params.m))
    phase2_challenge(state)
    announce_bases(state)
    removal_phase(state)
    targets = state.chosen & (mixed & (np.arange(T) % 2 == 0))[:, None]
    family, _ = _legal_family(state, targets, draws.family_keys)
    live = np.flatnonzero(state.live())
    assert live.size > T // 2
    rows = reference.rows(draws)
    for k in live:
        row = rows[k]
        trial = reference.Trial(params, row)
        trial.match, trial.removed = state.match[k].tolist(), set(np.flatnonzero(state.removed[k]))
        expected, _ = reference.legal_family(trial, set(np.flatnonzero(targets[k])),
                                             row.family_keys)
        got = [f[k].tolist() for f in family]
        assert got == expected, k
        usable = sum(trial.match[i] for i in trial.survivors())
        if usable >= targets[k].sum() * params.subset_size:
            assert sorted(sum(got, [])) == trial.survivors(), k


@pytest.mark.parametrize("bob", [HonestBob, LeakyBob])
def test_concatenated_blocks_with_row_masks_equal_separate_batches(bob):
    """The rows of several streams' blocks, each with its own chosen labels,
    run as one batch of concatenated draws exactly as each block does alone."""
    params = validate_params(4, 2, 20)
    root = RandomSource(77)
    parts = [(root.stream("a"), 5, 30, (1, 3)), (root.stream("b"), 0, 20, (2, 4))]
    mask = np.concatenate([np.isin(np.arange(1, 5), labels)[None].repeat(count, axis=0)
                           for _, _, count, labels in parts])
    words = [rng.block(session_width(params), start, count) for rng, start, count, _ in parts]
    batch = run_protocol(params, (0,) * 4, mask, Draws(params, np.concatenate(words)), bob=bob())
    alone = [run_protocol(params, (0,) * 4, labels, draw_sessions(params, rng, start, count),
                          bob=bob()) for rng, start, count, labels in parts]
    assert [_row(batch, k) for k in range(batch.rows)] == [
        _row(state, k) for state in alone for k in range(state.rows)]


def _permuted(draws, pi):
    """A copy of `draws` whose survivor slot i has slot pi[i]'s draws: both
    halves of r, beta, beta_b and coin, d, the removal keys and each N-half
    of the family keys.  The input bits and choice keys, per label, stay."""
    out, N = copy.copy(draws), len(pi)
    for name in ("r", "beta", "beta_b", "coin", "d", "removal_keys"):
        setattr(out, name, getattr(draws, name)[..., pi])
    out.family_keys = np.concatenate([draws.family_keys[:, :N][:, pi],
                                      draws.family_keys[:, N:][:, pi]], axis=1)
    return out


@pytest.mark.parametrize("nmN", [(3, 1, 6), (2, 1, 18), (4, 1, 40), (4, 2, 20), (5, 2, 25)],
                         ids=str)
def test_sessions_are_equivariant_under_a_slot_permutation(nmN):
    """Only its draws tell a survivor slot from another.  With every per-slot
    draw permuted by one pi, an honest, a greedy and (low case) a dishonest
    removal Bob give every row the same status, abort step and claimed labels,
    and every completed row the same recovered bits and, mapped back by pi,
    the same family.  LeakyBob places subsets by slot number, so its family
    changes: the positive control."""
    params = validate_params(*nmN)
    draws = draw_sessions(params, RandomSource(26).stream("equivariance"), 0, 2000)
    pi = np.array(random.Random(str(nmN)).sample(range(params.N), params.N))
    permuted = _permuted(draws, pi)
    bobs = [HonestBob, GreedyBob, LeakyBob]
    if params.case is Case.LOW:
        bobs.insert(2, DishonestRemovalBob)
    for bob in bobs:
        a, b = (run_protocol(params, None, None, d, bob=bob()) for d in (draws, permuted))
        done = a.status == 0
        assert done.any(), bob
        assert np.array_equal(a.status, b.status), bob
        assert np.array_equal(a.aborted_at, b.aborted_at), bob
        assert np.array_equal(a.claimed, b.claimed), bob
        family = np.array_equal(a.family[done], np.sort(pi[b.family[done]], axis=2))
        if bob is LeakyBob:
            assert not family
        else:
            assert family and np.array_equal(a.recovered[done], b.recovered[done]), bob


def test_row_mask_must_fit_the_batch():
    params = validate_params(3, 1, 6)
    block = draw_sessions(params, RandomSource(1), 0, 4)
    for mask in (np.eye(3, dtype=bool), np.ones((4, 3), dtype=bool)):
        with pytest.raises(ValueError, match="choice mask"):
            run_protocol(params, None, mask, block)


def test_draws_need_one_full_block_per_row():
    """Words that are not a (T, session_width) block are refused: a short
    row, a long one (rows cut apart at the wrong place) or a 1-D row."""
    params = validate_params(4, 1, 40)
    rng = RandomSource(1)
    for words in (*(rng.block(width, 0, 2) for width in (8, 64, 128, 136)),
                  rng.block(session_width(params), 0, 1)[0]):
        with pytest.raises(ValueError, match=r"\(T, 132\) block"):
            Draws(params, words)


def test_draws_must_fit_the_parameters():
    """Draws cut for another (n, N) are refused before any session runs."""
    params = validate_params(3, 1, 6)
    for other in ((4, 1, 40), (3, 1, 12), (2, 1, 6)):
        draws = draw_sessions(validate_params(*other), RandomSource(1), 0, 4)
        with pytest.raises(ValueError, match=r"draws are cut for n=\d+, N=\d+"):
            run_protocol(params, None, None, draws)


def _rule(keys, eligible):
    """The slot order :func:`_order` promises, one row at a time in Python:
    eligible slots first, by the top 64 - b bits of their keys, b =
    ceil(log2 width), all ones ranking with the next-lower value, then by
    slot; the other slots after them, by slot."""
    b = (keys.shape[1] - 1).bit_length()
    top = 2**(64 - b) - 2
    return [sorted(range(len(row)), key=lambda c: (not ok[c], min(row[c] >> b, top) if ok[c] else 0, c))
            for row, ok in zip(keys.tolist(), eligible.tolist())]


@pytest.mark.parametrize("width", [1, 2, 6, 18, 40, 64, 65, 675])
def test_order_of_random_keys_is_argsorts_at_every_eligible_position(width):
    rng = np.random.default_rng(width)
    keys = rng.integers(0, 2**64, size=(64, width), dtype=np.uint64)
    eligible = rng.random((64, width)) < rng.random((64, 1))  # from none to all per row
    eligible[0], eligible[1] = False, True
    order = _order(keys, eligible)
    assert order.dtype == np.int64 and order.tolist() == _rule(keys, eligible)
    assert _order(keys).tolist() == _rule(keys, np.ones_like(eligible))  # all eligible
    argsort = np.argsort(np.where(eligible, keys, np.uint64(2**64 - 1)), axis=1)
    for row, ok in enumerate(eligible.sum(axis=1)):
        assert np.array_equal(order[row, :ok], argsort[row, :ok]), row
        assert np.array_equal(order[row, ok:], np.flatnonzero(~eligible[row])), row


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 2), (5, 4)])
def test_chosen_labels_are_the_first_m_in_order(n, m):
    """Draws.chosen marks the m labels that come first in :func:`_order`'s
    order of the choice keys, also where two keys tie in their top bits."""
    params = validate_params(n, m, smallest_valid_N(n, m, 6))
    draws = draw_sessions(params, RandomSource(2033).stream("chosen"), 0, 256)
    keys = draws.choice_keys
    keys[:64, 1] = keys[:64, 0] ^ np.uint64(1)  # ties in the top bits: the slot decides
    keys[64:96] = 2**64 - 1  # all tied
    first = np.zeros(keys.shape, dtype=bool)
    np.put_along_axis(first, _order(keys)[:, :m], True, axis=1)
    assert np.array_equal(draws.chosen(m), first)
    assert (draws.chosen(m).sum(axis=1) == m).all()


@pytest.mark.parametrize("width", [6, 40, 675])
def test_order_breaks_a_tie_in_the_top_bits_by_slot(width):
    """Two eligible keys that differ only in their low b bits: the slot
    decides, whichever key is larger."""
    b = (width - 1).bit_length()
    keys = np.full((2, width), 2**63, dtype=np.uint64)
    keys[:, 0] = 2**62
    keys[0, 3], keys[0, 5] = 2**60 + 2**b - 1, 2**60  # the larger key at the smaller slot
    keys[1, 3], keys[1, 5] = 2**60, 2**60 + 1
    eligible = np.zeros((2, width), dtype=bool)
    eligible[:, [0, 3, 5]] = True
    order = _order(keys, eligible)
    assert order[:, :3].tolist() == [[3, 5, 0], [3, 5, 0]]
    assert order.tolist() == _rule(keys, eligible)


@pytest.mark.parametrize("width", [1, 2, 6, 40, 64, 675])
def test_an_eligible_key_with_all_top_bits_set_comes_before_the_others(width):
    """Its top bits are those of the ineligible slots; it still comes first,
    ranked with the next-lower value, and the ineligible slots follow by slot
    whatever their keys."""
    b = (width - 1).bit_length()
    keys = np.full((4, width), 2**64 - 1, dtype=np.uint64)
    keys[1:3] -= np.arange(width, dtype=np.uint64)  # a later ineligible slot has a smaller key
    eligible = np.zeros((4, width), dtype=bool)
    eligible[0, -1] = eligible[1, width // 2] = eligible[3] = True
    keys[1, width // 2] = 2**64 - 1
    keys[3, -1] = 2**64 - 2**(b + 1)  # the next-lower top bits, at a later slot
    order = _order(keys, eligible)
    assert order.tolist() == _rule(keys, eligible)
    assert order[0].tolist() == [width - 1, *range(width - 1)]
    assert order[1].tolist() == [width // 2, *(c for c in range(width) if c != width // 2)]
    assert order[2].tolist() == list(range(width))  # an all-ineligible row, by slot
    assert order[3].tolist() == list(range(width))  # all eligible, all tied
    assert _order(keys[:1]).tolist() == [list(range(width))]  # no mask, all tied


def test_batch_rows_equal_single_trials_at_a_large_set():
    """At (6,1,225), where every order sorts 225 slots, rows of a 4096-row
    batch equal the one-row runs of their trials."""
    params = validate_params(6, 1, 225)
    rng = RandomSource(2032).stream("large")
    batch = run_protocol(params, None, None, draw_sessions(params, rng, 0, 4096))
    assert batch.rows == 4096 and (batch.status == 0).any() and (batch.status != 0).any()
    for k in [*range(0, 4096, 257), 4095]:
        alone = run_protocol(params, None, None, draw_sessions(params, rng, k, 1))
        assert _row(batch, k) == _row(alone, 0), k
