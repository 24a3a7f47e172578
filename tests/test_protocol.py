"""Protocol state-machine tests: phases, aborts, transcripts, decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim.channel import RandomSource
from qotsim.params import validate_params
from qotsim.protocol import (
    HonestBob,
    STATUSES,
    ProtocolOrderError,
    Status,
    TrialOutcome,
    announce_bases,
    check_inputs,
    decode,
    draw_sessions,
    mask_bits,
    phase1_transmit,
    phase2_challenge,
    removal_phase,
    run_protocol,
    select_subsets,
)

P316 = validate_params(3, 1, 6)
P216 = validate_params(2, 1, 6)
P4140 = validate_params(4, 1, 40)


def test_choice_vector_validation():
    for bad in ((1, 1), (0, 2), (4, 2), (True, 2)):
        with pytest.raises(ValueError, match="choices"):
            check_inputs(3, 2, None, bad)
    check_inputs(3, 2, None, (3, 1))


def test_input_bits_validation():
    with pytest.raises(ValueError, match="bits"):
        check_inputs(3, 1, (0, 2, 1), None)


@pytest.mark.parametrize("make", [iter, list, np.array], ids=["iterator", "list", "array"])
def test_fixed_inputs_run_as_their_tuple(make):
    """An iterator, a list or an array of fixed bits and labels runs what the
    tuple runs, as one session and as a batch: check_inputs reads an iterator
    to its end, so the engine must run what it returns."""
    want = run_protocol(P316, (0, 1, 0), (2,), 5)
    got = run_protocol(P316, make((0, 1, 0)), make((2,)), 5)
    assert (got.status, got.recovered) == (want.status, want.recovered) == (
        Status.COMPLETED, {2: 1})
    assert got.transcript.to_jsonl() == want.transcript.to_jsonl()
    want, got = (run_protocol(P316, bits, labels, draw_sessions(P316, RandomSource(5), 0, 16))
                 for bits, labels in (((0, 1, 0), (2,)), (make((0, 1, 0)), make((2,)))))
    for field in ("status", "chosen", "inputs", "recovered"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_run_rejects_wrong_lengths():
    with pytest.raises(ValueError, match="bits: need 3"):
        run_protocol(P316, (0, 1), (2,), 0)
    with pytest.raises(ValueError, match="choices"):
        run_protocol(P316, (0, 1, 1), (2, 3), 0)


@pytest.mark.parametrize("path", ["session", "batch"])
@pytest.mark.parametrize("nmN, bits, choices, message", [
    pytest.param((3, 1, 6), (0, 1, 0), (0,), r"choices: choice indices must lie in \[1, 3\]",
                 id="label-0"),
    pytest.param((3, 1, 6), (0, 1, 0), (5,), r"choices: choice indices must lie in \[1, 3\]",
                 id="label-5"),
    pytest.param((4, 2, 20), (0, 1, 0, 1), (1, 1), "choices: choice indices must be distinct",
                 id="repeated-label"),
    pytest.param((4, 2, 20), (0, 1, 0, 1), (2,), "choices: need 2 values", id="one-label-of-2"),
    pytest.param((3, 1, 6), (0, 1, 0), (True,), "choices: choice indices must be ints",
                 id="bool-label"),
    pytest.param((3, 1, 6), (0, 2, 0), (1,), "bits: input bits must be 0/1", id="bit-2"),
    pytest.param((3, 1, 6), (0, 1), (1,), "bits: need 3 values", id="two-bits-of-3"),
])
def test_fixed_inputs_are_checked_on_both_paths(path, nmN, bits, choices, message):
    """A single session and a batch of draws reject the same bad fixed
    inputs with the same error, before any session runs."""
    params = validate_params(*nmN)
    seed = 3 if path == "session" else draw_sessions(params, RandomSource(3), 0, 16)
    with pytest.raises(ValueError, match=message):
        run_protocol(params, bits, choices, seed)


def test_completed_runs_decode_chosen_bits_exactly():
    bits = (1, 0, 1)
    completed = 0
    for seed in range(400):
        for choice in (1, 2, 3):
            outcome = run_protocol(P316, bits, (choice,), seed)
            if outcome.status is Status.COMPLETED:
                completed += 1
                assert outcome.recovered == {choice: bits[choice - 1]}
    assert completed > 900  # abort rate is 7/64


def test_high_case_completed_runs_decode_exactly():
    bits = (0, 1)
    for seed in range(300):
        outcome = run_protocol(P216, bits, (2,), seed)
        if outcome.status is Status.COMPLETED:
            assert outcome.recovered == {2: 1}


def test_low_case_completed_runs_decode_exactly():
    bits = (1, 1, 0, 1)
    for seed in range(200):
        outcome = run_protocol(P4140, bits, (3,), seed)
        if outcome.status is Status.COMPLETED:
            assert outcome.recovered == {3: 0}


def test_abort_reports_insufficient_matches():
    statuses = {
        run_protocol(P316, (0, 0, 0), (1,), seed).status for seed in range(300)
    }
    assert statuses == {Status.COMPLETED, Status.ABORT_INSUFFICIENT_MATCHES}


def test_state_row_carries_ground_truth():
    outcome = next(
        o for o in (run_protocol(P316, (0, 1, 0), (2,), s) for s in range(50))
        if o.status is Status.COMPLETED
    )
    state, k = outcome.state, outcome.row
    assert 0 <= state.match[k].sum() <= P316.N
    assert len(state.family[k]) == P316.n
    assert np.flatnonzero(state.claimed[k]).tolist() == [1]  # label 2
    assert state.all_matching()[k, 1]


def test_family_partitions_survivors():
    for seed in range(60):
        outcome = run_protocol(P4140, (0, 0, 0, 0), (1,), seed)
        if outcome.status is not Status.COMPLETED:
            continue
        family = outcome.state.family[outcome.row]
        union = np.sort(np.concatenate(family))
        assert len(union) == P4140.N - P4140.x
        assert len(np.unique(union)) == len(union)
        assert all(len(f) == P4140.subset_size for f in family)


def test_transcript_records_and_views():
    outcome = run_protocol(P316, (0, 1, 0), (2,), 5)
    t = outcome.transcript
    assert t is not None
    seqs = [r["seq"] for r in t.records]
    assert seqs == list(range(len(seqs)))
    kinds = {r["kind"] for r in t.records}
    assert {"photon", "commit", "challenge", "unveil", "bases"} <= kinds
    # what each party receives: the messages the other one sent
    sent = {party: {r["kind"] for r in t.records if r["from"] == party} for party in "AB"}
    assert sent == {"A": {"photon", "challenge", "bases", "masked_bits"},
                    "B": {"commit", "unveil", "subsets"}}


def test_transcript_byte_stable():
    a = run_protocol(P316, (0, 1, 0), (2,), 5)
    b = run_protocol(P316, (0, 1, 0), (2,), 5)
    assert a.transcript.to_jsonl() == b.transcript.to_jsonl()


def test_commitment_count_is_4N():
    outcome = run_protocol(P316, (0, 1, 0), (2,), 5)
    ids = [r["payload"]["id"] for r in outcome.transcript.records if r["kind"] == "commit"]
    assert ids == list(range(4 * P316.N))


def test_phase_order_enforced():
    state = phase1_transmit(P316, draw_sessions(P316, RandomSource(3), 0, 1))
    with pytest.raises(ProtocolOrderError):
        announce_bases(state)  # skips the challenge phase
    with pytest.raises(ProtocolOrderError):
        state.match_flags()  # bases not announced yet


def test_order_error_propagates_from_run_protocol():
    """An out-of-order phase call is a simulator bug, not a protocol abort."""

    class OutOfOrderBob(HonestBob):
        def build_family(self, state):
            announce_bases(state)  # step 3 again, during step 5
            return super().build_family(state)

    assert run_protocol(P316, (0, 1, 0), (2,), 5).status is Status.COMPLETED
    with pytest.raises(ProtocolOrderError):
        run_protocol(P316, (0, 1, 0), (2,), 5, bob=OutOfOrderBob())


def test_match_rate_after_removal_hits_target_low_case():
    state = phase1_transmit(P4140, draw_sessions(P4140, RandomSource(12), 0, 1))
    phase2_challenge(state)
    announce_bases(state)
    removal_phase(state)
    if not state.live()[0]:
        pytest.skip("unlucky seed aborted; covered statistically elsewhere")
    match = state.match_flags()
    alive = ~state.removed
    assert int(alive.sum()) == P4140.N - P4140.x
    # removal deleted matches only (low case)
    assert match[state.removed].all()


def test_high_case_removal_deletes_mismatches_only():
    state = phase1_transmit(P216, draw_sessions(P216, RandomSource(4), 0, 1))
    phase2_challenge(state)
    announce_bases(state)
    removal_phase(state)
    if not state.live()[0]:
        pytest.skip("unlucky seed aborted; covered statistically elsewhere")
    assert not state.match_flags()[state.removed].any()


class _BadFamilyBob(HonestBob):
    def __init__(self, mangle):
        self.mangle = mangle

    def build_family(self, state):
        family, claimed = super().build_family(state)
        return self.mangle(family), claimed


# each mangle but the last sends a list of the family's (T, size) subsets
MANGLES = [
    lambda fam: list(fam)[:-1],                               # wrong count
    lambda fam: list(fam)[:-1] + [fam[-1][:, :-1]],           # wrong size
    lambda fam: [fam[0]] * len(fam),                          # not disjoint
    lambda fam: [_shift(fam[0], P316.N)] + list(fam)[1:],     # past the last slot
    lambda fam: [_shift(fam[0], -P316.N)] + list(fam)[1:],    # negative
    lambda fam: fam + 0.5,                                    # slots that are not integers
]


def _shift(subsets, by):
    """Move the subsets of every other row, from the last, off the slots."""
    subsets = subsets.copy()
    subsets[::-2] += by
    return subsets


@pytest.mark.parametrize("mangle", MANGLES)
def test_illegal_family_aborts_invalid_message(mangle):
    for seed in range(40):
        outcome = run_protocol(P316, (0, 1, 0), (2,), seed, bob=_BadFamilyBob(mangle))
        assert outcome.status in (
            Status.ABORT_INVALID_MESSAGE,
            Status.ABORT_INSUFFICIENT_MATCHES,
        )
        if outcome.status is Status.ABORT_INVALID_MESSAGE:
            return
    pytest.fail("mangled family never reached the structural check")


@pytest.mark.parametrize("mangle", MANGLES)
def test_illegal_family_aborts_its_rows_of_a_batch(mangle):
    """Rows given an illegal family abort; the other rows end as honest ones."""
    honest = run_protocol(P316, None, None, draw_sessions(P316, RandomSource(8), 0, 64))
    state = run_protocol(P316, None, None, draw_sessions(P316, RandomSource(8), 0, 64),
                         bob=_BadFamilyBob(mangle))
    changed = state.status != honest.status
    assert changed.any()
    assert {STATUSES[k] for k in state.status[changed]} == {Status.ABORT_INVALID_MESSAGE}
    done = state.live()
    if done.any():
        assert np.array_equal(state.recovered[done], honest.recovered[done])


def test_manual_phase_drive_matches_run_protocol():
    """Driving the phases by hand reproduces run_protocol's outcome."""
    seed = 17
    auto = run_protocol(P316, (1, 0, 1), (3,), seed)

    state = phase1_transmit(P316, draw_sessions(P316, RandomSource(seed), 0, 1),
                            inputs=np.array([[1, 0, 1]], dtype=np.uint8),
                            chosen=np.array([[False, False, True]]))
    phase2_challenge(state)
    announce_bases(state)
    removal_phase(state)
    select_subsets(state)
    mask_bits(state)
    recovered = {3: int(decode(state)[0, 2])}
    assert auto.status is Status.COMPLETED
    assert recovered == auto.recovered


def test_an_outcome_is_not_read_past_its_stage():
    """An outcome made at stage 3 reads neither the recovered bits nor the
    messages of the state driven on to step 7, which would mix two stages;
    the error names both.  An outcome made at step 7 reads the completed row."""
    state = phase1_transmit(P316, draw_sessions(P316, RandomSource(17), 0, 1),
                            inputs=np.array([[1, 0, 1]], dtype=np.uint8),
                            chosen=np.array([[False, False, True]]))
    phase2_challenge(state)
    announce_bases(state)
    early = TrialOutcome(state)
    for phase in (removal_phase, select_subsets, mask_bits, decode):
        phase(state)
    assert (early.stage, early.status) == (3, Status.IN_PROGRESS)
    for part in ("recovered", "transcript"):
        with pytest.raises(ProtocolOrderError, match="outcome of stage 3 read at stage 7"):
            getattr(early, part)
    late = TrialOutcome(state)
    assert (late.status, late.recovered) == (Status.COMPLETED, {3: 1})
    assert late.transcript.records[-1]["kind"] == "masked_bits"


def test_step5_refuses_a_state_without_inputs_or_labels():
    """Step 1 may leave the inputs and labels out (a run that stops at step
    2 needs neither), but step 5 names what is missing."""
    for kwargs in ({}, {"inputs": np.zeros((1, 3), dtype=np.uint8)},
                      {"chosen": np.array([[False, True, False]])}):
        state = phase1_transmit(P316, draw_sessions(P316, RandomSource(17), 0, 1), **kwargs)
        phase2_challenge(state)
        announce_bases(state)
        removal_phase(state)
        with pytest.raises(ValueError, match="input bits and chosen labels"):
            select_subsets(state)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_same_seed_same_outcome(seed):
    a = run_protocol(P316, (0, 1, 1), (2,), seed)
    b = run_protocol(P316, (0, 1, 1), (2,), seed)
    assert a.status == b.status and a.recovered == b.recovered
