"""Adversarial-strategy tests against exact success-rate predictions.

Each test runs its sessions as one batch of the strategy's runner:
trials 0 .. T-1 of ``RandomSource(seed)``'s stream.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qotsim.adversary import (
    STRATEGIES,
    LeakyBob,
    Outcomes,
    PostponeBob,
    Strategy,
    _forgeries_accepted,
    commit_cheat_trials,
    run_with_adversary,
)
from qotsim.channel import RandomSource
from qotsim.params import (
    build_bound_report,
    commitment_attack_bound,
    exact_failure_oracle,
    validate_params,
)
from qotsim.protocol import STATUSES, HonestBob, Status, draw_sessions, run_protocol
from test_stability import _RepeatingBob

P316 = validate_params(3, 1, 6)
P216 = validate_params(2, 1, 6)
P4140 = validate_params(4, 1, 40)
P425 = validate_params(4, 2, 5)
CHEAT = STATUSES.index(Status.ABORT_CHEAT_DETECTED)


def _run(strategy, params, trials, seed, bits=None, choices=None):
    """Outcomes of trials 0 .. `trials`-1 of `seed`'s stream, as one batch;
    by default all-zero bits and the labels 1..m."""
    bits = (0,) * params.n if bits is None else bits
    choices = tuple(range(1, params.m + 1)) if choices is None else choices
    return STRATEGIES[strategy.kind].run(params, strategy, RandomSource(seed), 0, trials,
                                         bits, choices)


def _within_3sigma(rate, q, trials):
    return abs(rate - q) <= 3 * math.sqrt(q * (1 - q) / trials)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy("mitm")
    with pytest.raises(ValueError):
        Strategy("commit-cheat")  # p required
    with pytest.raises(ValueError):
        Strategy("commit-cheat", p=1.0)
    Strategy("commit-cheat", p=0.5)


@pytest.mark.parametrize("kind", [k for k in STRATEGIES if k != "commit-cheat"])
def test_p_is_rejected_where_it_is_not_used(kind):
    """Only commit-cheat reads p; strict_alice stays accepted for every kind."""
    for p in (7.0, 0.5):
        with pytest.raises(ValueError, match=f"p applies only to commit-cheat, got p={p}"):
            Strategy(kind, p=p)
    Strategy(kind, strict_alice=True)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_cheat_probability_outside_unit_interval_is_rejected(p):
    """One range check serves the runner, the strategy and both bound reports."""
    message = r"cheat probability must be in \(0,1\)"
    with pytest.raises(ValueError, match=message):
        commit_cheat_trials(P4140, p, 10, RandomSource(0))
    with pytest.raises(ValueError, match=message):
        Strategy("commit-cheat", p=p)
    with pytest.raises(ValueError, match=message):
        commitment_attack_bound(p, 4, 40, 8)
    with pytest.raises(ValueError, match=message):
        build_bound_report(4, 1, 40, p=p)


@pytest.mark.parametrize("kind", list(STRATEGIES))
def test_run_with_adversary_is_row_zero_of_a_batch(kind):
    strategy = Strategy(kind, p=0.5 if kind == "commit-cheat" else None)
    one = run_with_adversary(strategy, P4140, (0, 1, 1, 0), (2,), 5)
    batch = _run(strategy, P4140, 8, 5, (0, 1, 1, 0), (2,))
    assert one.status.tolist() == batch.status[:1].tolist()
    assert one.bits_learned.tolist() == batch.bits_learned[:1].tolist()
    assert one.wrong_decode.tolist() == batch.wrong_decode[:1].tolist()


@pytest.mark.parametrize("make", [iter, list, np.array], ids=["iterator", "list", "array"])
def test_run_with_adversary_runs_fixed_inputs_as_their_tuple(make):
    """An iterator, a list or an array of fixed bits and labels runs what the
    tuple runs, though checking them reads an iterator to its end."""
    want = run_with_adversary(Strategy("greedy"), P316, (0, 1, 0), (2,), 5)
    got = run_with_adversary(Strategy("greedy"), P316, make((0, 1, 0)), make((2,)), 5)
    for field in ("status", "chosen", "bits_learned", "wrong_decode", "guess"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert want.chosen.tolist() == [[False, True, False]]


def test_greedy_bob_extra_bit_rate():
    """(2,1,6): chance of decoding both bits is 15/64 (M >= 4 and N-M >= 2)."""
    q = 15 / 64
    out = _run(Strategy("greedy"), P216, 4000, 101)
    assert _within_3sigma(out.target_exceeded.mean(), q, 4000)


def test_greedy_bob_never_caught():
    """Greedy subset packing is protocol-legal; Alice can never detect it."""
    out = _run(Strategy("greedy"), P216, 500, 7, (0, 1), (1,))
    allowed = [STATUSES.index(Status.COMPLETED),
               STATUSES.index(Status.ABORT_INSUFFICIENT_MATCHES)]
    assert np.isin(out.status, allowed).all()


def test_greedy_bits_learned_bounded():
    out = _run(Strategy("greedy"), P4140, 300, 8, (0, 1, 1, 0), (2,))
    assert ((out.bits_learned >= 0) & (out.bits_learned <= P4140.m + 1)).all()


def test_dishonest_removal_beats_literal_alice():
    """Low case: removing mismatches passes the stated implication check."""
    trials = 1500
    out = _run(Strategy("dishonest-removal"), P4140, trials, 11)
    # oracle: P[N-M >= x and M >= (m+1)s] at (4,1,40) = P[8 <= ... M >= 16, M <= 32]
    from qotsim.harness import exact_failure_oracle

    q = float(exact_failure_oracle(P4140, "privacy_dishonest_removal"))
    assert _within_3sigma(out.target_exceeded.mean(), q, trials)
    caught = _run(Strategy("dishonest-removal"), P4140, 300, 12).status == CHEAT
    assert not caught.any()


def test_dishonest_removal_caught_by_strict_alice():
    out = _run(Strategy("dishonest-removal", strict_alice=True), P4140, 200, 13,
               (0, 0, 0, 0), (1,))
    # every removed slot mismatches, so strict Alice always objects
    assert (out.status == CHEAT).all()
    assert (out.bits_learned == 0).all()


def test_honest_bob_unaffected_by_strict_alice():
    out = _run(Strategy("honest", strict_alice=True), P4140, 300, 14, (0, 0, 0, 0), (1,))
    assert not (out.status == CHEAT).any()


def test_postpone_bob_survival_rate():
    q = (3 / 4) ** 6
    trials = 6000
    out = _run(Strategy("postpone"), P316, trials, 21)
    assert _within_3sigma((out.status != CHEAT).mean(), q, trials)


def test_postpone_bob_learns_nothing():
    out = _run(Strategy("postpone"), P316, 200, 22, (0, 1, 0), (1,))
    assert (out.bits_learned == 0).all() and not out.target_exceeded.any()


def test_commit_cheat_success_rate():
    """All (N-x)/n forged unveils must survive: rate p^s."""
    p, trials = 0.7, 30000
    q = p**P216.subset_size
    out = _run(Strategy("commit-cheat", p=p), P216, trials, 31, (0, 0), (1,))
    assert _within_3sigma(out.target_exceeded.mean(), q, trials)


@pytest.mark.parametrize("trials", [-3, 2.5, True])
def test_commit_cheat_trials_refuses_a_bad_trial_count(trials):
    with pytest.raises(ValueError, match=f"trials must be an int >= 0, got {trials!r}"):
        commit_cheat_trials(P4140, 0.5, trials, RandomSource(0))


def test_commit_cheat_trials_of_no_trials_is_zero():
    assert commit_cheat_trials(P4140, 0.5, 0, RandomSource(0)) == 0


@pytest.mark.parametrize("seed", [1.7, "7", True])
def test_single_session_runners_refuse_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match="seed must be an int"):
        run_protocol(P316, None, None, seed)
    with pytest.raises(ValueError, match="seed must be an int"):
        run_with_adversary(Strategy("greedy"), P216, None, None, seed)


class _Words:
    """A stream stand-in whose row k holds the k-th given word among zeros
    (which every p accepts), at one of its first s columns."""

    def __init__(self, words, s):
        self.words, self.s = np.asarray(words, dtype=np.uint64), s

    def block(self, width, start, count):
        rows = np.zeros((len(self.words), width), dtype=np.uint64)
        rows[np.arange(len(rows)), np.arange(len(rows)) % self.s] = self.words
        return rows[start:start + count]


@pytest.mark.parametrize("nmN", [(4, 1, 40), (4, 1, 200)], ids=str)  # s = 8 and 40 words a row
@pytest.mark.parametrize("p", [0.5, 0.3, 2.0**-60, 5e-324, 1 - 2.0**-53, Fraction(1, 3)],
                         ids=str)
def test_commit_cheat_acceptance_is_the_float_rule(p, nmN):
    """A row accepts iff each word's top 53 bits, as a fraction of 2^53, lie
    below p: at the least word that rejects, its neighbours and random
    words, the verdict is the float rule's, for float and Fraction p."""
    least = math.ceil(Fraction(p) * 2**53) << 11
    edges = [w for w in (least - 1, least, least + 1) if 0 <= w < 2**64]
    words = edges + np.random.default_rng(7919).integers(0, 2**64, 200, np.uint64).tolist()
    rule = ((np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53 < p).tolist()
    assert rule[:2] == [True, False]  # the edge itself rejects, the word below it accepts
    params = validate_params(*nmN)
    got = _forgeries_accepted(params, p, _Words(words, params.subset_size), 0, len(words))
    assert got.tolist() == rule


def test_each_reference_is_its_events_oracle():
    """A strategy's reference is its own event's oracle, whichever strategy
    asked first at the same set."""
    for params in (P316, P4140):
        refs = [(kind, STRATEGIES[kind].reference(params, Strategy(kind)))
                for kind in ("honest", "greedy", "curious-alice", "honest")]
        assert refs == [
            ("honest", exact_failure_oracle(params, "correctness")),
            ("greedy", exact_failure_oracle(params, "privacy")),
            ("curious-alice", (1 - exact_failure_oracle(params, "correctness"))
             / math.comb(params.n, params.m)),
            ("honest", exact_failure_oracle(params, "correctness"))]
    ref = STRATEGIES["dishonest-removal"].reference(P4140, Strategy("dishonest-removal"))
    assert ref == exact_failure_oracle(P4140, "privacy_dishonest_removal")


def test_commit_cheat_trials_vectorized_consistent():
    p, trials = 0.5, 200000
    hits = commit_cheat_trials(P4140, p, trials, RandomSource(33))
    q = p**P4140.subset_size
    assert _within_3sigma(hits / trials, q, trials)


def test_curious_alice_guess_rate_is_chance():
    """Uniform subset placement leaves Alice at chance level 1/C(n,m),
    available only on the completed fraction of runs."""
    q = float(Fraction(1, 3) * (1 - Fraction(7, 64)))
    trials = 4000
    out = _run(Strategy("curious-alice"), P316, trials, 41, (0, 0, 0), (2,))
    # m = 1: a completed run's guess is one label; count the runs it is label 2
    hits = (out.status == 0) & out.guess[:, 1]
    assert _within_3sigma(hits.mean(), q, trials)


@pytest.mark.parametrize("bob", [HonestBob, _RepeatingBob])
def test_curious_alice_guesses_on_completed_rows_only(bob):
    """On a completed row Alice guesses the m subsets whose first slots are
    the smallest (the argsort rule); a row that aborted gets no guess."""
    draws = draw_sessions(P4140, RandomSource(3).stream("x"), 0, 400)
    state = run_protocol(P4140, None, None, draws, bob=bob())
    guess = Outcomes(P4140.m, state).guess
    done = (state.status == 0) & (state.recovered is not None)
    assert guess.shape == (400, P4140.n) and not guess[~done].any()
    rule = np.zeros_like(guess)
    if done.any():
        picks = np.zeros((int(done.sum()), P4140.n), dtype=bool)
        firsts = np.argsort(state.family[done, :, 0], axis=1)[:, :P4140.m]
        np.put_along_axis(picks, firsts, True, axis=1)
        rule[done] = picks
    assert np.array_equal(guess, rule)
    if bob is HonestBob:  # rows of every kind: completed, and aborted at step 5
        assert done.sum() > 300 and (state.aborted_at == 5).any()


def test_curious_alice_guess_reads_each_subsets_least_cell():
    """Alice's guess, read from each subset's least cell, is the guess read
    from the sorted family's first slots, on a batch with rows aborted at
    steps 2, 4 and 5 besides completed ones."""
    draws = draw_sessions(P425, RandomSource(3).stream("x"), 0, 600)
    state = run_protocol(P425, None, None, draws, bob=PostponeBob())
    assert {0, 2, 4, 5} <= set(state.aborted_at.tolist()) and state.live().any()
    firsts = state.family[:, :, 0]
    rule = (firsts <= np.sort(firsts, axis=1)[:, P425.m - 1:P425.m]) & state.live()[:, None]
    assert np.array_equal(Outcomes(P425.m, state).guess, rule)


def test_leaky_bob_placement_is_deterministic():
    """Positive control: chosen subsets always take the smallest matched
    surviving slots, in order."""
    root = RandomSource(51)
    seen = 0
    for k in range(200):
        outcome = run_protocol(
            P316, (0, 0, 0), (3,), root.stream(f"t/{k}"), bob=LeakyBob()
        )
        if outcome.status is not Status.COMPLETED:
            continue
        seen += 1
        state, k = outcome.state, outcome.row
        match, removed, family = state.match[k], state.removed[k], state.family[k]
        matched = np.sort(np.flatnonzero(match & ~removed))
        assert np.array_equal(family[2], matched[: P316.subset_size])
    assert seen > 100
