"""Adversarial-strategy tests against exact success-rate predictions."""

import math
from fractions import Fraction

import pytest

from qotsim.adversary import (
    LeakyBob,
    Strategy,
    commit_cheat_trials,
    run_with_adversary,
)
from qotsim.channel import RandomSource
from qotsim.params import validate_params
from qotsim.protocol import Status, run_protocol

P316 = validate_params(3, 1, 6)
P216 = validate_params(2, 1, 6)
P4140 = validate_params(4, 1, 40)


def _rate(strategy, params, trials, seed, success):
    root = RandomSource(seed)
    hits = 0
    bits = (0,) * params.n
    choices = tuple(range(1, params.m + 1))
    for k in range(trials):
        adv = run_with_adversary(
            strategy, params, bits, choices, root.stream(f"trial/{k}")
        )
        hits += 1 if success(adv) else 0
    return hits / trials


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


def test_greedy_bob_extra_bit_rate():
    """(2,1,6): chance of decoding both bits is 15/64 (M >= 4 and N-M >= 2)."""
    q = 15 / 64
    rate = _rate(
        Strategy("greedy"), P216, 4000, 101, lambda a: a.target_exceeded
    )
    assert _within_3sigma(rate, q, 4000)


def test_greedy_bob_never_caught():
    """Greedy subset packing is protocol-legal; Alice can never detect it."""
    root = RandomSource(7)
    for k in range(500):
        adv = run_with_adversary(
            Strategy("greedy"), P216, (0, 1), (1,), root.stream(f"t/{k}")
        )
        assert not adv.caught
        assert adv.status in (Status.COMPLETED, Status.ABORT_INSUFFICIENT_MATCHES)


def test_greedy_bits_learned_bounded():
    root = RandomSource(8)
    for k in range(300):
        adv = run_with_adversary(
            Strategy("greedy"), P4140, (0, 1, 1, 0), (2,), root.stream(f"t/{k}")
        )
        assert 0 <= adv.bits_learned <= P4140.m + 1


def test_dishonest_removal_beats_literal_alice():
    """Low case: removing mismatches passes the stated implication check."""
    q = 0.0
    trials = 1500
    rate = _rate(
        Strategy("dishonest-removal"), P4140, trials, 11, lambda a: a.target_exceeded
    )
    # oracle: P[N-M >= x and M >= (m+1)s] at (4,1,40) = P[8 <= ... M >= 16, M <= 32]
    from qotsim.harness import exact_failure_oracle

    q = float(exact_failure_oracle(P4140, "privacy_dishonest_removal"))
    assert _within_3sigma(rate, q, trials)
    caught = _rate(
        Strategy("dishonest-removal"), P4140, 300, 12, lambda a: a.caught
    )
    assert caught == 0.0


def test_dishonest_removal_caught_by_strict_alice():
    root = RandomSource(13)
    for k in range(200):
        adv = run_with_adversary(
            Strategy("dishonest-removal", strict_alice=True),
            P4140, (0, 0, 0, 0), (1,), root.stream(f"t/{k}"),
        )
        # every removed slot mismatches, so strict Alice always objects
        assert adv.status is Status.ABORT_CHEAT_DETECTED
        assert adv.caught and adv.bits_learned == 0


def test_honest_bob_unaffected_by_strict_alice():
    root = RandomSource(14)
    for k in range(300):
        adv = run_with_adversary(
            Strategy("honest", strict_alice=True),
            P4140, (0, 0, 0, 0), (1,), root.stream(f"t/{k}"),
        )
        assert not adv.caught


def test_postpone_bob_survival_rate():
    q = (3 / 4) ** 6
    trials = 6000
    rate = _rate(
        Strategy("postpone"), P316, trials, 21, lambda a: not a.caught
    )
    assert _within_3sigma(rate, q, trials)


def test_postpone_bob_learns_nothing():
    root = RandomSource(22)
    for k in range(200):
        adv = run_with_adversary(
            Strategy("postpone"), P316, (0, 1, 0), (1,), root.stream(f"t/{k}")
        )
        assert adv.bits_learned == 0 and not adv.target_exceeded


def test_commit_cheat_success_rate():
    """All (N-x)/n forged unveils must survive: rate p^s."""
    p, trials = 0.7, 30000
    q = p**P216.subset_size
    root = RandomSource(31)
    hits = sum(
        run_with_adversary(
            Strategy("commit-cheat", p=p), P216, (0, 0), (1,), root.stream(f"t/{k}")
        ).target_exceeded
        for k in range(trials)
    )
    assert _within_3sigma(hits / trials, q, trials)


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
    root = RandomSource(41)
    hits = 0
    for k in range(trials):
        adv = run_with_adversary(
            Strategy("curious-alice"), P316, (0, 0, 0), (2,), root.stream(f"t/{k}")
        )
        if adv.choice_guess == (2,):
            hits += 1
    assert _within_3sigma(hits / trials, q, trials)


def test_leaky_bob_placement_is_deterministic():
    """Positive control: chosen subsets always take the smallest matched
    surviving slots, in order."""
    import numpy as np

    root = RandomSource(51)
    seen = 0
    for k in range(200):
        outcome = run_protocol(
            P316, (0, 0, 0), (3,), root.stream(f"t/{k}"), bob=LeakyBob()
        )
        if outcome.status is not Status.COMPLETED:
            continue
        seen += 1
        match, removed = outcome.detail["match"], outcome.detail["removed"]
        family = outcome.detail["family"]
        matched = np.sort(np.flatnonzero(match & ~removed))
        assert np.array_equal(family[2], matched[: P316.subset_size])
    assert seen > 100
