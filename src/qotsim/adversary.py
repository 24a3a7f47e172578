"""Dishonest-party strategies probing the protocol's privacy claims.

Each strategy is one row of :data:`STRATEGIES`.  It replaces one hook of
the honest behavior and leaves the counterpart fully honest, including all
checks.  Information gain is always recomputed from ground truth (the
actual basis matches), never taken from the adversary's own claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .channel import RandomSource
from .commitment import CheatModel
from .params import (
    Case,
    ProtocolParams,
    commitment_attack_bound,
    correctness_epsilon,
    exact_failure_oracle,
    privacy_epsilon,
)
from .protocol import (
    ChoiceVector,
    HonestBob,
    InputBits,
    InsufficientMatches,
    Status,
    _random_legal_family,
    phase1_transmit,
    phase2_challenge,
    run_protocol,
    CheatDetected,
)


@dataclass(frozen=True)
class Strategy:
    """A named adversary (a key of :data:`STRATEGIES`).  `p` is required for
    commit-cheat; `strict_alice` selects the strict removal verifier."""

    kind: str
    p: float | None = None
    strict_alice: bool = False

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.kind!r}; one of {tuple(STRATEGIES)}")
        if self.kind == "commit-cheat":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ValueError("commit-cheat requires p in (0,1)")


@dataclass
class AdversarialOutcome:
    """What one adversarial session achieved.  `wrong_decode` is True when a
    completed run recovered a chosen bit different from Alice's input."""

    caught: bool
    bits_learned: int
    target_exceeded: bool
    status: Status
    choice_guess: tuple[int, ...] | None = None
    wrong_decode: bool = False


class GreedyBob(HonestBob):
    """Follows the protocol but builds one extra all-matching subset when the
    surviving matches allow it, decoding m+1 bits."""

    def build_family(self, state, choices: ChoiceVector, rng: RandomSource):
        extra = min(k for k in range(1, state.params.n + 1) if k not in choices.indices)
        try:
            return _random_legal_family(state, choices.indices + (extra,), rng)
        except InsufficientMatches:
            return _random_legal_family(state, choices.indices, rng)


class DishonestRemovalBob(GreedyBob):
    """Low case only: removes mismatched slots while claiming compliance,
    keeping every basis match available for extra subsets.  Alice's stated
    implication check is vacuous on mismatches, so the literal verifier never
    notices; the strict verifier always does."""

    def removal_pool(self, state, match: np.ndarray) -> np.ndarray:
        if state.params.case is not Case.LOW:
            raise ValueError("dishonest-removal strategy applies to the low case only")
        return ~match


class PostponeBob(HonestBob):
    """Commits to fabricated values without measuring, hoping to measure after
    the bases are announced.  The per-pair challenge catches a basis-matching
    wrong bit with probability 1/4."""

    measures = False


class LeakyBob(HonestBob):
    """Deliberately leaky positive control: deterministic subset placement
    that puts the chosen subsets lexicographically first."""

    def build_family(self, state, choices: ChoiceVector, rng: RandomSource):
        params = state.params
        s = params.subset_size
        alive = np.flatnonzero(~state.removed)
        match = state.match_flags()
        matched = np.sort(alive[match[alive]])
        labels = tuple(sorted(choices.indices))
        if matched.size < len(labels) * s:
            raise InsufficientMatches("not enough matches for leaky placement")
        family: list[np.ndarray | None] = [None] * params.n
        for k, label in enumerate(labels):
            family[label - 1] = matched[k * s:(k + 1) * s]
        used = np.concatenate([family[label - 1] for label in labels])
        rest = np.sort(np.setdiff1d(alive, used))
        others = [k for k in range(params.n) if family[k] is None]
        for j, k in enumerate(others):
            family[k] = rest[j * s:(j + 1) * s]
        return [np.asarray(f) for f in family], labels


def postpone_bob(params: ProtocolParams, rng: RandomSource) -> AdversarialOutcome:
    """Run phases 1-2 with an unmeasuring Bob; caught iff a challenge fails."""
    rng_a = rng.stream("alice")
    rng_b = rng.stream("bob")
    state = phase1_transmit(params, rng_a, rng_b, bob=PostponeBob())
    try:
        phase2_challenge(state, rng_a)
        caught = False
    except CheatDetected:
        caught = True
    return AdversarialOutcome(
        caught=caught,
        bits_learned=0,
        target_exceeded=False,
        status=Status.ABORT_CHEAT_DETECTED if caught else Status.COMPLETED,
    )


def commit_cheat_trials(
    params: ProtocolParams, p: float, trials: int, rng: RandomSource,
    chunk: int = 100_000,
) -> int:
    """Vectorized count of commit-cheat successes over many sessions."""
    CheatModel(p)  # validate
    forgeries = params.subset_size
    successes = 0
    done = 0
    while done < trials:
        rows = min(chunk, trials - done)
        draws = rng.gen.random((rows, forgeries))
        successes += int((draws < p).all(axis=1).sum())
        done += rows
    return successes


def _curious_alice_guess(outcome) -> tuple[int, ...]:
    """Guess the choice vector of a completed run from the announced family
    alone: the labels of the subsets holding the smallest surviving indices.
    Under uniform announcement this hits the true vector at chance level."""
    family = outcome.detail["family"]
    m = len(outcome.detail["claimed"])
    order = sorted(range(len(family)), key=lambda k: int(family[k][0]) if len(family[k]) else -1)
    return tuple(sorted(k + 1 for k in order[:m]))


def _commit_cheat_session(params: ProtocolParams, strategy: Strategy,
                          rng: RandomSource) -> AdversarialOutcome:
    """One commit-cheat session: a single draw of :func:`commit_cheat_trials`."""
    accepted = commit_cheat_trials(params, strategy.p, 1, rng) == 1
    return AdversarialOutcome(
        caught=not accepted,
        bits_learned=params.m + accepted,
        target_exceeded=accepted,
        status=Status.COMPLETED if accepted else Status.ABORT_CHEAT_DETECTED,
    )


@dataclass(frozen=True)
class StrategySpec:
    """Everything about one strategy: one row of :data:`STRATEGIES`."""

    event: str  # name of the tracked event
    hit: Callable  # hit(outcome, choices): did one session produce the event?
    reference: Callable  # reference(params, strategy): exact rate of the event
    bound: Callable | None = None  # correctness_epsilon, privacy_epsilon or commitment_attack_bound
    bob: type[HonestBob] = HonestBob  # Bob of a full protocol session
    session: Callable | None = None  # session(params, strategy, rng), run instead of the protocol
    batch: Callable | None = None  # batch(params, strategy, trials, rng): hits over many sessions


def _oracle(event: str) -> Callable:
    return lambda params, strategy: exact_failure_oracle(params, event)


def _extra_bit(adv: AdversarialOutcome, choices) -> bool:
    return adv.target_exceeded


STRATEGIES: dict[str, StrategySpec] = {
    "honest": StrategySpec(
        event="abort", reference=_oracle("correctness"), bound=correctness_epsilon,
        hit=lambda adv, choices: adv.status is not Status.COMPLETED or adv.wrong_decode),
    "greedy": StrategySpec(
        event="extra_bit_success", hit=_extra_bit, reference=_oracle("privacy"),
        bound=privacy_epsilon, bob=GreedyBob),
    "dishonest-removal": StrategySpec(
        event="extra_bit_success", hit=_extra_bit, bound=privacy_epsilon, bob=DishonestRemovalBob,
        # the strict verifier rejects every mismatched removal, so no session survives it
        reference=lambda params, s: Fraction(0) if s.strict_alice
        else exact_failure_oracle(params, "privacy_dishonest_removal")),
    "postpone": StrategySpec(
        event="challenge_survival", hit=lambda adv, choices: not adv.caught,
        reference=lambda params, s: Fraction(3, 4) ** params.N,
        session=lambda params, s, rng: postpone_bob(params, rng)),
    "commit-cheat": StrategySpec(
        event="commit_cheat_success", hit=_extra_bit, bound=commitment_attack_bound,
        reference=lambda params, s: s.p ** params.subset_size, session=_commit_cheat_session,
        batch=lambda params, s, trials, rng: commit_cheat_trials(params, s.p, trials, rng)),
    "curious-alice": StrategySpec(
        event="choice_guess_correct",
        hit=lambda adv, choices: adv.choice_guess == tuple(sorted(choices)),
        # chance level per completed run, scaled by the completion probability
        reference=lambda params, s: (1 - exact_failure_oracle(params, "correctness"))
        / math.comb(params.n, params.m)),
}


def run_with_adversary(
    strategy: Strategy,
    params: ProtocolParams,
    inputs,
    choices,
    seed,
) -> AdversarialOutcome:
    """Execute one session with the given party replaced by `strategy`."""
    root = seed if isinstance(seed, RandomSource) else RandomSource(int(seed))
    spec = STRATEGIES[strategy.kind]
    if spec.session is not None:
        return spec.session(params, strategy, root)

    outcome = run_protocol(
        params, inputs, choices, root,
        bob=spec.bob(),
        strict_removal=strategy.strict_alice,
    )
    caught = outcome.status is Status.ABORT_CHEAT_DETECTED
    bits_learned = 0
    guess = None
    wrong = False
    if outcome.status is Status.COMPLETED:
        truly_matching = set(outcome.detail["all_matching_labels"])
        bits_learned = len(set(outcome.detail["claimed"]) & truly_matching)
        guess = _curious_alice_guess(outcome)
        bits = inputs.bits if isinstance(inputs, InputBits) else tuple(inputs)
        wrong = any(v != int(bits[c - 1]) for c, v in outcome.recovered.items())
    return AdversarialOutcome(
        caught=caught,
        bits_learned=bits_learned,
        target_exceeded=bits_learned > params.m,
        status=outcome.status,
        choice_guess=guess,
        wrong_decode=wrong,
    )
