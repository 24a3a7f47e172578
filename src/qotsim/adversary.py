"""Dishonest-party strategies probing the protocol's privacy claims.

Each strategy is one row of :data:`STRATEGIES`, the one place that defines
it: runner, event, hit and exact reference; `checks`, the verdicts that
follow the 3-sigma one in :func:`~qotsim.harness.check_bounds`; `admits`,
its refusals; `takes_p`; `width`, the words a trial draws.  It replaces one
hook of the honest behavior and leaves the counterpart fully honest,
including all checks.  Information gain is always recomputed from ground
truth (the actual basis matches), never taken from the adversary's own
claims.  Every strategy runs T sessions at once through one batched
runner; a single session is the T=1 call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .channel import RandomSource
from .params import (
    Case,
    ProtocolParams,
    _bound_constants,
    _is_int,
    check_cheat_probability,
    exact_failure_oracle,
    hoeffding_bound,
)
from .protocol import (
    STATUSES,
    HonestBob,
    ProtocolState,
    Status,
    _legal_family,
    check_inputs,
    draw_sessions,
    phase1_transmit,
    phase2_challenge,
    run_protocol,
    session_width,
)

_CHEAT = STATUSES.index(Status.ABORT_CHEAT_DETECTED)


@dataclass(frozen=True)
class Strategy:
    """A named adversary (a key of :data:`STRATEGIES`).  `p` is required where its row
    takes it, refused elsewhere; `strict_alice` picks the strict removal verifier."""

    kind: str = "honest"
    p: float | None = None
    strict_alice: bool = False

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.kind!r}; one of {tuple(STRATEGIES)}")
        if STRATEGIES[self.kind].takes_p:
            check_cheat_probability(self.p)
        elif self.p is not None:
            raise ValueError(f"p applies only to commit-cheat, got p={self.p} for {self.kind!r}")


class Outcomes:
    """What T sessions achieved, one row each: `status` (T,) indexes
    :data:`~qotsim.protocol.STATUSES`.  The rest is computed from the final
    `state` on first access: `wrong_decode` (T,) marks a completed row that
    recovered a wrong chosen bit; `bits_learned` (T,), the claimed subsets
    truly all-matching; `target_exceeded` (T,), more than m of them; `guess`
    (T, n), curious Alice's guess of the `chosen` (T, n) labels, read off each
    announced subset's least cell (all False on a row that did not complete).
    A run without an engine passes `status` and `bits_learned` instead of
    a state, and has no `chosen` or `guess`."""

    def __init__(self, m: int, state: ProtocolState | None = None,
                 status: np.ndarray | None = None, bits_learned: np.ndarray | None = None):
        self.m, self._state = m, state
        self.status = state.status if state is not None else status
        self.chosen = None if state is None else state.chosen
        if bits_learned is not None:
            self.bits_learned = bits_learned

    @cached_property
    def wrong_decode(self) -> np.ndarray:
        state = self._state
        if state is None or state.recovered is None:  # no row reached step 7
            return np.zeros(len(self.status), dtype=bool)
        return state.live() & ((state.recovered != state.inputs) & state.chosen).any(axis=1)

    @cached_property
    def bits_learned(self) -> np.ndarray:
        state = self._state
        if state.recovered is None:  # no row reached step 7
            return np.zeros(state.rows, dtype=np.int64)
        return np.where(state.live(), (state.claimed & state.all_matching()).sum(axis=1), 0)

    @property
    def target_exceeded(self) -> np.ndarray:
        return self.bits_learned > self.m

    @cached_property
    def guess(self) -> np.ndarray | None:
        state = self._state
        if state is None:
            return None
        if state.recovered is None:  # no row reached step 7
            return np.zeros((state.rows, state.params.n), dtype=bool)
        # the m subsets with the smallest first slots (least cells), distinct in a legal family
        firsts = state.cells.min(axis=0)
        return (firsts <= np.sort(firsts, axis=1)[:, self.m - 1:self.m]) & state.live()[:, None]


class GreedyBob(HonestBob):
    """Follows the protocol but builds one extra all-matching subset when the
    surviving matches allow it, decoding m+1 bits."""

    def build_family(self, state):
        params, chosen = state.params, state.chosen
        matched = (state.match_flags() & ~state.removed).sum(axis=1)
        extra = np.arange(params.n) == np.argmax(~chosen, axis=1)[:, None]
        room = matched >= (params.m + 1) * params.subset_size
        return _legal_family(state, chosen | (extra & room[:, None]), state.draws.family_keys)


class DishonestRemovalBob(GreedyBob):
    """Low case only: removes mismatched slots while claiming compliance,
    keeping every basis match available for extra subsets.  Alice's stated
    implication check is vacuous on mismatches, so the literal verifier never
    notices; the strict verifier always does."""

    @staticmethod
    def check_case(params: ProtocolParams) -> None:
        if params.case is not Case.LOW:
            raise ValueError("dishonest-removal strategy applies to the low case only")

    def removal_pool(self, state) -> np.ndarray:
        self.check_case(state.params)
        return ~state.match_flags()


class PostponeBob(HonestBob):
    """Commits to fabricated values without measuring, hoping to measure after
    the bases are announced.  The per-pair challenge catches a basis-matching
    wrong bit with probability 1/4."""

    measures = False


class LeakyBob(HonestBob):
    """Deliberately leaky positive control: deterministic subset placement
    that puts the chosen subsets lexicographically first."""

    def build_family(self, state):
        slots = np.tile(np.arange(state.params.N, dtype=np.uint64), 2)
        return _legal_family(state, state.chosen, np.broadcast_to(slots, (state.rows, slots.size)))


def _sessions(bob: type[HonestBob]) -> Callable:
    """Batched runner of full protocol sessions against `bob`."""

    def run(params, strategy, rng, start, count, inputs=None, choices=None):
        state = run_protocol(params, inputs, choices, draw_sessions(params, rng, start, count),
                             bob=bob(), strict_removal=strategy.strict_alice)
        return Outcomes(params.m, state)

    return run


def postpone_bob(params, strategy, rng, start, count, inputs=None, choices=None) -> Outcomes:
    """Steps 1-2 with an unmeasuring Bob; a row survives iff no challenge fails."""
    state = phase1_transmit(params, draw_sessions(params, rng, start, count), bob=PostponeBob())
    phase2_challenge(state)
    return Outcomes(params.m, state)


def _forgery_width(params: ProtocolParams) -> int:  # a commit-cheat trial's s words, as a block
    return -(-params.subset_size // 4) * 4


def _forgeries_accepted(params: ProtocolParams, p: float, rng: RandomSource,
                        start: int, count: int) -> np.ndarray:
    """(T,) bool: all (N-x)/n forged unveils of one extra subset pass, each with probability
    p (w >> 11 < ceil(p * 2^53), exactly), from the row's own uniform words."""
    words = rng.block(_forgery_width(params), start, count)[:, :params.subset_size]
    largest = np.ascontiguousarray(words.T).max(axis=0)  # down the columns: few words a row
    return largest >> np.uint64(11) < np.uint64(math.ceil(p * 2**53))


def _commit_cheat(params, strategy, rng, start, count, inputs=None, choices=None) -> Outcomes:
    accepted = _forgeries_accepted(params, strategy.p, rng, start, count)
    status = np.where(accepted, 0, _CHEAT).astype(np.int8)
    return Outcomes(params.m, status=status, bits_learned=params.m + accepted)


def commit_cheat_trials(params: ProtocolParams, p: float, trials: int,
                        rng: RandomSource) -> int:
    """Count of commit-cheat successes over trials 0 .. `trials`-1 of `rng`'s
    stream: the trials' rows of the commit-cheat runner, drawn at once."""
    check_cheat_probability(p)
    if not (_is_int(trials) and trials >= 0):
        raise ValueError(f"trials must be an int >= 0, got {trials!r}")
    return int(_forgeries_accepted(params, p, rng, 0, trials).sum())


@dataclass(frozen=True)
class StrategySpec:
    """Everything about one strategy: one row of :data:`STRATEGIES`."""

    event: str  # name of the tracked event
    hit: Callable  # hit(outcomes): (T,) bool, did each session produce the event?
    reference: Callable  # reference(params, strategy): exact rate of the event
    # run(params, strategy, rng, start, count, inputs, choices): Outcomes of
    # trials start .. start+count-1 of rng's stream
    run: Callable
    width: Callable = session_width  # width(params): uint64 words a trial of `run` draws
    # checks(stats, params): the verdicts after the 3-sigma one, each as
    # (criterion, empirical, reference, relation, passed)
    checks: Callable = lambda stats, params: []
    admits: Callable = lambda params: None  # admits(params) raises ValueError on a refused set
    takes_p: bool = False  # reads the cheat probability p, which it then requires


def _tail(decode: bool = False) -> Callable:
    """Checks of the event's tail bound, correctness or privacy, at N >= min_N, from the bound
    report's (n, m) constants; `decode` first checks that completed runs decode exactly."""
    def checks(stats, params):
        found = [("completed_runs_decode_exactly", float(stats.wrong_decodes), 0.0, "eq",
                  stats.wrong_decodes == 0)] if decode else []
        constants, delta = _bound_constants(params.n, params.m)  # both bounds share these
        if params.N >= constants["min_N_correctness"]:
            q, raw = stats.oracle_rate, hoeffding_bound(params.N, delta)
            eps_pow = constants["eps_correctness"] ** params.N
            found += [(criterion, value, reference, "le", value <= limit)
                      for criterion, value, reference, limit in (
                          ("oracle_le_hoeffding_bound", q, min(raw, 1.0), raw),
                          ("oracle_le_eps_pow_N", q, eps_pow, eps_pow),
                          ("empirical_le_eps_pow_N", stats.event_rate, eps_pow, eps_pow))]
        return found
    return checks


def _commitment_check(stats, params):
    # q = p^s and eps^N = q^(N/(2ns)) may both underflow to 0.0: p^s < eps^N iff 2ns > N
    q, s = stats.oracle_rate, params.subset_size
    return [("commitment_bound_lt_eps_pow_N", q, q ** (params.N / (2 * params.n * s)), "le",
             2 * params.n * s > params.N)]


def _extra_bit(out: Outcomes) -> np.ndarray:
    return out.target_exceeded


STRATEGIES: dict[str, StrategySpec] = {
    "honest": StrategySpec(
        event="abort", checks=_tail(decode=True),
        reference=lambda params, s: exact_failure_oracle(params, "correctness"),
        run=_sessions(HonestBob), hit=lambda out: (out.status != 0) | out.wrong_decode),
    "greedy": StrategySpec(
        event="extra_bit_success", hit=_extra_bit, checks=_tail(), run=_sessions(GreedyBob),
        reference=lambda params, s: exact_failure_oracle(params, "privacy")),
    "dishonest-removal": StrategySpec(
        event="extra_bit_success", hit=_extra_bit, checks=_tail(),
        run=_sessions(DishonestRemovalBob), admits=DishonestRemovalBob.check_case,
        # the strict verifier rejects every mismatched removal, so no session survives it
        reference=lambda params, s: Fraction(0) if s.strict_alice
        else exact_failure_oracle(params, "privacy_dishonest_removal")),
    "postpone": StrategySpec(
        event="challenge_survival", hit=lambda out: out.status != _CHEAT,
        reference=lambda params, s: Fraction(3, 4) ** params.N, run=postpone_bob),
    "commit-cheat": StrategySpec(
        event="commit_cheat_success", hit=_extra_bit, checks=_commitment_check, takes_p=True,
        reference=lambda params, s: s.p ** params.subset_size, run=_commit_cheat,
        width=_forgery_width),
    "curious-alice": StrategySpec(
        event="choice_guess_correct", run=_sessions(HonestBob),
        hit=lambda out: (out.status == 0) & (out.guess == out.chosen).all(axis=1),
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
) -> Outcomes:
    """Execute one session, trial 0 of `seed`'s stream, with the given party
    replaced by `strategy`: the one-row :class:`Outcomes` of the strategy's
    batched runner.  Fixed `inputs` and `choices` must pass
    :func:`~qotsim.protocol.check_inputs` and run as it returns them; None draws them."""
    inputs, choices = check_inputs(params.n, params.m, inputs, choices)
    root = seed if isinstance(seed, RandomSource) else RandomSource(seed)
    return STRATEGIES[strategy.kind].run(params, strategy, root, 0, 1, inputs, choices)
