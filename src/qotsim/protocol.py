"""Executable state machine for the m-out-of-n OT protocol.

The seven steps: (1) Alice transmits 2N BB84 photons and Bob measures them;
(2) Bob commits to his measurements and Alice challenges one index of each
(i, N+i) pair, keeping the other as survivor slot i; (3) Alice announces her
emission bases; (4) Bob removes x indices so the surviving match rate hits
the target; (5) Bob announces n disjoint equal-size subsets with the chosen
ones all-matching; (6) Alice sends each input bit masked by the parity of
her raw bits over the corresponding subset; (7) Bob unmasks his chosen bits.

Phases are driven strictly in order; an out-of-order call raises
:class:`ProtocolOrderError`.  That is a simulator bug, so it propagates to
the caller instead of becoming a protocol abort.  Arrays are used
throughout so a full session costs microseconds; the transcript is recorded
only on request and is byte-stable under a fixed seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import RandomSource, transmit_batch
from .commitment import CommitmentSession
from .params import Case, ProtocolParams


class Status(Enum):
    COMPLETED = "completed"
    ABORT_INSUFFICIENT_MATCHES = "abort_insufficient_matches"
    ABORT_CHEAT_DETECTED = "abort_cheat_detected"
    ABORT_INVALID_MESSAGE = "abort_invalid_message"


class ProtocolOrderError(RuntimeError):
    """A phase was invoked out of protocol order."""


class CheatDetected(RuntimeError):
    """Honest Alice caught a commitment/removal inconsistency."""


class InsufficientMatches(RuntimeError):
    """Bob cannot satisfy a phase's match-count requirement."""


class InvalidMessage(RuntimeError):
    """A structurally illegal message (e.g. malformed subset family)."""


@dataclass(frozen=True)
class ChoiceVector:
    """Bob's m distinct choice indices, 1-based in [1, n]."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"choice indices must be distinct: {self.indices}")
        if any(not 1 <= c <= self.n for c in self.indices):
            raise ValueError(f"choice indices must lie in [1, {self.n}]: {self.indices}")


@dataclass(frozen=True)
class InputBits:
    """Alice's n input bits."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"input bits must be 0/1: {self.bits}")


class Transcript:
    """Ordered log of protocol messages, one record per message."""

    def __init__(self):
        self.records: list[dict] = []

    def add(self, step: int, sender: str, kind: str, **payload) -> None:
        self.records.append(
            {
                "seq": len(self.records),
                "step": step,
                "from": sender,
                "kind": kind,
                "payload": payload,
            }
        )

    def unveil(self, step: int, cid, value) -> None:
        """Record Bob's accepted unveil of one commitment."""
        self.add(step, "B", "unveil", id=int(cid), value=int(value), verdict="accepted")

    def view(self, party: str) -> list[dict]:
        """Messages the given party received (sent by the other party)."""
        return [r for r in self.records if r["from"] != party]

    def to_jsonl(self) -> bytes:
        lines = [json.dumps(r, separators=(",", ":")) for r in self.records]
        return ("\n".join(lines) + "\n").encode("utf-8")


@dataclass
class TrialOutcome:
    """Result of one protocol run."""

    status: Status
    recovered: dict[int, int]
    transcript: Transcript | None = None
    detail: dict = field(default_factory=dict, repr=False)


class HonestBob:
    """Protocol-compliant Bob; adversaries override individual hooks."""

    measures = True  # False: commit to guesses without measuring (postpone)

    def removal_pool(self, state: "ProtocolState", match: np.ndarray) -> np.ndarray:
        """Boolean mask of survivor slots eligible for removal."""
        if state.params.case is Case.LOW:
            return match
        return ~match

    def build_family(
        self,
        state: "ProtocolState",
        choices: ChoiceVector,
        rng: RandomSource,
    ) -> tuple[list[np.ndarray], tuple[int, ...]]:
        """Return (family, claimed labels).  Chosen subsets are uniform over
        all-matching sets of surviving matches; the rest of the survivors are
        distributed uniformly among the remaining labels."""
        return _random_legal_family(state, choices.indices, rng)


def _random_legal_family(
    state: "ProtocolState",
    target_labels: tuple[int, ...],
    rng: RandomSource,
) -> tuple[list[np.ndarray], tuple[int, ...]]:
    params = state.params
    s = params.subset_size
    alive = np.flatnonzero(~state.removed)
    match = state.match_flags()
    matched = alive[match[alive]]
    need = len(target_labels) * s
    if matched.size < need:
        raise InsufficientMatches(
            f"{matched.size} surviving matches < {need} needed for "
            f"{len(target_labels)} all-matching subsets"
        )
    perm = rng.gen.permutation(matched)
    pool = perm[:need]
    rest = np.concatenate([perm[need:], alive[~match[alive]]])
    rest = rng.gen.permutation(rest)
    family: list[np.ndarray | None] = [None] * params.n
    for k, label in enumerate(target_labels):
        family[label - 1] = pool[k * s:(k + 1) * s]
    others = [k for k in range(params.n) if family[k] is None]
    for j, k in enumerate(others):
        family[k] = rest[j * s:(j + 1) * s]
    return [np.sort(f) for f in family], tuple(sorted(target_labels))


@dataclass
class ProtocolState:
    """Shared ground-truth state of one session, advanced phase by phase."""

    params: ProtocolParams
    r: np.ndarray        # Alice's raw bits, length 2N
    beta: np.ndarray     # Alice's emission bases, length 2N
    r_b: np.ndarray      # Bob's measured (or guessed) bits, length 2N
    beta_b: np.ndarray   # Bob's measurement bases, length 2N
    session: CommitmentSession
    stage: int = 1
    id_r: np.ndarray | None = None     # commitment ids per original index
    id_beta: np.ndarray | None = None
    surv: np.ndarray | None = None     # original index per survivor slot
    bases_announced: bool = False
    removed: np.ndarray | None = None  # bool per survivor slot
    family: list[np.ndarray] | None = None
    claimed: tuple[int, ...] = ()

    def _require_stage(self, expected: int) -> None:
        if self.stage != expected:
            raise ProtocolOrderError(
                f"phase expects stage {expected}, session is at {self.stage}"
            )

    # survivor-slot projections of the raw arrays
    @property
    def r_s(self) -> np.ndarray:
        return self.r[self.surv]

    @property
    def beta_s(self) -> np.ndarray:
        return self.beta[self.surv]

    @property
    def r_bs(self) -> np.ndarray:
        return self.r_b[self.surv]

    @property
    def beta_bs(self) -> np.ndarray:
        return self.beta_b[self.surv]

    def match_flags(self) -> np.ndarray:
        """Per-slot basis agreement; only knowable to Bob once bases are announced."""
        if not self.bases_announced:
            raise ProtocolOrderError("bases not yet announced")
        return self.beta_s == self.beta_bs


def phase1_transmit(
    params: ProtocolParams,
    rng_a: RandomSource,
    rng_b: RandomSource,
    bob: HonestBob | None = None,
    transcript: Transcript | None = None,
) -> ProtocolState:
    """Step 1: Alice sends 2N photons; Bob measures each on arrival."""
    bob = bob or HonestBob()
    two_n = 2 * params.N
    r = rng_a.bits(two_n)
    beta = rng_a.bits(two_n)
    beta_b = rng_b.bits(two_n)
    if bob.measures:
        r_b = transmit_batch(r, beta, beta_b, rng_b)
    else:
        # photons stored unmeasured; Bob fabricates values to commit to
        r_b = rng_b.bits(two_n)
    if transcript is not None:
        for i in range(two_n):
            transcript.add(1, "A", "photon", index=i)
    return ProtocolState(
        params=params, r=r, beta=beta, r_b=r_b, beta_b=beta_b,
        session=CommitmentSession(),
    )


def phase2_challenge(
    state: ProtocolState,
    rng_a: RandomSource,
    transcript: Transcript | None = None,
) -> ProtocolState:
    """Step 2: commit, challenge one of each (i, N+i) pair, keep the other."""
    state._require_stage(1)
    N = state.params.N
    idx = np.arange(N)
    # commitment order per pair: r'_i, beta'_i, r'_{N+i}, beta'_{N+i}
    vals = np.empty(4 * N, dtype=np.uint8)
    vals[0::4] = state.r_b[:N]
    vals[1::4] = state.beta_b[:N]
    vals[2::4] = state.r_b[N:]
    vals[3::4] = state.beta_b[N:]
    ids = state.session.commit_many(vals)
    id_r = np.empty(2 * N, dtype=np.int64)
    id_beta = np.empty(2 * N, dtype=np.int64)
    id_r[:N], id_beta[:N] = ids[0::4], ids[1::4]
    id_r[N:], id_beta[N:] = ids[2::4], ids[3::4]
    state.id_r, state.id_beta = id_r, id_beta
    if transcript is not None:
        for cid in ids:
            transcript.add(2, "B", "commit", id=int(cid))

    d = rng_a.bits(N)
    challenged = idx + N * d.astype(np.int64)
    unveiled_r = state.session.unveil_many(id_r[challenged])
    unveiled_beta = state.session.unveil_many(id_beta[challenged])
    if transcript is not None:
        for i in range(N):
            transcript.add(2, "A", "challenge", i=int(i), d=int(d[i]))
            transcript.unveil(2, id_r[challenged[i]], unveiled_r[i])
            transcript.unveil(2, id_beta[challenged[i]], unveiled_beta[i])
    violation = (state.beta[challenged] == unveiled_beta) & (
        state.r[challenged] != unveiled_r
    )
    state.surv = idx + N * (1 - d.astype(np.int64))
    state.removed = np.zeros(N, dtype=bool)
    state.stage = 2
    if violation.any():
        raise CheatDetected(
            f"challenge check failed at {int(violation.sum())} of {N} indices"
        )
    return state


def announce_bases(
    state: ProtocolState, transcript: Transcript | None = None
) -> np.ndarray:
    """Step 3: Alice announces her emission bases for the N survivor slots."""
    state._require_stage(2)
    bases = state.beta_s
    state.bases_announced = True
    state.stage = 3
    if transcript is not None:
        transcript.add(3, "A", "bases", bases=[int(b) for b in bases])
    return bases


def removal_phase(
    state: ProtocolState,
    rng_b: RandomSource,
    bob: HonestBob | None = None,
    strict_removal: bool = False,
    transcript: Transcript | None = None,
) -> np.ndarray:
    """Step 4: Bob unveils and removes x slots of the over-represented kind.

    Low case: removed slots must match; Alice's stated check is only the
    implication (basis equal implies bit equal).  With `strict_removal` she
    additionally rejects any removed slot whose unveiled basis mismatches.
    High case: removed slots must mismatch and Alice checks exactly that.
    """
    state._require_stage(3)
    bob = bob or HonestBob()
    params = state.params
    x = params.x
    match = state.match_flags()
    if x == 0:
        state.stage = 4
        return np.empty(0, dtype=np.int64)
    pool = np.flatnonzero(bob.removal_pool(state, match))
    if pool.size < x:
        state.stage = 4
        raise InsufficientMatches(
            f"{pool.size} eligible slots < removal count x = {x}"
        )
    removed_slots = np.sort(rng_b.gen.choice(pool, size=x, replace=False))
    orig = state.surv[removed_slots]
    unveiled_r = state.session.unveil_many(state.id_r[orig])
    unveiled_beta = state.session.unveil_many(state.id_beta[orig])
    if transcript is not None:
        for j in range(x):
            transcript.unveil(4, state.id_r[orig[j]], unveiled_r[j])
            transcript.unveil(4, state.id_beta[orig[j]], unveiled_beta[j])
    alice_beta = state.beta_s[removed_slots]
    alice_r = state.r_s[removed_slots]
    state.removed[removed_slots] = True
    state.stage = 4
    if params.case is Case.LOW:
        bad = (alice_beta == unveiled_beta) & (alice_r != unveiled_r)
        if bad.any():
            raise CheatDetected("removal unveil broke basis/bit implication")
        if strict_removal and (alice_beta != unveiled_beta).any():
            raise CheatDetected("removed slot with mismatched basis in low case")
    else:
        if (alice_beta == unveiled_beta).any():
            raise CheatDetected("removed slot with matching basis in high case")
    return removed_slots


def select_subsets(
    state: ProtocolState,
    choices: ChoiceVector,
    rng_b: RandomSource,
    bob: HonestBob | None = None,
    transcript: Transcript | None = None,
) -> list[np.ndarray]:
    """Step 5: Bob announces n disjoint subsets of size (N-x)/n covering the
    survivors, with the chosen ones all-matching."""
    state._require_stage(4)
    bob = bob or HonestBob()
    family, claimed = bob.build_family(state, choices, rng_b)
    _check_family_legal(state, family)
    state.family = [np.sort(np.asarray(f, dtype=np.int64)) for f in family]
    state.claimed = claimed
    state.stage = 5
    if transcript is not None:
        transcript.add(
            5, "B", "subsets",
            subsets=[[int(j) for j in f] for f in state.family],
        )
    return state.family


def _check_family_legal(state: ProtocolState, family: list[np.ndarray]) -> None:
    """Alice's structural checks: count, sizes, disjointness, coverage."""
    params = state.params
    if len(family) != params.n:
        raise InvalidMessage(f"expected {params.n} subsets, got {len(family)}")
    sizes = [len(f) for f in family]
    if any(size != params.subset_size for size in sizes):
        raise InvalidMessage(f"subset sizes {sizes} != {params.subset_size}")
    union = np.concatenate([np.asarray(f) for f in family]) if family else np.empty(0)
    alive = np.flatnonzero(~state.removed)
    if len(np.unique(union)) != len(union):
        raise InvalidMessage("subsets are not pairwise disjoint")
    if not np.array_equal(np.sort(union), alive):
        raise InvalidMessage("subsets do not cover exactly the surviving slots")


def mask_bits(
    inputs: InputBits,
    state: ProtocolState,
    transcript: Transcript | None = None,
) -> np.ndarray:
    """Step 6: Alice sends each bit XORed with her raw-bit parity over its subset."""
    state._require_stage(5)
    r_s = state.r_s
    masked = np.empty(state.params.n, dtype=np.uint8)
    for k in range(state.params.n):
        parity = int(np.bitwise_xor.reduce(r_s[state.family[k]])) if len(state.family[k]) else 0
        masked[k] = inputs.bits[k] ^ parity
    state.stage = 6
    if transcript is not None:
        transcript.add(6, "A", "masked_bits", bits=[int(b) for b in masked])
    return masked


def decode(
    masked: np.ndarray,
    state: ProtocolState,
    choices: ChoiceVector,
) -> dict[int, int]:
    """Step 7: Bob unmasks his chosen bits with his own measured-bit parities."""
    state._require_stage(6)
    r_bs = state.r_bs
    recovered = {}
    for c in choices.indices:
        subset = state.family[c - 1]
        parity = int(np.bitwise_xor.reduce(r_bs[subset])) if len(subset) else 0
        recovered[c] = int(masked[c - 1]) ^ parity
    state.stage = 7
    return recovered


def run_protocol(
    params: ProtocolParams,
    inputs,
    choices,
    seed,
    record_transcript: bool = False,
    bob: HonestBob | None = None,
    strict_removal: bool = False,
) -> TrialOutcome:
    """Run one full session; aborts become outcome statuses, never exceptions.

    `seed` may be an int or a :class:`RandomSource` (one per trial).  The
    outcome's `detail` carries ground truth used by verification code: the
    survivor match count, the announced family, and Bob's claimed labels.
    A phase driven out of order (e.g. by a faulty Bob hook) raises
    :class:`ProtocolOrderError`.
    """
    bob = bob or HonestBob()
    if not isinstance(inputs, InputBits):
        inputs = InputBits(tuple(int(b) for b in inputs))
    if not isinstance(choices, ChoiceVector):
        choices = ChoiceVector(tuple(int(c) for c in choices), n=params.n)
    if len(inputs.bits) != params.n:
        raise ValueError(f"need {params.n} input bits, got {len(inputs.bits)}")
    if len(choices.indices) != params.m:
        raise ValueError(f"need {params.m} choices, got {len(choices.indices)}")
    root = seed if isinstance(seed, RandomSource) else RandomSource(int(seed))
    rng_a = root.stream("alice")
    rng_b = root.stream("bob")
    transcript = Transcript() if record_transcript else None

    detail: dict = {}
    status = Status.COMPLETED
    recovered: dict[int, int] = {}
    state = phase1_transmit(params, rng_a, rng_b, bob=bob, transcript=transcript)
    try:
        phase2_challenge(state, rng_a, transcript=transcript)
        announce_bases(state, transcript=transcript)
        detail["matches"] = int((state.beta_s == state.beta_bs).sum())
        removal_phase(
            state, rng_b, bob=bob, strict_removal=strict_removal,
            transcript=transcript,
        )
        select_subsets(state, choices, rng_b, bob=bob, transcript=transcript)
        masked = mask_bits(inputs, state, transcript=transcript)
        recovered = decode(masked, state, choices)
    except CheatDetected as err:
        status = Status.ABORT_CHEAT_DETECTED
        detail["reason"] = str(err)
    except InsufficientMatches as err:
        status = Status.ABORT_INSUFFICIENT_MATCHES
        detail["reason"] = str(err)
    except InvalidMessage as err:
        status = Status.ABORT_INVALID_MESSAGE
        detail["reason"] = str(err)

    detail["state"] = state
    if state.family is not None:
        detail["family"] = state.family
        detail["claimed"] = state.claimed
        match = state.match_flags()
        detail["all_matching_labels"] = tuple(
            k + 1 for k, f in enumerate(state.family) if bool(match[f].all())
        )
    return TrialOutcome(
        status=status, recovered=recovered, transcript=transcript, detail=detail
    )
