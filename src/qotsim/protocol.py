"""Executable state machine for the m-out-of-n OT protocol, T sessions at once.

The seven steps: (1) Alice transmits 2N BB84 photons and Bob measures them;
(2) Bob commits to his measurements and Alice challenges one index of each
(i, N+i) pair, keeping the other as survivor slot i; (3) Alice announces her
emission bases; (4) Bob removes x indices so the surviving match rate hits
the target; (5) Bob announces n disjoint equal-size subsets with the chosen
ones all-matching; (6) Alice sends each input bit masked by the parity of
her raw bits over the corresponding subset; (7) Bob unmasks his chosen bits.

Each phase advances T independent sessions in lockstep, one row of a
``(T, ...)`` array per session.  Row k's random numbers are its trial's
block of words (:func:`draw_sessions`), so row k of any batch is exactly the
single-session run of trial k.  Bob commits to index i as ids 4i (bit) and
4i+1 (basis), to index N+i as 4i+2 and 4i+3; so with Alice's coin d_i the
challenged ids of pair i are 4i + 2d_i (+1), and survivor slot i keeps
index i + N(1 - d_i), ids 4i + 2(1 - d_i) (+1).  Every unveil goes through
the batch ledger (:class:`CommitmentSession`).  Per-slot arrays are (T, N);
row-wise gathers index them flat, at ``t*N + slot``.  An abort is recorded
in the per-row status array (the first abort of a row wins) and the row's
later results are ignored.  Phases are driven strictly in order; an
out-of-order call raises :class:`ProtocolOrderError`.  That is a simulator
bug, so it propagates to the caller instead of becoming a protocol abort.
Step 1 sets the sessions' Bob and, on request, a transcript of row 0's
messages on the state; a transcript is byte-stable under a fixed seed.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .channel import RandomSource, transmit_batch
from .commitment import CommitmentSession
from .params import Case, ProtocolParams

# Sessions per batch in Monte Carlo experiments: large enough that the
# per-phase Python overhead is a small share.  A batch's arrays grow as
# rows * N, so at large N a batch holds fewer rows: its block of random
# words stays within BATCH_WORDS (8 MB; the batch peaks at several times
# that).  At the acceptance sets (N <= 40) every batch has CHUNK rows.
CHUNK = 4096
BATCH_WORDS = 2**20


class Status(Enum):
    COMPLETED = "completed"
    ABORT_INSUFFICIENT_MATCHES = "abort_insufficient_matches"
    ABORT_CHEAT_DETECTED = "abort_cheat_detected"
    ABORT_INVALID_MESSAGE = "abort_invalid_message"


# A status array holds indices into this tuple; 0 is COMPLETED.
STATUSES = tuple(Status)
# Sort key of the slots a permutation must place last.  Uniform subsets and
# permutations are argsorts of uint64 keys; a row only ever reads the
# positions of its eligible slots, and two of those tie with probability
# about N^2 / 2^65, so the sort need not be stable.
_LAST = np.uint64(2**64 - 1)


class ProtocolOrderError(RuntimeError):
    """A phase was invoked out of protocol order."""


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


# ---------------------------------------------------------------------------
# random numbers: one block of words per trial
# ---------------------------------------------------------------------------

def _bit_words(params: ProtocolParams) -> int:
    return -(-(params.n + 9 * params.N) // 64)


def session_width(params: ProtocolParams) -> int:
    """uint64 words in one trial's block (a multiple of 4)."""
    words = _bit_words(params) + params.n + 3 * params.N
    return -(-words // 4) * 4


class Draws:
    """Random numbers of T sessions, one row per trial, cut from its block.

    The block's first words are unpacked (least significant bit first) into
    the input bits (n), Alice's raw bits and bases (2N each), her challenge
    coins (N), Bob's bases and mismatch coins (2N each).  Whole words follow
    as uint64 sort keys: choice keys (n), removal keys (N), family keys (2N).
    A per-index draw is held as a (2, T, N) array: indices 0..N-1, then
    N..2N-1, so the two members of each pair sit at the same position.
    """

    def __init__(self, params: ProtocolParams, words: np.ndarray):
        n, N = params.n, params.N
        words = np.ascontiguousarray(words, dtype="<u8")
        bits = np.unpackbits(words.view(np.uint8), axis=1, count=n + 9 * N,
                             bitorder="little")
        self.inputs = bits[:, :n]
        # the nine N-bit fields after the inputs, each a contiguous (T, N) array
        fields = np.ascontiguousarray(bits[:, n:].reshape(-1, 9, N).transpose(1, 0, 2))
        self.r, self.beta, self.d = fields[0:2], fields[2:4], fields[4]
        self.beta_b, self.coin = fields[5:7], fields[7:9]
        keys = words[:, _bit_words(params):]
        self.choice_keys = keys[:, :n]
        self.removal_keys = keys[:, n:n + N]
        self.family_keys = keys[:, n + N:n + 3 * N]

    def chosen(self, m: int) -> np.ndarray:
        """(T, n) bool: a uniform m-subset of the labels per row."""
        rows, n = self.choice_keys.shape
        first = np.argsort(self.choice_keys, axis=1)[:, :m]
        mask = np.zeros(rows * n, dtype=bool)
        mask[first + n * np.arange(rows)[:, None]] = True
        return mask.reshape(rows, n)


def draw_sessions(params: ProtocolParams, rng: RandomSource, start: int,
                  count: int) -> Draws:
    """The draws of trials `start` .. `start+count-1` of `rng`'s stream."""
    return Draws(params, rng.block(session_width(params), start, count))


def chunks(trials: int, params: ProtocolParams):
    """(start, count) of each batch of `trials` trials at `params`."""
    rows = max(1, min(CHUNK, BATCH_WORDS // session_width(params)))
    return ((start, min(rows, trials - start)) for start in range(0, trials, rows))


def label_mask(labels, rows: int, n: int) -> np.ndarray:
    """(rows, n) bool mask of the 1-based `labels`, the same in every row."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(labels, dtype=np.int64) - 1] = True
    return np.broadcast_to(mask, (rows, n))


# ---------------------------------------------------------------------------
# Bob
# ---------------------------------------------------------------------------

class HonestBob:
    """Protocol-compliant Bob; adversaries override individual hooks."""

    measures = True  # False: commit to guesses without measuring (postpone)

    def removal_pool(self, state: "ProtocolState", match: np.ndarray) -> np.ndarray:
        """(T, N) mask of survivor slots eligible for removal."""
        if state.params.case is Case.LOW:
            return match
        return ~match

    def build_family(
        self,
        state: "ProtocolState",
        choices: np.ndarray,
        keys: np.ndarray,
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Return (family, claimed labels) for the (T, n) chosen-label mask.

        The family is a list of n (T, size) index arrays, the claimed labels
        a (T, n) mask.  Chosen subsets are uniform over all-matching sets of
        surviving matches; the rest of the survivors are distributed
        uniformly among the remaining labels.  `keys` are the rows' (T, 2N)
        family sort keys."""
        N = state.params.N
        return _legal_family(state, choices, keys[:, :N], keys[:, N:])


def _legal_family(
    state: "ProtocolState",
    targets: np.ndarray,
    target_keys: np.ndarray,
    rest_keys: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Fill the `targets` labels (ascending) with surviving matches in order
    of `target_keys`, then the other labels with the remaining survivors in
    order of `rest_keys`.  A row with too few matches gets other slots in
    its target subsets; Bob gives up on it in :func:`select_subsets`."""
    n, s = state.params.n, state.params.subset_size
    rows, N = state.removed.shape
    alive = ~state.removed
    first = np.argsort(np.where(alive & state.match_flags(), target_keys, _LAST), axis=1)
    need = targets.sum(axis=1, keepdims=True) * s
    # the first `need` positions of `first` go to the targets, ties included
    head = int(need.max())
    picked = np.zeros(rows * N, dtype=bool)
    picked[first[:, :head] + state.offsets] = np.arange(head) < need
    rest = np.argsort(np.where(alive & ~picked.reshape(rows, N), rest_keys, _LAST), axis=1)
    # blocks 0..n-1 of a row are the first n blocks of `first`, blocks
    # n..2n-1 those of `rest`; the k-th target label (ascending) takes block
    # k, the k-th other label block n+k
    blocks = np.concatenate([first[:, :n * s], rest[:, :n * s]], axis=1).reshape(-1, s)
    count = np.cumsum(targets, axis=1)
    block = np.where(targets, count - 1, n + np.arange(n) - count)
    family = blocks[block + 2 * n * np.arange(rows)[:, None]]
    return list(family.transpose(1, 0, 2)), targets


# ---------------------------------------------------------------------------
# state and phases
# ---------------------------------------------------------------------------

@dataclass
class ProtocolState:
    """Shared ground-truth state of T sessions, advanced phase by phase."""

    params: ProtocolParams
    draws: Draws         # Alice's raw bits and bases, Bob's bases, the keys
    r_b: np.ndarray      # Bob's measured (or guessed) bits, (2, T, N) as in Draws
    session: CommitmentSession
    status: np.ndarray   # (T,) index into STATUSES
    bob: HonestBob       # every row's Bob, set at step 1
    transcript: Transcript | None = None  # row 0's messages, if recorded; set at step 1
    stage: int = 1
    r_s: np.ndarray | None = None      # r, beta, r_b, beta_b per survivor slot
    beta_s: np.ndarray | None = None
    r_bs: np.ndarray | None = None
    beta_bs: np.ndarray | None = None
    match: np.ndarray | None = None    # (T, N) survivor basis agreement, from step 3
    removed: np.ndarray | None = None  # (T, N) bool per survivor slot
    family: np.ndarray | None = None   # (T, n, size), each subset sorted
    cells: np.ndarray | None = None    # family as flat positions in (T, N) arrays, (size, T, n)
    claimed: np.ndarray | None = None  # (T, n) labels Bob claims all-matching
    inputs: np.ndarray | None = None   # (T, n) Alice's input bits
    chosen: np.ndarray | None = None   # (T, n) Bob's chosen labels
    recovered: np.ndarray | None = None  # (T, n) Bob's unmasking of every label

    def _require_stage(self, expected: int) -> None:
        if self.stage != expected:
            raise ProtocolOrderError(
                f"phase expects stage {expected}, session is at {self.stage}"
            )

    @property
    def rows(self) -> int:
        return self.status.shape[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """(T, 1) flat position of each row's slot 0 in a (T, N) array."""
        return self.params.N * np.arange(self.rows)[:, None]

    def live(self) -> np.ndarray:
        """(T,) bool: rows that have not aborted."""
        return self.status == 0

    def abort(self, rows: np.ndarray, status: Status) -> None:
        """Record `status` for the given rows that have not aborted yet."""
        self.status[rows & self.live()] = STATUSES.index(status)

    def match_flags(self) -> np.ndarray:
        """Per-slot basis agreement; only knowable to Bob once bases are announced."""
        if self.match is None:
            raise ProtocolOrderError("bases not yet announced")
        return self.match

    def over_subsets(self, values: np.ndarray) -> np.ndarray:
        """(T, n, size) per-slot `values` (T, N) gathered over the family."""
        return values.reshape(-1)[self.cells].transpose(1, 2, 0)

    def all_matching(self) -> np.ndarray:
        """(T, n) bool: the subsets whose every slot is a basis match."""
        return self.over_subsets(self.match_flags()).all(axis=2)


def phase1_transmit(
    params: ProtocolParams,
    draws: Draws,
    bob: HonestBob | None = None,
    transcript: Transcript | None = None,
) -> ProtocolState:
    """Step 1: Alice sends 2N photons per row; Bob measures each on arrival.

    A matching basis reproduces Alice's bit, a mismatched one gives Bob a
    fair coin; a Bob who does not measure commits to the coins alone.  The
    state keeps `bob` (None: honest) and `transcript` for the later phases."""
    bob = bob or HonestBob()
    r_b = draws.coin
    if bob.measures:
        r_b = transmit_batch(draws.r, draws.beta, draws.beta_b, draws.coin)
    if transcript is not None:
        for i in range(2 * params.N):
            transcript.add(1, "A", "photon", index=i)
    return ProtocolState(
        params=params, draws=draws, r_b=r_b, session=CommitmentSession(),
        status=np.zeros(draws.d.shape[0], dtype=np.int8), bob=bob, transcript=transcript,
    )


def phase2_challenge(state: ProtocolState) -> None:
    """Step 2: commit, challenge one of each (i, N+i) pair, keep the other."""
    state._require_stage(1)
    N, transcript = state.params.N, state.transcript
    # commitment order per pair: r'_i, beta'_i, r'_{N+i}, beta'_{N+i}, so the
    # fresh ledger's ids of index i are 4i, 4i+1 and of index N+i 4i+2, 4i+3
    r, beta, r_b, beta_b = state.draws.r, state.draws.beta, state.r_b, state.draws.beta_b
    vals = np.empty((state.rows, 4 * N), dtype=np.uint8)
    vals[:, 0::4] = r_b[0]
    vals[:, 1::4] = beta_b[0]
    vals[:, 2::4] = r_b[1]
    vals[:, 3::4] = beta_b[1]
    ids = state.session.commit_many(vals)

    # d = 1: pair i's challenged index is N+i and slot i keeps index i;
    # d = 0: the other way round
    d = state.draws.d

    def split(a):
        """(challenged, kept) values of a (2, T, N) per-index array."""
        flip = (a[0] ^ a[1]) & d
        return a[0] ^ flip, a[1] ^ flip

    cid_r = 4 * np.arange(N) + 2 * d  # the beta' commitment is the next id
    unveiled_r = state.session.unveil_many(cid_r)
    unveiled_beta = state.session.unveil_many(cid_r + 1)
    if transcript is not None:
        for cid in ids:
            transcript.add(2, "B", "commit", id=int(cid))
        for i in range(N):
            transcript.add(2, "A", "challenge", i=i, d=int(d[0, i]))
            transcript.unveil(2, cid_r[0, i], unveiled_r[0, i])
            transcript.unveil(2, cid_r[0, i] + 1, unveiled_beta[0, i])
    (r_c, state.r_s), (beta_c, state.beta_s) = split(r), split(beta)
    state.r_bs, state.beta_bs = split(r_b)[1], split(beta_b)[1]
    violation = (beta_c == unveiled_beta) & (r_c != unveiled_r)
    state.removed = np.zeros((state.rows, N), dtype=bool)
    state.stage = 2
    state.abort(violation.any(axis=1), Status.ABORT_CHEAT_DETECTED)


def announce_bases(state: ProtocolState) -> None:
    """Step 3: Alice announces her emission bases for the N survivor slots."""
    state._require_stage(2)
    state.match = state.beta_s == state.beta_bs
    state.stage = 3
    if state.transcript is not None and state.status[0] == 0:
        state.transcript.add(3, "A", "bases", bases=[int(b) for b in state.beta_s[0]])


def removal_phase(state: ProtocolState, strict_removal: bool = False) -> None:
    """Step 4: Bob unveils and removes x slots of the over-represented kind.

    Low case: removed slots must match; Alice's stated check is only the
    implication (basis equal implies bit equal).  With `strict_removal` she
    additionally rejects any removed slot whose unveiled basis mismatches.
    High case: removed slots must mismatch and Alice checks exactly that.
    The removed slots are marked in `state.removed`.
    """
    state._require_stage(3)
    params = state.params
    x = params.x
    state.stage = 4
    if x == 0:
        return
    pool = state.bob.removal_pool(state, state.match_flags())
    short = pool.sum(axis=1) < x
    state.abort(short, Status.ABORT_INSUFFICIENT_MATCHES)
    keys = np.where(pool, state.draws.removal_keys, _LAST)
    removed_slots = np.sort(np.argsort(keys, axis=1)[:, :x], axis=1)
    cells = removed_slots + state.offsets  # flat positions in (T, N) arrays
    # slot j keeps index j + N(1 - d_j), whose r' and beta' ids are
    # 4j + 2(1 - d_j) and the next
    cid_r = 4 * removed_slots + 2 - 2 * state.draws.d.ravel()[cells]
    unveiled_r = state.session.unveil_many(cid_r)
    unveiled_beta = state.session.unveil_many(cid_r + 1)
    if state.transcript is not None and state.status[0] == 0:
        for j in range(x):
            state.transcript.unveil(4, cid_r[0, j], unveiled_r[0, j])
            state.transcript.unveil(4, cid_r[0, j] + 1, unveiled_beta[0, j])
    alice_beta = state.beta_s.reshape(-1)[cells]
    alice_r = state.r_s.reshape(-1)[cells]
    # a row too short to remove x slots removed nothing
    state.removed.reshape(-1)[cells] = ~short[:, None]
    same_basis = alice_beta == unveiled_beta
    if params.case is Case.LOW:
        bad = (same_basis & (alice_r != unveiled_r)).any(axis=1)
        if strict_removal:
            bad |= ~same_basis.all(axis=1)
    else:
        bad = same_basis.any(axis=1)
    state.abort(bad, Status.ABORT_CHEAT_DETECTED)


def select_subsets(state: ProtocolState, choices: np.ndarray) -> None:
    """Step 5: Bob announces n disjoint subsets of size (N-x)/n covering the
    survivors, with the chosen ones all-matching.

    `choices` is the (T, n) chosen-label mask.  Bob gives up on a row whose
    surviving matches cannot fill the subsets he claims.  Alice checks each
    family's structure: count, sizes, disjointness, coverage.  The sorted
    (T, n, size) family goes to `state.family`; a family whose count or
    sizes are wrong aborts every row and leaves it None."""
    state._require_stage(4)
    params = state.params
    n, s, N = params.n, params.subset_size, params.N
    family, claimed = state.bob.build_family(state, choices, state.draws.family_keys)
    state.claimed = claimed
    alive = ~state.removed
    matched = (state.match_flags() & alive).sum(axis=1)
    state.abort(matched < claimed.sum(axis=1) * s, Status.ABORT_INSUFFICIENT_MATCHES)
    state.stage = 5
    if len(family) != n or any(np.shape(f) != (state.rows, s) for f in family):
        state.abort(np.ones(state.rows, dtype=bool), Status.ABORT_INVALID_MESSAGE)
        return
    fam = np.stack(family, axis=1).astype(np.int64, copy=False)
    # legal: in range, and every surviving slot in exactly one subset
    # (disjoint, covering, no removed slot)
    in_range = True
    if fam.min() < 0 or fam.max() >= N:
        in_range = ((fam >= 0) & (fam < N)).all(axis=(1, 2))
        fam = np.clip(fam, 0, N - 1)
    hits = np.bincount((fam + state.offsets[:, :, None]).reshape(-1), minlength=alive.size)
    legal = in_range & (hits.reshape(alive.shape) == alive).all(axis=1)
    if not legal.all():
        state.abort(~legal, Status.ABORT_INVALID_MESSAGE)
        # an illegal family may index outside the row; later gathers read a
        # stand-in family on rows that aborted here
        fam[~legal] = np.arange(n * s).reshape(n, s)
    state.family = np.sort(fam, axis=2)
    # (size, T, n), so that reductions over a subset run along whole rows
    state.cells = np.ascontiguousarray(
        (state.family + state.offsets[:, :, None]).transpose(2, 0, 1))
    if state.transcript is not None and state.status[0] == 0:
        state.transcript.add(
            5, "B", "subsets",
            subsets=[[int(j) for j in f] for f in state.family[0]],
        )


def mask_bits(inputs: np.ndarray, state: ProtocolState) -> np.ndarray:
    """Step 6: Alice sends each (T, n) input bit XORed with her raw-bit
    parity over its subset; returns the (T, n) masked bits."""
    state._require_stage(5)
    parity = np.bitwise_xor.reduce(state.over_subsets(state.r_s), axis=2)
    masked = np.asarray(inputs, dtype=np.uint8) ^ parity
    state.stage = 6
    if state.transcript is not None and state.status[0] == 0:
        state.transcript.add(6, "A", "masked_bits", bits=[int(b) for b in masked[0]])
    return masked


def decode(masked: np.ndarray, state: ProtocolState) -> np.ndarray:
    """Step 7: Bob unmasks every label with his own measured-bit parities.

    Returns the (T, n) unmasked bits; they are right at every label whose
    subset is all-matching, so in particular at Bob's chosen labels."""
    state._require_stage(6)
    parity = np.bitwise_xor.reduce(state.over_subsets(state.r_bs), axis=2)
    state.recovered = masked ^ parity
    state.stage = 7
    return state.recovered


def check_inputs(n: int, m: int, bits, choices) -> None:
    """Reject fixed inputs that do not fit (n, m): `bits` must be n values
    in {0, 1}, `choices` m distinct int labels in [1, n] (a bool is not a
    label).  None is an input drawn per trial, so it is not checked."""
    if bits is not None:
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits: input bits must be 0/1: {bits}")
        if len(bits) != n:
            raise ValueError(f"bits: need {n} values, got {bits!r}")
    if choices is not None:
        choices = tuple(choices)
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool)
                   for c in choices):
            raise ValueError(f"choices: choice indices must be ints: {choices}")
        if len(set(choices)) != len(choices):
            raise ValueError(f"choices: choice indices must be distinct: {choices}")
        if any(not 1 <= c <= n for c in choices):
            raise ValueError(f"choices: choice indices must lie in [1, {n}]: {choices}")
        if len(choices) != m:
            raise ValueError(f"choices: need {m} values, got {choices!r}")


@dataclass(frozen=True)
class Trials:
    """Trials `start` .. `start+count-1` of `source`'s stream, run as one batch."""

    source: RandomSource
    start: int = 0
    count: int = 1


def run_protocol(
    params: ProtocolParams,
    inputs,
    choices,
    seed,
    record_transcript: bool = False,
    bob: HonestBob | None = None,
    strict_removal: bool = False,
) -> TrialOutcome | ProtocolState:
    """Run full sessions; aborts become statuses, never exceptions.

    `inputs` is n bits fixed for every row, or None to draw each row's bits
    from its trial's block; `choices` is m labels fixed for every row, a
    (T, n) chosen-label mask, or None to draw them likewise.  Fixed bits and
    labels must pass :func:`check_inputs`.

    With a :class:`Trials` block as `seed`, runs its trials as one batch and
    returns the final :class:`ProtocolState`; row k is exactly the single
    session of trial ``start + k``.  A list of blocks runs their rows
    concatenated in order, as one batch of T rows.  This is the engine of
    every Monte Carlo runner.  With `record_transcript`, the state's (or
    outcome's) `transcript` logs row 0, so ``Trials(rng, k, 1)`` logs trial k.

    With an int or :class:`RandomSource` `seed`, runs trial 0 of the stream
    as a batch of one row and returns its :class:`TrialOutcome`, whose
    `recovered` maps each chosen label, ascending, to Bob's unmasked bit.
    The outcome's `detail` carries ground truth used by verification code:
    the survivor match flags and count, the removed slots, the commitment
    count and, for a completed run, the announced family, Bob's claimed
    labels and the truly all-matching labels.

    Phases after the point where every row has aborted are skipped.  A phase
    driven out of order (e.g. by a faulty Bob hook) raises
    :class:`ProtocolOrderError`.
    """
    check_inputs(params.n, params.m, inputs, None if np.ndim(choices) == 2 else choices)
    batch = isinstance(seed, (Trials, list))
    if not batch:
        seed = Trials(seed if isinstance(seed, RandomSource) else RandomSource(int(seed)))
    blocks = seed if isinstance(seed, list) else [seed]
    width = session_width(params)
    words = [b.source.block(width, b.start, b.count) for b in blocks]
    draws = Draws(params, words[0] if len(words) == 1 else np.concatenate(words))
    count = draws.inputs.shape[0]
    if choices is None:
        chosen = draws.chosen(params.m)
    elif np.ndim(choices) == 2:
        chosen = np.asarray(choices, dtype=bool)
        if chosen.shape != (count, params.n) or (chosen.sum(axis=1) != params.m).any():
            raise ValueError(f"choice mask must be ({count}, {params.n}) with "
                             f"{params.m} labels per row")
    else:
        chosen = label_mask(choices, count, params.n)
    state = phase1_transmit(params, draws, bob=bob,
                            transcript=Transcript() if record_transcript else None)
    state.inputs = draws.inputs if inputs is None else np.broadcast_to(
        np.asarray(inputs, dtype=np.uint8), (count, params.n))
    state.chosen = chosen
    phase2_challenge(state)
    announce_bases(state)
    if state.live().any():
        removal_phase(state, strict_removal=strict_removal)
    if state.live().any():
        select_subsets(state, state.chosen)
    if state.live().any():
        decode(mask_bits(state.inputs, state), state)
    if batch:
        return state

    status = STATUSES[state.status[0]]
    match = state.match_flags()[0]
    detail: dict = {
        "matches": int(match.sum()),
        "match": match,
        "removed": state.removed[0],
        "commitments": len(state.session),
    }
    recovered: dict[int, int] = {}
    if status is Status.COMPLETED:
        detail["family"] = list(state.family[0])
        detail["claimed"] = tuple(int(k) + 1 for k in np.flatnonzero(state.claimed[0]))
        detail["all_matching_labels"] = tuple(
            int(k) + 1 for k in np.flatnonzero(state.all_matching()[0]))
        recovered = {int(c) + 1: int(state.recovered[0, c])
                     for c in np.flatnonzero(state.chosen[0])}
    return TrialOutcome(
        status=status, recovered=recovered, transcript=state.transcript, detail=detail
    )
