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
index i + N(1 - d_i), ids 4i + 2(1 - d_i) (+1).  Commitments are ideal:
Alice sees only ids until an unveil, and an unveil can only open the
committed value.  So at step 2 she reads the challenged bits and bases from
Bob's own arrays (``r_b`` and ``beta_b``), and the kept ones stay sealed,
by survivor slot, in a :class:`CommitmentSession` over his survivor-slot
arrays, not a copy, until step 4 opens the removed slots.  A forged unveil
belongs to the commit-cheat strategy, which runs no engine.
Per-slot arrays are (T, N); row-wise gathers index them flat, at
``t*N + slot``.  An abort is recorded in the per-row status array (the
first abort of a row wins) and the row's later results are ignored.
Phases are driven strictly in order; an out-of-order call raises
:class:`ProtocolOrderError`.  That is a simulator bug, so it propagates to
the caller instead of becoming a protocol abort.
Step 1 is the one place a session's settings are set: Alice's input bits,
Bob's chosen labels, Bob himself and Alice's step-4 check go on the state,
and every later phase, like each of Bob's hooks, takes the state alone.
:class:`TrialOutcome` reads any row of the state as one session, up to the
step the state has reached, with its byte-stable message transcript.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .channel import RandomSource, transmit_batch
from .commitment import CommitmentSession
from .params import Case, ProtocolParams, _is_integer

# A Monte Carlo batch holds as many rows as fit in BATCH_WORDS random words (512 KB): few
# enough that its arrays (about three blocks at their peak) reuse the memory the last freed.
BATCH_WORDS = 2**16


class Status(Enum):
    COMPLETED = "completed"
    ABORT_INSUFFICIENT_MATCHES = "abort_insufficient_matches"
    ABORT_CHEAT_DETECTED = "abort_cheat_detected"
    ABORT_INVALID_MESSAGE = "abort_invalid_message"
    IN_PROGRESS = "in_progress"  # a live row of a state short of step 7


# A status array holds indices into this tuple; 0 is a row not aborted.
STATUSES = tuple(Status)
_compact = json.JSONEncoder(separators=(",", ":")).encode  # JSON without spaces, as in a transcript


class ProtocolOrderError(RuntimeError):
    """A phase was invoked out of protocol order."""


@dataclass
class Transcript:
    """Ordered log of protocol messages, one compact JSON line per message:
    {"seq", "step", "from", "kind", "payload"}, where every payload value is
    an int, an int list or "accepted".  `records` parses the lines."""

    lines: list[str]

    @cached_property
    def records(self) -> list[dict]:
        return json.loads("[" + ",".join(self.lines) + "]")

    def to_jsonl(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("utf-8")


class TrialOutcome:
    """Row `row` (an int or numpy integer in [0, T)) of a :class:`ProtocolState`,
    read as one session at the `stage` the state is at when made, so a run that
    stopped early (postpone Bob's two steps, or phases driven by hand) reads too.
    `status` is the row's :class:`Status`, IN_PROGRESS for a row not aborted short
    of step 7; the rest is built on first read, which raises ProtocolOrderError once
    the state has left `stage`.  `recovered` maps each chosen label, ascending, to
    Bob's unmasked bit (empty unless the row completed step 7); `transcript` holds
    the row's messages up to its abort or `stage`.  Ground truth (match flags,
    removed slots, family, claimed labels) is the state's at `row`."""

    def __init__(self, state: ProtocolState, row: int = 0):
        if not (_is_integer(row) and 0 <= row < state.rows):
            raise ValueError(f"row must be an int in [0, {state.rows}), got {row!r}")
        self.state, self.row, self.stage = state, int(row), state.stage
        self.status = (STATUSES[state.status[self.row]] if state.status[self.row]
                       or state.stage == 7 else Status.IN_PROGRESS)

    def _at_stage(self) -> ProtocolState:  # the state, refused once it has left `stage`
        if (now := self.state.stage) != self.stage:
            raise ProtocolOrderError(f"outcome of stage {self.stage} read at stage {now}")
        return self.state

    @cached_property
    def recovered(self) -> dict[int, int]:
        state, k = self._at_stage(), self.row
        chosen = np.flatnonzero(state.chosen[k]) if self.status is Status.COMPLETED else ()
        return {int(c) + 1: int(state.recovered[k, c]) for c in chosen}

    @cached_property
    def transcript(self) -> Transcript:
        state, k, lines = self._at_stage(), self.row, []
        N, d = state.params.N, state.draws.d[k].tolist()
        last = int(state.aborted_at[k]) or state.stage  # the last step the row took
        # commitment id 4i + 2h + b holds (r_b, beta_b)[b][h][k, i]
        committed = np.stack([state.r_b[:, k], state.draws.beta_b[:, k]]).T.ravel().tolist()

        def send(step, sender, kind, *payloads):  # a payload is its object's fields
            head = f'"step":{step},"from":"{sender}","kind":"{kind}","payload":{{'
            lines.extend(head + payload for payload in payloads)

        def unveil(step, *cids):
            send(step, "B", "unveil", *(f'"id":{c},"value":{committed[c]},"verdict":"accepted"'
                                        for cid in cids for c in (cid, cid + 1)))

        send(1, "A", "photon", *(f'"index":{i}' for i in range(2 * N)))
        send(2, "B", "commit", *(f'"id":{cid}' for cid in range(4 * N)))
        for i in range(N):
            send(2, "A", "challenge", f'"i":{i},"d":{d[i]}')
            unveil(2, 4 * i + 2 * d[i])
        if last >= 3:
            send(3, "A", "bases", f'"bases":{_compact(state.beta_s[k].tolist())}')
            # slot j keeps index j + N(1 - d_j); nothing is removed before step 4
            unveil(4, *(4 * j + 2 - 2 * d[j] for j in np.flatnonzero(state.removed[k]).tolist()))
        if state.status[k] == 0 and last >= 5:
            send(5, "B", "subsets", f'"subsets":{_compact(state.family[k].tolist())}')
            if last >= 6:
                send(6, "A", "masked_bits", f'"bits":{_compact(state.masked[k].tolist())}')
        return Transcript([f'{{"seq":{seq},{line}}}}}' for seq, line in enumerate(lines)])


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
    as uint64 sort keys: choice keys (n), removal keys (N), family keys (2N),
    which :func:`_packed` orders by their top bits, ties broken by slot.
    A per-index draw is held as a (2, T, N) array: indices 0..N-1, then
    N..2N-1, so the two members of each pair sit at the same position.
    """

    def __init__(self, params: ProtocolParams, words: np.ndarray):
        n, N, width = params.n, params.N, session_width(params)
        words = np.ascontiguousarray(words, dtype="<u8")
        if words.ndim != 2 or words.shape[1] != width:
            raise ValueError(f"draws need a (T, {width}) block of words, got shape {words.shape}")
        bits = np.unpackbits(words.view(np.uint8), axis=1, count=n + 9 * N,
                             bitorder="little")
        self.inputs = bits[:, :n].copy()  # a view would keep all of `bits` alive
        # the nine N-bit fields after the inputs, each a contiguous (T, N) array
        fields = np.ascontiguousarray(bits[:, n:].reshape(-1, 9, N).transpose(1, 0, 2))
        self.r, self.beta, self.d = fields[0:2], fields[2:4], fields[4]
        self.beta_b, self.coin = fields[5:7], fields[7:9]
        keys = words[:, _bit_words(params):]
        self.choice_keys = keys[:, :n]
        self.removal_keys = keys[:, n:n + N]
        self.family_keys = keys[:, n + N:n + 3 * N]

    def chosen(self, m: int) -> np.ndarray:
        """(T, n) bool: a uniform m-subset of the labels per row, the m
        first in :func:`_packed`'s order."""
        packed = _packed(self.choice_keys)
        return packed <= np.sort(packed, axis=1)[:, m - 1:m]


@lru_cache(maxsize=64)
def _slot_words(width: int) -> tuple:
    """uint64 constants of rows of `width` slots, built once: the low b-bit mask, its
    complement, an eligible slot's largest top bits, and slots 0..width-1 (read-only)."""
    low = (1 << (width - 1).bit_length()) - 1
    slots = np.arange(width, dtype=np.uint64)
    slots.flags.writeable = False
    return np.uint64(low), np.uint64(2**64 - 1 - low), np.uint64(2**64 - 2 - 2 * low), slots


def _packed(keys: np.ndarray, eligible: np.ndarray | None = None) -> np.ndarray:
    """(T, W) uint64 sort words of T rows of W slots: each slot's key's top
    64 - b bits, b = ceil(log2 W), over the slot in the low b bits, an
    ineligible slot's top bits all ones (None: every slot eligible).  By
    value they order uniform subsets and permutations: the eligible slots
    first, by their keys' top bits (ties, of probability ~W^2 / 2^(65-b), by
    slot; all ones ranks with the next-lower value), then the others by
    slot, on every numpy version and sort kernel."""
    _, high, clamp, slots = _slot_words(keys.shape[1])
    packed = keys & high
    if eligible is not None:
        np.minimum(packed, clamp, out=packed)
        packed |= np.multiply(~eligible, high, dtype=np.uint64)
    packed |= slots
    return packed


def _order(keys: np.ndarray, eligible: np.ndarray | None = None) -> np.ndarray:
    """(T, W) int64: each row's slots in :func:`_packed`'s order, its
    words sorted by value, not argsorted."""
    packed = _packed(keys, eligible)
    packed.sort(axis=1)
    packed &= _slot_words(keys.shape[1])[0]
    return packed.view(np.int64)


def draw_sessions(params: ProtocolParams, rng: RandomSource, start: int,
                  count: int) -> Draws:
    """The draws of trials `start` .. `start+count-1` of `rng`'s stream."""
    return Draws(params, rng.block(session_width(params), start, count))


def chunks(trials: int, width: int):
    """(start, count) of each batch of `trials` trials that draw `width` words each."""
    rows = max(1, BATCH_WORDS // width)
    return ((start, min(rows, trials - start)) for start in range(0, trials, rows))


# ---------------------------------------------------------------------------
# Bob
# ---------------------------------------------------------------------------

class HonestBob:
    """Protocol-compliant Bob; adversaries override individual hooks."""

    measures = True  # False: commit to guesses without measuring (postpone)

    def removal_pool(self, state: "ProtocolState") -> np.ndarray:
        """(T, N) mask of survivor slots eligible for removal."""
        return state.match_flags() if state.params.case is Case.LOW else ~state.match_flags()

    def build_family(self, state: "ProtocolState") -> tuple[np.ndarray, np.ndarray]:
        """Return (family, claimed labels) for the state's chosen labels.

        The family is an (n, T, size) int array (or n (T, size) arrays), the
        claimed labels a (T, n) mask.  Chosen subsets are uniform over
        all-matching sets of surviving matches; the rest of the survivors are
        distributed uniformly among the remaining labels."""
        return _legal_family(state, state.chosen, state.draws.family_keys)


def _legal_family(
    state: "ProtocolState",
    targets: np.ndarray,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill the `targets` labels (ascending) with surviving matches in order
    of the first N of the rows' (T, 2N) `keys`, then the other labels with
    the remaining survivors in order of the last N, as an (n, T, size) family.  A
    row with too few matches gets other slots in its target subsets; Bob gives
    up on it in :func:`select_subsets`."""
    n, s = state.params.n, state.params.subset_size
    rows, N = state.removed.shape
    packed = _packed(keys[:, :N], state.match_flags() & ~state.removed)
    first = np.sort(packed, axis=1)
    count = np.add.accumulate(targets, axis=1, dtype=np.intp)
    # the targets take the first s * (their count) positions of `first` (its
    # words are distinct), so a row with no targets picks nothing
    picked = packed < first.reshape(-1)[state.offsets + count[:, -1:] * s]
    del packed
    rest = _packed(keys[:, N:], ~(state.removed | picked))
    rest.sort(axis=1)
    # blocks 0..n-1 of a row are the first n blocks of `first`, blocks
    # n..2n-1 those of `rest`; the k-th target label (ascending) takes block
    # k, the k-th other label block n+k
    blocks = np.concatenate([first[:, :n * s], rest[:, :n * s]], axis=1)
    del first, rest
    blocks &= _slot_words(N)[0]
    block = np.where(targets, count - 1, np.arange(n, 2 * n) - count).T + 2 * n * np.arange(rows)
    return blocks.view(np.int64).reshape(-1, s).take(block, axis=0), targets


# ---------------------------------------------------------------------------
# state and phases
# ---------------------------------------------------------------------------

@dataclass
class ProtocolState:
    """Shared ground-truth state of T sessions, advanced phase by phase."""

    params: ProtocolParams
    draws: Draws         # Alice's raw bits and bases, Bob's bases, the keys
    r_b: np.ndarray      # Bob's measured (or guessed) bits, (2, T, N) as in Draws
    session: CommitmentSession  # r_bs and beta_bs, sealed at step 2
    status: np.ndarray   # (T,) index into STATUSES
    bob: HonestBob       # every row's Bob, set at step 1
    aborted_at: np.ndarray  # (T,) stage at which each row aborted, or 0
    inputs: np.ndarray | None = None   # (T, n) Alice's input bits, set at step 1
    chosen: np.ndarray | None = None   # (T, n) Bob's chosen labels, set at step 1
    strict_removal: bool = False       # Alice's step-4 check, set at step 1
    stage: int = 1
    r_s: np.ndarray | None = None      # r, beta, r_b, beta_b per survivor slot
    beta_s: np.ndarray | None = None
    r_bs: np.ndarray | None = None
    beta_bs: np.ndarray | None = None
    match: np.ndarray | None = None    # (T, N) survivor basis agreement, from step 3
    removed: np.ndarray | None = None  # (T, N) bool per survivor slot
    cells: np.ndarray | None = None    # family as flat positions in (T, N) arrays, (size, T, n)
    claimed: np.ndarray | None = None  # (T, n) labels Bob claims all-matching
    masked: np.ndarray | None = None   # (T, n) Alice's masked input bits, from step 6
    recovered: np.ndarray | None = None  # (T, n) Bob's unmasking of every label

    def _require_stage(self, expected: int) -> None:
        if self.stage != expected:
            raise ProtocolOrderError(f"phase expects stage {expected}, session is at {self.stage}")

    @property
    def rows(self) -> int:
        return self.status.shape[0]

    @cached_property
    def family(self) -> np.ndarray | None:
        """(T, n, size): the family Alice checked at step 5, read off `cells` less each row's
        offset, each subset sorted on first read."""
        return None if self.cells is None else (
            np.sort(self.cells - self.offsets, axis=0).transpose(1, 2, 0))

    @cached_property
    def offsets(self) -> np.ndarray:
        """(T, 1) flat position of each row's slot 0 in a (T, N) array."""
        return self.params.N * np.arange(self.rows)[:, None]

    def live(self) -> np.ndarray:
        """(T,) bool: rows that have not aborted."""
        return self.status == 0

    def abort(self, rows: np.ndarray, status: Status) -> None:
        """Record `status` and the stage for the given rows not yet aborted:
        a (T,) mask, or a (T, k) one that marks a row by any of its flags."""
        if np.count_nonzero(rows):
            rows = (rows if rows.ndim == 1 else rows.any(axis=1)) & self.live()
            self.status[rows] = STATUSES.index(status)
            self.aborted_at[rows] = self.stage

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
    inputs: np.ndarray | None = None,
    chosen: np.ndarray | None = None,
    strict_removal: bool = False,
) -> ProtocolState:
    """Step 1: Alice sends 2N photons per row; Bob measures each on arrival.

    A matching basis reproduces Alice's bit, a mismatched one gives Bob a
    fair coin; a Bob who does not measure commits to the coins alone.  The
    state keeps the sessions' settings for the later phases: `bob` (None:
    honest), Alice's (T, n) input bits `inputs`, Bob's (T, n) chosen-label
    mask `chosen`, and `strict_removal`, Alice's step-4 check.  A run that
    stops before step 5 needs no inputs or labels."""
    bob = bob or HonestBob()
    r_b = draws.coin
    if bob.measures:
        r_b = transmit_batch(draws.r, draws.beta, draws.beta_b, draws.coin)
    status = np.zeros(draws.d.shape[0], dtype=np.int8)
    return ProtocolState(params=params, draws=draws, r_b=r_b, session=CommitmentSession(),
                         status=status, bob=bob, aborted_at=np.zeros(status.shape, np.int8),
                         inputs=inputs, chosen=chosen, strict_removal=strict_removal)


def phase2_challenge(state: ProtocolState) -> None:
    """Step 2: Bob commits to his 2N measured bits and bases; Alice
    challenges one index of each (i, N+i) pair, which Bob unveils, and keeps
    the other, whose bit and basis stay sealed in `state.session`.  A
    challenged index whose unveiled basis is Alice's but whose bit is not is
    a detected cheat."""
    state._require_stage(1)
    # d = 1: pair i's challenged index is N+i and slot i keeps index i;
    # d = 0: the other way round
    d = state.draws.d

    def split(a):
        """(challenged, kept) values of a (2, T, N) per-index array."""
        flip = (a[0] ^ a[1]) & d
        return a[0] ^ flip, a[1] ^ flip

    (r_c, state.r_s), (beta_c, state.beta_s) = split(state.draws.r), split(state.draws.beta)
    (unveiled_r, state.r_bs), (unveiled_beta, state.beta_bs) = (
        split(state.r_b), split(state.draws.beta_b))
    state.session.commit_many((state.r_bs, state.beta_bs))
    violation = (beta_c == unveiled_beta) & (r_c != unveiled_r)
    state.removed = np.zeros(d.shape, dtype=bool)
    state.stage = 2
    state.abort(violation, Status.ABORT_CHEAT_DETECTED)


def announce_bases(state: ProtocolState) -> None:
    """Step 3: Alice announces her emission bases for the N survivor slots."""
    state._require_stage(2)
    state.match = state.beta_s == state.beta_bs
    state.stage = 3


def removal_phase(state: ProtocolState) -> None:
    """Step 4: Bob unveils and removes x slots of the over-represented kind.

    Low case: removed slots must match; Alice's stated check is only the
    implication (basis equal implies bit equal).  With the state's
    `strict_removal` she also rejects any removed slot whose unveiled basis
    mismatches.
    High case: removed slots must mismatch and Alice checks exactly that.
    The removed slots of the live rows are marked in `state.removed`.
    """
    state._require_stage(3)
    params = state.params
    x = params.x
    state.stage = 4
    if x == 0:
        return
    pool = np.asarray(state.bob.removal_pool(state), dtype=bool)
    # flat positions in (T, N) arrays of each row's x removed slots, unordered
    cells = _order(state.draws.removal_keys, pool)[:, :x] + state.offsets
    # a row whose x-th slot is outside the pool has fewer than x in it
    state.abort(~pool.reshape(-1)[cells[:, -1]], Status.ABORT_INSUFFICIENT_MATCHES)
    # Bob unveils the bit and basis of each removed slot's kept index
    unveiled_r, unveiled_beta = state.session.unveil_many(cells)
    alice_beta = state.beta_s.reshape(-1)[cells]
    alice_r = state.r_s.reshape(-1)[cells]
    # a row that has aborted (too short to remove x slots, say) removed nothing
    state.removed.reshape(-1)[cells] = state.live()[:, None]
    same_basis = alice_beta == unveiled_beta
    if params.case is Case.LOW:
        bad = same_basis & (alice_r != unveiled_r)
        if state.strict_removal:
            bad |= ~same_basis
    else:
        bad = same_basis
    state.abort(bad, Status.ABORT_CHEAT_DETECTED)


def select_subsets(state: ProtocolState) -> None:
    """Step 5: Bob announces n disjoint subsets of size (N-x)/n covering the
    survivors, with the state's chosen ones all-matching.

    Bob gives up on a row whose surviving matches cannot fill the subsets he
    claims.  Alice checks each family's structure: count, sizes, integer
    slots, disjointness, coverage.  The family goes to `state.cells` as flat
    positions, (size, T, n), and `state.family` reads it back, sorted; a family of
    wrong count, sizes or slot type (float, bool) aborts every row, leaving both None."""
    state._require_stage(4)
    if state.chosen is None or state.inputs is None:
        raise ValueError("steps 5-7 need the input bits and chosen labels given at step 1")
    params = state.params
    n, s, N = params.n, params.subset_size, params.N
    family, claimed = state.bob.build_family(state)
    state.claimed = claimed
    alive = ~state.removed
    matched = (state.match_flags() & alive).sum(axis=1)
    state.stage = 5
    state.abort(matched < claimed.sum(axis=1) * s, Status.ABORT_INSUFFICIENT_MATCHES)
    # Bob's array as sent, or one built from his sequence; it is not written to
    if (len(family) != n or any(np.shape(f) != (state.rows, s) for f in family)
            or not np.issubdtype((family := np.asarray(family)).dtype, np.integer)):
        state.abort(np.ones(state.rows, dtype=bool), Status.ABORT_INVALID_MESSAGE)
        return
    family = family.astype(np.int64, copy=False)
    # legal: in range, and every surviving slot in exactly one subset
    # (disjoint, covering, no removed slot); a slot out of range is clipped
    # into its row, so that later gathers read the row's own cells
    if family.view(np.uint64).max() >= N:  # a negative slot reads as a huge one
        state.abort((family.view(np.uint64) >= N).any(axis=(0, 2)), Status.ABORT_INVALID_MESSAGE)
        family = np.clip(family, 0, N - 1)
    vars(state).pop("family", None)  # a read before step 5 cached None
    # (size, T, n), so that reductions over a subset run along whole rows
    state.cells = np.add(family.transpose(2, 1, 0), state.offsets, order="C")
    wrong = np.bincount(state.cells.reshape(-1), minlength=alive.size).reshape(alive.shape) != alive
    state.abort(wrong, Status.ABORT_INVALID_MESSAGE)  # a row aborted earlier keeps its status


def mask_bits(state: ProtocolState) -> np.ndarray:
    """Step 6: Alice sends each of the state's (T, n) input bits XORed with
    her raw-bit parity over its subset; returns the (T, n) masked bits."""
    state._require_stage(5)
    parity = np.bitwise_xor.reduce(state.over_subsets(state.r_s), axis=2)
    state.masked = state.inputs ^ parity
    state.stage = 6
    return state.masked


def decode(state: ProtocolState) -> np.ndarray:
    """Step 7: Bob unmasks every masked bit with his own measured-bit parities.

    Returns the (T, n) unmasked bits; they are right at every label whose
    subset is all-matching, so in particular at Bob's chosen labels."""
    state._require_stage(6)
    parity = np.bitwise_xor.reduce(state.over_subsets(state.r_bs), axis=2)
    state.recovered = state.masked ^ parity
    state.stage = 7
    return state.recovered


def check_inputs(n: int, m: int, bits, choices) -> tuple:
    """Reject fixed inputs that do not fit (n, m): `bits` must be n values
    in {0, 1}, `choices` m distinct int labels in [1, n] (a bool is not a
    label).  None is an input drawn per trial, so it is not checked.  Returns
    (bits, choices) as tuples of ints, None kept: what the caller must run."""
    if bits is not None:
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits: input bits must be 0/1: {bits}")
        if len(bits) != n:
            raise ValueError(f"bits: need {n} values, got {bits!r}")
        bits = tuple(map(int, bits))
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
        choices = tuple(map(int, choices))
    return bits, choices


def run_protocol(
    params: ProtocolParams,
    inputs,
    choices,
    seed,
    bob: HonestBob | None = None,
    strict_removal: bool = False,
) -> TrialOutcome | ProtocolState:
    """Run full sessions; aborts become statuses, never exceptions.

    `inputs` is n bits fixed for every row, or None to draw each row's bits
    from its trial's block; `choices` is m labels fixed for every row, a
    (T, n) chosen-label mask, or None to draw them likewise.  Fixed bits and
    labels must pass :func:`check_inputs`, and run as the tuples it returns.

    With a :class:`Draws` as `seed`, runs its T rows as one batch and returns
    the final :class:`ProtocolState`; with ``draw_sessions(params, rng, k,
    T)``, row j is exactly the single session of trial k + j, and
    ``TrialOutcome(state, j)`` reads it.  This is the engine of every Monte
    Carlo runner.  Draws cut for another (n, N) raise ValueError.

    With an int or :class:`RandomSource` `seed`, runs trial 0 of the stream
    as a batch of one row and returns its :class:`TrialOutcome`.

    Phases after the point where every row has aborted are skipped.  A phase
    driven out of order (e.g. by a faulty Bob hook) raises
    :class:`ProtocolOrderError`.
    """
    mask = np.ndim(choices) == 2  # a (T, n) mask, which check_inputs skips
    inputs, labels = check_inputs(params.n, params.m, inputs, None if mask else choices)
    batch = isinstance(seed, Draws)
    draws = seed if batch else draw_sessions(
        params, seed if isinstance(seed, RandomSource) else RandomSource(seed), 0, 1)
    count, n = draws.inputs.shape
    if (n, draws.d.shape[1]) != (params.n, params.N):
        raise ValueError(f"draws are cut for n={n}, N={draws.d.shape[1]}, "
                         f"not n={params.n}, N={params.N}")
    if choices is None:
        chosen = draws.chosen(params.m)
    elif mask:  # the public boundary checks it here
        chosen = np.asarray(choices, dtype=bool)
        if chosen.shape != (count, params.n) or (chosen.sum(axis=1) != params.m).any():
            raise ValueError(f"choice mask must be ({count}, {params.n}) with "
                             f"{params.m} labels per row")
    else:  # the same m labels in every row
        chosen = np.zeros(params.n, dtype=bool)
        chosen[[c - 1 for c in labels]] = True
        chosen = np.broadcast_to(chosen, (count, params.n))
    inputs = draws.inputs if inputs is None else np.broadcast_to(
        np.asarray(inputs, dtype=np.uint8), (count, params.n))
    state = phase1_transmit(params, draws, bob, inputs, chosen, strict_removal)
    phase2_challenge(state)
    announce_bases(state)
    for phase in (removal_phase, select_subsets, mask_bits, decode):
        if np.count_nonzero(state.status) < state.rows:  # some row is live
            phase(state)
    return state if batch else TrialOutcome(state)
