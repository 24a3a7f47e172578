"""A scalar reference for the protocol's seven steps, one session at a time.

Straight-line Python over one row of a :class:`qotsim.protocol.Draws`: a
loop over photon indices, survivor slots and labels, families as Python
sets.  It checks the batched engine row by row.  The one rule it shares with
the engine is the order of slots by their keys (:func:`key_order`); each
step, each of Alice's checks, the per-photon rule and each Bob are written
here anew from the steps in ``protocol.py``'s docstring:

(1) Alice sends 2N photons and Bob measures each; (2) Bob commits to every
measured bit and basis, Alice challenges one index of each (i, N+i) pair and
keeps the other as survivor slot i; (3) Alice announces her bases; (4) Bob
unveils and removes x slots; (5) Bob announces n disjoint subsets of size
(N-x)/n covering the survivors; (6) Alice masks each input bit with her
raw-bit parity over its subset; (7) Bob unmasks with his own parities.

Index j of the 2N is pair i = j mod N, half h = j div N.  Bob commits to it
as ids 4i + 2h (bit) and 4i + 2h + 1 (basis).  With Alice's coin d_i the
challenged index of pair i is i + N d_i, and survivor slot i keeps index
i + N (1 - d_i).  A status is the value of its ``qotsim.protocol.Status``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from qotsim.params import Case, ProtocolParams
from qotsim.protocol import Draws

COMPLETED = "completed"
SHORT = "abort_insufficient_matches"
CHEAT = "abort_cheat_detected"
INVALID = "abort_invalid_message"


def measure(bit: int, basis_sent: int, basis_measured: int, coin: int) -> int:
    """One photon: the bit if the bases match, else the coin."""
    return bit if basis_sent == basis_measured else coin


def key_order(keys: list[int], eligible: list[bool] | None = None) -> list[int]:
    """Slots 0..W-1 of one row of W uint64 keys, sorted on (top 64 - b bits
    of the key, slot), b = ceil(log2 W).  With `eligible`, the eligible slots
    come first, all-ones top bits ranking with the next-lower value, then the
    other slots by slot."""
    b = (len(keys) - 1).bit_length()
    if eligible is None:
        return [c for _, c in sorted([(key >> b, c) for c, key in enumerate(keys)])]
    top = 2 ** (64 - b) - 2
    first = sorted([(min(key >> b, top), c) for c, key in enumerate(keys) if eligible[c]])
    return [c for _, c in first] + [c for c, ok in enumerate(eligible) if not ok]


class Row(NamedTuple):
    """One row of a :class:`Draws` as Python ints: a per-index draw is a
    list over the 2N indices, a key a list over slots."""

    inputs: list
    r: list
    beta: list
    beta_b: list
    coin: list
    d: list
    choice_keys: list
    removal_keys: list
    family_keys: list


def rows(draws: Draws) -> list[Row]:
    """Every row of `draws`."""
    count = draws.d.shape[0]
    per_index = [a.transpose(1, 0, 2).reshape(count, -1).tolist()
                 for a in (draws.r, draws.beta, draws.beta_b, draws.coin)]
    return [Row(*values) for values in zip(
        draws.inputs.tolist(), *per_index, draws.d.tolist(), draws.choice_keys.tolist(),
        draws.removal_keys.tolist(), draws.family_keys.tolist())]


class Trial:
    """What Bob's hooks see of a session: the params, the row's draws, his
    chosen labels, then the survivor slots' basis matches (step 3) and the
    removed slots (step 4)."""

    def __init__(self, params: ProtocolParams, row: Row):
        self.params, self.row = params, row
        self.chosen = set(key_order(row.choice_keys)[:params.m])
        self.match: list[bool] = []
        self.removed: set[int] = set()

    def survivors(self) -> list[int]:
        return [i for i in range(self.params.N) if i not in self.removed]


@dataclass
class Session:
    """How one session ended: its status and the step it aborted at (0 if it
    completed); the removed slots; the claimed labels of a session that
    reached step 5; the family (sorted subsets) and every label's unmasked
    bit of a completed one.  The rest is what its messages carried, which
    :meth:`records` writes out."""

    status: str = COMPLETED
    aborted_at: int = 0
    removed: tuple = ()
    claimed: tuple | None = None
    family: tuple | None = None
    recovered: tuple | None = None
    d: list = field(default_factory=list)  # Alice's challenge coins
    committed: dict = field(default_factory=dict)  # id: Bob's committed value
    bases: list | None = None  # Alice's survivor bases, from step 3
    masked: list | None = None  # Alice's masked bits, from step 6

    def fields(self) -> tuple:
        return (self.status, self.aborted_at, self.removed, self.claimed, self.family,
                self.recovered)

    def records(self) -> list[dict]:
        """The transcript: one {"seq", "step", "from", "kind", "payload"} per
        message, in order, up to the session's end."""
        N, out = len(self.d), []

        def send(step, sender, kind, **payload):
            out.append({"seq": len(out), "step": step, "from": sender, "kind": kind,
                        "payload": payload})

        def unveil(step, cid):
            for c in (cid, cid + 1):
                send(step, "B", "unveil", id=c, value=self.committed[c], verdict="accepted")

        for j in range(2 * N):
            send(1, "A", "photon", index=j)
        for cid in range(4 * N):
            send(2, "B", "commit", id=cid)
        for i, d in enumerate(self.d):
            send(2, "A", "challenge", i=i, d=d)
            unveil(2, 4 * i + 2 * d)
        if self.bases is not None:
            send(3, "A", "bases", bases=self.bases)
            for i in self.removed:
                unveil(4, 4 * i + 2 * (1 - self.d[i]))
        if self.family is not None:
            send(5, "B", "subsets", subsets=[list(f) for f in self.family])
            send(6, "A", "masked_bits", bits=self.masked)
        return out

    def to_jsonl(self) -> bytes:
        return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                       for r in self.records()).encode("utf-8")


def run_session(params: ProtocolParams, row: Row, bob: HonestBob,
                strict_removal: bool = False) -> Session:
    """One session of `row` against `bob`, with inputs and chosen labels
    drawn from the row; `strict_removal` is Alice's strict step-4 check."""
    n, N, x, s = params.n, params.N, params.x, params.subset_size
    trial = Trial(params, row)
    out = Session(d=row.d)

    def abort(status, step):
        out.status, out.aborted_at = status, step
        return out

    # step 1
    if bob.measures:
        bob_r = [measure(*photon) for photon in zip(row.r, row.beta, row.beta_b, row.coin)]
    else:
        bob_r = row.coin

    # step 2
    committed = out.committed
    for j in range(2 * N):
        cid = 4 * (j % N) + 2 * (j // N)
        committed[cid], committed[cid + 1] = bob_r[j], row.beta_b[j]
    kept, caught = [], False
    for i, d in enumerate(row.d):
        challenged, cid = i + N * d, 4 * i + 2 * d
        if committed[cid + 1] == row.beta[challenged] and committed[cid] != row.r[challenged]:
            caught = True
        kept.append(i + N * (1 - d))
    if caught:
        return abort(CHEAT, 2)

    # step 3
    alice_r = [row.r[j] for j in kept]
    out.bases = alice_beta = [row.beta[j] for j in kept]
    trial.match = [alice_beta[i] == row.beta_b[kept[i]] for i in range(N)]

    # step 4
    if x:
        pool = [bool(v) for v in bob.removal_pool(trial)]
        if sum(pool) < x:
            return abort(SHORT, 4)
        out.removed = tuple(sorted(key_order(row.removal_keys, pool)[:x]))
        trial.removed = set(out.removed)
        bad = False
        for i in out.removed:
            cid = 4 * i + 2 * (1 - row.d[i])
            bit, basis = committed[cid], committed[cid + 1]
            if params.case is Case.LOW:
                bad |= basis == alice_beta[i] and bit != alice_r[i]
                bad |= strict_removal and basis != alice_beta[i]
            else:
                bad |= basis == alice_beta[i]
        if bad:
            return abort(CHEAT, 4)

    # step 5
    family, claimed = bob.build_family(trial)
    out.claimed = tuple(sorted(claimed))
    survivors = trial.survivors()
    if sum(trial.match[i] for i in survivors) < len(claimed) * s:
        return abort(SHORT, 5)
    if len(family) != n or any(len(f) != s for f in family):
        return abort(INVALID, 5)
    # a slot is an int; a float, even 3.0, or a bool is not one
    if not all(isinstance(i, int) and not isinstance(i, bool) for f in family for i in f):
        return abort(INVALID, 5)
    # n subsets of s slots cover the n * s survivors iff each is in exactly one
    if set().union(*map(set, family)) != set(survivors):
        return abort(INVALID, 5)
    out.family = tuple(tuple(sorted(f)) for f in family)

    # step 6
    out.masked = [row.inputs[label] ^ sum(alice_r[i] for i in out.family[label]) % 2
                  for label in range(n)]

    # step 7
    out.recovered = tuple(out.masked[label] ^ sum(bob_r[kept[i]] for i in out.family[label]) % 2
                          for label in range(n))
    return out


# ---------------------------------------------------------------------------
# Bobs: one session's hooks.  removal_pool gives one bool per survivor slot;
# build_family gives (n lists of slots, the set of claimed labels).
# ---------------------------------------------------------------------------

def legal_family(trial: Trial, targets: set[int], keys: list[int]):
    """The target labels, ascending, take the surviving matches in order of
    the first N `keys`, s at a time; the other labels, ascending, take the
    other survivors in order of the last N.  Short of matches, the targets'
    subsets hold other slots."""
    params, removed = trial.params, trial.removed
    n, s, N = params.n, params.subset_size, params.N
    usable = [trial.match[i] and i not in removed for i in range(N)]
    picked = key_order(keys[:N], usable)[:len(targets) * s]
    taken = set(picked)
    rest = key_order(keys[N:], [i not in removed and i not in taken for i in range(N)])
    family = [None] * n
    for k, label in enumerate(sorted(targets)):
        family[label] = picked[k * s:(k + 1) * s]
    for k, label in enumerate(label for label in range(n) if label not in targets):
        family[label] = rest[k * s:(k + 1) * s]
    return family, set(targets)


class HonestBob:
    """Measures every photon, removes slots of the over-represented kind and
    fills his chosen labels' subsets with matches."""

    measures = True

    def removal_pool(self, trial):
        low = trial.params.case is Case.LOW
        return [match == low for match in trial.match]

    def build_family(self, trial):
        return legal_family(trial, trial.chosen, trial.row.family_keys)


class GreedyBob(HonestBob):
    """Also claims the lowest unchosen label when the surviving matches fill
    m + 1 subsets."""

    def build_family(self, trial):
        params, targets = trial.params, set(trial.chosen)
        if sum(trial.match[i] for i in trial.survivors()) >= (params.m + 1) * params.subset_size:
            targets.add(min(set(range(params.n)) - targets))
        return legal_family(trial, targets, trial.row.family_keys)


class DishonestRemovalBob(GreedyBob):
    """Low case: removes mismatches, keeping every match for his subsets."""

    def removal_pool(self, trial):
        return [not match for match in trial.match]


class PostponeBob(HonestBob):
    """Commits to his coins without measuring; honest after that."""

    measures = False


class LeakyBob(HonestBob):
    """Orders slots by number, not by his keys."""

    def build_family(self, trial):
        return legal_family(trial, trial.chosen, list(range(trial.params.N)) * 2)


class RepeatingBob(HonestBob):
    """Announces his first subset n times."""

    def build_family(self, trial):
        family, claimed = super().build_family(trial)
        return [family[0]] * len(family), claimed


class FloatSlotBob(HonestBob):
    """Sends his honest family with every slot as a float."""

    def build_family(self, trial):
        family, claimed = super().build_family(trial)
        return [[float(i) for i in f] for f in family], claimed


class OutOfRangeBob(HonestBob):
    """Names slot N in place of his first subset's first slot where d_0 is
    1, else slot -1 where d_1 is 1, else sends the honest family."""

    def build_family(self, trial):
        family, claimed = super().build_family(trial)
        d = trial.row.d
        if d[0] or d[1]:
            family[0] = [trial.params.N if d[0] else -1, *family[0][1:]]
        return family, claimed
