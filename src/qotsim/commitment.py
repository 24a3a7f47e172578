"""Weak bit commitment as an ideal functionality.

Commitments live in a session ledger: the receiver's view of an unopened
commitment is its id only, so hiding is perfect by construction, and honest
unveils always return the committed value (perfect binding).  Weakness is
injected solely through :class:`CheatModel`: a forged unveil goes undetected
with probability `p` and is rejected otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import RandomSource


class DoubleUnveilError(RuntimeError):
    """Raised when a commitment is unveiled more than once."""


@dataclass(frozen=True)
class CheatModel:
    """Probability p in (0,1) that a forged unveil goes undetected."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"cheat probability must be in (0,1), got {self.p}")


@dataclass
class CommitmentHandle:
    """Receiver-visible reference to one commitment: an id and an opened flag."""

    id: int
    opened: bool = field(default=False)

    def __repr__(self) -> str:  # never leak the committed value
        return f"CommitmentHandle(id={self.id}, opened={self.opened})"


class CommitmentSession:
    """Single-writer ledger of commitments, optionally row-batched.

    Values committed by :meth:`commit_many` with shape (T, k) open a ledger
    of T independent sessions that commit in lockstep: ids are columns,
    shared by every row, and :meth:`unveil_many` takes one id array per
    row.  A 1-D ledger is one session.
    """

    def __init__(self):
        self._ledger = np.empty(0, dtype=np.uint8)  # bit 0: value; bit 1: opened
        self._row_starts = None  # (T, 1) flat position of each row's id 0

    def __len__(self) -> int:
        """Commitments per session."""
        return self._ledger.shape[-1]

    def commit(self, value: int) -> CommitmentHandle:
        """Commit a bit; returns a fresh handle revealing nothing about it."""
        if value not in (0, 1):
            raise ValueError(f"committed value must be 0 or 1, got {value!r}")
        self.commit_many(np.array([value], dtype=np.uint8))
        return CommitmentHandle(id=len(self) - 1)

    def commit_many(self, values: np.ndarray) -> np.ndarray:
        """Bulk commit along the last axis; returns the array of fresh ids."""
        vals = np.asarray(values, dtype=np.uint8)
        if vals.size and vals.max() > 1:
            raise ValueError("committed values must be 0 or 1")
        base = len(self)
        self._row_starts = None
        self._ledger = vals.copy() if base == 0 else np.concatenate([self._ledger, vals], axis=-1)
        return np.arange(base, base + vals.shape[-1])

    def _open(self, cid: int) -> int:
        if self._ledger[cid] > 1:
            raise DoubleUnveilError(f"commitment {cid} already unveiled")
        self._ledger[cid] |= 2
        return int(self._ledger[cid] & 1)

    def unveil(self, handle: CommitmentHandle) -> tuple[int, bool]:
        """Honest unveil: returns (committed value, accepted=True)."""
        value = self._open(handle.id)
        handle.opened = True
        return value, True

    def unveil_id(self, cid: int) -> int:
        """Honest unveil by ledger id."""
        return self._open(int(cid))

    def unveil_many(self, cids: np.ndarray) -> np.ndarray:
        """Bulk honest unveil by ledger ids; a row-batched ledger takes one
        row of ids per session."""
        cids = np.asarray(cids, dtype=np.int64)
        cells = cids  # flat positions in the (contiguous) ledger
        if cids.ndim == 2:
            if self._row_starts is None:
                self._row_starts = len(self) * np.arange(self._ledger.shape[0])[:, None]
            cells = cids + self._row_starts[:cids.shape[0]]
        ledger = self._ledger.reshape(-1)
        entries = ledger[cells]
        opened = entries > 1
        if opened.any():
            raise DoubleUnveilError(f"commitments already unveiled: {cids[opened].tolist()}")
        ledger[cells] = entries | 2
        return entries  # bit 1 is clear: the committed values

    def cheat_unveil(
        self,
        handle: CommitmentHandle,
        forged: int,
        cheat: CheatModel,
        rng: RandomSource,
    ) -> tuple[int, bool]:
        """Forged unveil: accepted with probability `cheat.p`, else rejected.

        Requires `forged` to differ from the committed value (an equal value
        would be an honest unveil).  The commitment is consumed either way.
        """
        committed = self._open(handle.id)
        handle.opened = True
        if int(forged) == committed:
            raise ValueError("forged value equals committed value; use unveil()")
        accepted = rng.gen.random() < cheat.p
        return int(forged), bool(accepted)
