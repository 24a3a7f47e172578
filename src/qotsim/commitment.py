"""Bit commitment as an ideal functionality: the batch ledger.

Commitments live in a session ledger: the receiver's view of an unopened
commitment is its id only, so hiding is perfect by construction, and honest
unveils always return the committed value (perfect binding).  The protocol's
weakness, a forged unveil that goes undetected with probability `p`, is not
modelled here: it is the commit-cheat strategy of
:data:`qotsim.adversary.STRATEGIES`, which draws each forgery's verdict.
"""

from __future__ import annotations

import numpy as np


class DoubleUnveilError(RuntimeError):
    """Raised when a commitment is unveiled more than once."""


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

    def commit_many(self, values: np.ndarray) -> np.ndarray:
        """Bulk commit along the last axis; returns the array of fresh ids."""
        vals = np.asarray(values, dtype=np.uint8)
        if vals.size and vals.max() > 1:
            raise ValueError("committed values must be 0 or 1")
        base = len(self)
        self._row_starts = None
        self._ledger = vals.copy() if base == 0 else np.concatenate([self._ledger, vals], axis=-1)
        return np.arange(base, base + vals.shape[-1])

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
