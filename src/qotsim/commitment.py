"""Bit commitment as an ideal functionality, over the committer's own arrays.

A session seals the values of T sessions run in lockstep, one row each, as
(T, k) arrays, and keeps the committer's arrays as given: no copy is made and
no second ledger is kept.  The receiver's view of a sealed value is its
position only, so hiding is perfect by construction, and an unveil returns
the sealed value (perfect binding).  The protocol's weakness, a forged
unveil that goes undetected with probability `p`, is not modelled here: it
is the commit-cheat strategy of :data:`qotsim.adversary.STRATEGIES`, which
draws each forgery's verdict.  Nothing here stops a value from being opened
twice; the engine never opens one position twice.
"""

from __future__ import annotations

from .params import np


class CommitmentSession:
    """Sealed (T, k) arrays, opened at flat positions ``t*k + column``."""

    __slots__ = ("_sealed",)

    def __init__(self):
        self._sealed: tuple[np.ndarray, ...] = ()

    def commit_many(self, values) -> None:
        """Seal `values`, a sequence of contiguous (T, k) arrays, as given."""
        self._sealed = tuple(values)

    def unveil_many(self, cids: np.ndarray) -> tuple[np.ndarray, ...]:
        """Open every sealed array at the flat positions `cids`: one array
        of values, shaped as `cids`, per sealed array."""
        return tuple(values.reshape(-1)[cids] for values in self._sealed)
