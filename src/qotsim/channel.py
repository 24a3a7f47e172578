"""Idealized BB84 photon channel.

A classical bit is encoded in one of two conjugate polarization bases.
Measuring in the emission basis reproduces the bit exactly (the channel is
noiseless); measuring in the other basis yields an unbiased coin.  Photons
are classical records with a consumed flag: each admits exactly one
measurement, and a second measurement is a hard error.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Basis(Enum):
    """Photon polarization basis: rectilinear (H/V) or diagonal (+/-45 deg)."""

    RECTILINEAR = 0
    DIAGONAL = 1


class PhotonReuseError(RuntimeError):
    """Raised when a photon is measured more than once (simulator misuse)."""


@dataclass
class Photon:
    """A single polarized photon in transit: the encoded bit and its basis."""

    bit: int
    basis: Basis
    _consumed: bool = field(default=False, repr=False, compare=False)


class RandomSource:
    """Deterministic random source: a Philox key with named sub-streams.

    The key is a keyed-hash (blake2b) chain over the seed and the stream
    path, so the same (seed, path) always yields the same numbers and
    distinct names yield independent keys.

    Monte Carlo sessions use counter-addressed blocks of the key's stream
    (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11):
    trial k owns the `width` uint64 words that start at word k*width, so
    :meth:`block` returns the same row for trial k whichever batch it is
    drawn in, and no generator is built per trial.  :attr:`gen` is a
    separate sequential generator for scalar draws (:meth:`bit`,
    :meth:`bits`); a single one must not be shared across concurrent
    consumers.  The seed must fit in a signed 64-bit word.
    """

    __slots__ = ("seed", "_digest", "_gen")

    def __init__(self, seed: int, _digest: bytes | None = None):
        self.seed = int(seed)
        if not -2**63 <= self.seed < 2**63:
            raise ValueError(f"seed must be in [-2**63, 2**63 - 1], got {self.seed}")
        if _digest is None:
            _digest = hashlib.blake2b(
                self.seed.to_bytes(8, "little", signed=True), digest_size=16
            ).digest()
        self._digest = _digest
        self._gen = None

    @property
    def key(self) -> np.ndarray:
        return np.frombuffer(self._digest, dtype=np.uint64)

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self.key))
        return self._gen

    def stream(self, name: str) -> "RandomSource":
        """Derive an independent named sub-stream."""
        digest = hashlib.blake2b(
            name.encode("utf-8"), digest_size=16, key=self._digest
        ).digest()
        return RandomSource(self.seed, digest)

    def block(self, width: int, start: int, count: int) -> np.ndarray:
        """Rows `start` .. `start+count-1` of the key's stream cut into rows
        of `width` uint64 words, as a (count, width) array.

        `width` must be a multiple of 4: Philox's counter steps over 4
        words, so :meth:`numpy.random.Philox.advance` can seek to row
        `start` exactly.
        """
        if width % 4:
            raise ValueError(f"block width must be a multiple of 4, got {width}")
        philox = np.random.Philox(key=self.key).advance(int(start) * width // 4)
        return philox.random_raw(count * width).reshape(count, width)

    def bit(self) -> int:
        """One fair coin flip."""
        return int(self.gen.integers(0, 2))

    def bits(self, count: int) -> np.ndarray:
        """`count` fair coin flips as a uint8 array.

        Drawn at the generator's native width so a batch of `count` consumes
        the stream exactly as `count` calls to :meth:`bit` would.
        """
        return self.gen.integers(0, 2, size=count).astype(np.uint8)


def encode(r: int, basis: Basis) -> Photon:
    """Encode bit `r` as a photon polarized in `basis`."""
    if r not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {r!r}")
    return Photon(bit=int(r), basis=basis)


def measure(photon: Photon, basis: Basis, rng: RandomSource) -> int:
    """Measure a photon in `basis`, consuming it.

    Matching basis reproduces the encoded bit; a mismatched basis yields an
    uncorrelated fair coin.  Measuring a photon twice raises
    :class:`PhotonReuseError`.
    """
    if photon._consumed:
        raise PhotonReuseError("photon already measured")
    photon._consumed = True
    if basis is photon.basis:
        return photon.bit
    return rng.bit()


def transmit_batch(
    bits: np.ndarray,
    bases_sender: np.ndarray,
    bases_receiver: np.ndarray,
    coins: np.ndarray,
) -> np.ndarray:
    """Vectorized send/measure of a batch of photons, of any shape.

    Bases are given as 0/1 arrays (0 = rectilinear, 1 = diagonal).  `coins`
    holds the fair coin each photon yields if it is measured in the other
    basis, so position i gives what :func:`measure` gives for photon i with
    a source whose next bit is ``coins[i]``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    coins = np.asarray(coins, dtype=np.uint8)
    mismatch = np.asarray(bases_sender, dtype=np.uint8) ^ np.asarray(
        bases_receiver, dtype=np.uint8)
    return bits ^ ((bits ^ coins) & mismatch)
