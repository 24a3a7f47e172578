"""Idealized BB84 photon channel, batched, and its random numbers.

A classical bit is encoded in one of two conjugate polarization bases.
Measuring in the emission basis reproduces the bit exactly (the channel is
noiseless); measuring in the other basis yields an unbiased coin, which
:func:`transmit_batch` takes from the caller's draws.  Every Philox is set
to its key and counter, as the words of ``np.random.Philox(key=key)``
without the OS-entropy ``SeedSequence`` numpy would build and discard.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .params import _is_integer


_scratch_philox = functools.cache(lambda: np.random.Philox(0))  # every block's, built on first use


def _keyed(philox: np.random.Philox, key: np.ndarray, counter: int) -> np.random.Philox:
    """`philox` set to a fresh generator's state at `key` and 256-bit `counter`."""
    words = [counter >> k & 2**64 - 1 for k in (0, 64, 128, 192)]  # the setter reads any sequence
    philox.state = {"bit_generator": "Philox", "state": {"counter": words, "key": key},
                    "buffer": words, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return philox


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
    separate sequential generator (:meth:`bits`); a single one must not be
    shared across concurrent consumers.  The seed is an int or a numpy
    integer (not a bool) that fits in a signed 64-bit word.
    """

    __slots__ = ("seed", "_digest", "_gen")

    def __init__(self, seed: int, _digest: bytes | None = None):
        if not _is_integer(seed):
            raise ValueError(f"seed must be an int, got {seed!r}")
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
            self._gen = np.random.Generator(_keyed(np.random.Philox(0), self.key, 0))
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

        `width`, `start` and `count` are ints (or numpy integers) >= 0, and
        `width` is a multiple of 4, so that row `start` begins at counter
        `start*width//4`, which :func:`_keyed` sets.
        """
        for name, value in (("width", width), ("start", start), ("count", count)):
            if not (_is_integer(value) and value >= 0):
                raise ValueError(f"block {name} must be an int >= 0, got {value!r}")
        if width % 4:
            raise ValueError(f"block width must be a multiple of 4, got {width}")
        philox = _scratch_philox()
        with philox.lock:  # the process-wide Philox, shared by every stream
            _keyed(philox, self.key, int(start) * width // 4)  # its counter steps over 4 words
            return philox.random_raw(count * width).reshape(count, width)

    def bits(self, count: int) -> np.ndarray:
        """The next `count` fair coin flips of :attr:`gen`, as a uint8 array."""
        return self.gen.integers(0, 2, size=count).astype(np.uint8)


def transmit_batch(
    bits: np.ndarray,
    bases_sender: np.ndarray,
    bases_receiver: np.ndarray,
    coins: np.ndarray,
) -> np.ndarray:
    """Vectorized send/measure of a batch of photons, of any shape.

    Bases are given as 0/1 arrays (0 = rectilinear, 1 = diagonal).  `coins`
    holds the fair coin each photon yields if it is measured in the other
    basis: position i is ``bits[i]`` where the two bases agree, else
    ``coins[i]``.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    coins = np.asarray(coins, dtype=np.uint8)
    mismatch = np.asarray(bases_sender, dtype=np.uint8) ^ np.asarray(
        bases_receiver, dtype=np.uint8)
    return bits ^ ((bits ^ coins) & mismatch)
