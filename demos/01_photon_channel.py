"""
Conjugate-coding photon channel basics
======================================

A classical bit rides on a photon polarized in one of two conjugate bases.
Whoever measures in the emission basis reads the bit perfectly; measuring
in the other basis returns a fair coin.  This asymmetry is the entire
physical resource the transfer protocol builds on.  The channel is batched:
each photon is a position of an array, and the coin a mismatched photon
yields is handed in with it.
"""

import numpy as np

from qotsim import RandomSource
from qotsim.channel import transmit_batch

rng = RandomSource(seed=1)
RECTILINEAR, DIAGONAL = 0, 1

###############################################################################
# Eight photons carrying bit 1 in the diagonal basis.  Matching the basis
# always recovers the bit; the other basis gives each photon's coin.

bits = np.ones(8, dtype=np.uint8)
sent = np.full(8, DIAGONAL)
coins = rng.bits(8)
print("measured in the emission basis:", transmit_batch(bits, sent, sent, coins))
print("measured in the wrong basis:   ",
      transmit_batch(bits, sent, np.full(8, RECTILINEAR), coins))

###############################################################################
# In bulk: send 100k photons with independently random bases on both ends.
# Agreement is exact where the bases match and a coin flip where they don't.

count = 100_000
bits = rng.bits(count)
bases_a = rng.bits(count)
bases_b = rng.bits(count)
received = transmit_batch(bits, bases_a, bases_b, rng.stream("bulk").bits(count))

match = bases_a == bases_b
print(f"\nbasis match rate:          {match.mean():.4f}  (expected 0.5)")
print(f"agreement when matching:   {(received[match] == bits[match]).mean():.4f}")
print(f"agreement when mismatched: {(received[~match] == bits[~match]).mean():.4f}")

###############################################################################
# The random source is a tree of named streams: the same seed and path always
# replays the same draws, and distinct paths are independent.

a = RandomSource(7).stream("alice").bits(8)
b = RandomSource(7).stream("alice").bits(8)
c = RandomSource(7).stream("bob").bits(8)
print("\nreplayed stream equal:", np.array_equal(a, b))
print("sibling stream equal: ", np.array_equal(a, c))
