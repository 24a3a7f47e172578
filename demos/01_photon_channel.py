"""
Conjugate-coding photon channel basics
======================================

A classical bit rides on a photon polarized in one of two conjugate bases.
Whoever measures in the emission basis reads the bit perfectly; measuring
in the other basis returns a fair coin and destroys the photon.  This
asymmetry is the entire physical resource the transfer protocol builds on.
"""

import numpy as np

from qotsim import Basis, RandomSource, encode, measure
from qotsim.channel import transmit_batch

rng = RandomSource(seed=1)

###############################################################################
# One photon at a time.  Matching the basis always recovers the bit.

photon = encode(1, Basis.DIAGONAL)
print("measured in the emission basis:", measure(photon, Basis.DIAGONAL, rng))

photon = encode(1, Basis.DIAGONAL)
print("measured in the wrong basis:   ", measure(photon, Basis.RECTILINEAR, rng))

###############################################################################
# A photon is consumed by its first measurement; a second read is an error.

photon = encode(0, Basis.RECTILINEAR)
measure(photon, Basis.RECTILINEAR, rng)
try:
    measure(photon, Basis.RECTILINEAR, rng)
except Exception as err:
    print("second measurement:", type(err).__name__)

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
