"""
One honest session, step by step
================================

Alice holds n input bits; Bob wants m of them without revealing which.
The session runs the seven protocol steps over 2N photons: transmit,
commit-and-challenge, basis announcement, removal, subset announcement,
masking, and decoding.  The transcript records every message either party
sends, and each party's view contains only the messages addressed to it.
"""

import json

from qotsim import Status, run_protocol, validate_params

params = validate_params(3, 1, 6)
print(f"n={params.n} m={params.m} N={params.N} "
      f"case={params.case.value} x={params.x} subset size={params.subset_size}")

###############################################################################
# Alice's bits and Bob's (secret) choice.  With seed 5 this session completes.

alice_bits = (1, 0, 1)
bob_choice = (2,)
outcome = run_protocol(params, alice_bits, bob_choice, seed=5)

print("\nstatus:      ", outcome.status.value)
print("recovered:   ", outcome.recovered)
print("ground truth:", {c: alice_bits[c - 1] for c in bob_choice})

###############################################################################
# What Alice saw.  The announced family of subsets is all she learns about
# Bob's choice -- and it is placed uniformly, so it tells her nothing.

detail = outcome.detail
print("\nsurvivor basis matches:", detail["matches"], "of", params.N)
print("announced subsets:     ", [f.tolist() for f in detail["family"]])
print("all-matching labels:   ", detail["all_matching_labels"])

###############################################################################
# The transcript: message counts per step, and the first few records.

t = outcome.transcript
by_step = {}
for rec in t.records:
    by_step[rec["step"]] = by_step.get(rec["step"], 0) + 1
print("\nmessages per step:", by_step)
for rec in t.records[12:16]:
    print(json.dumps(rec))

###############################################################################
# Commitments hide Bob's measurements until he unveils them: Alice's view of
# step 2 is ids only, never values.

# Alice receives what Bob sends: the records from "B".
commits = [r for r in t.records if r["from"] == "B" and r["kind"] == "commit"]
print("\nfirst commit message Alice saw:", commits[0])

###############################################################################
# Not every session completes: when too few bases match, Bob cannot build
# his all-matching subsets and the run aborts.  Over many seeds the abort
# rate approaches the exact binomial value 7/64.

aborts = sum(
    run_protocol(params, alice_bits, bob_choice, seed).status
    is Status.ABORT_INSUFFICIENT_MATCHES
    for seed in range(2000)
)
print(f"\nabort rate over 2000 seeds: {aborts / 2000:.4f}  (exact: {7 / 64:.4f})")
