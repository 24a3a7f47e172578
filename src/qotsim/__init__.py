"""qotsim: quantum m-out-of-n oblivious transfer simulator and analysis toolkit.

The package simulates the full protocol between honest or adversarial
parties over an idealized BB84 photon channel, computes the associated
concentration bounds, and verifies correctness and privacy claims by
Monte Carlo experiments checked against exact binomial oracles.
"""

__version__ = "0.1.0"

from .channel import RandomSource
from .commitment import CommitmentSession
from .params import (
    BoundReport,
    ProtocolParams,
    build_bound_report,
    commitment_attack_bound,
    compute_x,
    correctness_epsilon,
    hoeffding_bound,
    min_N,
    privacy_epsilon,
    smallest_valid_N,
    target_rate,
    validate_params,
)
from .protocol import Status, TrialOutcome, run_protocol
from .adversary import Strategy, run_with_adversary

__all__ = [
    "BoundReport",
    "CommitmentSession",
    "ProtocolParams",
    "RandomSource",
    "Status",
    "Strategy",
    "TrialOutcome",
    "build_bound_report",
    "commitment_attack_bound",
    "compute_x",
    "correctness_epsilon",
    "hoeffding_bound",
    "min_N",
    "privacy_epsilon",
    "run_protocol",
    "run_with_adversary",
    "smallest_valid_N",
    "target_rate",
    "validate_params",
]
