"""Commitment tests: unveils read the sealed arrays, and forged unveils."""

import numpy as np

from qotsim.adversary import commit_cheat_trials
from qotsim.channel import RandomSource
from qotsim.commitment import CommitmentSession
from qotsim.params import validate_params
from qotsim.protocol import draw_sessions, phase1_transmit, phase2_challenge


def test_commit_unveil_round_trip():
    bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    bases = 1 - bits
    session = CommitmentSession()
    session.commit_many((bits, bases))
    # each row opens its own positions, at t*k + column
    opened = session.unveil_many(np.array([[2, 0], [3, 4]]))
    assert [v.tolist() for v in opened] == [[[1, 0], [1, 0]], [[0, 1], [0, 1]]]


def test_engine_seals_the_kept_values_without_a_copy():
    params = validate_params(3, 1, 6)
    state = phase1_transmit(params, draw_sessions(params, RandomSource(4), 0, 16))
    phase2_challenge(state)
    cells = np.arange(state.rows * params.N).reshape(state.rows, params.N)
    unveiled_r, unveiled_beta = state.session.unveil_many(cells)
    assert np.array_equal(unveiled_r, state.r_bs)
    assert np.array_equal(unveiled_beta, state.beta_bs)
    # Bob's survivor-slot arrays themselves are sealed
    sealed = state.session._sealed
    assert sealed[0] is state.r_bs and sealed[1] is state.beta_bs


def test_cheat_unveil_acceptance_rate_tracks_p():
    """The session has no forged unveil: the commit-cheat runner draws each
    forgery's verdict.  With one forgery per attack, (2,1,3), its pass
    rate is p."""
    p, trials = 0.3, 20000
    accepted = commit_cheat_trials(validate_params(2, 1, 3), p, trials, RandomSource(77))
    rate = accepted / trials
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(rate - p) <= 4 * sigma
