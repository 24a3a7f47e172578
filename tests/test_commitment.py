"""Commitment-ledger tests: binding, hiding, double unveil, forged unveils."""

import numpy as np
import pytest

from qotsim.adversary import commit_cheat_trials
from qotsim.channel import RandomSource
from qotsim.commitment import CommitmentSession, DoubleUnveilError
from qotsim.params import validate_params


def test_commit_unveil_round_trip():
    session = CommitmentSession()
    for value in (0, 1, 1, 0):
        ids = session.commit_many(np.array([value], dtype=np.uint8))
        assert session.unveil_many(ids).tolist() == [value]


def test_commit_rejects_non_bit():
    session = CommitmentSession()
    with pytest.raises(ValueError, match="0 or 1"):
        session.commit_many(np.array([2], dtype=np.uint8))
    with pytest.raises(ValueError, match="0 or 1"):
        session.commit_many(np.array([[0, 1], [2, 0]], dtype=np.uint8))
    assert len(session) == 0


def test_handle_repr_hides_value():
    """The receiver's handle on a commitment is its id, whatever the value."""
    ones = CommitmentSession().commit_many(np.ones((2, 3), dtype=np.uint8))
    zeros = CommitmentSession().commit_many(np.zeros((2, 3), dtype=np.uint8))
    assert repr(ones) == repr(zeros) == "array([0, 1, 2])"


def test_double_unveil_raises():
    session = CommitmentSession()
    ids = session.commit_many(np.array([0], dtype=np.uint8))
    session.unveil_many(ids)
    with pytest.raises(DoubleUnveilError):
        session.unveil_many(ids)


def test_unveil_many_round_trip_and_double_open():
    session = CommitmentSession()
    values = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    ids = session.commit_many(values)
    assert np.array_equal(session.unveil_many(ids[:3]), values[:3])
    with pytest.raises(DoubleUnveilError):
        session.unveil_many(ids[2:])
    assert np.array_equal(session.unveil_many(ids[3:]), values[3:])


def test_cheat_unveil_acceptance_rate_tracks_p():
    """The ledger has no forged unveil: the commit-cheat runner draws each
    forgery's verdict.  With one forgery per attack, (2,1,3), its pass
    rate is p."""
    p, trials = 0.3, 20000
    accepted = commit_cheat_trials(validate_params(2, 1, 3), p, trials, RandomSource(77))
    rate = accepted / trials
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(rate - p) <= 4 * sigma


def test_row_batched_ledger_unveils_each_row_and_guards_double_open():
    session = CommitmentSession()
    values = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    ids = session.commit_many(values)
    assert len(session) == 3 and ids.tolist() == [0, 1, 2]
    # each row opens its own ids
    assert session.unveil_many([[2], [0]]).tolist() == [[1], [1]]
    assert session.unveil_many([[0], [2]]).tolist() == [[0], [0]]
    with pytest.raises(DoubleUnveilError):
        session.unveil_many([[1], [2]])  # row 1 already opened id 2
