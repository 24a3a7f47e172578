"""Commitment-ledger tests: binding, hiding, double-unveil, cheat model."""

import numpy as np
import pytest

from qotsim.channel import RandomSource
from qotsim.commitment import (
    CheatModel,
    CommitmentSession,
    DoubleUnveilError,
)


def test_commit_unveil_round_trip():
    session = CommitmentSession()
    for value in (0, 1, 1, 0):
        handle = session.commit(value)
        unveiled, accepted = session.unveil(handle)
        assert (unveiled, accepted) == (value, True)


def test_commit_rejects_non_bit():
    with pytest.raises(ValueError):
        CommitmentSession().commit(2)
    session = CommitmentSession()
    with pytest.raises(ValueError, match="0 or 1"):
        session.commit_many(np.array([[0, 1], [2, 0]], dtype=np.uint8))
    assert len(session) == 0


def test_handle_repr_hides_value():
    session = CommitmentSession()
    handle = session.commit(1)
    assert "1" not in repr(handle).replace("id=0", "")
    assert repr(handle) == "CommitmentHandle(id=0, opened=False)"


def test_double_unveil_raises():
    session = CommitmentSession()
    handle = session.commit(0)
    session.unveil(handle)
    with pytest.raises(DoubleUnveilError):
        session.unveil_id(handle.id)


def test_unveil_many_round_trip_and_double_open():
    session = CommitmentSession()
    values = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    ids = session.commit_many(values)
    assert np.array_equal(session.unveil_many(ids[:3]), values[:3])
    with pytest.raises(DoubleUnveilError):
        session.unveil_many(ids[2:])
    assert np.array_equal(session.unveil_many(ids[3:]), values[3:])


def test_cheat_model_validates_probability():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            CheatModel(bad)
    assert CheatModel(0.5).p == 0.5


def test_cheat_unveil_requires_forged_value():
    session = CommitmentSession()
    handle = session.commit(1)
    with pytest.raises(ValueError):
        session.cheat_unveil(handle, 1, CheatModel(0.5), RandomSource(0))


def test_cheat_unveil_consumes_commitment():
    session = CommitmentSession()
    handle = session.commit(1)
    session.cheat_unveil(handle, 0, CheatModel(0.5), RandomSource(0))
    with pytest.raises(DoubleUnveilError):
        session.unveil_id(handle.id)


def test_cheat_unveil_acceptance_rate_tracks_p():
    rng = RandomSource(77)
    p = 0.3
    trials = 20000
    accepted = 0
    session = CommitmentSession()
    for _ in range(trials):
        handle = session.commit(0)
        _, ok = session.cheat_unveil(handle, 1, CheatModel(p), rng)
        accepted += ok
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
