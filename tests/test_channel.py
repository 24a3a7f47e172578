"""Channel-layer tests: basis physics of the batched channel, RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qotsim.channel import RandomSource, transmit_batch
from qotsim.params import validate_params
from qotsim.protocol import draw_sessions


def test_matching_basis_reproduces_bit_exactly():
    """Every bit in either basis, whatever its coin."""
    bits, bases, coins = np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).reshape(3, -1)
    assert np.array_equal(transmit_batch(bits, bases, bases, coins), bits)


def test_mismatched_basis_is_fair_coin():
    """Bob's step-1 reading of a session's photons measured in the other
    basis: each is the photon's coin, and half of them miss Alice's bit."""
    draws = draw_sessions(validate_params(4, 1, 40), RandomSource(11), 0, 100)
    received = transmit_batch(draws.r, draws.beta, draws.beta_b, draws.coin)
    mismatched = draws.beta != draws.beta_b
    assert np.array_equal(received[mismatched], draws.coin[mismatched])
    rate = (received[mismatched] != draws.r[mismatched]).mean()
    assert 0.45 < rate < 0.55


def test_random_source_deterministic():
    a = RandomSource(42).bits(100)
    b = RandomSource(42).bits(100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 10**23])
def test_random_source_seed_must_fit_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[-2\*\*63, 2\*\*63 - 1\]"):
        RandomSource(seed)


def test_block_start_may_be_a_numpy_integer():
    rng = RandomSource(1)
    assert np.array_equal(rng.block(8, np.int64(3), 2), rng.block(8, 3, 2))


def test_block_is_the_key_streams_words_from_row_start():
    """Each block is the words that a fresh Philox of the key, advanced to
    row `start`, gives, also past a 64-bit counter, and whatever the source
    drew before."""
    rng = RandomSource(11).stream("trials")
    for width, start, count in [(4, 0, 1), (8, 5, 3), (132, 10**6, 2), (900, 7, 0),
                                (4, 2**64 + 3, 2), (8, 2**70, 1), (132, 1, 4)]:
        expected = np.random.Philox(key=rng.key).advance(start * width // 4)
        block = rng.block(width, start, count)
        assert block.shape == (count, width)
        assert np.array_equal(block.ravel(), expected.random_raw(count * width))
    fresh = RandomSource(11).stream("trials").block(8, 5, 3)
    rng.block(8, 10**6, 2)
    assert np.array_equal(rng.block(8, 5, 3), fresh)


@pytest.mark.parametrize("width, start, count", [
    (4, 0, 0), (4, 10**6, 300), (8, 3, 1), (24, 12_345, 100), (60, 999_999, 17),
    (132, 0, 300), (132, 10**6, 2),
])
def test_block_and_gen_are_the_philox_of_the_key(width, start, count):
    """Each Philox is built from the key alone, with the words numpy's
    ``Philox(key=key)`` gives: a block from row `start` on, and the
    sequential generator's draws."""
    rng = RandomSource(17).stream("trials")
    expected = np.random.Philox(key=rng.key).advance(start * width // 4)
    assert np.array_equal(rng.block(width, start, count).ravel(),
                          expected.random_raw(count * width))
    reference = np.random.Generator(np.random.Philox(key=rng.key))
    assert np.array_equal(rng.gen.integers(0, 2**62, size=count),
                          reference.integers(0, 2**62, size=count))


def test_random_numbers_draw_no_os_entropy(monkeypatch):
    """A Philox given its key draws no OS entropy for a seed it would
    discard: with numpy's entropy source made to raise, blocks, bits and a
    whole experiment still run."""
    import numpy.random.bit_generator as bit_generator

    from qotsim.harness import ExperimentConfig, run_experiment

    def refuse(*args, **kwargs):
        raise AssertionError("OS entropy drawn")

    monkeypatch.setattr(bit_generator, "randbits", refuse)
    rng = RandomSource(5).stream("x")
    assert rng.block(8, 3, 2).shape == (2, 8)
    assert rng.bits(5).shape == (5,)
    assert run_experiment(ExperimentConfig(n=3, m=1, N=6, trials=50, seed=2)).trials == 50


@pytest.mark.parametrize("seed", [1.5, "7", True, None])
def test_random_source_seed_must_be_an_int(seed):
    """A float, str or bool is refused, not truncated or parsed into a seed."""
    with pytest.raises(ValueError, match=f"seed must be an int, got {seed!r}"):
        RandomSource(seed)


def test_random_source_seed_may_be_a_numpy_integer():
    assert RandomSource(np.int64(7)).seed == 7
    assert np.array_equal(RandomSource(np.uint32(7)).block(8, 0, 2),
                          RandomSource(7).block(8, 0, 2))


@pytest.mark.parametrize("start, count, name", [
    (-1, 2, "start"), (0, -1, "count"), (np.int64(-3), 1, "start"),
    (1.5, 2, "start"), (0, 2.0, "count"), (True, 2, "start"), (0, True, "count"),
])
def test_block_refuses_a_start_or_count_that_is_not_an_int_at_least_0(start, count, name):
    with pytest.raises(ValueError, match=f"block {name} must be an int >= 0"):
        RandomSource(1).block(8, start, count)


@pytest.mark.parametrize("width", [-4, 4.0, True])
def test_block_refuses_a_width_that_is_not_an_int_at_least_0(width):
    """Checked with start and count, before numpy or the counter arithmetic sees it."""
    with pytest.raises(ValueError, match="block width must be an int >= 0"):
        RandomSource(1).block(width, 0, 2)


def test_random_source_streams_differ():
    root = RandomSource(42)
    a = root.stream("alice").bits(100)
    b = root.stream("bob").bits(100)
    assert not np.array_equal(a, b)


def test_random_source_stream_path_deterministic():
    a = RandomSource(5).stream("x").stream("y").bits(32)
    b = RandomSource(5).stream("x").stream("y").bits(32)
    assert np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=-(2**31), max_value=2**31),
    size=st.integers(min_value=0, max_value=64),
    data=st.data(),
)
def test_transmit_batch_matches_scalar_loop(seed, size, data):
    """Vectorized transmission must be identical to the scalar reference's
    per-photon rule handed the same coin for each photon, in any array
    shape."""
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
    ba = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
    bb = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
    coins = RandomSource(seed).bits(size)

    batch = transmit_batch(bits, ba, bb, coins)

    scalar = np.array([reference.measure(*photon) for photon in zip(
        bits.tolist(), ba.tolist(), bb.tolist(), coins.tolist())], dtype=np.uint8)
    assert np.array_equal(batch, scalar)
    rows = (2, size // 2)
    cut = 2 * (size // 2)
    as_rows = transmit_batch(*(a[:cut].reshape(rows) for a in (bits, ba, bb, coins)))
    assert np.array_equal(as_rows.reshape(-1), scalar[:cut])


def test_transmit_batch_matching_positions_exact():
    rng = RandomSource(9)
    bits = rng.bits(1000)
    bases = rng.bits(1000)
    out = transmit_batch(bits, bases, bases, RandomSource(10).bits(1000))
    assert np.array_equal(out, bits)
