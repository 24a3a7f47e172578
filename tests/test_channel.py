"""Channel-layer tests: basis physics, photon consumption, RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotsim.channel import (
    Basis,
    Photon,
    PhotonReuseError,
    RandomSource,
    encode,
    measure,
    transmit_batch,
)


def test_encode_rejects_non_bit():
    with pytest.raises(ValueError):
        encode(2, Basis.RECTILINEAR)


def test_matching_basis_reproduces_bit_exactly():
    rng = RandomSource(7)
    for r in (0, 1):
        for basis in Basis:
            assert measure(encode(r, basis), basis, rng) == r


def test_mismatched_basis_is_fair_coin():
    rng = RandomSource(11)
    draws = [
        measure(encode(0, Basis.RECTILINEAR), Basis.DIAGONAL, rng)
        for _ in range(4000)
    ]
    rate = sum(draws) / len(draws)
    assert 0.45 < rate < 0.55


def test_photon_single_use():
    rng = RandomSource(3)
    photon = encode(1, Basis.DIAGONAL)
    measure(photon, Basis.DIAGONAL, rng)
    with pytest.raises(PhotonReuseError):
        measure(photon, Basis.DIAGONAL, rng)


def test_photon_repr_hides_consumed_flag():
    assert "_consumed" not in repr(Photon(bit=1, basis=Basis.RECTILINEAR))


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


def test_random_source_streams_differ():
    root = RandomSource(42)
    a = root.stream("alice").bits(100)
    b = root.stream("bob").bits(100)
    assert not np.array_equal(a, b)


def test_random_source_stream_path_deterministic():
    a = RandomSource(5).stream("x").stream("y").bits(32)
    b = RandomSource(5).stream("x").stream("y").bits(32)
    assert np.array_equal(a, b)


def test_random_bit_is_binary():
    rng = RandomSource(0)
    assert all(rng.bit() in (0, 1) for _ in range(64))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=-(2**31), max_value=2**31),
    size=st.integers(min_value=0, max_value=64),
    data=st.data(),
)
def test_transmit_batch_matches_scalar_loop(seed, size, data):
    """Vectorized transmission must be identical to per-photon measurement
    that is handed the same coin for each photon, in any array shape."""
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
    ba = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
    bb = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)), dtype=np.uint8)
    coins = RandomSource(seed).bits(size)

    batch = transmit_batch(bits, ba, bb, coins)

    scalar = np.empty(size, dtype=np.uint8)
    for i in range(size):
        photon = encode(int(bits[i]), Basis(int(ba[i])))
        scalar[i] = measure(photon, Basis(int(bb[i])), _Coin(coins[i]))
    assert np.array_equal(batch, scalar)
    rows = (2, size // 2)
    cut = 2 * (size // 2)
    as_rows = transmit_batch(*(a[:cut].reshape(rows) for a in (bits, ba, bb, coins)))
    assert np.array_equal(as_rows.reshape(-1), scalar[:cut])


class _Coin:
    """A source whose every bit is the given coin."""

    def __init__(self, coin):
        self.coin = int(coin)

    def bit(self) -> int:
        return self.coin


def test_transmit_batch_matching_positions_exact():
    rng = RandomSource(9)
    bits = rng.bits(1000)
    bases = rng.bits(1000)
    out = transmit_batch(bits, bases, bases, RandomSource(10).bits(1000))
    assert np.array_equal(out, bits)
