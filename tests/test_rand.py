import numpy as np
import pytest

from adjointkit.rand import Lcg

SEEDS = (0, 1, 42, -5, 2**63, 2**64 - 1)
LENGTHS = (0, 1, 2, 17, 5000)


def scalar_floats(rng, k, low=-1.0, high=1.0):
    """The per-float recurrence the block draw must reproduce bit for bit."""
    span = high - low
    return np.array([low + span * rng.uniform() for _ in range(k)], dtype=float)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", LENGTHS)
def test_floats_bitwise_equal_to_scalar_recurrence(seed, k):
    oracle, block = Lcg(seed), Lcg(seed)
    expected = scalar_floats(oracle, k)
    got = block.floats(k)
    assert got.shape == (k,) and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert block.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_bitwise_equal_to_scalar_recurrence(seed):
    expected = scalar_floats(Lcg(seed), 7 * 13, -0.5, 0.5).reshape(7, 13)
    got = Lcg(seed).matrix(7, 13, -0.5, 0.5)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
def test_block_and_scalar_draws_hand_off_state(seed):
    oracle, mixed = Lcg(seed), Lcg(seed)
    for k in LENGTHS + (3, 0, 1):
        assert mixed.next_u64() == oracle.next_u64()
        got = mixed.floats(k, 0.0, 2.0)
        np.testing.assert_array_equal(
            got.view(np.uint64), scalar_floats(oracle, k, 0.0, 2.0).view(np.uint64))
        assert mixed.uniform() == oracle.uniform()
        got = mixed.matrix(1, k)
        np.testing.assert_array_equal(
            got.ravel().view(np.uint64), scalar_floats(oracle, k).view(np.uint64))
