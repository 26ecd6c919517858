"""Reproducibility of the keyed random streams."""

import numpy as np
import pytest

from mpfusion import rng


def test_same_key_same_draws():
    a = rng.stream(123, rng.OBSERVATIONS, 7).standard_normal(64)
    b = rng.stream(123, rng.OBSERVATIONS, 7).standard_normal(64)
    np.testing.assert_array_equal(a, b)


def test_purpose_separates_streams():
    a = rng.stream(123, rng.OBSERVATIONS, 0).standard_normal(64)
    b = rng.stream(123, rng.PU_ACTIVITY, 0).standard_normal(64)
    assert not np.array_equal(a, b)


def test_index_separates_streams():
    a = rng.stream(123, rng.OBSERVATIONS, 0).standard_normal(64)
    b = rng.stream(123, rng.OBSERVATIONS, 1).standard_normal(64)
    assert not np.array_equal(a, b)


def test_seed_separates_streams():
    a = rng.stream(1, rng.GENERIC).standard_normal(16)
    b = rng.stream(2, rng.GENERIC).standard_normal(16)
    assert not np.array_equal(a, b)


def test_draw_order_does_not_leak_across_streams():
    # consuming one stream must not advance another
    s1 = rng.stream(5, rng.PROBES, 0)
    s1.standard_normal(1000)
    fresh = rng.stream(5, rng.PROBES, 1).standard_normal(8)
    np.testing.assert_array_equal(
        fresh, rng.stream(5, rng.PROBES, 1).standard_normal(8))


def test_large_seed_and_index_accepted():
    g = rng.stream(2**64 - 1, rng.COUPLING_DRAW, 2**31 - 1)
    x = g.random(4)
    assert np.all((x >= 0) & (x < 1))
    rng.stream(2**64 - 1, 2**32 - 1, 2**32 - 1)


@pytest.mark.parametrize("seed,purpose,index", [
    (-1, rng.GENERIC, 0),
    (2**64, rng.GENERIC, 0),
    (1, -1, 0),
    (1, rng.GENERIC, -1),
    (1, 2**32 + rng.PU_ACTIVITY, 0),     # would alias purpose PU_ACTIVITY
    (1, rng.PU_ACTIVITY, 2**32),         # would alias index 0
])
def test_out_of_range_keys_rejected(seed, purpose, index):
    with pytest.raises(ValueError):
        rng.stream(seed, purpose, index)


@pytest.mark.parametrize("seed,purpose,index", [
    (1.7, rng.GENERIC, 0),               # would draw seed 1's stream
    (1.0, rng.GENERIC, 0),
    (True, rng.GENERIC, 0),              # would act as seed 1
    (1, float(rng.GENERIC), 0),
    (1, rng.GENERIC, 2.5),
    (1, rng.GENERIC, False),
])
def test_non_integer_keys_rejected(seed, purpose, index):
    with pytest.raises(ValueError, match="integers"):
        rng.stream(seed, purpose, index)
    rng.stream(np.uint64(1), np.int32(rng.GENERIC), np.int64(0))   # numpy ints are fine
