"""Local sensing statistics.

Moment formulas are checked against Monte Carlo estimates (3-sigma bands)
and the tail functions against `math.erfc` evaluated point by point and
against 40-digit mpmath references, so the oracles share no code with the
implementation.
"""

import math

import mpmath
import numpy as np
import pytest

from mpfusion import rng
from mpfusion.sensing import (
    energy_moments,
    energy_threshold,
    matched_moments,
    q_function,
    q_inverse,
)

from helpers import gen_observations, llr_energy, llr_matched


def test_q_function_against_erfc():
    for t in (-6.0, -1.0, 0.0, 0.5, 1.2816, 3.0, 7.5):
        want = 0.5 * math.erfc(t / math.sqrt(2.0))
        assert q_function(t) == pytest.approx(want, abs=1e-15)


def test_q_function_vectorized():
    t = np.linspace(-4, 4, 33)
    out = q_function(t)
    assert out.shape == t.shape
    assert np.all(np.diff(out) < 0)  # strictly decreasing


def test_q_inverse_round_trip():
    p = np.array([1e-9, 1e-4, 0.1, 0.5, 0.9, 1 - 1e-9])
    np.testing.assert_allclose(q_function(q_inverse(p)), p, rtol=1e-12)


def test_q_inverse_rejects_boundary():
    with pytest.raises(ValueError):
        q_inverse(0.0)
    with pytest.raises(ValueError):
        q_inverse(1.0)


@pytest.mark.parametrize("bad", [float("nan"), [0.5, float("nan")], -0.1, [0.2, 1.5]])
def test_q_inverse_rejects_points_outside_the_open_interval(bad):
    with pytest.raises(ValueError):
        q_inverse(bad)


def test_q_function_is_the_c_library_erfc_bit_for_bit():
    t = np.concatenate([np.linspace(-40.0, 40.0, 801), [0.0, -0.0, 1e-300, 38.5]])
    want = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in t])
    np.testing.assert_array_equal(q_function(t), want)
    np.testing.assert_array_equal(q_function(t.reshape(5, -1)), want.reshape(5, -1))
    one = q_function(1.5)
    assert type(one) is np.float64 and one == 0.5 * math.erfc(1.5 / math.sqrt(2.0))
    for empty in (np.empty(0), np.empty((0, 3))):
        out = q_function(empty)
        assert out.dtype == np.float64 and out.shape == empty.shape


def _q_inverse_40_digits(p, start):
    """Root of Q(x) = p: Newton steps on mpmath's erfc at 40 digits from
    `start` (the root, not the start, sets the result)."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        x = mpmath.mpf(start)
        for _ in range(20):
            tail = mpmath.erfc(x / mpmath.sqrt(2)) / 2
            step = (tail - p) / mpmath.npdf(x)
            x += step
            if abs(step) <= mpmath.mpf(10) ** -38 * max(abs(x), 1):
                return x
    raise AssertionError(f"reference did not converge at p={p}")


def test_q_inverse_against_40_digit_reference():
    p = np.concatenate([np.logspace(-300, -1, 60), np.linspace(0.02, 0.98, 25),
                        1.0 - np.logspace(-12, -1, 15), [0.5]])
    got = q_inverse(p)
    for pi, gi in zip(p, got):
        ref = _q_inverse_40_digits(pi, gi)
        assert abs(gi - ref) <= 1e-15 * abs(ref), (pi, gi)
        assert q_inverse(pi) == gi
    assert type(q_inverse(0.25)) is float


def test_energy_threshold_pins_standalone_far():
    # tau0 is defined exactly so that the Gaussian approximation of the
    # null statistic crosses 0 with probability `far`
    tau0 = energy_threshold(1.0, 100, 0.1)
    mean0, var0 = energy_moments(0.0, 1.0, 100, tau0)
    assert q_function((0.0 - mean0) / math.sqrt(var0)) == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("count", [True, 2.0, 100.5, 0, "100"])
def test_sample_count_must_be_a_positive_integer(count):
    # a bool or an integral float is not a window length, as everywhere else
    with pytest.raises(ValueError, match="sample count"):
        energy_threshold(1.0, count, 0.1)
    with pytest.raises(ValueError, match="sample count"):
        energy_moments(0.0, 1.0, count, 0.0)
    assert energy_threshold(1.0, np.int64(100), 0.1) == energy_threshold(1.0, 100, 0.1)


def test_llr_matched_hand_case():
    # y = [1, 2], template = [1, 1]: t^T y = 3, ||t||^2 = 2 -> 3 - 1 = 2
    assert llr_matched(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_llr_energy_hand_case():
    y = np.array([[3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(llr_energy(y, 0.5), [12.5 - 0.5, -0.5])


def test_llr_matched_shape_mismatch():
    with pytest.raises(ValueError):
        llr_matched(np.zeros((4, 3)), np.zeros(5))


@pytest.mark.parametrize("cross_frac", [0.0, 0.4, 1.0])
def test_matched_moments_monte_carlo(cross_frac):
    gen = rng.stream(77, rng.GENERIC, 0)
    k, e = 64, 25.0
    amp = math.sqrt(e / k)
    template = np.full(k, amp)
    # the active signal overlaps the template on a fraction of its samples
    active = template.copy()
    active[int(k * cross_frac):] = 0.0
    cross = float(template @ active)
    n = 40000
    y = active[None, :] + gen.standard_normal((n, k))
    g = llr_matched(y, template)
    mean, var = matched_moments(e, cross, 1.0)
    se_mean = math.sqrt(var / n)
    assert abs(g.mean() - mean) < 3 * se_mean
    assert abs(g.var() - var) < 4 * var * math.sqrt(2.0 / n)


@pytest.mark.parametrize("snr_db", [-5.0, 0.0])
def test_energy_moments_monte_carlo(snr_db):
    gen = rng.stream(78, rng.GENERIC, 1)
    k = 100
    e = k * 1.0 * 10.0 ** (snr_db / 10.0)
    tau0 = energy_threshold(1.0, k, 0.1)
    amp = math.sqrt(e / k)
    n = 40000
    y = amp + gen.standard_normal((n, k))
    g = llr_energy(y, tau0)
    mean, var = energy_moments(e, 1.0, k, tau0)
    assert abs(g.mean() - mean) < 3 * math.sqrt(var / n)
    # chi-square variance: se(var-hat) ~ var * sqrt(2/n) plus kurtosis slack
    assert abs(g.var() - var) < 5 * var * math.sqrt(2.0 / n)


def test_moments_of_arrays_equal_scalar_moments():
    # scenario_stats prices a whole (nodes, patterns) table in one call
    gen = rng.stream(80, rng.GENERIC, 3)
    energy = 100.0 * gen.uniform(0.0, 2.0, (5, 8))
    cross = energy * gen.uniform(-1.0, 1.0, (5, 8))
    tau0 = energy_threshold(1.3, 100, 0.1)
    tables = (energy_moments(energy, 1.3, 100, tau0), matched_moments(energy, cross, 1.3))
    for idx in np.ndindex(energy.shape):
        want = (energy_moments(float(energy[idx]), 1.3, 100, tau0),
                matched_moments(float(energy[idx]), float(cross[idx]), 1.3))
        for (mean, var), (m, v) in zip(tables, want):
            assert (mean[idx], var[idx]) == (m, v)
    with pytest.raises(ValueError, match="nonnegative"):
        energy_moments(np.array([1.0, -1e-300]), 1.0, 100, tau0)
    with pytest.raises(ValueError, match="nonnegative"):
        matched_moments(np.array([[1.0], [-1.0]]), 0.0, 1.0)


def test_gen_observations_moments():
    gen = rng.stream(79, rng.GENERIC, 2)
    y = gen_observations(np.full(2000, 1.5), 0.25, 32, gen)
    assert y.shape == (2000, 32)
    assert y.mean() == pytest.approx(1.5, abs=0.01)
    assert y.var() == pytest.approx(0.25, abs=0.01)
