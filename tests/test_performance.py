"""Threshold solving and error-rate accounting.

The per-node oracles `gfun` and `solve_threshold` (in `helpers`) are
cross-checked against a hand-rolled mixture of erfc tails, against Monte
Carlo sampling of the same mixture and by round-tripping; the batched
push-forward and threshold solver against them and against one-row calls on
random mixtures, padded ones included.  The KS check is calibrated on
synthetic draws where the verdict is known.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpfusion import performance, rng
from mpfusion.performance import (
    ComponentMoments,
    ConditionalStats,
    GaussianityReport,
    gaussianity_check,
    monte_carlo_perf,
    solve_thresholds,
)

from helpers import gfun, solve_threshold


def _mix(weights, means, stds):
    return ConditionalStats(
        node=1,
        weights={-1: np.asarray(weights), 1: np.asarray(weights)},
        means={-1: np.asarray(means), 1: np.asarray(means) + 1.0},
        stds={-1: np.asarray(stds), 1: np.asarray(stds)},
    )


def test_gfun_single_component_is_q_tail():
    stats = _mix([1.0], [0.3], [2.0])
    for tau in (-1.0, 0.3, 2.5):
        want = 0.5 * math.erfc((tau - 0.3) / (2.0 * math.sqrt(2)))
        assert gfun(tau, -1, stats) == pytest.approx(want, abs=1e-14)


def test_gfun_mixture_hand_sum():
    w = [0.25, 0.75]
    m = [-1.0, 2.0]
    s = [0.5, 1.5]
    stats = _mix(w, m, s)
    tau = 0.4
    want = sum(wi * 0.5 * math.erfc((tau - mi) / (si * math.sqrt(2)))
               for wi, mi, si in zip(w, m, s))
    assert gfun(tau, -1, stats) == pytest.approx(want, abs=1e-14)


def test_gfun_monte_carlo_agreement():
    gen = rng.stream(31, rng.GENERIC, 0)
    w = np.array([0.3, 0.7])
    m = np.array([0.0, 3.0])
    s = np.array([1.0, 0.5])
    stats = _mix(w, m, s)
    n = 200000
    comp = gen.choice(2, size=n, p=w)
    draws = m[comp] + s[comp] * gen.standard_normal(n)
    for tau in (0.5, 2.0):
        p = gfun(tau, -1, stats)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(np.mean(draws > tau) - p) < 3 * se


def test_gfun_vector_tau():
    stats = _mix([1.0], [0.0], [1.0])
    taus = np.linspace(-3, 3, 7)
    out = gfun(taus, -1, stats)
    assert out.shape == taus.shape
    assert np.all(np.diff(out) < 0)


@pytest.mark.parametrize("target", [0.9, 0.5, 0.1, 0.01, 1e-4])
def test_solve_threshold_round_trip(target):
    stats = _mix([0.2, 0.5, 0.3], [-2.0, 0.0, 4.0], [0.3, 1.0, 2.0])
    tau = solve_threshold(stats, -1, target)
    assert gfun(tau, -1, stats) == pytest.approx(target, abs=1e-9)


def test_solve_threshold_far_tail_targets():
    # bracket growth must cope with thresholds far outside the means; the
    # stopping rule is on the tail probability, so check in that domain
    stats = _mix([1.0], [0.0], [1.0])
    tau = solve_threshold(stats, -1, 1e-6, tol=1e-10)
    assert tau > 4.0
    assert gfun(tau, -1, stats) == pytest.approx(1e-6, abs=1e-10)
    tau = solve_threshold(stats, -1, 1 - 1e-6, tol=1e-10)
    assert tau < -4.0
    assert gfun(tau, -1, stats) == pytest.approx(1 - 1e-6, abs=1e-10)


def test_solve_threshold_rejects_degenerate_targets():
    stats = _mix([1.0], [0.0], [1.0])
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            solve_threshold(stats, -1, bad)


def test_solve_threshold_raises_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(performance, "_MAX_NEWTON", 1)
    stats = _mix([0.2, 0.5, 0.3], [-2.0, 0.0, 4.0], [0.3, 1.0, 2.0])
    with pytest.raises(RuntimeError):
        solve_threshold(stats, -1, 0.1)


def test_solve_threshold_raises_when_it_cannot_bracket(monkeypatch):
    monkeypatch.setattr(performance, "_MAX_GROWTH", 1)
    stats = _mix([1.0], [0.0], [1.0])
    with pytest.raises(RuntimeError):
        solve_threshold(stats, -1, 1e-300)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), comps=st.integers(1, 8), rows=st.integers(1, 30),
       dim=st.integers(1, 5), target=st.floats(1e-4, 1 - 1e-4))
def test_batched_push_forward_and_solver_match_one_row(data, comps, rows, dim, target):
    def draw(shape, lo, hi):
        return data.draw(arrays(float, shape, elements=st.floats(lo, hi)))

    def cells(count):
        """(states, mass, means, variances) of `count` cells per hypothesis."""
        return (np.repeat([-1, 1], count), draw(2 * count, 0.01, 1.0),
                draw((2 * count, nodes), -4.0, 4.0), draw((2 * count, nodes), 0.01, 4.0))

    nodes = dim + 1                          # one node outside the rule
    own = {1: cells(comps)}
    cm = ComponentMoments.from_cells(own)
    batch = draw((rows, dim), -2.0, 2.0)
    batch[:, 0] = 1.0                        # own weight one, as in the designs
    indices = np.arange(1, dim + 1)
    mix = cm.stats_for_rows(np.ones(rows, dtype=np.intp), indices, batch)
    taus = solve_thresholds(*mix[-1], target)
    for g in range(rows):
        one = cm.stats_for_row(1, indices, batch[g])
        for v in (-1, 1):
            np.testing.assert_array_max_ulp(mix[v][1][g], one.means[v], maxulp=4)
            np.testing.assert_array_max_ulp(mix[v][2][g], one.stds[v], maxulp=4)
        assert abs(gfun(taus[g], -1, one) - target) <= 1e-9
        assert taus[g] == solve_threshold(one, -1, target)

    # (G, M) weights: a two-node set pads node 2's `short` components to
    # `comps` with zero weight; numpy sums rows of 8 or more in unrolled
    # blocks, so a padded count of 8 keeps short to at most 3
    short = data.draw(st.integers(1, comps if comps < 8 else 3))
    own[2] = cells(short)
    owner = data.draw(arrays(np.intp, rows, elements=st.sampled_from([1, 2])))
    weights, means, stds = ComponentMoments.from_cells(own).stats_for_rows(
        owner, indices, batch)[-1]
    taus = solve_thresholds(weights, means, stds, target)
    far = means.copy()                       # padded means far outside the rest
    far[:, short:] = np.where(owner[:, None] == 2,
                              data.draw(st.sampled_from([-1e6, -50.0, 50.0, 1e6])),
                              far[:, short:])
    far_taus = solve_thresholds(weights, far, stds, target)
    for g in range(rows):
        node = int(owner[g])
        one = ComponentMoments.from_cells({node: own[node]}).stats_for_row(
            node, indices, batch[g])
        size = one.weights[-1].size
        assert not weights[g, size:].any()
        np.testing.assert_array_equal(means[g, :size], one.means[-1])
        np.testing.assert_array_equal(stds[g, :size], one.stds[-1])
        assert taus[g] == far_taus[g] == solve_threshold(one, -1, target)


def test_rules_of_a_node_without_components_raise():
    cell = (np.array([-1, -1, 1]), np.array([0.8, 0.2, 1.0]),
            np.zeros((3, 4)), np.ones((3, 4)))
    moments = ComponentMoments.from_cells({1: cell, 3: cell})
    for present in (1, 3):
        moments.stats_for_rows([present], [1, 2], [[1.0, 0.5]])
    for absent in (0, 2, 4):
        with pytest.raises(ValueError, match=f"no components for node {absent}"):
            moments.stats_for_rows([1, absent], [1, 2], [[1.0, 0.5], [1.0, 0.5]])


def test_padding_never_sets_the_threshold_bracket():
    # two far-apart modes: Newton's first step leaves the bracket, so the
    # bisection midpoint, and with it the bracket, shapes the result
    weights, means, stds = [0.5, 0.5], [-10.0, 10.0], [0.1, 0.1]
    want = solve_thresholds(weights, [means], [stds], 0.1)
    for far in (-1e6, 1e6):
        padded = solve_thresholds([weights + [0.0]], [means + [far]],
                                  [stds + [1e3]], 0.1)
        assert padded[0] == want[0]


def test_conditional_stats_validation():
    with pytest.raises(ValueError):
        ConditionalStats(1, {-1: np.array([0.5, 0.4]), 1: np.array([1.0])},
                         {-1: np.zeros(2), 1: np.zeros(1)},
                         {-1: np.ones(2), 1: np.ones(1)})
    with pytest.raises(ValueError):
        ConditionalStats(1, {-1: np.array([1.0]), 1: np.array([1.0])},
                         {-1: np.zeros(1), 1: np.zeros(1)},
                         {-1: np.zeros(1), 1: np.ones(1)})  # zero spread


# ------------------------------------------------------------ Monte Carlo


def test_monte_carlo_perf_hand_tally():
    lam = np.array([[1.0, -1.0, 2.0, 0.5],
                    [0.0, 0.0, 0.0, 0.0]])
    truth = np.array([[1, 1, -1, -1],
                      [1, 1, 1, 1]])
    rep = monte_carlo_perf(lam, truth, thresholds=np.array([0.75, 0.5]))
    assert rep.pd[0] == pytest.approx(0.5)   # node 1: one of two on-slots fires
    assert rep.pf[0] == pytest.approx(0.5)   # node 1: one of two off-slots fires
    assert rep.pd[1] == pytest.approx(0.0)
    assert math.isnan(rep.pf[1])             # node 2 never idle
    assert rep.n_off[1] == 0
    assert rep.n_off[0] > 0


def test_monte_carlo_perf_stderr():
    lam = np.zeros((1, 400))
    lam[0, :100] = 1.0
    truth = np.ones((1, 400), dtype=int)
    rep = monte_carlo_perf(lam, truth, thresholds=0.5)
    assert rep.pd[0] == pytest.approx(0.25)
    assert rep.stderr_pd[0] == pytest.approx(math.sqrt(0.25 * 0.75 / 400))


def test_perf_report_to_dict_nan_becomes_none():
    rep = monte_carlo_perf(np.zeros((1, 3)), np.ones((1, 3), dtype=int), 0.0)
    d = rep.to_dict()
    assert d["pf"] == [None]
    assert d["pd"] == [0.0]


# --------------------------------------------------------------- KS check


def test_gaussianity_check_accepts_normal_draws():
    gen = rng.stream(33, rng.GENERIC, 0)
    rep = gaussianity_check(1.5 + 0.7 * gen.standard_normal(10000))
    assert isinstance(rep, GaussianityReport)
    assert rep.ks_statistic < 0.02
    assert rep.mean == pytest.approx(1.5, abs=0.03)
    assert rep.std == pytest.approx(0.7, abs=0.02)


def test_gaussianity_check_flags_separated_mixture():
    gen = rng.stream(34, rng.GENERIC, 0)
    half = 5000
    samples = np.concatenate([
        gen.standard_normal(half) - 4.0,
        gen.standard_normal(half) + 4.0,
    ])
    rep = gaussianity_check(samples)
    assert rep.ks_statistic > 0.1


def test_gaussianity_check_needs_enough_samples():
    with pytest.raises(ValueError):
        gaussianity_check(np.zeros(50))
