"""Discrete two-state message passing against brute-force enumeration.

The oracle enumerates all 2^n sign configurations and scores them with
log p(x) = sum_j gamma_j 1(x_j=+1) + sum_(i,j) Je_ij 1(x_i=x_j),
which is the gauge the engines work in (Je = effective coupling).  On a
tree, flooding for n-1 rounds must reproduce the enumeration's
max-marginal (max-product) and marginal (sum-product) log-ratios exactly.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfusion import discrete, rng
from mpfusion.discrete import (
    LINEARIZED,
    MAX_PRODUCT,
    SUM_PRODUCT,
    _clamp_transfer,
    coefficient_from_coupling,
    decide,
    decision_variables,
    linearized_coefficients,
    run_messages,
    s_transfer,
)
from mpfusion.graph import MrfParams, Topology, chain, feeder_edges
from mpfusion.optimizer import ContractionWarning, egc_weights, stability_box
from helpers import star, uniform_params
from strategies import random_graphs


def _enumerate_lambdas(top, params, gamma, mode):
    """Brute-force decision variables by scoring every configuration."""
    n = top.node_count
    lam = np.empty(n)
    scores = {+1: [], -1: []}
    for j in range(1, n + 1):
        scores[+1].clear()
        scores[-1].clear()
        for bits in itertools.product((-1, +1), repeat=n):
            s = sum(gamma[i] for i in range(n) if bits[i] == +1)
            for (a, b) in top.edges:
                if bits[a - 1] == bits[b - 1]:
                    s += params.effective_coupling(a, b)
            scores[bits[j - 1]].append(s)
        if mode == "max":
            lam[j - 1] = max(scores[+1]) - max(scores[-1])
        else:
            lam[j - 1] = (math.log(sum(math.exp(v) for v in scores[+1]))
                          - math.log(sum(math.exp(v) for v in scores[-1])))
    return lam


def _flood_messages(top, gamma, algorithm, iterations, params=None,
                    coefficients=None):
    """Every directed message recomputed in every round from the zero start,
    with t = gamma_k + delta_{n1->k} + ... in ascending neighbour order."""
    edges = top.directed_edges()
    if algorithm == LINEARIZED:
        gains = coefficients
        transfer = lambda c, t: c * t  # noqa: E731
    else:
        gains = {e: params.effective_coupling(*e) for e in edges}
        transfer = s_transfer if algorithm == SUM_PRODUCT else _clamp_transfer
    g = np.asarray(gamma, dtype=float)
    feeders = feeder_edges(top)
    delta = {e: 0.0 for e in edges}
    for _ in range(iterations):
        nxt = {}
        for e in edges:
            t = g[e[0] - 1]
            for f in feeders[e]:
                t = t + delta[f]
            nxt[e] = transfer(gains[e], t)
        delta = nxt
    return delta


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _binary_tree():
    return Topology(15, tuple((i // 2, i) for i in range(2, 16)))


# ----------------------------------------------------------------- S(a, b)


def test_s_transfer_zeros():
    assert s_transfer(0.7, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert s_transfer(0.0, 1.3) == pytest.approx(0.0, abs=1e-15)


def test_s_transfer_symmetric_and_odd():
    grid = np.linspace(-3, 3, 13)
    for a in grid:
        for b in grid:
            assert s_transfer(a, b) == pytest.approx(s_transfer(b, a), abs=1e-14)
            assert s_transfer(a, -b) == pytest.approx(-s_transfer(a, b), abs=1e-14)


def test_s_transfer_bounded_by_min_argument():
    gen = rng.stream(11, rng.GENERIC, 0)
    a = gen.uniform(-5, 5, 500)
    b = gen.uniform(-5, 5, 500)
    s = s_transfer(a, b)
    assert np.all(np.abs(s) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)


def test_s_transfer_saturates_to_coupling():
    # huge upstream statistic: the transfer passes on +-a
    assert s_transfer(0.8, 50.0) == pytest.approx(0.8, abs=1e-12)
    assert s_transfer(0.8, -50.0) == pytest.approx(-0.8, abs=1e-12)


_S_GRID = sorted({s * v for s in (1.0, -1.0)
                  for v in (0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, 40.0,
                            700.0, 750.0, 1e4)})


def _s_reference(a, b):
    """The definition ln((1 + e^{a+b}) / (e^a + e^b)) at 80 working digits:
    small arguments cancel at most 25 of them, leaving 40 or more."""
    with mpmath.workdps(80):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        return mpmath.log((1 + mpmath.exp(a + b)) / (mpmath.exp(a) + mpmath.exp(b)))


def test_s_transfer_against_40_digit_reference():
    # within 4 ulp of the exact value everywhere: tiny messages, where a
    # difference of log-sum-exps cancels, and huge ones, where e^-|a| + e^-|b|
    # underflows, included
    ulp = np.finfo(float).eps
    grid = np.array(_S_GRID)
    table = s_transfer(grid[:, None], grid[None, :])
    assert table.shape == (grid.size, grid.size) and np.isfinite(table).all()
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            got = s_transfer(a, b)
            assert type(got) is float
            ref = _s_reference(a, b)
            assert abs(got - ref) <= 4 * ulp * abs(ref), (a, b, got)
            assert abs(table[i, j] - ref) <= 4 * ulp * abs(ref), (a, b, table[i, j])
    np.testing.assert_array_equal(s_transfer(grid, 750.0), s_transfer(750.0, grid))


def test_coefficient_is_slope_at_zero():
    for je in (0.1, 0.5, 1.0, -0.7):
        h = 1e-6
        slope = (s_transfer(je, h) - s_transfer(je, -h)) / (2 * h)
        assert coefficient_from_coupling(je) == pytest.approx(slope, abs=1e-7)
        assert coefficient_from_coupling(je) == pytest.approx(
            math.tanh(je / 2.0), abs=1e-15)


# ------------------------------------------------------- single-edge bridge


def test_single_edge_maxprod_is_clamp():
    top = chain(2)
    params = uniform_params(top, 0.6)
    for t in np.linspace(-2.0, 2.0, 41):
        state = run_messages(top, np.array([t, 0.0]), MAX_PRODUCT, 1,
                             params=params)
        want = min(max(t, -0.6), 0.6)
        assert state.delta[(1, 2)] == pytest.approx(want, abs=1e-15)


def test_single_edge_discrete_messages_match_enumeration():
    top = chain(2)
    gen = rng.stream(12, rng.GENERIC, 0)
    for _ in range(200):
        j = gen.uniform(-2, 2)
        g = gen.uniform(-3, 3, 2)
        params = uniform_params(top, j)
        for algo, mode in ((MAX_PRODUCT, "max"), (SUM_PRODUCT, "sum")):
            lam = decision_variables(
                run_messages(top, g, algo, 1, params=params), top, g)
            want = _enumerate_lambdas(top, params, g, mode)
            np.testing.assert_allclose(lam, want, atol=1e-12)


def test_max_approximated_sumprod_equals_maxprod_bitwise():
    # replacing both log-sum-exps in the smooth transfer by maxes gives
    # max(0, a+b) - max(a, b); the engine's message must equal it bit for bit
    top = chain(2)
    gen = rng.stream(13, rng.GENERIC, 0)
    for _ in range(500):
        je = gen.uniform(-3, 3)
        t = gen.uniform(-4, 4)
        params = uniform_params(top, je)
        state = run_messages(top, np.array([t, 0.0]), MAX_PRODUCT, 1,
                             params=params)
        approx = max(0.0, je + t) - max(je, t)
        assert state.delta[(1, 2)] == approx  # exact, no tolerance


# --------------------------------------------------------- trees vs oracle


@pytest.mark.parametrize("make_top", [lambda: chain(5), lambda: star(5)])
@pytest.mark.parametrize("convention", ["merged", "raw"])
@pytest.mark.parametrize("mode,algo", [("max", MAX_PRODUCT), ("sum", SUM_PRODUCT)])
def test_tree_decision_variables_match_enumeration(make_top, convention, mode, algo):
    top = make_top()
    case = 2 * ("merged", "raw").index(convention) + ("max", "sum").index(mode)
    gen = rng.stream(14, rng.GENERIC, case)
    for trial in range(25):
        g = gen.uniform(-2, 2, top.node_count)
        params = uniform_params(top, gen.uniform(-1.2, 1.2), convention)
        state = run_messages(top, g, algo, top.node_count - 1, params=params)
        lam = decision_variables(state, top, g)
        want = _enumerate_lambdas(top, params, g, mode)
        np.testing.assert_allclose(lam, want, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_chain_maxprod_matches_enumeration(n, seed):
    top = chain(n)
    gen = rng.stream(seed, rng.GENERIC, n)
    g = gen.uniform(-3, 3, n)
    params = uniform_params(top, gen.uniform(-2, 2))
    lam = decision_variables(
        run_messages(top, g, MAX_PRODUCT, n - 1, params=params), top, g)
    np.testing.assert_allclose(
        lam, _enumerate_lambdas(top, params, g, "max"), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    top=random_graphs(),
    convention=st.sampled_from(["merged", "raw"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_tree_decision_variables_match_enumeration(top, convention, seed):
    gen = rng.stream(seed, rng.GENERIC, top.node_count)
    g = gen.uniform(-3, 3, top.node_count)
    params = MrfParams(top, {e: float(gen.uniform(-1.5, 1.5)) for e in top.edges},
                       convention)
    for algo, mode in ((MAX_PRODUCT, "max"), (SUM_PRODUCT, "sum")):
        state = run_messages(top, g, algo, top.node_count - 1, params=params)
        np.testing.assert_allclose(decision_variables(state, top, g),
                                   _enumerate_lambdas(top, params, g, mode),
                                   atol=1e-10)


def test_more_iterations_than_diameter_is_stationary():
    top = chain(4)
    gen = rng.stream(15, rng.GENERIC, 0)
    g = gen.uniform(-1, 1, 4)
    params = uniform_params(top, 0.5)
    for algo in (MAX_PRODUCT, SUM_PRODUCT):
        at_diam = decision_variables(
            run_messages(top, g, algo, 3, params=params), top, g)
        beyond = decision_variables(
            run_messages(top, g, algo, 9, params=params), top, g)
        np.testing.assert_allclose(beyond, at_diam, atol=1e-12)


def test_zero_iterations_returns_local_statistics():
    top = chain(3)
    g = np.array([0.4, -0.2, 1.0])
    state = run_messages(top, g, MAX_PRODUCT, 0, params=uniform_params(top, 1.0))
    np.testing.assert_array_equal(decision_variables(state, top, g), g)


def test_vectorized_gamma_slots_match_scalar_runs():
    # gamma may carry a trailing slot axis; each column must evolve as if
    # it were run alone
    top = chain(4)
    gen = rng.stream(16, rng.GENERIC, 0)
    g = gen.uniform(-2, 2, (4, 7))
    params = uniform_params(top, 0.8)
    lam = decision_variables(
        run_messages(top, g, SUM_PRODUCT, 3, params=params), top, g)
    assert lam.shape == (4, 7)
    for s in range(7):
        lone = decision_variables(
            run_messages(top, g[:, s], SUM_PRODUCT, 3, params=params),
            top, g[:, s])
        np.testing.assert_allclose(lam[:, s], lone, atol=1e-12)


# ---------------------------------------------------- schedule vs the flood


@settings(max_examples=120, deadline=None)
@given(
    top=random_graphs(max_extra_edges=3),
    algo=st.sampled_from([MAX_PRODUCT, SUM_PRODUCT, LINEARIZED]),
    columns=st.sampled_from([None, 3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_scheduled_messages_equal_the_flood(top, algo, columns, seed, data):
    iterations = data.draw(st.integers(min_value=0, max_value=top.node_count + 2))
    gen = rng.stream(seed, rng.GENERIC, top.node_count)
    n = top.node_count
    g = gen.uniform(-3, 3, n if columns is None else (n, columns))
    # signed zeros pin the reads of the zero start, which turn -0.0 into 0.0
    g[gen.random(g.shape) < 0.25] = -0.0
    if algo == LINEARIZED:
        kw = {"coefficients": {e: float(gen.uniform(-0.6, 0.6))
                               for e in top.directed_edges()}}
    else:
        kw = {"params": MrfParams(top, {e: float(gen.uniform(-1.5, 1.5))
                                        for e in top.edges})}
    state = run_messages(top, g, algo, iterations, **kw)
    want = _flood_messages(top, g, algo, iterations, **kw)
    assert state.iteration == iterations
    assert list(state.delta) == list(want)
    for e, d in want.items():
        assert np.array_equal(state.delta[e], d)
        assert _same_bits(state.delta[e], d)


def _count_sum_product_transfers(monkeypatch, top, iterations):
    calls = []

    def counted(a, b):
        calls.append(1)
        return s_transfer(a, b)

    monkeypatch.setattr(discrete, "s_transfer", counted)
    g = rng.stream(17, rng.GENERIC, 0).uniform(-2, 2, (top.node_count, 4))
    run_messages(top, g, SUM_PRODUCT, iterations, params=uniform_params(top, 0.7))
    return len(calls)


@pytest.mark.parametrize("make_top,iterations,transfers", [
    (_binary_tree, 14, 28), (lambda: chain(5), 4, 8), (lambda: chain(5), 9, 8),
], ids=["binary-tree-15", "chain-5", "chain-5-past-diameter"])
def test_settled_messages_are_computed_once(monkeypatch, make_top, iterations,
                                            transfers):
    # with iterations >= diameter, every directed edge settles: one transfer each
    assert _count_sum_product_transfers(monkeypatch, make_top(), iterations) == transfers


def test_cycles_cost_no_more_than_the_flood(monkeypatch):
    # a triangle 1-2-3 with the tail 3-4-5-6: the triangle's messages never
    # settle, but the tail's inward ones do, so the count is below 2E R
    top = Topology(6, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)))
    iterations = 7
    count = _count_sum_product_transfers(monkeypatch, top, iterations)
    assert count < 2 * len(top.edges) * iterations


# ------------------------------------------------------------- linear rule


def test_linear_engine_hand_case():
    # chain 1-2-3, c = 0.5, one round: lambda_2 = g2 + 0.5 g1 + 0.5 g3
    top = chain(3)
    g = np.array([1.0, 2.0, -4.0])
    coeff = egc_weights(top, 0.5)
    lam = decision_variables(
        run_messages(top, g, LINEARIZED, 1, coefficients=coeff), top, g)
    np.testing.assert_allclose(lam, [1.0 + 1.0, 2.0 - 1.5, -4.0 + 1.0])


def test_linearized_coefficients_follow_convention():
    top = chain(3)
    raw = uniform_params(top, 0.3, convention="raw")
    coeff = linearized_coefficients(raw)
    assert coeff[(1, 2)] == pytest.approx(math.tanh(0.3), abs=1e-15)


def test_contraction_bound_and_violations():
    # the contraction bound 1/(max degree - 1) is the stability box
    assert stability_box(chain(5)) == 1.0
    assert stability_box(star(5)) == pytest.approx(1.0 / 3.0)
    top = star(5)
    bound = stability_box(top)
    assert all(abs(c) < bound for c in egc_weights(top, 0.33).values())
    with pytest.warns(ContractionWarning):
        coeffs = egc_weights(top, 0.34)
    assert all(abs(c) >= bound for c in coeffs.values())


# ------------------------------------------------------------------ decide


def test_decide_tie_goes_negative():
    out = decide(np.array([0.0, 0.5, -0.1]), 0.0)
    np.testing.assert_array_equal(out, [-1, 1, -1])
    assert out.dtype == np.int8


def test_decide_per_node_thresholds_broadcast():
    lam = np.array([[0.2, 0.4], [0.2, 0.4]])
    tau = np.array([0.3, 0.1])
    np.testing.assert_array_equal(decide(lam, tau), [[-1, 1], [1, 1]])


def test_decide_infinite_thresholds():
    lam = np.array([5.0, -5.0])
    np.testing.assert_array_equal(decide(lam, -np.inf), [1, 1])
    np.testing.assert_array_equal(decide(lam, np.inf), [-1, -1])


@pytest.mark.parametrize("algorithm,iterations,kw", [
    ("belief_propagation", 1, {"params": uniform_params(chain(3), 0.5)}),
    (MAX_PRODUCT, 1, {}),
    (SUM_PRODUCT, 1, {}),
    (LINEARIZED, 1, {"coefficients": {e: 0.5 for e in chain(3).directed_edges()
                                      if e != (2, 3)}}),
    (MAX_PRODUCT, -1, {"params": uniform_params(chain(3), 0.5)}),
    (MAX_PRODUCT, True, {"params": uniform_params(chain(3), 0.5)}),
    (SUM_PRODUCT, 2.0, {"params": uniform_params(chain(3), 0.5)}),
], ids=["unknown-algorithm", "maxprod-no-params", "sumprod-no-params",
        "coefficient-missing-edge", "negative-iterations", "bool-iterations",
        "float-iterations"])
def test_run_messages_rejects_bad_requests(algorithm, iterations, kw):
    top = chain(3)
    with pytest.raises(ValueError):
        run_messages(top, np.zeros(3), algorithm, iterations, **kw)
