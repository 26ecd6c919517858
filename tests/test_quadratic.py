"""Continuous relaxation: recursion vs closed forms and numeric maximization.

Two independent oracles:

* the second-round affine coefficients are transcribed here directly in
  their closed form (ratio expressions in u1, v1) and compared against the
  generic recursion;
* the per-edge maximization is redone numerically (coarse grid + golden
  section) and must not reach a higher objective than the affine
  stationary point.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfusion import rng
from mpfusion.graph import MrfParams, chain, feeder_edges, neighbors
from mpfusion.quadratic import (
    EXACT,
    PAPER,
    ConcavityError,
    FusionWeights,
    QuadraticInstance,
    QuadraticState,
    _edge_step,
    decision_variables,
    extract_weights,
    local_quadratic,
    run,
    verify_linearity,
)
from helpers import mrc_probe, star, uniform_params
from strategies import random_graphs


def _closed_form_round2(gammas, energies, couplings, k, j, others):
    """Second-round (u, v) for edge k->j written out long-hand.

    u1/v1 are the no-message affine estimates; the second round divides by
    1 - (1/E_k) sum E_n v1_nk^2 and augments the intercept with
    (1/E_k) sum E_n u1_nk v1_nk.  All in the alpha = -E/4 bookkeeping.
    """
    def u1(n):
        return 2.0 * gammas[n - 1] / energies[n - 1] - 1.0

    def v1(n, m):
        return 2.0 * couplings[(min(n, m), max(n, m))] / energies[n - 1]

    ek = energies[k - 1]
    den = 1.0 - sum(energies[n - 1] * v1(n, k) ** 2 for n in others) / ek
    num = u1(k) + sum(energies[n - 1] * u1(n) * v1(n, k) for n in others) / ek
    return num / den, v1(k, j) / den


def _numeric_argmax(curv, lin):
    """Maximize curv*x^2 + lin*x by scan plus golden-section refinement."""
    xs = np.linspace(-50, 50, 2001)
    vals = curv * xs**2 + lin * xs
    lo = xs[max(np.argmax(vals) - 1, 0)]
    hi = xs[min(np.argmax(vals) + 1, len(xs) - 1)]
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    for _ in range(200):
        m1 = b - phi * (b - a)
        m2 = a + phi * (b - a)
        if curv * m1**2 + lin * m1 >= curv * m2**2 + lin * m2:
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def _flood_run(instance, gamma, rounds):
    """Every directed message and estimate recomputed in every round from
    the zero start, incoming messages summed in ascending neighbour order."""
    top = instance.topology
    g = np.asarray(gamma, dtype=float)
    zeros_like_g = np.zeros(g.shape[1:]) if g.ndim > 1 else 0.0
    feeders = feeder_edges(top)
    messages = {e: (0.0, zeros_like_g) for e in feeders}
    estimates = {}
    for _ in range(rounds):
        estimates, new_messages = {}, {}
        for e in top.directed_edges():
            k = e[0]
            args = (g[k - 1], instance.energies[k - 1], instance.params.coupling(*e))
            inc_a = [messages[f][0] for f in feeders[e]]
            inc_b = [messages[f][1] for f in feeders[e]]
            estimates[e], new_messages[e] = _edge_step(
                *args, inc_a, inc_b, instance.convention, k)
        messages = new_messages
    return estimates, messages


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -------------------------------------------------------------- local terms


def test_local_quadratic_conventions():
    a, b = local_quadratic(1.2, 8.0, PAPER)
    assert (a, b) == (-2.0, 1.2 - 4.0)
    a, b = local_quadratic(1.2, 8.0, EXACT)
    assert (a, b) == (-1.0, 0.6)


def test_init_affine_paper_matches_published_form():
    # u1 = 2 gamma / E - 1, v1 = 2 J / E
    (u, v), _ = _edge_step(0.7, 10.0, 0.3, [], [], PAPER, 1)
    assert u == pytest.approx(2 * 0.7 / 10.0 - 1.0, abs=1e-15)
    assert v == pytest.approx(2 * 0.3 / 10.0, abs=1e-15)


def test_init_affine_exact_convention():
    (u, v), _ = _edge_step(0.7, 10.0, 0.3, [], [], EXACT, 1)
    assert u == pytest.approx(4 * 0.7 / (2 * 10.0), abs=1e-15)
    assert v == pytest.approx(4 * 0.3 / 10.0, abs=1e-15)


def test_energy_must_be_positive():
    with pytest.raises(ValueError):
        local_quadratic(0.0, 0.0, PAPER)


# ------------------------------------------------- closed-form second round


def test_round2_closed_form_chain_center():
    # midpoint of a 3-chain: both ends feed the k->j message
    gen = rng.stream(21, rng.GENERIC, 0)
    for _ in range(1000):
        g = gen.uniform(-3, 3, 3)
        e = gen.uniform(2.0, 30.0, 3)
        jv = gen.uniform(-0.8, 0.8)
        top = chain(3)
        params = uniform_params(top, jv)
        inst = QuadraticInstance(top, params, tuple(e), PAPER)
        state = run(inst, g, 2)
        couplings = {edge: jv for edge in top.edges}
        # edge 2 -> 1 aggregates the message from node 3
        u_want, v_want = _closed_form_round2(g, e, couplings, 2, 1, (3,))
        u_got, v_got = state.estimates[(2, 1)]
        assert float(u_got) == pytest.approx(u_want, abs=1e-12)
        assert v_got == pytest.approx(v_want, abs=1e-12)


def test_round2_closed_form_star_hub():
    gen = rng.stream(22, rng.GENERIC, 0)
    top = star(5, hub=1)
    for _ in range(250):
        g = gen.uniform(-2, 2, 5)
        e = gen.uniform(3.0, 40.0, 5)
        jv = gen.uniform(-0.5, 0.5)
        params = uniform_params(top, jv)
        inst = QuadraticInstance(top, params, tuple(e), PAPER)
        state = run(inst, g, 2)
        couplings = {edge: jv for edge in top.edges}
        u_want, v_want = _closed_form_round2(g, e, couplings, 1, 3, (2, 4, 5))
        u_got, v_got = state.estimates[(1, 3)]
        assert float(u_got) == pytest.approx(u_want, abs=1e-12)
        assert v_got == pytest.approx(v_want, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(top=random_graphs(), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_round2_closed_forms_on_random_trees(top, seed):
    # every directed edge of a random tree of up to 8 nodes, each with its
    # own coupling, against the long-hand second round
    gen = rng.stream(seed, rng.GENERIC, top.node_count)
    n = top.node_count
    g = gen.uniform(-3, 3, n)
    # |J| <= 0.5 and E >= 4 keep every curvature negative at degree 7
    e = gen.uniform(4.0, 30.0, n)
    couplings = {edge: float(gen.uniform(-0.5, 0.5)) for edge in top.edges}
    inst = QuadraticInstance(top, MrfParams(top, couplings), tuple(e), PAPER)
    state = run(inst, g, 2)
    assert list(state.estimates) == list(top.directed_edges())
    for k, j in top.directed_edges():
        others = tuple(m for m in neighbors(top, k) if m != j)
        u_want, v_want = _closed_form_round2(g, e, couplings, k, j, others)
        u_got, v_got = state.estimates[(k, j)]
        assert float(u_got) == pytest.approx(u_want, rel=1e-12, abs=1e-12)
        assert v_got == pytest.approx(v_want, rel=1e-12, abs=1e-12)


# ----------------------------------------------------- numeric maximization


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(-3, 3),
    energy=st.floats(2.0, 30.0),
    coupling=st.floats(-0.9, 0.9),
    xj=st.floats(-1.5, 1.5),
    a_in=st.floats(0.0, 0.3),
    b_in=st.floats(-1.0, 1.0),
)
# golden section lands 1.6e-7 off this exact closed form (a flat maximum)
@example(gamma=-3.0, energy=2.0, coupling=0.0, xj=0.0, a_in=0.28125, b_in=0.0)
def test_affine_step_is_the_numeric_maximizer(gamma, energy, coupling, xj,
                                              a_in, b_in):
    convention = PAPER
    alpha, beta = local_quadratic(gamma, energy, convention)
    (u, v), _ = _edge_step(gamma, energy, coupling, [a_in], [b_in], convention, 1)
    curv = alpha + a_in
    lin = beta + b_in + coupling * xj

    def objective(x):
        return curv * x**2 + lin * x

    # Compare objective values, not arguments: golden section cannot place
    # a flat maximum much closer than sqrt(eps) * |x|, but the objective it
    # reaches is within roundoff of the maximum.  An intercept off by 1e-4
    # loses |curv| * 1e-8 >= 2e-9, far above the slack.
    x = u + v * xj
    best = objective(_numeric_argmax(curv, lin))
    assert objective(x) >= best - 1e-12 * max(1.0, abs(best))
    assert abs(2.0 * curv * x + lin) <= 1e-9 * max(1.0, abs(lin))


def test_outgoing_quadratic_matches_plugged_in_objective():
    # evaluate the maximized objective at x_j in {-1, 0, +1}; its second
    # difference recovers 2a and its centered difference 2b
    gen = rng.stream(23, rng.GENERIC, 0)
    for _ in range(300):
        g = gen.uniform(-2, 2)
        e = gen.uniform(3.0, 20.0)
        jv = gen.uniform(-0.8, 0.8)
        a_in = gen.uniform(0.0, 0.2)
        b_in = gen.uniform(-0.5, 0.5)
        alpha, beta = local_quadratic(g, e, PAPER)
        (u, v), (a_out, b_out) = _edge_step(g, e, jv, [a_in], [b_in], PAPER, 1)

        def objective(xj):
            curv = alpha + a_in
            lin = beta + b_in
            xk = u + v * xj
            return curv * xk**2 + lin * xk + jv * xk * xj

        m_plus, m_zero, m_minus = objective(1.0), objective(0.0), objective(-1.0)
        assert m_plus + m_minus - 2 * m_zero == pytest.approx(2 * a_out, abs=1e-10)
        assert (m_plus - m_minus) / 2 == pytest.approx(b_out, abs=1e-10)


# ---------------------------------------------------- schedule vs the flood


@settings(max_examples=120, deadline=None)
@given(
    top=random_graphs(max_extra_edges=3),
    convention=st.sampled_from([PAPER, EXACT]),
    columns=st.sampled_from([None, 3]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_scheduled_quadratic_messages_equal_the_flood(top, convention, columns,
                                                      seed, data):
    rounds = data.draw(st.integers(min_value=0, max_value=top.node_count + 2))
    gen = rng.stream(seed, rng.GENERIC, top.node_count)
    n = top.node_count
    g = gen.uniform(-3, 3, n if columns is None else (n, columns))
    # signed zeros pin the reads of the zero start, which turn -0.0 into 0.0
    g[gen.random(g.shape) < 0.25] = -0.0
    params = MrfParams(top, {e: float(gen.uniform(-0.3, 0.3)) for e in top.edges})
    inst = QuadraticInstance(top, params, tuple(gen.uniform(8.0, 30.0, n)),
                             convention)
    try:
        want_est, want_msg = _flood_run(inst, g, rounds)
    except ConcavityError:
        # incoming curvature only grows with the round count, so a flood
        # value that fails makes some final value fail too
        with pytest.raises(ConcavityError):
            run(inst, g, rounds)
        return
    state = run(inst, g, rounds)
    assert state.rounds == rounds
    assert list(state.estimates) == list(want_est)
    assert list(state.messages) == list(want_msg)
    for got, want in ((state.estimates, want_est), (state.messages, want_msg)):
        for e, pair in want.items():
            for x, y in zip(got[e], pair):
                assert np.array_equal(x, y) and _same_bits(x, y)
    np.testing.assert_array_equal(decision_variables(inst, state, g),
                                  decision_variables(inst, QuadraticState(
                                      rounds, want_est, want_msg), g))


# ----------------------------------------------------------- affine probing


@pytest.mark.parametrize("convention", [PAPER, EXACT])
@pytest.mark.parametrize("rounds", [1, 2, 3, 4])
def test_probed_weights_predict_random_gammas(convention, rounds):
    top = chain(5)
    gen = rng.stream(24, rng.GENERIC, rounds)
    energies = tuple(gen.uniform(5.0, 40.0, 5))
    params = uniform_params(top, gen.uniform(-0.4, 0.4))
    inst = QuadraticInstance(top, params, energies, convention)
    fw = extract_weights(inst, rounds)
    resid = verify_linearity(inst, rounds, 50, rng.stream(24, rng.PROBES, rounds),
                             weights=fw)
    assert resid < 1e-9


def test_verify_linearity_rejects_weights_of_another_iteration():
    inst = QuadraticInstance(chain(4), uniform_params(chain(4), 0.25),
                             (10.0, 12.0, 14.0, 16.0), PAPER)
    fw = extract_weights(inst, 2)
    with pytest.raises(ValueError, match="iteration 2"):
        verify_linearity(inst, 4, 20, rng.stream(26, rng.PROBES, 0), weights=fw)


def test_exact_convention_has_zero_offset():
    top = chain(4)
    gen = rng.stream(25, rng.GENERIC, 0)
    params = uniform_params(top, 0.25)
    inst = QuadraticInstance(top, params, tuple(gen.uniform(4, 20, 4)), EXACT)
    for rounds in (1, 2, 3):
        fw = extract_weights(inst, rounds)
        np.testing.assert_allclose(fw.offset, 0.0, atol=1e-12)


def test_paper_convention_offset_is_reported_not_hidden():
    top = chain(3)
    inst = QuadraticInstance(top, uniform_params(top, 0.3), (8.0, 8.0, 8.0), PAPER)
    fw = extract_weights(inst, 2)
    assert np.any(np.abs(fw.offset) > 1e-6)


def test_iteration_one_is_the_local_detector():
    top = star(4)
    inst = QuadraticInstance(top, uniform_params(top, 0.5), (5.0,) * 4, PAPER)
    fw = extract_weights(inst, 1)
    np.testing.assert_allclose(fw.weights, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(fw.offset, 0.0, atol=1e-14)


@pytest.mark.parametrize("make_top", [lambda: chain(6), lambda: star(6)])
def test_locality_of_probed_weights(make_top):
    top = make_top()
    gen = rng.stream(26, rng.GENERIC, 0)
    inst = QuadraticInstance(
        top, uniform_params(top, 0.2), tuple(gen.uniform(4, 30, 6)), PAPER)
    for it in (1, 2, 3, 4):
        fw = extract_weights(inst, it)
        assert fw.locality_violations(top) == []


def test_locality_violation_detection_works():
    # plant a far-field weight and make sure the report catches it
    top = chain(4)
    w = np.eye(4)
    w[0, 3] = 1e-3  # node 4 is 3 hops from node 1
    fw = FusionWeights(weights=w, offset=np.zeros(4), iteration=2)
    bad = fw.locality_violations(top)
    assert (1, 4, 1e-3) in bad


# ------------------------------------------------------------ misc guards


def test_concavity_error_on_strong_coupling():
    # first-round messages carry a = J^2 / E_n > 0; at a hub of degree 3,
    # two of them flow into each outgoing message and overwhelm the local
    # curvature -E/4 once J is large enough
    top = star(4, hub=1)
    inst = QuadraticInstance(top, uniform_params(top, 1.5), (4.0,) * 4, PAPER)
    with pytest.raises(ConcavityError):
        run(inst, np.zeros(4), 2)


@pytest.mark.parametrize("rounds", [True, 2.0, -1])
def test_run_rejects_bad_round_counts(rounds):
    inst = QuadraticInstance(chain(3), uniform_params(chain(3), 0.3), (8.0,) * 3)
    with pytest.raises(ValueError, match="rounds must be a nonnegative integer"):
        run(inst, np.zeros(3), rounds)


def test_zero_rounds_leaves_local_statistics():
    top = chain(3)
    inst = QuadraticInstance(top, uniform_params(top, 0.3), (8.0,) * 3, PAPER)
    g = np.array([0.3, -0.1, 0.9])
    state = run(inst, g, 0)
    np.testing.assert_array_equal(decision_variables(inst, state, g), g)


def test_instance_validates_energies():
    top = chain(2)
    with pytest.raises(ValueError):
        QuadraticInstance(top, uniform_params(top, 0.1), (1.0,), PAPER)
    with pytest.raises(ValueError):
        QuadraticInstance(top, uniform_params(top, 0.1), (1.0, -2.0), PAPER)


# ------------------------------------------------------------- MRC shaping


def test_neighbor_magnitudes_fall_with_receiver_energy():
    # the better node k's own sensing (larger E_k), the less it relays its
    # other neighbors into the k->j intercept
    top = chain(5)
    gen = rng.stream(27, rng.GENERIC, 0)
    inst = QuadraticInstance(
        top, uniform_params(top, 0.3), tuple(gen.uniform(8, 16, 5)), PAPER)
    sweep = [4.0, 8.0, 16.0, 32.0, 64.0]
    others, mags = mrc_probe(inst, 3, 4, sweep)
    assert others == (2,)
    assert mags.shape == (5, 1)
    assert np.all(np.diff(mags[:, 0]) <= 0)


def test_mrc_probe_leaf_has_no_other_neighbors():
    top = chain(3)
    inst = QuadraticInstance(top, uniform_params(top, 0.2), (8.0,) * 3, PAPER)
    others, mags = mrc_probe(inst, 1, 2, [4.0, 8.0])
    assert others == ()
    assert mags.shape == (2, 0)


def test_mrc_probe_rejects_non_edges():
    top = chain(4)
    inst = QuadraticInstance(top, uniform_params(top, 0.2), (8.0,) * 4, PAPER)
    with pytest.raises(ValueError):
        mrc_probe(inst, 1, 3, [4.0])
