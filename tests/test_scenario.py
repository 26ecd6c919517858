"""Occupancy process, campaigns, and the two calibration routes.

The closed-form stationary law is cross-checked against the transition
kernel built entry by entry: it must be the kernel's fixed point, and
powering the kernel from an arbitrary start must reach it.  The analytic
score moments are checked by Monte Carlo campaigns.  The tails of
`stats_for_weights` (analytic, the per-node oracle in `helpers`) must match
the tail rates a sampled campaign counts — each route vouches for the other.

The vectorised hot paths are pinned to the loops they replaced, kept here as
oracles: the per-slot activity step, the masked per-node split of the exact
pattern components and the per-sample matched statistic.  Energy scores are drawn from their exact per-slot law,
not per sample, so they are pinned to that law, to `sensing.energy_moments`
and to the per-sample statistic in distribution.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfusion import rng
from mpfusion.scenario import (
    Campaign,
    ScenarioConfig,
    draw_activity,
    link_amplitudes,
    moments_from_scenario,
    node_states,
    nominal_templates,
    pu_configs,
    run_campaign,
    scenario_stats,
    snr_assignment,
    stationary_activity,
    with_rho,
    _OBS_CHUNK,
    _WALK_BLOCK,
)
from mpfusion.sensing import energy_moments

from helpers import (
    frozen,
    gen_observations,
    gfun,
    llr_energy,
    llr_matched,
    own_components,
    stats_for_weights,
    tree_config,
)


def test_default_scenario_shape():
    cfg = ScenarioConfig()
    assert cfg.node_count == 5
    assert cfg.pu_ids == (1, 2)
    assert cfg.topology().edges == ((1, 2), (2, 3), (3, 4), (4, 5))


def test_snr_assignment_staggers_footprints():
    cfg = ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0)
    table = snr_assignment(cfg)
    # transmitter 1 covers nodes 1..3, transmitter 2 covers 3..5; each
    # footprint carries one link above, one at, one below the average
    snrs_pu1 = sorted(table[(j, 1)] for j in (1, 2, 3))
    snrs_pu2 = sorted(table[(j, 2)] for j in (3, 4, 5))
    assert snrs_pu1 == [-6.0, -5.0, -4.0]
    assert snrs_pu2 == [-6.0, -5.0, -4.0]
    assert (4, 1) not in table


def test_link_amplitudes_square_to_snr():
    cfg = ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0)
    table = snr_assignment(cfg)
    amps = link_amplitudes(cfg)
    for (j, p), snr in table.items():
        e = cfg.sample_count * cfg.noise_var * 10.0 ** (snr / 10.0)
        assert amps[j - 1, p - 1] ** 2 * cfg.sample_count == pytest.approx(e)
    assert amps[3, 0] == 0.0  # node 4 outside transmitter 1's footprint


def test_nominal_template_is_all_on_sum():
    cfg = ScenarioConfig()
    amps = link_amplitudes(cfg)
    templates = nominal_templates(cfg)
    np.testing.assert_allclose(templates, amps.sum(axis=1))


# --------------------------------------------------------------- activity


def test_transition_rows_are_distributions():
    for kappa in (0.0, 0.4, 1.0):
        cfg = ScenarioConfig(coupling=kappa)
        trans = _transition_matrix_oracle(cfg)
        np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(trans >= 0)


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_stationary_matches_powered_kernel(kappa):
    cfg = ScenarioConfig(coupling=kappa)
    want = stationary_activity(cfg)
    trans = _transition_matrix_oracle(cfg)
    dist = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(4000):
        dist = dist @ trans
    np.testing.assert_allclose(want, dist, atol=1e-10)


def test_independent_chains_factorize():
    # rare flips included: a solve of the kernel missed this law by 2.3e-13
    for flip in (0.2, 1e-4):
        cfg = ScenarioConfig(coupling=0.0, on_prob=(0.3, 0.8), flip=flip)
        probs = stationary_activity(cfg)
        pats = pu_configs(cfg)
        for pat, p in zip(pats, probs):
            want = (0.3 if pat[0] else 0.7) * (0.8 if pat[1] else 0.2)
            assert p == pytest.approx(want, abs=1e-15)


def test_full_coupling_locks_chains_together():
    cfg = ScenarioConfig(coupling=1.0, on_prob=(0.5, 0.5))
    gen = rng.stream(51, rng.GENERIC, 0)
    act = draw_activity(cfg, 500, gen)
    np.testing.assert_array_equal(act[:, 0], act[:, 1])
    probs = stationary_activity(cfg)
    assert probs[1] == pytest.approx(0.0, abs=1e-12)  # mixed patterns dead
    assert probs[2] == pytest.approx(0.0, abs=1e-12)


def test_zero_flip_zero_coupling_freezes_activity():
    cfg = ScenarioConfig(coupling=0.0, flip=0.0,
                         initial_activity=(1, 0))
    gen = rng.stream(52, rng.GENERIC, 0)
    act = draw_activity(cfg, 200, gen)
    assert np.all(act[:, 0] == 1)
    assert np.all(act[:, 1] == 0)


def test_zero_flip_zero_coupling_has_no_stationary_law():
    cfg = ScenarioConfig(coupling=0.0, flip=0.0)
    for entry in (lambda: run_campaign(cfg, 10, 1), lambda: scenario_stats(cfg)):
        with pytest.raises(ValueError) as err:
            entry()
        assert "flip" in str(err.value) and "coupling" in str(err.value)


def test_unit_flip_zero_coupling_has_no_stationary_law():
    # every step negates every chain, so a pattern meets only its complement
    cfg = ScenarioConfig(coupling=0.0, flip=1.0)
    for entry in (lambda: run_campaign(cfg, 10, 1), lambda: scenario_stats(cfg),
                  lambda: stationary_activity(cfg)):
        with pytest.raises(ValueError) as err:
            entry()
        assert "flip = 1" in str(err.value) and "coupling = 0" in str(err.value)
    # one transmitter alone alternates between its two states half the time each
    one = ScenarioConfig(node_count=3, coverage={1: (1, 2, 3)}, on_prob=(0.5,),
                         coupling=0.0, flip=1.0)
    np.testing.assert_array_equal(stationary_activity(one), [0.5, 0.5])


def test_draw_activity_long_run_frequencies():
    cfg = ScenarioConfig(coupling=0.5)
    gen = rng.stream(53, rng.GENERIC, 0)
    act = draw_activity(cfg, 60000, gen)
    probs = stationary_activity(cfg)
    pats = pu_configs(cfg)
    idx = act[:, 0] + 2 * act[:, 1]
    for row, p in enumerate(probs):
        freq = np.mean(idx == pats[row, 0] + 2 * pats[row, 1])
        # correlated stream: allow a few times the iid standard error
        assert abs(freq - p) < 6 * math.sqrt(p * (1 - p) / act.shape[0]) + 2e-3


def test_forced_activity_pins_every_slot():
    gen = rng.stream(54, rng.GENERIC, 0)
    act = draw_activity(frozen(ScenarioConfig(), (1, 0)), 64, gen)
    assert np.all(act == np.array([1, 0]))


def test_draw_activity_respects_duty_cycle_asymmetry():
    cfg = ScenarioConfig(coupling=0.0, on_prob=(0.2, 0.2), flip=0.25)
    gen = rng.stream(55, rng.GENERIC, 0)
    chain1 = draw_activity(cfg, 40001, gen)[:, 0]
    off = chain1[:-1] == 0
    ups = np.count_nonzero(off & (chain1[1:] == 1))
    # P(off -> on) = 2 f pi = 0.1
    assert ups / np.count_nonzero(off) == pytest.approx(0.1, abs=0.01)


def test_draw_activity_rejects_empty_walks():
    cfg = ScenarioConfig()
    for slots in (0, -3):
        with pytest.raises(ValueError, match="at least one slot"):
            draw_activity(cfg, slots, rng.stream(57, rng.GENERIC, 0))
    # a walk length must be an integer: a bool or a float, integral or not, is none
    for slots in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match=f"slots must be an integer, got {slots!r}"):
            draw_activity(cfg, slots, rng.stream(57, rng.GENERIC, 0))


def _step_activity_oracle(activity, config, gen):
    """One slot of the coupled chains, drawing its uniforms one step at a
    time: the per-slot walk `draw_activity` replaced."""
    pi = np.array(config.on_prob)
    if gen.random() < config.coupling:
        z = 1 if gen.random() < pi[0] else 0
        return np.full(config.pu_count, z, dtype=np.int8)
    r = gen.random(config.pu_count)
    up = 2.0 * config.flip * pi
    down = 2.0 * config.flip * (1.0 - pi)
    flip_prob = np.where(activity == 1, down, up)
    return np.where(r < flip_prob, 1 - activity, activity).astype(np.int8)


def _draw_activity_oracle(config, slots, gen):
    out = np.empty((slots, config.pu_count), dtype=np.int8)
    if config.initial_activity is not None:
        state = np.array(config.initial_activity, dtype=np.int8)
    else:
        probs = stationary_activity(config)
        pick = int(np.searchsorted(np.cumsum(probs), gen.random()))
        state = pu_configs(config)[min(pick, probs.size - 1)].copy()
    for t in range(slots):
        out[t] = state
        state = _step_activity_oracle(state, config, gen)
    return out


@st.composite
def _chain_configs(draw, stationary=False):
    """Coupled chains, one transmitter per node; `stationary` leaves out
    the frozen start, so the kernel has a unique law."""
    p = draw(st.integers(1, 8))
    coupling = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    if coupling > 0.0:
        duty = (draw(st.floats(0.0, 1.0)),) * p
    else:
        duty = tuple(draw(st.floats(0.0, 1.0)) for _ in range(p))
    start = None if stationary else draw(st.none() | st.tuples(*[st.integers(0, 1)] * p))
    # a frozen uncoupled kernel has no unique stationary law to start from
    lowest = 0.0 if start is not None else 0.01
    share = draw(st.floats(lowest, 0.99))
    flip = share / (2.0 * max(max(x, 1.0 - x) for x in duty))
    return ScenarioConfig(node_count=p, coverage={c: (c,) for c in range(1, p + 1)},
                          on_prob=duty, flip=flip, coupling=coupling,
                          initial_activity=start)


@st.composite
def _walk_cases(draw):
    return draw(_chain_configs()), draw(st.integers(1, 2000)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(_walk_cases())
# every step is a common draw, so every step resets every chain
@example((ScenarioConfig(coupling=1.0), 3000, 12345))
# flips are rare: long stretches where every step keeps its state
@example((ScenarioConfig(coupling=0.0, flip=1e-4), 3000, 12345))
# both flip rates are 0.95: most steps negate the state
@example((ScenarioConfig(coupling=0.2, flip=0.95), 3000, 12345))
@example((ScenarioConfig(), 1, 12345))
@example((ScenarioConfig(), 2, 12345))
# B - 1, B, B + 1 and 2B + 1 steps of the blocked pointer jumping, B = _WALK_BLOCK
@example((ScenarioConfig(), _WALK_BLOCK, 12345))
@example((tree_config(), _WALK_BLOCK + 1, 12345))
@example((ScenarioConfig(coupling=0.0), _WALK_BLOCK + 2, 12345))
@example((tree_config(), 2 * _WALK_BLOCK + 2, 90940))
@example((ScenarioConfig(), 5003, 90940))
# the tree-engines workload's campaign length
@example((tree_config(), 44548, 12345))
@example((tree_config(), 44548, 90940))
def test_draw_activity_matches_per_slot_walk(case):
    cfg, slots, seed = case
    got = draw_activity(cfg, slots, rng.stream(seed, rng.PU_ACTIVITY, 0))
    want = _draw_activity_oracle(cfg, slots, rng.stream(seed, rng.PU_ACTIVITY, 0))
    assert got.dtype == want.dtype == np.int8
    np.testing.assert_array_equal(got, want)


def _transition_matrix_oracle(config, dtype=float):
    """The kernel entry by entry, one product over the chains each, with its
    arithmetic in `dtype`."""
    pats = pu_configs(config)
    m = pats.shape[0]
    pi = np.array(config.on_prob, dtype=dtype)
    kappa = dtype(config.coupling)
    up = 2.0 * dtype(config.flip) * pi
    down = 2.0 * dtype(config.flip) * (1.0 - pi)
    trans = np.zeros((m, m), dtype=dtype)
    for a in range(m):
        stay = np.where(pats[a] == 1, 1.0 - down, 1.0 - up)
        move = np.where(pats[a] == 1, down, up)
        # one product over the chains per entry of row a
        trans[a] = (1.0 - kappa) * np.prod(np.where(pats == pats[a], stay, move), axis=1)
        if kappa > 0.0:
            trans[a, m - 1] += kappa * pi[0]
            trans[a, 0] += kappa * (1.0 - pi[0])
    return trans


@settings(max_examples=200, deadline=None)
@given(_chain_configs(stationary=True))
@example(ScenarioConfig(coupling=1.0))
@example(ScenarioConfig(coupling=0.0, flip=1e-4))
@example(ScenarioConfig(coupling=0.3, flip=0.0))
@example(ScenarioConfig(coupling=0.5, flip=1.0))
@example(tree_config())
def test_stationary_law_is_a_fixed_point_of_the_kernel(cfg):
    probs = stationary_activity(cfg)
    assert probs.shape == (2 ** cfg.pu_count,)
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    # the residual is taken in extended precision where the platform has it:
    # in doubles, the kernel's own rounding leaves even the correctly rounded
    # law up to 2.4e-15 off its fixed point on eight chains
    trans = _transition_matrix_oracle(cfg, np.longdouble)
    resid = probs.astype(np.longdouble) @ trans - probs
    assert np.max(np.abs(resid)) <= 2e-15


def test_node_states_or_rule():
    cfg = ScenarioConfig()
    act = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int8)
    x = node_states(cfg, act)
    np.testing.assert_array_equal(x[:, 0], [-1, -1, -1, -1, -1])
    np.testing.assert_array_equal(x[:, 1], [1, 1, 1, -1, -1])   # only PU1 side
    np.testing.assert_array_equal(x[:, 2], [-1, -1, 1, 1, 1])   # only PU2 side
    np.testing.assert_array_equal(x[:, 3], [1, 1, 1, 1, 1])     # both


def test_kappa_requires_equal_duty():
    with pytest.raises(ValueError):
        ScenarioConfig(coupling=0.3, on_prob=(0.2, 0.8))


def test_uncovered_node_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(coverage={1: (1, 2, 3)})


# --------------------------------------------------------------- campaigns


@pytest.mark.parametrize("slots", [500.0, 2.5, True, np.float64(40.0), "40"],
                         ids=["integral-float", "fractional", "bool", "numpy-float",
                              "string"])
def test_run_campaign_slots_must_be_an_integer(slots):
    with pytest.raises(ValueError, match="slots"):
        run_campaign(ScenarioConfig(), slots, seed=9)


def test_run_campaign_accepts_numpy_integer_slots():
    a = run_campaign(ScenarioConfig(), np.int64(40), seed=9)
    b = run_campaign(ScenarioConfig(), 40, seed=9)
    np.testing.assert_array_equal(a.gamma, b.gamma)


def test_run_campaign_deterministic():
    cfg = ScenarioConfig()
    a = run_campaign(cfg, 300, seed=9, index=2)
    b = run_campaign(cfg, 300, seed=9, index=2)
    np.testing.assert_array_equal(a.gamma, b.gamma)
    np.testing.assert_array_equal(a.activity, b.activity)
    c = run_campaign(cfg, 300, seed=9, index=3)
    assert not np.array_equal(a.gamma, c.gamma)


def test_campaign_truth_consistent_with_activity():
    cfg = ScenarioConfig()
    camp = run_campaign(cfg, 200, seed=10)
    np.testing.assert_array_equal(camp.x, node_states(cfg, camp.activity))


def test_energy_scores_match_analytic_moments():
    cfg = ScenarioConfig(rho_db=-5.0)
    camp = run_campaign(frozen(cfg, (1, 0)), 20000, seed=11)
    stats = scenario_stats(cfg)
    pat = [tuple(p) for p in stats.patterns].index((1, 0))
    for j in range(1, 6):
        want_mean = stats.gamma_mean[j - 1, pat]
        want_var = stats.gamma_var[j - 1, pat]
        got = camp.gamma[j - 1]
        assert abs(got.mean() - want_mean) < 4 * math.sqrt(want_var / got.size)
        assert got.var() == pytest.approx(want_var, rel=0.08)


def test_matched_mode_scores_match_analytic_moments():
    cfg = ScenarioConfig(rho_db=-5.0, sensing_mode="matched")
    camp = run_campaign(frozen(cfg, (1, 1)), 20000, seed=12)
    stats = scenario_stats(cfg)
    pat = [tuple(p) for p in stats.patterns].index((1, 1))
    for j in (1, 3, 5):
        want_mean = stats.gamma_mean[j - 1, pat]
        want_var = stats.gamma_var[j - 1, pat]
        got = camp.gamma[j - 1]
        assert abs(got.mean() - want_mean) < 4 * math.sqrt(want_var / got.size)
        assert got.var() == pytest.approx(want_var, rel=0.08)


def _energy_laws(cfg, pattern):
    """Per node, the exact law of the energy score at a pinned pattern:
    sigma^2 / K times a noncentral chi-square with K degrees of freedom and
    noncentrality K a^2 / sigma^2, shifted by -tau0."""
    amp = link_amplitudes(cfg) @ np.array(pattern, dtype=float)
    k, var = cfg.sample_count, cfg.noise_var
    return [scipy.stats.ncx2(k, k * a ** 2 / var, loc=-cfg.tau0, scale=var / k)
            for a in amp]


@pytest.mark.parametrize("pattern", [(0, 0), (1, 0), (1, 1)])
def test_energy_scores_follow_exact_law(pattern):
    cfg = ScenarioConfig(rho_db=-5.0)
    camp = run_campaign(frozen(cfg, pattern), 20000, seed=13, index=4)
    n = camp.gamma.shape[1]
    for scores, law in zip(camp.gamma, _energy_laws(cfg, pattern)):
        assert scipy.stats.kstest(scores, law.cdf).statistic < 1.95 / math.sqrt(n)


@pytest.mark.parametrize("pattern", [(1, 0), (1, 1)])
def test_energy_score_moments_equal_energy_moments(pattern):
    cfg = ScenarioConfig(rho_db=-5.0)
    camp = run_campaign(frozen(cfg, pattern), 20000, seed=17, index=1)
    n = camp.gamma.shape[1]
    amp = link_amplitudes(cfg) @ np.array(pattern, dtype=float)
    laws = _energy_laws(cfg, pattern)
    for scores, a, law in zip(camp.gamma, amp, laws):
        mean, var = energy_moments(cfg.sample_count * a ** 2, cfg.noise_var,
                                   cfg.sample_count, cfg.tau0)
        np.testing.assert_allclose([float(x) for x in law.stats()], [mean, var], rtol=1e-12)
        # the sample variance's standard error from the law's fourth moment
        kurtosis = float(law.stats(moments="k"))
        assert abs(scores.mean() - mean) < 4 * math.sqrt(var / n)
        assert abs(scores.var() - var) < 4 * var * math.sqrt((kurtosis + 2) / n)


def test_energy_scores_match_per_sample_statistic_in_law():
    cfg = ScenarioConfig(rho_db=-5.0)
    pattern = (1, 1)
    camp = run_campaign(frozen(cfg, pattern), 20000, seed=13, index=4)
    slots = 4000
    amp = link_amplitudes(cfg) @ np.array(pattern, dtype=float)
    y = gen_observations(np.repeat(amp[:, None], slots, axis=1), cfg.noise_var,
                         cfg.sample_count, rng.stream(13, rng.OBSERVATIONS, 5))
    per_sample = llr_energy(y, cfg.tau0)
    n, m = camp.gamma.shape[1], slots
    for got, want in zip(camp.gamma, per_sample):
        assert scipy.stats.ks_2samp(got, want).statistic < 1.95 * math.sqrt((n + m) / (n * m))


@pytest.mark.parametrize("slots", [1, 700, _OBS_CHUNK])
def test_matched_scores_match_per_sample_statistic(slots):
    cfg = ScenarioConfig(rho_db=-5.0, sensing_mode="matched")
    pattern = (0, 1)
    camp = run_campaign(frozen(cfg, pattern), slots, seed=14, index=4)
    amp = link_amplitudes(cfg) @ np.array(pattern, dtype=float)
    y = gen_observations(np.repeat(amp[:, None], slots, axis=1), cfg.noise_var,
                         cfg.sample_count, rng.stream(14, rng.OBSERVATIONS, 4))
    templates = nominal_templates(cfg)
    for j, t in enumerate(templates):
        want = llr_matched(y[j], np.full(cfg.sample_count, t))
        # the dot product sums in another order: allow rounding relative to
        # a bound on the terms t * sum(y) and K t^2 / 2
        scale = cfg.sample_count * t * (t + np.abs(y[j]).max())
        np.testing.assert_allclose(camp.gamma[j], want, rtol=0, atol=1e-12 * scale)


def _whole_chunk_gamma(cfg, camp):
    """Oracle: matched scores from one (N, chunk, K) draw per chunk."""
    obs_gen = rng.stream(camp.seed, rng.OBSERVATIONS, camp.index)
    slot_amp = link_amplitudes(cfg) @ camp.activity.T.astype(float)
    templates = nominal_templates(cfg)
    k, slots = cfg.sample_count, camp.gamma.shape[1]
    gamma = np.empty_like(camp.gamma)
    for start in range(0, slots, _OBS_CHUNK):
        stop = min(start + _OBS_CHUNK, slots)
        y = obs_gen.standard_normal((cfg.node_count, stop - start, k))
        y *= np.sqrt(cfg.noise_var)
        y += slot_amp[:, start:stop, None]
        gamma[:, start:stop] = (templates[:, None] * y.sum(axis=2)
                                - k * templates[:, None] ** 2 / 2.0)
    return gamma


@pytest.mark.parametrize("mode", ["matched"])
def test_campaign_scores_equal_whole_chunk_draws(mode):
    cfg = ScenarioConfig(rho_db=-5.0, sensing_mode=mode)
    camp = run_campaign(cfg, 2 * _OBS_CHUNK + 300, seed=15, index=2)
    np.testing.assert_array_equal(camp.gamma, _whole_chunk_gamma(cfg, camp))


# ------------------------------------------------------ conditional stats


def test_scenario_stats_probabilities():
    cfg = ScenarioConfig()
    stats = scenario_stats(cfg)
    assert stats.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.patterns.shape == (4, 2)
    assert stats.x_table.shape == (5, 4)
    # node 3 is on whenever either transmitter is on
    np.testing.assert_array_equal(stats.x_table[2], [-1, 1, 1, 1])


def test_two_calibration_routes_agree_on_linear_rule():
    chain_w = np.eye(5)
    chain_w[1, 0] = 0.5
    chain_w[1, 2] = 0.5
    tree = tree_config()
    tree_w = np.eye(15)
    for i, j in tree.edges:
        tree_w[i - 1, j - 1] = tree_w[j - 1, i - 1] = 0.3
    cases = [
        (ScenarioConfig(rho_db=-5.0), chain_w, np.zeros(5), (1, 2, 3)),
        (tree, tree_w, np.linspace(-0.3, 0.4, 15), (1, 2, 5, 8)),
    ]
    slots = 60000
    for cfg, w, w0, nodes in cases:
        analytic = stats_for_weights(scenario_stats(cfg), w)
        camp = run_campaign(cfg, slots, seed=15)
        lam = w @ camp.gamma + w0[:, None]
        for j in nodes:
            for v in (-1, 1):
                sampled = lam[j - 1, camp.x[j - 1] == v]
                for tau in (-0.4, 0.0, 0.6):
                    # the offset w0_j shifts the threshold exactly
                    p_ana = gfun(tau - w0[j - 1], v, analytic[j])
                    p_emp = float(np.mean(sampled > tau))
                    assert abs(p_ana - p_emp) < 4 * math.sqrt(
                        p_ana * (1 - p_ana) / slots + 1e-6) + 0.01


def _moments_from_scenario_oracle(stats):
    """The masked per-node split: one boolean mask over the live patterns
    per (node, hypothesis)."""
    out = {}
    live = stats.probs > 0
    for j in range(1, stats.config.node_count + 1):
        weights_by_v, means_by_v, vars_by_v = {}, {}, {}
        for v in (-1, 1):
            sel = live & (stats.x_table[j - 1] == v)
            total = stats.probs[sel].sum()
            if total <= 0:
                raise ValueError(
                    f"node {j} has no cell with mass in state {v:+d}")
            weights_by_v[v] = stats.probs[sel] / total
            means_by_v[v] = stats.gamma_mean[:, sel].T.copy()
            vars_by_v[v] = stats.gamma_var[:, sel].T.copy()
        out[j] = {"weights": weights_by_v, "means": means_by_v, "variances": vars_by_v}
    return out


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0),
    ScenarioConfig(rho_db=-12.0, delta_rho_db=-1.2, sensing_mode="matched"),
    tree_config(),
    # every slot copies one common draw: patterns (1, 0) and (0, 1) never occur
    ScenarioConfig(coupling=1.0),
    ScenarioConfig(coupling=1.0, sensing_mode="matched"),
], ids=["energy-chain", "matched-chain", "matched-tree", "energy-zero-prob",
        "matched-zero-prob"])
def test_moments_from_scenario_match_masked_split(cfg):
    stats = scenario_stats(cfg)
    got, want = moments_from_scenario(stats), _moments_from_scenario_oracle(stats)
    np.testing.assert_array_equal(got.nodes, list(want))
    for j in want:
        own = own_components(got, j)
        for field in ("weights", "means", "variances"):
            for v in (-1, 1):
                np.testing.assert_array_equal(getattr(own, field)[v][0], want[j][field][v])
                assert getattr(got, field)[v].flags["C_CONTIGUOUS"]


def test_moments_from_scenario_never_idle_node_raises_as_masked_split():
    # duty cycle 1 makes the all-on pattern absorbing: no node is ever idle
    stats = scenario_stats(ScenarioConfig(on_prob=(1.0, 1.0), coupling=0.0))
    with pytest.raises(ValueError) as got:
        moments_from_scenario(stats)
    with pytest.raises(ValueError) as want:
        _moments_from_scenario_oracle(stats)
    assert str(got.value) == str(want.value)


def test_stats_for_weights_never_on_node_raises():
    # duty cycle 1 makes the all-on pattern absorbing: node states are
    # never -1, so conditioning on the idle hypothesis is impossible
    cfg = ScenarioConfig(on_prob=(1.0, 1.0), coupling=0.0)
    stats = scenario_stats(cfg)
    with pytest.raises(ValueError):
        stats_for_weights(stats, np.eye(5))


def test_conditioned_campaign_pins_pattern():
    camp = run_campaign(frozen(ScenarioConfig(), (0, 1)), 50, seed=16)
    assert isinstance(camp, Campaign)
    assert np.all(camp.activity == np.array([0, 1]))


def test_with_rho_rebuilds_config():
    cfg = ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0)
    moved = with_rho(cfg, -9.0, 0.9)
    assert moved.rho_db == -9.0
    assert moved.delta_rho_db == 0.9
    assert moved.coverage == cfg.coverage
    # link energies actually move
    assert np.all(link_amplitudes(moved) <= link_amplitudes(cfg))
    assert np.any(link_amplitudes(moved) < link_amplitudes(cfg))


def test_energy_moments_feed_scenario_stats():
    cfg = ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0)
    stats = scenario_stats(cfg)
    # silence pattern: every node's score is the null energy statistic
    pat0 = [tuple(p) for p in stats.patterns].index((0, 0))
    m0, v0 = energy_moments(0.0, cfg.noise_var, cfg.sample_count, cfg.tau0)
    np.testing.assert_allclose(stats.gamma_mean[:, pat0], m0, atol=1e-12)
    np.testing.assert_allclose(stats.gamma_var[:, pat0], v0, atol=1e-12)
