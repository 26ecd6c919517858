"""Coupling learning, fusion-coefficient search, and the blind bootstrap.

The neighbourhood optimizer is validated against an exhaustive fine grid
over the same objective on low-dimensional instances, so the oracle is
independent of the ascent logic.  The closed-form gradient the ascent climbs
is pinned to central differences of the per-node threshold and tail oracles,
its designs to first-order optimality and to the model Pd of the
coordinate-ascent designs it replaced, and the blind bootstrap's sorted cell
fit to the per-pattern mask loop it replaced, which is kept here as oracle.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfusion import optimizer, rng
from mpfusion.graph import Topology, chain, neighbors
from mpfusion.optimizer import (
    BlindResult,
    ComponentMoments,
    ContractionWarning,
    blind_adapt,
    egc_weights,
    learn_couplings,
    neighbourhood_designs,
    optimize_p1,
    stability_box,
)
from mpfusion.scenario import (
    ScenarioConfig,
    moments_from_scenario,
    run_campaign,
    scenario_stats,
)

from helpers import (
    gfun,
    node_designs,
    node_moments,
    optimize_p2,
    own_components,
    solve_threshold,
    star,
    stats_for_weights,
    tree_config,
)


def _two_node_moments(sep=2.0, noise=1.0, corr_quality=1.0):
    """Node 1 with one neighbour (node 2); neighbour mean shift scales with
    `corr_quality` so its usefulness is tunable."""
    weights = {v: np.array([1.0]) for v in (-1, 1)}
    means = {
        -1: np.array([[0.0, 0.0]]),
        1: np.array([[sep, sep * corr_quality]]),
    }
    variances = {v: np.array([[noise, noise]]) for v in (-1, 1)}
    return node_moments(1, weights, means, variances)


# ---------------------------------------------------------------- couplings


def test_learn_couplings_hand_agreement():
    top = chain(3)
    labels = np.array([
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, 1, 1, 1],
    ])
    params = learn_couplings(labels, top, zeta=0.5)
    # edge (1,2): agreements +1,-1,+1,-1 -> mean 0; edge (2,3): 0.0
    assert params.coupling(1, 2) == pytest.approx(0.0)
    assert params.coupling(2, 3) == pytest.approx(0.5 * 0.0)
    assert params.convention == "merged"


def test_learn_couplings_bounded_by_zeta():
    gen = rng.stream(41, rng.GENERIC, 0)
    top = star(5)
    labels = np.where(gen.random((5, 200)) > 0.4, 1, -1)
    for zeta in (0.1, 0.3, 1.0):
        params = learn_couplings(labels, top, zeta)
        for e in top.edges:
            assert abs(params.coupling(*e)) <= zeta + 1e-15


def test_learn_couplings_perfect_agreement_hits_zeta():
    top = chain(2)
    labels = np.ones((2, 50), dtype=int)
    assert learn_couplings(labels, top, 0.7).coupling(1, 2) == pytest.approx(0.7)


def test_learn_couplings_validation():
    top = chain(2)
    with pytest.raises(ValueError):
        learn_couplings(np.array([[1, 0], [1, 1]]), top, 0.1)
    with pytest.raises(ValueError):
        learn_couplings(np.ones((3, 4)), top, 0.1)
    with pytest.raises(ValueError):
        learn_couplings(np.ones((2, 4)), top, -0.2)


# ----------------------------------------------------------- mixture moments


def test_stats_for_row_single_component():
    cm = _two_node_moments(sep=2.0, noise=4.0)
    stats = cm.stats_for_row(1, np.array([1, 2]), np.array([1.0, 0.5]))
    assert stats.means[1][0] == pytest.approx(2.0 + 0.5 * 2.0)
    assert stats.means[-1][0] == 0.0
    assert stats.stds[1][0] == pytest.approx(math.sqrt(4.0 + 0.25 * 4.0))


def test_stats_for_row_nan_raises():
    weights = {v: np.array([1.0]) for v in (-1, 1)}
    means = {v: np.array([[0.0, np.nan]]) for v in (-1, 1)}
    variances = {v: np.array([[1.0, 1.0]]) for v in (-1, 1)}
    cm = node_moments(1, weights, means, variances)
    cm.stats_for_row(1, np.array([1]), np.array([1.0]))  # covered part is fine
    with pytest.raises(ValueError):
        cm.stats_for_row(1, np.array([1, 2]), np.array([1.0, 0.1]))


def test_moments_from_scenario_agree_with_weight_route():
    # same mixture, built two ways: ComponentMoments + a row, vs the
    # scenario-level helper for a full weight matrix
    cfg = ScenarioConfig(rho_db=-5.0, delta_rho_db=1.0)
    stats = scenario_stats(cfg)
    moments = moments_from_scenario(stats)
    w = np.eye(5)
    w[2, 1] = 0.4
    w[2, 3] = -0.2
    by_weights = stats_for_weights(stats, w)
    row_stats = moments.stats_for_row(3, np.array([3, 2, 4]), np.array([1.0, 0.4, -0.2]))
    for v in (-1, 1):
        for tau in (-0.3, 0.0, 0.4):
            assert gfun(tau, v, row_stats) == pytest.approx(
                gfun(tau, v, by_weights[3]), abs=1e-12)


# ------------------------------------------------------- neighbourhood tune


def test_stability_box_values():
    assert stability_box(chain(5)) == 1.0
    assert stability_box(star(5)) == pytest.approx(1.0 / 3.0)
    assert stability_box(chain(2)) == 10.0  # documented stand-in for 'unbounded'
    assert stability_box(chain(1)) == 10.0  # edgeless: same stand-in


def test_optimize_p2_beats_fine_grid_oracle():
    cm = _two_node_moments(sep=1.0, noise=1.0, corr_quality=1.0)
    top = chain(2)
    sol = optimize_p2(cm, top, 1, alpha=0.1)
    box = stability_box(top) * (1 - 1e-9)
    lo, hi = (-2.0, 2.0) if math.isinf(box) else (-box, box)
    best = -np.inf
    for c in np.linspace(lo, hi, 4001):
        stats = cm.stats_for_row(1, np.array([1, 2]), np.array([1.0, c]))
        tau = solve_threshold(stats, -1, 0.1)
        best = max(best, gfun(tau, 1, stats))
    assert sol.pd >= best - 1e-6


def test_optimize_p2_useful_neighbour_gets_positive_weight():
    cm = _two_node_moments(sep=1.5, noise=1.0, corr_quality=1.0)
    sol = optimize_p2(cm, chain(2), 1, alpha=0.1)
    assert sol.coefficients[2] > 0.2
    # equally informative independent score: equal-gain is optimal
    assert sol.coefficients[2] == pytest.approx(1.0, abs=0.05)


def test_optimize_p2_useless_neighbour_stays_near_zero():
    cm = _two_node_moments(sep=1.5, noise=1.0, corr_quality=0.0)
    sol = optimize_p2(cm, chain(2), 1, alpha=0.1)
    assert abs(sol.coefficients[2]) < 0.05


def test_optimize_p2_never_below_local_detector():
    gen = rng.stream(42, rng.GENERIC, 0)
    top = star(4)
    for _ in range(5):
        sep = gen.uniform(0.2, 2.0)
        weights = {v: np.array([1.0]) for v in (-1, 1)}
        means = {
            -1: np.array([[0.0] * 4]),
            1: np.array([[sep] + list(gen.uniform(-1, 1, 3))]),
        }
        variances = {v: np.array([[1.0] * 4]) for v in (-1, 1)}
        cm = node_moments(1, weights, means, variances)
        sol = optimize_p2(cm, top, 1, alpha=0.1)
        local = cm.stats_for_row(1, np.array([1]), np.array([1.0]))
        tau = solve_threshold(local, -1, 0.1)
        assert sol.pd >= gfun(tau, 1, local) - 1e-12


def test_optimize_p2_threshold_pins_alpha():
    cm = _two_node_moments()
    sol = optimize_p2(cm, chain(2), 1, alpha=0.07)
    stats = cm.stats_for_row(1, np.array([1, 2]), np.array([1.0, sol.coefficients[2]]))
    assert gfun(sol.threshold, -1, stats) == pytest.approx(0.07, abs=1e-8)


def test_optimize_p2_respects_stability_box():
    cfg = ScenarioConfig()
    moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    box = stability_box(top)
    for node in (1, 3, 5):
        sol = optimize_p2(moments, top, node, alpha=0.1)
        for c in sol.coefficients.values():
            assert abs(c) < box


def test_optimize_p2_rejects_bad_alpha():
    with pytest.raises(ValueError):
        optimize_p2(_two_node_moments(), chain(2), 1, alpha=0.0)


# ------------------------------------------------------------ gradient ascent


def _oracle_pd(moments, node, cols, row, alpha, tol=1e-14):
    """Model Pd of one rule through the per-node oracles; the default `tol`
    solves the threshold far below the finite-difference step."""
    stats = moments.stats_for_row(node, cols, row)
    return gfun(solve_threshold(stats, -1, alpha, tol=tol), 1, stats)


@pytest.mark.parametrize("components", ["preset-cell", "matched-26", "blind"])
def test_pd_gradient_matches_central_differences(components):
    if components == "blind":
        cfg = ScenarioConfig()
        camp = run_campaign(cfg, 4000, 12345, index=1)
        labels = np.where(camp.gamma > 0, 1, -1).astype(np.int8)
        moments, _ = optimizer._blind_moments(camp.gamma, labels, cfg.topology(), 5)
    else:
        cfg = (ScenarioConfig() if components == "preset-cell" else
               ScenarioConfig(rho_db=-26.0, delta_rho_db=-2.6, sensing_mode="matched"))
        moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    gen = rng.stream(7, rng.GENERIC, 3)
    h = 1e-5
    for j in top.nodes:
        # one hop for the blind moments (NaN beyond it), every node otherwise
        others = list(neighbors(top, j)) if components == "blind" else [
            i for i in top.nodes if i != j]
        cols = [j] + others
        row = np.r_[1.0, gen.uniform(-0.8, 0.8, len(others))]
        tau, pf, pd, grad = moments._pd_gradient([j], cols, row[None], 0.1)
        assert pd[0] == pytest.approx(
            _oracle_pd(moments, j, cols, row, 0.1, tol=1e-9), abs=1e-12)
        assert pf[0] == pytest.approx(0.1, abs=1e-9)
        diff = np.empty(len(others))
        for i in range(len(others)):
            up, down = row.copy(), row.copy()
            up[i + 1] += h
            down[i + 1] -= h
            diff[i] = (_oracle_pd(moments, j, cols, up, 0.1)
                       - _oracle_pd(moments, j, cols, down, 0.1)) / (2 * h)
        scale = np.abs(diff).max()
        assert scale > 0
        assert np.abs(grad[0, 1:] - diff).max() <= 1e-5 * scale


def _projected_slack(moments, nodes, cols, rows, alpha, box):
    """Infinity norm per row of the model-Pd gradient in rows[:, 1:], with
    the coordinates at a bound of [-box, box] that it pushes outward left
    out."""
    grad = moments._pd_gradient(nodes, cols, rows, alpha)[3][:, 1:]
    w = rows[:, 1:]
    held = ((w >= box) & (grad > 0)) | ((w <= -box) & (grad < 0))
    return np.abs(np.where(held, 0.0, grad)).max(axis=1, initial=0.0)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(),
    ScenarioConfig(rho_db=-12.0, delta_rho_db=-1.2),
    ScenarioConfig(rho_db=0.0, delta_rho_db=0.0),
    ScenarioConfig(rho_db=-26.0, delta_rho_db=-2.6, sensing_mode="matched"),
], ids=["preset-cell", "energy-12", "energy0", "matched-26"])
def test_converged_designs_are_first_order_optimal(cfg):
    moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    nodes = np.array(top.nodes)
    hood = neighbourhood_designs(moments, top, 0.1)
    box = stability_box(top) * (1 - 1e-9)
    assert hood.converged.all()
    for j in top.nodes:
        cols = [j] + list(neighbors(top, j))
        row = hood.weights[j - 1, np.array(cols) - 1]
        assert _projected_slack(moments, [j], cols, row[None], 0.1, box)[0] <= 1e-6
    p1 = optimize_p1(moments, top, 0.1, hood)
    assert p1.converged.all()
    cols = np.array([[j] + [i for i in top.nodes if i != j] for j in top.nodes])
    rows = p1.weights[nodes[:, None] - 1, cols - 1]
    assert (_projected_slack(moments, nodes, cols, rows, 0.1, 2.0) <= 1e-6).all()


# Per-node model Pd of the coordinate-ascent designs that the gradient ascent
# replaced (alpha 0.1), to 12 decimals: linProp, then linOpt.
_PINNED_PD = {
    "preset-cell": (ScenarioConfig(), (
        (0.960685112872, 0.993976725505, 0.946132758233, 0.993716387481, 0.941472098621),
        (0.994962048406, 0.994962048396, 0.981029602851, 0.995266654797, 0.995266654803))),
    "matched-26": (ScenarioConfig(rho_db=-26.0, delta_rho_db=-2.6, sensing_mode="matched"), (
        (0.255374808648, 0.446763431611, 0.475205565642, 0.456645776864, 0.304988227616),
        (0.473455855589, 0.473455855885, 0.504699042416, 0.473455855909, 0.473455854851))),
}


@pytest.mark.parametrize("cell", sorted(_PINNED_PD))
def test_designs_reach_the_pinned_model_pd(cell):
    cfg, (prop, opt) = _PINNED_PD[cell]
    moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    hood = neighbourhood_designs(moments, top, 0.1)
    p1 = optimize_p1(moments, top, 0.1, hood)
    assert (hood.pd >= np.array(prop) - 1e-9).all()
    assert (p1.pd >= np.array(opt) - 1e-9).all()


def test_tree_designs_converge_and_keep_their_order():
    cfg = tree_config()
    moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    hood = neighbourhood_designs(moments, top, 0.1)
    p1 = optimize_p1(moments, top, 0.1, hood)
    assert hood.converged.all() and p1.converged.all()
    for j in top.nodes:
        local = moments.stats_for_row(j, [j], [1.0])
        pd_local = gfun(solve_threshold(local, -1, 0.1), 1, local)
        assert hood.pd[j - 1] >= pd_local - 1e-12
        assert p1.pd[j - 1] >= hood.pd[j - 1] - 1e-12


def test_rows_stop_at_the_resolution_of_pd():
    # node 3's exact design on the bench chain meets its optimum at trial 14
    # and once took 33 more rejected trials halving its step toward 1e-12
    cfg = ScenarioConfig()
    moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    hood = neighbourhood_designs(moments, top, 0.1)
    assert hood.converged[2] and hood.evaluations[2] <= 20
    # a restart at the converged network design gains no resolvable Pd: every
    # row stops once its trials promise no more (node 3 once took 47 trials)
    p1 = optimize_p1(moments, top, 0.1, hood)
    nodes = np.array(top.nodes)
    cols = np.array([[j] + [i for i in top.nodes if i != j] for j in top.nodes])
    rows = p1.weights[nodes[:, None] - 1, cols - 1]
    point, converged, _, _, pd, evals = optimizer._ascend_rows(
        moments, nodes, cols, rows[:, 1:], 0.1, 2.0)
    assert converged.all() and (evals <= 20).all()
    assert (pd >= p1.pd).all() and (pd - p1.pd <= 1e-13).all()


def test_neighbourhood_designs_equal_per_node_designs(monkeypatch):
    moments, top, hood = _p1_inputs()
    calls, ascend = [], optimizer._ascend_rows

    def counted(moments, nodes, *args):
        calls.append(list(nodes))
        return ascend(moments, nodes, *args)

    monkeypatch.setattr(optimizer, "_ascend_rows", counted)
    assert node_designs(neighbourhood_designs(moments, top, 0.1), top) == {
        j: optimize_p2(moments, top, j, alpha=0.1) for j in top.nodes}
    assert calls == [[1, 2, 3, 4, 5]]        # one lockstep ascent for every degree
    calls.clear()
    optimize_p1(moments, top, 0.1, hood)
    assert calls == [[1, 2, 3, 4, 5]]
    star_top = star(4)
    cfg = ScenarioConfig(node_count=4, edges=star_top.edges, rho_db=-6.0,
                         coverage={1: (1, 2, 3, 4)}, on_prob=(0.5,))
    stars = moments_from_scenario(scenario_stats(cfg))
    assert node_designs(neighbourhood_designs(stars, star_top, 0.1), star_top) == {
        j: optimize_p2(stars, star_top, j, alpha=0.1) for j in star_top.nodes}
    # the 15-node tree: degrees 1, 2 and 3 padded to 3 in one ascent
    tree = tree_config()
    tree_top = tree.topology()
    trees = moments_from_scenario(scenario_stats(tree))
    tree_design = neighbourhood_designs(trees, tree_top, 0.1)
    assert node_designs(tree_design, tree_top) == {
        j: optimize_p2(trees, tree_top, j, alpha=0.1) for j in tree_top.nodes}
    # padded coordinates leave the unit diagonal and every non-neighbour at 0
    support = np.eye(tree_top.node_count, dtype=bool)
    for i, j in tree_top.edges:
        support[i - 1, j - 1] = support[j - 1, i - 1] = True
    np.testing.assert_array_equal(np.diag(tree_design.weights), 1.0)
    np.testing.assert_array_equal(tree_design.weights[~support], 0.0)


# ------------------------------------------------------------ network tune


def _p1_inputs():
    """Exact moments, topology and neighbourhood designs (alpha 0.1) of the
    bench chain at -8 dB."""
    cfg = ScenarioConfig(rho_db=-8.0)
    moments = moments_from_scenario(scenario_stats(cfg))
    top = cfg.topology()
    return moments, top, neighbourhood_designs(moments, top, 0.1)


def test_optimize_p1_not_worse_than_zero_extended_neighbourhood():
    moments, top, hood = _p1_inputs()
    p1 = optimize_p1(moments, top, 0.1, hood)
    assert (p1.pd >= hood.pd - 1e-9).all()
    np.testing.assert_allclose(np.diag(p1.weights), 1.0)
    np.testing.assert_allclose(p1.pf, 0.1, atol=1e-6)


def test_optimize_p1_names_rows_stopped_at_sweep_cap(monkeypatch):
    # one trial per row leaves every row short of a stationary point
    monkeypatch.setattr(optimizer, "_MAX_STEPS", 1)
    moments, top, hood = _p1_inputs()
    p1 = optimize_p1(moments, top, 0.1, hood)
    assert p1.converged.tolist() == [False] * 5
    assert p1.evaluations.tolist() == [2] * 5


@pytest.mark.parametrize("design,message", [
    ("other-alpha", "start design is for false-alarm rate 0.05, not 0.1"),
    ("node-count", "start design has 4 nodes, not 5"),
], ids=["other-alpha", "node-count"])
def test_optimize_p1_checks_its_neighbourhood_designs(design, message):
    moments, top, hood = _p1_inputs()
    if design == "other-alpha":
        hood = neighbourhood_designs(moments, top, 0.05)
    else:
        hood = replace(hood, weights=hood.weights[:4, :4])
    with pytest.raises(ValueError, match=message):
        optimize_p1(moments, top, 0.1, hood)


@pytest.mark.parametrize("design", ["p2", "neighbourhood", "p1"])
def test_designs_reject_components_lacking_the_node(design):
    moments, top, hood = _p1_inputs()
    keep = moments.nodes != 3
    lacking = ComponentMoments(moments.nodes[keep], *(
        {v: getattr(moments, field)[v][keep] for v in (-1, 1)}
        for field in ("weights", "means", "variances")))
    with pytest.raises(ValueError, match="no components for node 3"):
        if design == "p2":
            optimize_p2(lacking, top, 3, alpha=0.1)
        elif design == "neighbourhood":
            neighbourhood_designs(lacking, top, 0.1)
        else:
            optimize_p1(lacking, top, 0.1, hood)


# -------------------------------------------------------------- equal gain


def test_egc_weights_inside_box_silent():
    top = chain(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = egc_weights(top, 0.3)
    assert set(w) == set(top.directed_edges())
    assert all(v == 0.3 for v in w.values())


def test_egc_weights_outside_box_warns():
    with pytest.warns(ContractionWarning):
        egc_weights(star(5), 0.5)
    with pytest.warns(ContractionWarning):
        egc_weights(star(5), -0.34)


# ------------------------------------------------------------------- blind


def _blind_fixture(sep=3.0, noise=0.5, slots=4000, seed=7):
    cfg_top = chain(3)
    gen = rng.stream(seed, rng.GENERIC, 9)
    x = np.where(gen.random(slots) > 0.5, 1, -1)
    truth = np.tile(x, (3, 1)).astype(np.int8)  # common state, easy case
    # scores are signed LLR-like: centred below zero when idle
    gamma = (sep / 2.0) * truth + math.sqrt(noise) * gen.standard_normal((3, slots))
    return cfg_top, gamma, truth


def test_blind_adapt_recovers_labels_on_easy_data():
    top, gamma, truth = _blind_fixture()
    res = blind_adapt(gamma, top, alpha=0.1, truth=truth)
    assert isinstance(res, BlindResult)
    assert res.final_accuracy > 0.95
    assert res.final_accuracy >= res.initial_accuracy - 0.01
    assert res.design.weights.shape == (3, 3)
    assert res.design.converged.shape == res.design.pd.shape == (3,)


def test_blind_adapt_majority_rounds_idempotent():
    top, gamma, truth = _blind_fixture()
    one = blind_adapt(gamma, top, alpha=0.1, rounds=1)
    three = blind_adapt(gamma, top, alpha=0.1, rounds=3)
    np.testing.assert_array_equal(one.labels, three.labels)


def test_blind_adapt_deterministic():
    top, gamma, _ = _blind_fixture()
    a = blind_adapt(gamma, top, alpha=0.1)
    b = blind_adapt(gamma, top, alpha=0.1)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.design.weights, b.design.weights)


def test_blind_adapt_single_class_raises():
    top = chain(2)
    gamma = np.abs(rng.stream(8, rng.GENERIC, 0).standard_normal((2, 500))) + 1.0
    with pytest.raises(ValueError):
        blind_adapt(gamma, top, alpha=0.1)


def test_blind_adapt_rejects_negative_rounds():
    top, gamma, _ = _blind_fixture(slots=200)
    with pytest.raises(ValueError, match="rounds"):
        blind_adapt(gamma, top, alpha=0.1, rounds=-1)


@pytest.mark.parametrize("kwargs", [{"rounds": True}, {"rounds": 2.5}, {"rounds": 2.0},
                                    {"min_cell": 2.5}, {"min_cell": 5.0}],
                         ids=["rounds-bool", "rounds-fractional", "rounds-float",
                              "min_cell-fractional", "min_cell-float"])
def test_blind_adapt_counts_must_be_integers(kwargs):
    top, gamma, _ = _blind_fixture(slots=200)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        blind_adapt(gamma, top, alpha=0.1, **kwargs)


def test_blind_adapt_rejects_one_slot_cells():
    top, gamma, _ = _blind_fixture(slots=200)
    with pytest.raises(ValueError, match="min_cell"):
        blind_adapt(gamma, top, alpha=0.1, min_cell=1)


def _blind_moments_oracle(g, labels, top, min_cell):
    """The per-pattern masked fit: np.unique over the one-hop label columns
    of each class, then one boolean mask over all slots per cell; node ->
    (weights, means, variances) per class, and node -> the number of cells
    folded away.  A node missing a class fails before any cell is fitted."""
    n = g.shape[0]
    moments, folded = {}, {}
    for j in top.nodes:
        if np.unique(labels[j - 1]).size < 2:
            raise ValueError(
                f"blind labels give node {j} only one class; cannot adapt")
    for j in top.nodes:
        folded[j] = 0
        local = np.array([j] + list(neighbors(top, j)))
        keys = labels[[k - 1 for k in local]]
        weights_by_v, means_by_v, vars_by_v = {}, {}, {}
        for v in (-1, 1):
            sel = labels[j - 1] == v
            cells = []
            patterns = np.unique(keys[:, sel], axis=1)
            for col in range(patterns.shape[1]):
                pat = patterns[:, col]
                cell = sel & np.all(keys == pat[:, None], axis=0)
                count = int(cell.sum())
                if count < min_cell:
                    folded[j] += 1
                    continue
                mean_vec = np.full(n, np.nan)
                var_vec = np.full(n, np.nan)
                samples = g[:, cell]
                mean_vec[local - 1] = samples[local - 1].mean(axis=1)
                var_vec[local - 1] = samples[local - 1].var(axis=1, ddof=1)
                if np.any(var_vec[local - 1] <= 0):
                    folded[j] += 1
                    continue
                cells.append((count, mean_vec, var_vec))
            if not cells:
                raise ValueError(
                    f"node {j} has no cell with mass in state {v:+d}")
            counts = np.array([c for c, _, _ in cells], dtype=float)
            weights_by_v[v] = counts / counts.sum()
            means_by_v[v] = np.stack([m for _, m, _ in cells])
            vars_by_v[v] = np.stack([s for _, _, s in cells])
        moments[j] = weights_by_v, means_by_v, vars_by_v
    return moments, folded


def _moments_or_error(fit, *args):
    try:
        return fit(*args)
    except ValueError as err:
        return str(err)


_BLIND_TOPOLOGIES = (chain(2), chain(4), star(4),
                     Topology(4, ((1, 2), (2, 3), (3, 1), (3, 4))))


@st.composite
def _blind_cases(draw):
    top = draw(st.sampled_from(_BLIND_TOPOLOGIES))
    n = top.node_count
    slots = draw(st.integers(1, 200))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a skewed label draw leaves one class thin or absent
    labels = np.where(gen.random((n, slots)) < draw(st.floats(0.0, 1.0)),
                      1, -1).astype(np.int8)
    # without noise, a few distinct values leave some cells with zero spread
    levels = draw(st.integers(1, 3))
    noise = draw(st.sampled_from([0.0, 1.0]))
    g = (gen.integers(0, levels, (n, slots)) * 0.5
         + noise * gen.standard_normal((n, slots)))
    return g, labels, top, draw(st.integers(2, 8))


@settings(max_examples=60, deadline=None)
@given(_blind_cases())
def test_blind_moments_match_masked_cells(case):
    got = _moments_or_error(optimizer._blind_moments, *case)
    want = _moments_or_error(_blind_moments_oracle, *case)
    if isinstance(want, str):
        assert got == want
        return
    (moments, folded), (want_moments, want_folded) = got, want
    np.testing.assert_array_equal(moments.nodes, list(want_moments))
    assert folded == want_folded
    for j, fields in want_moments.items():
        own = own_components(moments, j)
        for name, want_field in zip(("weights", "means", "variances"), fields):
            for v in (-1, 1):
                np.testing.assert_array_equal(getattr(own, name)[v][0], want_field[v])


def test_blind_adapt_counts_folded_cells():
    # 300 slots over chain(3)'s one-hop label patterns leave some cells
    # thinner than 30 slots; with noisy scores no cell lacks spread, so
    # every folded cell is a thin one
    top, gamma, truth = _blind_fixture(sep=1.0, noise=1.0, slots=300)
    res = blind_adapt(gamma, top, alpha=0.1, min_cell=30)
    recount = {}
    for j in top.nodes:
        local = [j] + list(neighbors(top, j))
        _, counts = np.unique(res.labels[[k - 1 for k in local]], axis=1,
                              return_counts=True)
        recount[j] = int(np.sum(counts < 30))
    assert res.folded_cells == recount
    assert sum(recount.values()) > 0
