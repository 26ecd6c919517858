"""End-to-end evaluation cells: preset parsing, calibration, cell independence.

The batched exact thresholds of the linear presets are pinned bit for bit to
the per-node route (`helpers.stats_for_weights` and `solve_threshold`); the
engine presets' thresholds are held against the false-alarm rate they give
on the calibration campaign, recomputed from the engine.
"""

import numpy as np
import pytest

from mpfusion import discrete, optimizer, pipeline
from mpfusion.graph import MrfParams
from mpfusion.pipeline import (
    MethodSpec,
    conditioned_samples,
    evaluate_cell,
    parse_method,
    sweep_rho,
)
from mpfusion.scenario import ScenarioConfig, node_states, run_campaign, with_rho

from helpers import solve_threshold, stats_for_weights, tree_config


def _small_cfg(**kw):
    return ScenarioConfig(rho_db=kw.pop("rho_db", -4.0),
                          delta_rho_db=kw.pop("delta_rho_db", 1.0), **kw)


# ------------------------------------------------------------ preset labels


@pytest.mark.parametrize("label,kind,param", [
    ("mp0.1", "mp", 0.1),
    ("bp1.0", "bp", 1.0),
    ("bp1", "bp", 1.0),
    ("egc0.3", "egc", 0.3),
    ("linear0.25", "linear", 0.25),
    ("local", "local", None),
    ("linProp", "linProp", None),
    ("linPropB", "linPropB", None),
    ("linOpt", "linOpt", None),
])
def test_parse_method_accepts(label, kind, param):
    spec = parse_method(label)
    assert spec == MethodSpec(label, kind, param)


@pytest.mark.parametrize("label", [
    "mp", "mp-0.1", "qp0.1", "MP0.1", "linprop", "mp0.1.2", "", "local2",
])
def test_parse_method_rejects(label):
    with pytest.raises(ValueError):
        parse_method(label)


def _no_campaigns(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a campaign ran before the entry checks")
    monkeypatch.setattr(pipeline, "run_campaign", ran)


@pytest.mark.parametrize("entry", [5, None, ("mp", 0.1)], ids=["int", "none", "tuple"])
def test_evaluate_cell_rejects_non_label_entries_at_entry(entry, monkeypatch):
    _no_campaigns(monkeypatch)
    with pytest.raises(ValueError, match="method label must be a string"):
        evaluate_cell(_small_cfg(), ["local", entry], seed=5, training_slots=50,
                      calibration_slots=50, eval_slots=50)


@pytest.mark.parametrize("index", [True, -1, 1.0, 0.5],
                         ids=["bool", "negative", "integral-float", "fractional"])
def test_cell_index_must_be_a_nonnegative_integer(index, monkeypatch):
    _no_campaigns(monkeypatch)
    with pytest.raises(ValueError, match="cell_index"):
        evaluate_cell(_small_cfg(), ["local"], seed=5, cell_index=index,
                      training_slots=50, calibration_slots=50, eval_slots=50)


def test_evaluate_cell_accepts_prebuilt_specs():
    cfg = _small_cfg()
    spec = MethodSpec("local", "local")
    (res,) = evaluate_cell(cfg, [spec], seed=20, training_slots=300,
                           calibration_slots=500, eval_slots=500)
    assert res.label == "local"


# --------------------------------------------------------------- one cell


def test_local_detector_hits_far_target():
    cfg = _small_cfg(far=0.1)
    (res,) = evaluate_cell(cfg, ["local"], seed=21,
                           training_slots=500, calibration_slots=4000,
                           eval_slots=20000)
    assert res.label == "local"
    pf = np.asarray(res.report.pf)
    se = np.asarray(res.report.stderr_pf)
    ok = ~np.isnan(pf)
    assert ok.any()
    np.testing.assert_array_less(np.abs(pf[ok] - 0.1), 3.5 * se[ok] + 1e-12)


def test_egc_zero_coefficient_reduces_to_local():
    cfg = _small_cfg()
    a, b = evaluate_cell(cfg, ["local", "egc0.0"], seed=22,
                         training_slots=500, calibration_slots=3000,
                         eval_slots=5000)
    np.testing.assert_allclose(a.thresholds, b.thresholds, atol=1e-9)
    np.testing.assert_allclose(a.report.pd, b.report.pd, atol=1e-12)
    np.testing.assert_allclose(a.report.pf, b.report.pf, atol=1e-12)


def test_unknown_training_labels_rejected_at_entry():
    # linProp never reads training labels, so only an entry check sees this
    with pytest.raises(ValueError, match="training label"):
        evaluate_cell(_small_cfg(), ["linProp"], seed=5, training_labels="bogus",
                      training_slots=50, calibration_slots=50, eval_slots=50)


@pytest.mark.parametrize("slots", [500.0, True], ids=["integral-float", "bool"])
@pytest.mark.parametrize("which", ["training_slots", "calibration_slots", "eval_slots"])
def test_cell_slot_counts_must_be_integers(which, slots):
    counts = {"training_slots": 50, "calibration_slots": 50, "eval_slots": 50}
    with pytest.raises(ValueError, match="slots"):
        evaluate_cell(_small_cfg(), ["local"], seed=5, **{**counts, which: slots})


# ------------------------------------------------------- linear presets


def _bare_cell(cfg, seed=3):
    top = cfg.topology()
    return pipeline._Cell(cfg, top, seed, 0, top.node_count - 1, "local", 8, 8, 8)


@pytest.mark.parametrize("cfg", [_small_cfg(rho_db=-5.0), _small_cfg(rho_db=-12.0),
                                 tree_config(), tree_config(-8.0)],
                         ids=["chain-5dB", "chain-12dB", "tree-16dB", "tree-8dB"])
def test_linear_thresholds_equal_per_node_route(cfg):
    cell = _bare_cell(cfg)
    n = cell.top.node_count
    egc = pipeline._engine_lambda(cell.top, np.eye(n), discrete.LINEARIZED, cell.iterations,
                                  coefficients=optimizer.egc_weights(cell.top, 0.3))
    rand = np.random.default_rng(n).uniform(-0.8, 0.8, (n, n))
    np.fill_diagonal(rand, 1.0)
    for w in (np.eye(n), egc, rand):
        cond = stats_for_weights(cell.stats, w)
        want = np.array([solve_threshold(cond[j], -1, cfg.far) for j in cell.top.nodes])
        np.testing.assert_array_equal(cell.linear_thresholds(w), want)


def test_linear_thresholds_solve_once_per_matrix(monkeypatch):
    calls = []
    solve = pipeline.solve_thresholds

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_thresholds", counted)
    cell = _bare_cell(tree_config())
    cell.linear_thresholds(np.eye(15))
    assert calls == [(15, 64)]          # every row, padded to the widest node


def test_linear_presets_probe_the_engine_once(monkeypatch):
    # linear and egc read W off the engine with N unit probes; their
    # decision variables are W gamma, not another engine run on the slots
    shapes = []
    run = discrete.run_messages

    def recorded(top, gamma, algorithm, *args, **kwargs):
        if algorithm == discrete.LINEARIZED:
            shapes.append(np.shape(gamma))
        return run(top, gamma, algorithm, *args, **kwargs)

    monkeypatch.setattr(discrete, "run_messages", recorded)
    cfg = _small_cfg()
    top = cfg.topology()
    evaluate_cell(cfg, ["linear0.3", "egc0.3"], seed=6, training_slots=300,
                  calibration_slots=400, eval_slots=400)
    assert shapes == [(5, 5), (5, 5)]

    # the probed matrix is the engine's exact rule on any scores
    coeffs = optimizer.egc_weights(top, 0.3)
    w = pipeline._engine_lambda(top, np.eye(5), discrete.LINEARIZED, 4, coefficients=coeffs)
    gamma = pipeline.run_campaign(cfg, 400, 6, index=pipeline._EVAL).gamma
    engine = discrete.decision_variables(
        run(top, gamma, discrete.LINEARIZED, 4, coefficients=coeffs), top, gamma)
    np.testing.assert_allclose(w @ gamma, engine, rtol=0, atol=1e-12)


def test_fusion_beats_local_at_moderate_snr():
    cfg = _small_cfg(rho_db=-6.0)
    local, fused = evaluate_cell(cfg, ["local", "linProp"], seed=23,
                                 training_slots=2000, calibration_slots=8000,
                                 eval_slots=20000)
    assert np.nanmean(fused.report.pd) > np.nanmean(local.report.pd)


def test_rows_flatten_in_node_order():
    cfg = _small_cfg()
    (res,) = evaluate_cell(cfg, ["local"], seed=24,
                           training_slots=500, calibration_slots=2000,
                           eval_slots=2000)
    rows = res.rows()
    assert len(rows) == 5
    assert [r[3] for r in rows] == [1, 2, 3, 4, 5]
    for r in rows:
        assert r[0] == "local"
        assert r[1] == cfg.rho_db
        assert r[2] == cfg.delta_rho_db


def test_mp_preset_records_couplings():
    cfg = _small_cfg()
    (res,) = evaluate_cell(cfg, ["mp0.3"], seed=25,
                           training_slots=1000, calibration_slots=2000,
                           eval_slots=2000)
    learned = res.extras.get("couplings")
    assert learned is not None
    for edge, j in learned.items():
        assert abs(j) <= 0.3 + 1e-12


@pytest.mark.parametrize("label", ["mp1.0", "bp0.3"])
def test_engine_thresholds_pin_calibration_far(label):
    # node j's threshold is the (1 - far) quantile of its n0 idle calibration
    # slots, so the calibration campaign's own FAR is within 1/n0 of far
    cfg, seed, slots = _small_cfg(), 26, 3000
    (res,) = evaluate_cell(cfg, [label], seed=seed, training_slots=500,
                           calibration_slots=slots, eval_slots=100)
    top = cfg.topology()
    params = MrfParams(top, {tuple(map(int, e.split("-"))): c
                             for e, c in res.extras["couplings"].items()},
                       convention="merged")
    calib = run_campaign(cfg, slots, seed, index=pipeline._CALIB)
    algorithm = discrete.MAX_PRODUCT if label.startswith("mp") else discrete.SUM_PRODUCT
    state = discrete.run_messages(top, calib.gamma, algorithm, top.node_count - 1,
                                  params=params)
    lam = discrete.decision_variables(state, top, calib.gamma)
    for j in top.nodes:
        idle = calib.x[j - 1] == -1
        far = np.mean(lam[j - 1, idle] > res.thresholds[j - 1])
        assert abs(far - cfg.far) <= 1.0 / idle.sum()


def test_engine_thresholds_need_an_idle_calibration_slot():
    # duty cycle 1 makes the all-on pattern absorbing: no node is ever idle
    cfg = ScenarioConfig(on_prob=(1.0, 1.0), coupling=0.0)
    with pytest.raises(ValueError, match="no calibration slots with node 1 in state -1"):
        evaluate_cell(cfg, ["mp0.3"], seed=5, training_labels="genie",
                      training_slots=50, calibration_slots=50, eval_slots=50)


def test_lin_presets_share_one_neighbourhood_design_per_node(monkeypatch):
    calls = []
    design = optimizer.neighbourhood_designs

    def counted(moments, top, *args, **kwargs):
        found = design(moments, top, *args, **kwargs)
        calls.append(found.weights.shape)
        return found

    monkeypatch.setattr(optimizer, "neighbourhood_designs", counted)
    cfg = _small_cfg()
    evaluate_cell(cfg, ["linProp", "linOpt"], seed=27, training_slots=300,
                  calibration_slots=500, eval_slots=500)
    assert calls == [(cfg.node_count, cfg.node_count)]


def test_design_presets_report_their_search(monkeypatch):
    monkeypatch.setattr(optimizer, "_MAX_STEPS", 1)
    cfg = _small_cfg()
    prop, blind, opt = evaluate_cell(cfg, ["linProp", "linPropB", "linOpt"], seed=27,
                                     training_slots=300, calibration_slots=500,
                                     eval_slots=500)
    n = cfg.node_count
    for res in (prop, blind, opt):
        np.testing.assert_array_equal(np.diag(res.extras["weights"]), np.ones(n))
        assert len(res.extras["converged"]) == n
        assert len(res.extras["evaluations"]) == n
        assert all(count > 0 for count in res.extras["evaluations"])
    assert ("model_pd" in prop.extras, "model_pd" in blind.extras,
            "model_pd" in opt.extras) == (True, False, True)
    assert len(blind.extras["blind_thresholds"]) == n
    assert set(blind.extras["folded_cells"]) == set(cfg.topology().nodes)
    assert all(count >= 0 for count in blind.extras["folded_cells"].values())
    # one trial per row leaves every network row short of a stationary point
    assert opt.extras["converged"] == [False] * n


# ------------------------------------------------------------------ sweeps


def test_sweep_grid_and_delta_rules():
    cfg = _small_cfg(delta_rho_db=1.0)
    res = sweep_rho(cfg, ["local"], [-8.0, -4.0], seed=26,
                    delta_rule="proportional", proportional_factor=0.1,
                    training_slots=300, calibration_slots=1000,
                    eval_slots=1000)
    assert [r.rho_db for r in res] == [-8.0, -4.0]
    assert [r.delta_rho_db for r in res] == [-0.8, -0.4]
    fixed = sweep_rho(cfg, ["local"], [-8.0], seed=26,
                      training_slots=300, calibration_slots=1000,
                      eval_slots=1000)
    assert fixed[0].delta_rho_db == 1.0


def test_sweep_rejects_unknown_delta_rule():
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        sweep_rho(cfg, ["local"], [-5.0], seed=1, delta_rule="sliding")


def test_sweep_cells_equal_their_keyed_evaluate_cell():
    # each cell draws from streams keyed by its grid index, so running it
    # alone gives the same bits; a parallel sweep would rely on this
    cfg = _small_cfg()
    kw = dict(training_slots=400, calibration_slots=1500, eval_slots=1500)
    methods, grid = ["local", "mp0.1"], [-8.0, -5.0, -2.0]
    swept = sweep_rho(cfg, methods, grid, seed=27, delta_rule="proportional",
                      proportional_factor=0.1, **kw)
    assert len(swept) == 6
    for i, rho in enumerate(grid):
        alone = evaluate_cell(with_rho(cfg, rho, 0.1 * rho), methods, seed=27,
                              cell_index=i, **kw)
        for a, b in zip(swept[2 * i:2 * i + 2], alone):
            assert a.label == b.label and a.rho_db == b.rho_db == rho
            np.testing.assert_array_equal(a.thresholds, b.thresholds)
            np.testing.assert_array_equal(
                np.asarray(a.report.pf), np.asarray(b.report.pf))
            np.testing.assert_array_equal(
                np.asarray(a.report.pd), np.asarray(b.report.pd))


def test_same_seed_same_cell_reproduces():
    cfg = _small_cfg()
    kw = dict(training_slots=400, calibration_slots=1000, eval_slots=1000)
    (a,) = evaluate_cell(cfg, ["bp0.2"], seed=28, **kw)
    (b,) = evaluate_cell(cfg, ["bp0.2"], seed=28, **kw)
    np.testing.assert_array_equal(
        np.asarray(a.report.pd), np.asarray(b.report.pd))
    (c,) = evaluate_cell(cfg, ["bp0.2"], seed=29, **kw)
    assert not np.array_equal(np.asarray(a.report.pd), np.asarray(c.report.pd))


# ----------------------------------------------------- conditioned samples


def test_conditioned_samples_shapes_and_pinning():
    cfg = _small_cfg()
    lam, camp, params = conditioned_samples(cfg, "max_product", (1, 0), 50, seed=30)
    assert lam.shape == (5, 50)
    assert np.all(camp.activity == np.array([1, 0]))
    assert params.convention == "merged"
    assert set(params.couplings) == set(cfg.topology().edges)
    for j in params.couplings.values():
        assert 0.0 < j < 100.0


def test_conditioned_samples_pin_every_transmitter_of_the_tree():
    # seven coupled transmitters: the frozen chain neither flips one nor
    # draws a common state, and the truth follows the pinned pattern
    cfg = tree_config()
    pattern = (1, 0, 1, 1, 0, 0, 1)
    lam, camp, _ = conditioned_samples(cfg, "sum_product", pattern, 300, seed=34)
    assert lam.shape == (15, 300)
    assert np.all(camp.activity == np.array(pattern))
    np.testing.assert_array_equal(camp.x, node_states(cfg, camp.activity))


def test_conditioned_samples_deterministic():
    cfg = _small_cfg()
    a, _, pa = conditioned_samples(cfg, "sum_product", (0, 1), 40, seed=31)
    b, _, pb = conditioned_samples(cfg, "sum_product", (0, 1), 40, seed=31)
    np.testing.assert_array_equal(a, b)
    assert pa.couplings == pb.couplings


@pytest.mark.parametrize("iterations", [2.5, 2.0, True, -1],
                         ids=["fractional", "integral-float", "bool", "negative"])
def test_engine_rounds_must_be_nonnegative_integers(iterations):
    cfg = _small_cfg()
    with pytest.raises(ValueError, match="iterations"):
        evaluate_cell(cfg, ("local",), 5, iterations=iterations,
                      training_slots=50, calibration_slots=50, eval_slots=50)
    with pytest.raises(ValueError, match="iterations"):
        conditioned_samples(cfg, "max_product", (1, 0), 20, seed=32,
                            iterations=iterations)


def test_engine_rounds_default_to_node_count_minus_one():
    cfg = _small_cfg()
    default, _, _ = conditioned_samples(cfg, "max_product", (1, 1), 40, seed=33)
    four, _, _ = conditioned_samples(cfg, "max_product", (1, 1), 40, seed=33,
                                     iterations=np.int64(4))
    three, _, _ = conditioned_samples(cfg, "max_product", (1, 1), 40, seed=33,
                                      iterations=3)
    np.testing.assert_array_equal(default, four)
    assert not np.array_equal(default, three)
