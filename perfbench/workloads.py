"""The three benchmark workloads: their inputs, one round of work, and the
plain-data outputs the checks read.

`build(name, seed)` makes every input from the workload seed and is the
set-up that `setup_s` times.  `run_round(inputs)` is the timed work:
it calls the library's public entry points only, and returns numpy arrays
and dicts so the checks need no library classes to read them.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

MASTER_SEED = 12345        # tests/test_acceptance.py MASTER_SEED
HELD_OUT_SEED = 90940      # second seed every check must also pass at

TRAINING_SLOTS = 2500
CALIBRATION_SLOTS = 20000
# The 5-chain presets sit near 0.104 mean FAR (the energy detector's
# Gaussian offset reads high); at 20k evaluation slots sampling noise alone
# pushed some means past the 0.11 band edge on a few seeds in a hundred, so
# the chain workloads evaluate on 80k slots.  The tree's coherent scores
# calibrate to 0.100 and keep 20k.
EVAL_SLOTS = {"snr-sweep": 80000, "preset-cell": 80000, "tree-engines": 20000}

SWEEP_GRID = (-12.0, -6.0, 0.0)
SWEEP_DELTA_FACTOR = 0.1
SWEEP_PRESETS = ("mp0.1", "bp0.1", "linProp", "linOpt")

CELL_PRESETS = ("local", "mp0.1", "bp0.1", "bp0.3", "bp1.0",
                "egc0.1", "egc0.3", "egc1.0",
                "linProp", "linPropB", "linOpt")

TREE_NODES = 15
TREE_RHO_DB = -16.0
TREE_PRESETS = ("local", "mp0.1", "mp1.0", "bp0.1", "bp1.0", "egc0.3",
                "linear0.3")
TREE_ENGINE_SLOTS = 16          # evaluation slots checked by enumeration
TREE_CAMPAIGN_PREFIX = 2048     # the slots sampled come from this prefix
TREE_QUAD_ITERATIONS = range(1, 8)
TREE_QUAD_PROBES = 32

NAMES = ("snr-sweep", "preset-cell", "tree-engines")


ENGINE_KINDS = ("mp", "bp", "egc", "linear")


def preset_kind(label: str) -> str:
    """'mp0.1' -> 'mp'; plain labels map to themselves."""
    return label.rstrip("0123456789.")


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def base_config(name: str):
    """Scenario of a workload (at its first operating point)."""
    from mpfusion.scenario import ScenarioConfig
    if name in ("snr-sweep", "preset-cell"):
        return ScenarioConfig()
    if name == "tree-engines":
        edges = tuple((i // 2, i) for i in range(2, TREE_NODES + 1))
        coverage = {p: (p, 2 * p, 2 * p + 1) for p in range(1, TREE_NODES // 2 + 1)}
        return ScenarioConfig(node_count=TREE_NODES, edges=edges,
                              coverage=coverage, rho_db=TREE_RHO_DB,
                              on_prob=(0.5,) * len(coverage),
                              sensing_mode="matched")
    raise ValueError(f"unknown workload {name!r}")


def cell_config(name: str, rho_db: float, delta_rho_db: float):
    return replace(base_config(name), rho_db=float(rho_db),
                   delta_rho_db=float(delta_rho_db))


def build(name: str, seed: int) -> dict:
    """All inputs of one workload, made from the seed."""
    inputs = {"name": name, "seed": int(seed), "config": base_config(name)}
    if name != "tree-engines":
        return inputs
    from mpfusion import quadratic
    from mpfusion.graph import MrfParams
    from mpfusion.scenario import nominal_templates

    cfg = inputs["config"]
    top = cfg.topology()
    energies = tuple(cfg.sample_count * nominal_templates(cfg) ** 2)
    scale = 0.05 * min(energies)
    draw = _rng(seed, 1)
    params = MrfParams(top, {e: float(draw.uniform(-scale, scale))
                             for e in top.edges}, convention="merged")
    inputs["quadratic"] = {conv: quadratic.QuadraticInstance(top, params, energies, conv)
                           for conv in (quadratic.PAPER, quadratic.EXACT)}
    inputs["probes"] = (_rng(seed, 2).standard_normal((TREE_NODES, TREE_QUAD_PROBES))
                        * np.array(energies)[:, None] / 2.0)
    inputs["engine_slots"] = np.sort(_rng(seed, 3).choice(
        TREE_CAMPAIGN_PREFIX, TREE_ENGINE_SLOTS, replace=False))
    return inputs


def _plain(res) -> dict:
    """MethodResult -> dict of arrays, with the weight matrix of linear rules."""
    rep = res.report
    n = len(rep.nodes)
    out = {"label": res.label, "rho_db": res.rho_db,
           "delta_rho_db": res.delta_rho_db,
           "pf": np.asarray(rep.pf, float), "pd": np.asarray(rep.pd, float),
           "stderr_pd": np.asarray(rep.stderr_pd, float),
           "n_off": np.asarray(rep.n_off), "n_on": np.asarray(rep.n_on),
           "thresholds": np.asarray(res.thresholds, float), "weights": None,
           "model_pd": None, "couplings": None}
    ex = res.extras
    if res.label == "local":
        out["weights"] = np.eye(n)
    elif "coefficients" in ex:
        w = np.eye(n)
        for j, coeffs in ex["coefficients"].items():
            for k, c in coeffs.items():
                w[j - 1, k - 1] = c
        out["weights"] = w
    elif "weights" in ex:
        out["weights"] = np.asarray(ex["weights"], float)
    if "model_pd" in ex:
        mp = ex["model_pd"]
        out["model_pd"] = np.asarray([mp[j] for j in sorted(mp)] if isinstance(mp, dict)
                                     else mp, float)
    if "couplings" in ex:
        out["couplings"] = {tuple(int(v) for v in key.split("-")): c
                            for key, c in ex["couplings"].items()}
    return out


def _cell_kwargs(name: str) -> dict:
    return {"training_slots": TRAINING_SLOTS,
            "calibration_slots": CALIBRATION_SLOTS,
            "eval_slots": EVAL_SLOTS[name]}


def engine_state(top, res: dict, gamma):
    """Messages of an engine preset (`mp`, `bp`, `egc`, `linear`) after the
    pipeline's node_count - 1 rounds, with the couplings it learned."""
    from mpfusion import discrete, optimizer
    from mpfusion.graph import MrfParams

    kind = preset_kind(res["label"])
    iterations = top.node_count - 1
    if kind == "egc":
        coeffs = optimizer.egc_weights(top, float(res["label"][len(kind):]))
        return discrete.run_messages(top, gamma, discrete.LINEARIZED, iterations,
                                     coefficients=coeffs)
    params = MrfParams(top, res["couplings"], convention="merged")
    if kind == "linear":
        return discrete.run_messages(top, gamma, discrete.LINEARIZED, iterations,
                                     coefficients=discrete.linearized_coefficients(params))
    algorithm = discrete.MAX_PRODUCT if kind == "mp" else discrete.SUM_PRODUCT
    return discrete.run_messages(top, gamma, algorithm, iterations, params=params)


def _engine_sample(inputs: dict, results: list) -> list:
    """Decision variables of every engine preset on sampled evaluation slots."""
    from mpfusion import discrete, scenario

    cfg = inputs["config"]
    top = cfg.topology()
    camp = scenario.run_campaign(cfg, TREE_CAMPAIGN_PREFIX, inputs["seed"], index=2)
    gamma = camp.gamma[:, inputs["engine_slots"]]
    out = []
    for res in results:
        kind = preset_kind(res["label"])
        if kind in ENGINE_KINDS:
            state = engine_state(top, res, gamma)
            out.append({"label": res["label"], "kind": kind, "gamma": gamma,
                        "lam": discrete.decision_variables(state, top, gamma)})
    return out


def _quadratic(inputs: dict) -> list:
    from mpfusion import quadratic

    probes = inputs["probes"]
    out = []
    for conv, inst in inputs["quadratic"].items():
        for it in TREE_QUAD_ITERATIONS:
            fw = quadratic.extract_weights(inst, it)
            state = quadratic.run(inst, probes, it - 1)
            out.append({"convention": conv, "iteration": it,
                        "weights": fw.weights, "offset": fw.offset,
                        "lam": quadratic.decision_variables(inst, state, probes)})
    return out


def run_round(inputs: dict) -> dict:
    """One round of the workload's work; returns its outputs as plain data."""
    from mpfusion import pipeline

    name, seed, cfg = inputs["name"], inputs["seed"], inputs["config"]
    with warnings.catch_warnings():
        # egc1.0 sits on the 5-chain's stability bound and warns by design
        warnings.simplefilter("ignore")
        if name == "snr-sweep":
            results = pipeline.sweep_rho(cfg, SWEEP_PRESETS, SWEEP_GRID, seed,
                                         delta_rule="proportional",
                                         proportional_factor=SWEEP_DELTA_FACTOR,
                                         **_cell_kwargs(name))
        elif name == "preset-cell":
            results = pipeline.evaluate_cell(cfg, CELL_PRESETS, seed, **_cell_kwargs(name))
        else:
            results = pipeline.evaluate_cell(cfg, TREE_PRESETS, seed, **_cell_kwargs(name))
    out = {"results": [_plain(r) for r in results]}
    if name == "tree-engines":
        out["engines"] = _engine_sample(inputs, out["results"])
        out["quadratic"] = _quadratic(inputs)
    return out


def operations(name: str) -> int:
    """Operations in one round: (cell, preset) evaluations plus quadratic
    extractions."""
    if name == "snr-sweep":
        return len(SWEEP_GRID) * len(SWEEP_PRESETS)
    if name == "preset-cell":
        return len(CELL_PRESETS)
    return len(TREE_PRESETS) + 2 * len(TREE_QUAD_ITERATIONS)
