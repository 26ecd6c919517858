"""End-to-end evaluation pipeline.

One evaluation *cell* = one scenario operating point (rho, delta_rho) plus a
set of detector presets.  Every preset in a cell shares the same three
campaigns — training (coupling estimation), calibration (threshold setting),
evaluation (error counting) — so method comparisons are paired: they see
identical transmitter activity and identical receiver noise.

Preset labels:

    local        own score only
    mp{zeta}     max-product engine on couplings learned with scale zeta
    bp{zeta}     sum-product engine, same couplings
    linear{zeta} linearized engine, coefficients tanh(J/2) of learned J
    egc{c0}      linearized engine, one common coefficient c0
    linProp      one-hop linear fusion, coefficients tuned per node
    linPropB     same design run blind (labels, moments, tuning without truth)
    linOpt       full linear row per node, network design started from linProp

Every preset but mp and bp is linear in the scores, so it is fully
described by its weight matrix W: its decision variables are W gamma, and
linear and egc read W off the linearized engine by probing it once.  Their
thresholds invert the exact Gaussian-mixture tail: `_Cell.linear_thresholds`
prices all rows of W in one batch over the cell's exact components and
hands them to one `solve_thresholds` call, unless the design (linProp,
linOpt) already priced them.  The mp and bp rules are not linear: their
engine runs on the calibration and on the evaluation campaign, and each
node's threshold is the (1 - far) quantile of its decision variable over
the calibration slots where it is idle, which pins its sampled false-alarm
rate without a model of the law.  A cell solves its neighbourhood designs
once, and linProp and linOpt read that one set.  Every engine run, on
probes or on scores, goes through `_engine_lambda`; `conditioned_samples`
pins a transmitter pattern by running the scenario's frozen chain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import discrete, optimizer, rng, scenario
from .graph import MrfParams, Topology, _is_integer
from .performance import ComponentMoments, PerfReport, monte_carlo_perf, solve_thresholds
from .scenario import Campaign, ScenarioConfig, run_campaign, scenario_stats, with_rho

_CAMPAIGNS_PER_CELL = 16          # index stride keeping cells independent
_TRAIN, _CALIB, _EVAL = 0, 1, 2

_PARAM_LABEL = re.compile(r"^(mp|bp|linear|egc)(\d+(?:\.\d+)?)$")
_PLAIN_LABELS = ("local", "linProp", "linPropB", "linOpt")
_TRAINING_LABELS = ("local", "genie")


@dataclass(frozen=True)
class MethodSpec:
    label: str
    kind: str
    param: float | None = None


def parse_method(label: str) -> MethodSpec:
    """Parse a preset label like 'mp0.1', 'egc0.3', 'linProp', 'local'."""
    if not isinstance(label, str):
        raise ValueError(f"method label must be a string, got {label!r}")
    label = label.strip()
    if label in _PLAIN_LABELS:
        return MethodSpec(label, label)
    m = _PARAM_LABEL.match(label)
    if m is None:
        raise ValueError(
            f"unknown method label {label!r}; expected one of "
            f"{', '.join(_PLAIN_LABELS)} or mp/bp/linear/egc followed by a number")
    return MethodSpec(label, m.group(1), float(m.group(2)))


@dataclass
class MethodResult:
    """Outcome of one preset in one cell."""

    label: str
    rho_db: float
    delta_rho_db: float
    report: PerfReport
    thresholds: np.ndarray
    extras: dict = field(default_factory=dict)

    def rows(self):
        """Flat (method, rho, delta_rho, node, pf, pd, stderr_pf, stderr_pd)."""
        out = []
        for i, node in enumerate(self.report.nodes):
            out.append((self.label, self.rho_db, self.delta_rho_db, node,
                        self.report.pf[i], self.report.pd[i],
                        self.report.stderr_pf[i], self.report.stderr_pd[i]))
        return out


@dataclass
class _Cell:
    """Shared state for all presets at one operating point."""

    cfg: ScenarioConfig
    top: Topology
    seed: int
    index: int
    iterations: int
    training_labels: str
    training_slots: int
    calibration_slots: int
    eval_slots: int
    stats: scenario.ScenarioStats = None
    train: Campaign = None
    calib: Campaign = None
    eval: Campaign = None
    _couplings: dict = field(default_factory=dict)
    _labels: np.ndarray | None = None

    def __post_init__(self):
        self.stats = scenario_stats(self.cfg)
        base = _CAMPAIGNS_PER_CELL * self.index
        self.train = run_campaign(self.cfg, self.training_slots, self.seed,
                                  index=base + _TRAIN)
        self.calib = run_campaign(self.cfg, self.calibration_slots, self.seed,
                                  index=base + _CALIB)
        self.eval = run_campaign(self.cfg, self.eval_slots, self.seed,
                                 index=base + _EVAL)

    # -- training -----------------------------------------------------------

    def training_label_matrix(self) -> np.ndarray:
        if self._labels is None:
            if self.training_labels == "genie":
                self._labels = self.train.x
            else:
                taus = self.linear_thresholds(np.eye(self.top.node_count))
                self._labels = discrete.decide(self.train.gamma, taus)
        return self._labels

    def learned_params(self, zeta: float):
        if zeta not in self._couplings:
            self._couplings[zeta] = optimizer.learn_couplings(
                self.training_label_matrix(), self.top, zeta)
        return self._couplings[zeta]

    @cached_property
    def pattern_moments(self) -> ComponentMoments:
        return scenario.moments_from_scenario(self.stats)

    @cached_property
    def neighbourhood_designs(self) -> optimizer.LinearDesign:
        """The neighbourhood (P2) designs on the exact moments."""
        return optimizer.neighbourhood_designs(self.pattern_moments, self.top,
                                               self.cfg.far)

    # -- calibration --------------------------------------------------------

    def linear_thresholds(self, weights) -> np.ndarray:
        """Exact-mixture thresholds of the rules lambda = W gamma: row j of
        W under node j's components, all rows priced and solved in one batch."""
        nodes = np.array(self.top.nodes)
        mix = self.pattern_moments.stats_for_rows(nodes, nodes, weights)
        return solve_thresholds(*mix[-1], self.cfg.far)

    def empirical_thresholds(self, lam) -> np.ndarray:
        """Thresholds of a rule from its decision variables `lam` (N, T) on
        the calibration campaign: node j's is the (1 - far) quantile of
        lambda_j over the slots where x_j = -1."""
        taus = np.empty(self.top.node_count)
        for j in self.top.nodes:
            idle = lam[j - 1, self.calib.x[j - 1] == -1]
            if idle.size == 0:
                raise ValueError(f"no calibration slots with node {j} in state -1")
            taus[j - 1] = np.quantile(idle, 1.0 - self.cfg.far)
        return taus


def _engine_lambda(top: Topology, gamma, algorithm: str, iterations: int,
                   **gains) -> np.ndarray:
    """Decision variables of a message-passing engine on the scores `gamma`;
    on the unit probes np.eye(N) the linearized engine gives its exact
    weight matrix, one column per probe."""
    state = discrete.run_messages(top, gamma, algorithm, iterations, **gains)
    return discrete.decision_variables(state, top, gamma)


def _design_extras(design: optimizer.LinearDesign) -> dict:
    """Weight matrix and per-node search outcome of a design preset."""
    return {"weights": design.weights.tolist(), "converged": design.converged.tolist(),
            "evaluations": design.evaluations.tolist()}


def _couplings(params: MrfParams) -> dict:
    return {f"{i}-{j}": c for (i, j), c in params.couplings.items()}


def _linear_rule(cell: _Cell, spec: MethodSpec):
    """(W, thresholds, extras) of a preset whose decision variables are
    W gamma; thresholds are None unless its design already priced them."""
    top = cell.top
    if spec.kind == "local":
        return np.eye(top.node_count), None, {}
    if spec.kind in ("linear", "egc"):
        extras = {}
        if spec.kind == "linear":
            params = cell.learned_params(spec.param)
            coeffs = discrete.linearized_coefficients(params)
            extras["couplings"] = _couplings(params)
        else:
            coeffs = optimizer.egc_weights(top, spec.param)
        weights = _engine_lambda(top, np.eye(top.node_count), discrete.LINEARIZED,
                                 cell.iterations, coefficients=coeffs)
        extras["weights"] = weights.tolist()
        return weights, None, extras
    if spec.kind == "linPropB":
        blind = optimizer.blind_adapt(cell.calib.gamma, top, cell.cfg.far,
                                      truth=cell.calib.x)
        # deployment thresholds: exact mixture for the blind-chosen weights
        return (blind.design.weights, None,
                {**_design_extras(blind.design),
                 "blind_thresholds": blind.design.thresholds.tolist(),
                 "label_accuracy": {"initial": blind.initial_accuracy,
                                    "final": blind.final_accuracy},
                 "folded_cells": blind.folded_cells})
    if spec.kind in ("linProp", "linOpt"):
        design = cell.neighbourhood_designs
        if spec.kind == "linOpt":
            design = optimizer.optimize_p1(cell.pattern_moments, top, cell.cfg.far, design)
        return (design.weights, design.thresholds,
                {**_design_extras(design), "model_pd": design.pd.tolist()})
    raise ValueError(f"unhandled method kind {spec.kind!r}")  # pragma: no cover


def _evaluate_preset(cell: _Cell, spec: MethodSpec) -> MethodResult:
    cfg = cell.cfg
    if spec.kind in ("mp", "bp"):
        params = cell.learned_params(spec.param)
        algorithm = discrete.MAX_PRODUCT if spec.kind == "mp" else discrete.SUM_PRODUCT
        taus = cell.empirical_thresholds(_engine_lambda(
            cell.top, cell.calib.gamma, algorithm, cell.iterations, params=params))
        lam = _engine_lambda(cell.top, cell.eval.gamma, algorithm, cell.iterations,
                             params=params)
        extras = {"couplings": _couplings(params)}
    else:
        weights, taus, extras = _linear_rule(cell, spec)
        lam = weights @ cell.eval.gamma
        if taus is None:
            taus = cell.linear_thresholds(weights)
    report = monte_carlo_perf(lam, cell.eval.x, taus,
                              meta={"method": spec.label,
                                    "rho_db": cfg.rho_db,
                                    "delta_rho_db": cfg.delta_rho_db})
    return MethodResult(spec.label, cfg.rho_db, cfg.delta_rho_db,
                        report, np.asarray(taus, dtype=float), extras)


def _rounds(top: Topology, iterations) -> int:
    """Engine rounds: node_count - 1 by default, else a nonnegative integer."""
    if iterations is None:
        return top.node_count - 1
    if not _is_integer(iterations) or iterations < 0:
        raise ValueError(f"iterations must be a nonnegative integer, got {iterations!r}")
    return int(iterations)


def evaluate_cell(cfg: ScenarioConfig, methods, seed: int, *,
                  cell_index: int = 0, iterations: int | None = None,
                  training_labels: str = "local", training_slots: int = 2500,
                  calibration_slots: int = 20000,
                  eval_slots: int = 20000) -> list:
    """Run every preset at one operating point on shared campaigns."""
    if training_labels not in _TRAINING_LABELS:
        raise ValueError(f"unknown training label source {training_labels!r}; "
                         f"expected one of {', '.join(_TRAINING_LABELS)}")
    specs = [m if isinstance(m, MethodSpec) else parse_method(m) for m in methods]
    if not _is_integer(cell_index) or cell_index < 0:
        raise ValueError(f"cell_index must be a nonnegative integer, got {cell_index!r}")
    top = cfg.topology()
    cell = _Cell(cfg, top, seed, cell_index, _rounds(top, iterations), training_labels,
                 training_slots, calibration_slots, eval_slots)
    return [_evaluate_preset(cell, spec) for spec in specs]


def sweep_rho(cfg: ScenarioConfig, methods, rho_grid, seed: int, *,
              delta_rule: str = "fixed", proportional_factor: float = 0.1,
              **cell_kwargs) -> list:
    """Evaluate the presets across an SNR grid, one cell after another.

    delta_rule 'fixed' keeps the configured delta_rho; 'proportional' sets
    delta_rho = proportional_factor * rho per cell.  Cell i draws its
    campaigns from streams keyed by its grid index, so each cell's results
    equal `evaluate_cell(..., cell_index=i)` run on its own.
    """
    if delta_rule not in ("fixed", "proportional"):
        raise ValueError(f"unknown delta rule {delta_rule!r}")
    results = []
    for i, rho in enumerate(rho_grid):
        delta = (cfg.delta_rho_db if delta_rule == "fixed"
                 else proportional_factor * float(rho))
        results += evaluate_cell(with_rho(cfg, float(rho), delta), methods,
                                 seed, cell_index=i, **cell_kwargs)
    return results


# ---------------------------------------------------------------------------
# conditioned sampling for distribution checks


def conditioned_samples(cfg: ScenarioConfig, algorithm: str, pattern, trials: int,
                        seed: int, *, coupling_high: float = 100.0,
                        iterations: int | None = None, index: int = 0):
    """Decision-variable samples with the transmitter pattern pinned: the
    campaign runs on `cfg` with flip = coupling = 0 and initial_activity =
    pattern, a chain that never leaves its first pattern.  Couplings are drawn once, uniformly from (0, coupling_high) per edge
    (merged convention), from a stream keyed by the seed — heavy coupling is
    the regime where message clipping could distort the output law most.
    Returns (lam, campaign, params).
    """
    top = cfg.topology()
    iters = _rounds(top, iterations)
    pattern = tuple(pattern)
    try:
        frozen = replace(cfg, flip=0.0, coupling=0.0, initial_activity=pattern)
    except ValueError:
        raise ValueError(f"pattern {pattern} must be {cfg.pu_count} 0/1 flags, "
                         "one per transmitter") from None
    draw = rng.stream(seed, rng.COUPLING_DRAW, index)
    couplings = {edge: float(draw.uniform(0.0, coupling_high))
                 for edge in top.edges}
    params = MrfParams(top, couplings, convention="merged")
    camp = run_campaign(frozen, trials, seed, index=index)
    return _engine_lambda(top, camp.gamma, algorithm, iters, params=params), camp, params
