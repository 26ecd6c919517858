"""Discrete message passing over two-state pairwise fields.

Messages live in the log-difference domain: a directed edge (k, j) carries
the scalar delta_{k->j} = m_{k->j}(+1) - m_{k->j}(-1), which is all the
decision variables ever need.  With t = gamma_k + sum of deltas into k from
everyone but j, one flooding round updates

    sum-product:   delta' = S(Je, t)       (exact two-state marginalization)
    max-product:   delta' = (|t + Je| - |t - Je|) / 2
    linearized:    delta' = c_{k->j} * t

where Je is the effective pairwise exponent difference for the edge and

    S(a, b) = ln((1 + e^{a+b}) / (e^a + e^b)).

The max-product update is exactly S with both log-sum-exps replaced by
maxes, which collapses to clamping t at +-Je; that closed form is what makes
the decision variables affine in the local statistics wherever no clamp is
active.  Everything broadcasts: gamma may be a vector over nodes or a
(node, trial) matrix, and messages follow suit, so a whole Monte Carlo batch
runs through one set of updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from .graph import MrfParams, Topology, max_degree, neighbors, neighbors_except

MAX_PRODUCT = "max_product"
SUM_PRODUCT = "sum_product"
LINEARIZED = "linearized"
_ALGORITHMS = (MAX_PRODUCT, SUM_PRODUCT, LINEARIZED)

DirectedEdge = Tuple[int, int]


def s_transfer(a, b):
    """S(a, b) = ln((1 + e^{a+b}) / (e^a + e^b)), computed stably.

    Antisymmetric-free facts used all over the tests: S(a, 0) = S(0, b) = 0,
    S is symmetric in its arguments, |S(a, b)| <= min(|a|, |b|), and
    dS/db at b = 0 equals tanh(a/2).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.logaddexp(0.0, a + b) - np.logaddexp(a, b)
    return float(out) if out.ndim == 0 else out


def coefficient_from_coupling(j_eff):
    """Slope of S(j_eff, t) at t = 0: tanh(j_eff / 2)."""
    out = np.tanh(np.asarray(j_eff, dtype=float) / 2.0)
    return float(out) if out.ndim == 0 else out


def logsumexp_max_gap(values):
    """(log-sum-exp, max, their gap) for a nonempty vector.

    The gap is the error of the max approximation; it always lies in
    [0, ln n] for n values.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("need at least one value")
    exact = float(np.logaddexp.reduce(v.ravel()))
    approx = float(np.max(v))
    return exact, approx, exact - approx


@dataclass(frozen=True)
class MessageState:
    """Messages after `iteration` flooding rounds of one algorithm."""

    algorithm: str
    iteration: int
    delta: Dict[DirectedEdge, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


def init_messages(top: Topology, algorithm: str) -> MessageState:
    """All-zero messages (the uninformative fixed start)."""
    return MessageState(algorithm, 0, {e: 0.0 for e in top.directed_edges()})


def _gamma_rows(top: Topology, gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.shape[0] != top.node_count:
        raise ValueError(
            f"gamma has {g.shape[0]} rows, topology has {top.node_count} nodes")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite local statistics")
    return g


def _pre_messages(state: MessageState, top: Topology, gamma: np.ndarray):
    """t_{k->j} = gamma_k + incoming deltas from N(k) minus j, per edge."""
    totals = {}
    for (k, j) in top.directed_edges():
        t = gamma[k - 1]
        for n in neighbors_except(top, k, j):
            t = t + state.delta[(n, k)]
        totals[(k, j)] = t
    return totals


def sumprod_step(state: MessageState, top: Topology, params: MrfParams, gamma) -> MessageState:
    """One flooding round of exact two-state sum-product."""
    _require(state, SUM_PRODUCT)
    g = _gamma_rows(top, gamma)
    pre = _pre_messages(state, top, g)
    delta = {
        (k, j): s_transfer(params.effective_coupling(k, j), pre[(k, j)])
        for (k, j) in top.directed_edges()
    }
    return replace(state, iteration=state.iteration + 1, delta=delta)


def maxprod_step(state: MessageState, top: Topology, params: MrfParams, gamma) -> MessageState:
    """One flooding round of max-product (two-point maximization per edge)."""
    _require(state, MAX_PRODUCT)
    g = _gamma_rows(top, gamma)
    pre = _pre_messages(state, top, g)
    delta = {}
    for (k, j) in top.directed_edges():
        je = params.effective_coupling(k, j)
        t = pre[(k, j)]
        # Two-point maximization in the gauge where the x_k = -1 branch
        # carries no score: m(+1) = max(t + je, 0), m(-1) = max(t, je).
        # Algebraically delta = clamp(t, +-je); this form is also, term for
        # term, max(0, a+b) - max(a, b), i.e. the max-approximated smooth
        # transfer, so the two routes agree to the last bit.
        delta[(k, j)] = np.maximum(t + je, 0.0) - np.maximum(t, je)
    return replace(state, iteration=state.iteration + 1, delta=delta)


def linear_step(state: MessageState, top: Topology,
                coefficients: Dict[DirectedEdge, float], gamma) -> MessageState:
    """One flooding round of the linearized engine: delta' = c * t."""
    _require(state, LINEARIZED)
    g = _gamma_rows(top, gamma)
    pre = _pre_messages(state, top, g)
    delta = {}
    for (k, j) in top.directed_edges():
        if (k, j) not in coefficients:
            raise ValueError(f"missing coefficient for directed edge {(k, j)}")
        delta[(k, j)] = coefficients[(k, j)] * pre[(k, j)]
    return replace(state, iteration=state.iteration + 1, delta=delta)


def decision_variables(state: MessageState, top: Topology, gamma) -> np.ndarray:
    """lambda_j = gamma_j + sum of deltas into j; shape matches gamma."""
    g = _gamma_rows(top, gamma)
    lam = np.array(g, dtype=float, copy=True)
    for (k, j) in top.directed_edges():
        lam[j - 1] = lam[j - 1] + state.delta[(k, j)]
    return lam


def decide(lam, thresholds=0.0) -> np.ndarray:
    """+1 where lambda strictly exceeds the threshold, else -1 (ties -> -1).

    Thresholds broadcast against lambda's leading (node) axis; -inf forces
    +1 everywhere, +inf forces -1.
    """
    lam = np.asarray(lam, dtype=float)
    tau = np.asarray(thresholds, dtype=float)
    if tau.ndim > 0 and tau.shape[0] == lam.shape[0] and tau.ndim < lam.ndim:
        tau = tau.reshape(tau.shape + (1,) * (lam.ndim - tau.ndim))
    return np.where(lam > tau, 1, -1).astype(np.int8)


def run_messages(top: Topology, gamma, algorithm: str, iterations: int,
                 params: Optional[MrfParams] = None,
                 coefficients: Optional[Dict[DirectedEdge, float]] = None) -> MessageState:
    """Run `iterations` flooding rounds from the zero start."""
    if iterations < 0:
        raise ValueError("iterations must be nonnegative")
    state = init_messages(top, algorithm)
    for _ in range(iterations):
        if algorithm == SUM_PRODUCT:
            state = sumprod_step(state, top, _need_params(params), gamma)
        elif algorithm == MAX_PRODUCT:
            state = maxprod_step(state, top, _need_params(params), gamma)
        else:
            if coefficients is None:
                raise ValueError("linearized engine needs a coefficient map")
            state = linear_step(state, top, coefficients, gamma)
    return state


def linearized_coefficients(params: MrfParams) -> Dict[DirectedEdge, float]:
    """Per-edge small-signal slopes tanh(Je/2) of the sum-product transfer."""
    return {
        (k, j): coefficient_from_coupling(params.effective_coupling(k, j))
        for (k, j) in params.topology.directed_edges()
    }


def contraction_bound(top: Topology) -> float:
    """|c| below 1/(max_degree - 1) keeps the linear recursion bounded on
    any graph; infinite when the bound is vacuous (max degree at most 1)."""
    d = max_degree(top) if top.edges else 0
    return math.inf if d <= 1 else 1.0 / (d - 1)


def violates_contraction(top: Topology, coefficients: Dict[DirectedEdge, float]) -> bool:
    bound = contraction_bound(top)
    return any(abs(c) >= bound for c in coefficients.values())


def _require(state: MessageState, algorithm: str) -> None:
    if state.algorithm != algorithm:
        raise ValueError(f"state carries {state.algorithm!r} messages, not {algorithm!r}")


def _need_params(params: Optional[MrfParams]) -> MrfParams:
    if params is None:
        raise ValueError("this engine needs pairwise-field parameters")
    return params
