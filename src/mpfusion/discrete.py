"""Discrete message passing over two-state pairwise fields.

Messages live in the log-difference domain: a directed edge (k, j) carries
the scalar delta_{k->j} = m_{k->j}(+1) - m_{k->j}(-1), which is all the
decision variables ever need.  With t = gamma_k + sum of deltas into k from
everyone but j, one round updates

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
runs through one set of updates.  `run_messages` is the one message loop for
all three algorithms; only the per-edge transfer and its gain (Je or c)
differ between them.

The loop is `graph.run_schedule`, which the quadratic relaxation shares.  It
does not recompute all 2E messages every round (a flood): a message stops
changing once its round count passes the depth of the subtree behind it, so
`graph.message_schedule` computes only the (edge, round) values some reader
needs.  On a tree run for at least its diameter, each directed edge is
computed once; edges a cycle feeds are computed every round.  Every value it
computes is summed and transferred exactly as in a flood, so the messages
are the flood's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .graph import MrfParams, Topology, run_schedule

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


@dataclass(frozen=True)
class MessageState:
    """Messages after `iteration` rounds of one algorithm."""

    algorithm: str
    iteration: int
    delta: Dict[DirectedEdge, np.ndarray] = field(default_factory=dict)


def _gamma_rows(top: Topology, gamma) -> np.ndarray:
    g = np.asarray(gamma, dtype=float)
    if g.shape[0] != top.node_count:
        raise ValueError(
            f"gamma has {g.shape[0]} rows, topology has {top.node_count} nodes")
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite local statistics")
    return g


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
    """The messages after `iterations` rounds from the all-zero start.

    Max-product and sum-product need `params` (the per-edge gain is the
    effective coupling); the linearized engine needs a coefficient for every
    directed edge; `iterations` must be a nonnegative integer.  The rounds
    run on `graph.run_schedule`: each needed (edge, round) value is computed
    once, in round order, as t = gamma_k + delta_{n1->k} + ... summed in
    ascending neighbour order (reads of the zero start add 0.0, as a flood's
    first round does).  The result equals a flood of `iterations` rounds
    bit for bit.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    edges = top.directed_edges()
    if algorithm == LINEARIZED:
        if coefficients is None:
            raise ValueError("linearized engine needs a coefficient map")
        for e in edges:
            if e not in coefficients:
                raise ValueError(f"missing coefficient for directed edge {e}")
        gains = {e: coefficients[e] for e in edges}
        transfer = _linear_transfer
    else:
        if params is None:
            raise ValueError(f"{algorithm} engine needs pairwise-field parameters")
        gains = {e: params.effective_coupling(*e) for e in edges}
        transfer = s_transfer if algorithm == SUM_PRODUCT else _clamp_transfer
    g = _gamma_rows(top, gamma)

    def step(e, incoming):
        t = g[e[0] - 1]
        for d in incoming:
            t = t + d
        return transfer(gains[e], t)

    return MessageState(algorithm, iterations, run_schedule(top, iterations, 0.0, step))


def _clamp_transfer(je, t):
    # Two-point maximization in the gauge where the x_k = -1 branch carries
    # no score: m(+1) = max(t + je, 0), m(-1) = max(t, je).  Algebraically
    # delta = clamp(t, +-je); this form is also, term for term,
    # max(0, a+b) - max(a, b), i.e. the max-approximated smooth transfer, so
    # the two routes agree to the last bit.
    return np.maximum(t + je, 0.0) - np.maximum(t, je)


def _linear_transfer(c, t):
    return c * t


def linearized_coefficients(params: MrfParams) -> Dict[DirectedEdge, float]:
    """Per-edge small-signal slopes tanh(Je/2) of the sum-product transfer."""
    return {
        (k, j): coefficient_from_coupling(params.effective_coupling(k, j))
        for (k, j) in params.topology.directed_edges()
    }
