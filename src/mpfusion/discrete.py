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

# s_transfer switches form where min(|a|, |b|) exceeds this: e^{-708.4} is
# the smallest normal double, so e^{-|a|} + e^{-|b|} stays normal below it
_BIG = 700.0


def s_transfer(a, b):
    """S(a, b) = ln((1 + e^{a+b}) / (e^a + e^b)) = 2 artanh(tanh(a/2) tanh(b/2)).

    Facts the tests lean on: S(a, 0) = S(0, b) = 0, S is symmetric and odd
    in each argument, |S(a, b)| <= min(|a|, |b|), and dS/db at b = 0 equals
    tanh(a/2).  With x = e^{-|a|} and y = e^{-|b|} the magnitude is
    ln((1 + xy) / (x + y)) = log1p(expm1(-|a|) expm1(-|b|) / (x + y)), which
    subtracts nothing, so it keeps full relative accuracy for small messages
    (the difference of two log-sum-exps cancels there); the sign is
    sgn(a) sgn(b), taken from the sign bits, never from the product a b,
    which can underflow.  Where both |a| and |b| exceed `_BIG` the
    denominator x + y would underflow, and the magnitude is
    min + log1p(e^{-(|a|+|b|)}) - log1p(e^{-||a|-|b||}) instead.  A scalar
    pair gives a float; arrays broadcast.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size > b.size:         # S is symmetric: work the larger one in place
        a, b = b, a
    na = -np.abs(a)
    out = np.abs(b, out=np.empty(np.broadcast_shapes(a.shape, b.shape)))
    np.negative(out, out=out)
    den = np.exp(out)
    den += np.exp(na)
    np.expm1(out, out=out)
    out *= np.expm1(na)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= den
    np.log1p(out, out=out)
    big = na < -_BIG
    if big.any():
        big = big & (np.abs(b) > _BIG)
        x, y = (np.broadcast_to(np.abs(v), out.shape)[big] for v in (a, b))
        out[big] = (np.minimum(x, y) + np.log1p(np.exp(-(x + y)))
                    - np.log1p(np.exp(-np.abs(x - y))))
    np.copysign(out, b, out=out)
    out *= np.copysign(1.0, a)
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
