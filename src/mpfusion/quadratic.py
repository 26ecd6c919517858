"""Continuous quadratic relaxation of max-product, and the fusion weights
it induces.

Relax each node state from {-1,+1} to the real line.  The local evidence
term becomes a concave quadratic in the node state, every message is then a
concave quadratic m_{k->j}(x_j) = a x_j^2 + b x_j (constants dropped — they
cancel in decision variables), and the per-edge maximization has the affine
solution

    xhat_k(x_j) = u + v x_j,   u = -B / (2A),   v = -J_kj / (2A),

with A = alpha_k + sum of incoming a, B = beta_k + sum of incoming b.  Two
bookkeeping conventions for the local quadratic alpha x^2 + beta x are
supported:

* "paper":  alpha = -E/4,  beta = gamma - E/2
            (so u1 = 2 gamma/E - 1, v1 = 2 J/E)
* "exact":  alpha = -E/8,  beta = gamma / 2
            (the literal Gaussian log-likelihood quadratic in the +-1
            parameterization; u1 = 2 gamma/E, v1 = 4 J/E)

Both make the map gamma -> lambda affine, which is the whole point: after
any number of rounds the decision variable is lambda_j = W[j] @ gamma + w0_j,
and `extract_weights` recovers (W, w0) exactly by probing with unit vectors.
Under "exact" the map is homogeneous (w0 = 0); under "paper" the -E/2 shifts
leave constant offsets, which are reported, never hidden.

One per-edge step computes the aggregate quadratic (A, B) once and returns
both the estimate (u, v) and the outgoing message (a, b); the first round has
no incoming messages, so its estimate is (u1, v1).  The rounds run on
`graph.run_schedule`, the message loop `discrete.run_messages` also uses.

Couplings enter the relaxation exponent J x_k x_j exactly as stored on the
edge (no merged/raw rescaling here; that distinction belongs to the discrete
engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import MrfParams, Topology, hop_distance, run_schedule

PAPER = "paper"
EXACT = "exact"
_CONVENTIONS = (PAPER, EXACT)


class ConcavityError(ValueError):
    """Aggregate curvature at a node failed to stay negative."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(
            f"coupling too strong for continuous relaxation at node {node}: "
            "aggregate quadratic is not concave")


def local_quadratic(gamma_k, energy_k: float, convention: str):
    """(alpha, beta) of the local evidence quadratic alpha x^2 + beta x."""
    if energy_k <= 0:
        raise ValueError("node energy must be positive")
    if convention == PAPER:
        return -energy_k / 4.0, np.asarray(gamma_k, dtype=float) - energy_k / 2.0
    if convention == EXACT:
        return -energy_k / 8.0, np.asarray(gamma_k, dtype=float) / 2.0
    raise ValueError(f"unknown convention {convention!r}")


def _edge_step(gamma_k, energy_k: float, coupling: float,
               incoming_a: Sequence[float], incoming_b, convention: str,
               node: int):
    """One relaxed edge update from the incoming quadratic messages.

    With A = alpha_k + sum of incoming a and B = beta_k + sum of incoming b,
    the estimate is the stationary point u = -B/(2A), v = -J/(2A), and
    substituting xhat = u + v x_j into F(x) = A x^2 + B x plus J xhat x_j
    gives the outgoing message (constant dropped)

        a = A v^2 + J v,      b = 2 A u v + B v + J u.

    Returns ((u, v), (a, b)).
    """
    alpha, beta = local_quadratic(gamma_k, energy_k, convention)
    curv = alpha + sum(incoming_a)
    if not curv < 0:
        raise ConcavityError(node)
    lin = beta
    for b in incoming_b:
        lin = lin + b
    u = -lin / (2.0 * curv)
    v = float(-coupling / (2.0 * curv))
    return (u, v), (float(curv * v * v + coupling * v),
                    2.0 * curv * u * v + lin * v + coupling * u)


@dataclass(frozen=True)
class QuadraticInstance:
    """A relaxation problem: topology + couplings + node energies."""

    topology: Topology
    params: MrfParams
    energies: Tuple[float, ...]
    convention: str = PAPER

    def __post_init__(self) -> None:
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.params.topology != self.topology:
            raise ValueError("params were built for a different topology")
        e = tuple(float(x) for x in self.energies)
        if len(e) != self.topology.node_count:
            raise ValueError("need one energy per node")
        if any(not (x > 0 and np.isfinite(x)) for x in e):
            raise ValueError("node energies must be positive and finite")
        object.__setattr__(self, "energies", e)


@dataclass
class QuadraticState:
    """Estimates (u, v) and messages (a, b) after `rounds` message rounds."""

    rounds: int
    estimates: Dict[Tuple[int, int], Tuple[np.ndarray, float]]
    messages: Dict[Tuple[int, int], Tuple[float, np.ndarray]]


def run(instance: QuadraticInstance, gamma, rounds: int) -> QuadraticState:
    """Quadratic messages and estimates after `rounds` rounds from the zero
    start.

    gamma is (N,) or (N, P); P probe columns run in one pass.  Round r's
    estimates use messages of round r-1, so rounds = 0 leaves lambda = gamma.
    The rounds run on `graph.run_schedule`, as in `discrete.run_messages`:
    each needed (edge, round) value is computed once, in round order, with
    incoming messages summed in ascending neighbour order, and the result
    equals a flood of `rounds` rounds bit for bit.  `rounds` must be a
    nonnegative integer.
    """
    top = instance.topology
    g = np.asarray(gamma, dtype=float)
    if g.shape[0] != top.node_count:
        raise ValueError("gamma row count != node count")
    zeros_like_g = np.zeros(g.shape[1:]) if g.ndim > 1 else 0.0

    def step(e, incoming):
        k = e[0]
        return _edge_step(g[k - 1], instance.energies[k - 1],
                          instance.params.coupling(*e),
                          [m[0] for _, m in incoming], [m[1] for _, m in incoming],
                          instance.convention, k)

    # each edge carries ((u, v), (a, b)); no estimate before its first round
    final = run_schedule(top, rounds, (None, (0.0, zeros_like_g)), step)
    return QuadraticState(rounds,
                          {e: est for e, (est, _) in final.items() if est is not None},
                          {e: msg for e, (_, msg) in final.items()})


def decision_variables(instance: QuadraticInstance, state: QuadraticState,
                       gamma) -> np.ndarray:
    """lambda_j = gamma_j + sum over neighbors of 2 b_{k->j}."""
    top = instance.topology
    g = np.asarray(gamma, dtype=float)
    lam = np.array(g, copy=True)
    for (k, j) in top.directed_edges():
        lam[j - 1] = lam[j - 1] + 2.0 * np.asarray(state.messages[(k, j)][1])
    return lam


@dataclass(frozen=True)
class FusionWeights:
    """lambda = W gamma + w0, extracted at a given iteration."""

    weights: np.ndarray  # (N, N): row j holds the gamma_i weights of node j
    offset: np.ndarray   # (N,)
    iteration: int

    def locality_violations(self, top: Topology, tol: float = 1e-12) -> List[Tuple[int, int, float]]:
        """(j, i, w) entries that should be zero by the hop bound but aren't."""
        bad = []
        n = top.node_count
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                w = float(self.weights[j - 1, i - 1])
                if hop_distance(top, i, j) > self.iteration - 1 and abs(w) > tol:
                    bad.append((j, i, w))
        return bad

    def to_csv(self, path) -> None:
        n = self.weights.shape[0]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("node," + ",".join(f"w_gamma{i}" for i in range(1, n + 1)) + ",offset\n")
            for j in range(n):
                row = [f"{self.weights[j, i]:.9g}" for i in range(n)]
                fh.write(f"{j + 1}," + ",".join(row) + f",{self.offset[j]:.9g}\n")


def extract_weights(instance: QuadraticInstance, iteration: int) -> FusionWeights:
    """Recover (W, w0) by affine probing.

    Iteration 1 is the no-message local detector (W = I); each further
    iteration adds one message round, so weights at iteration l are
    supported within l-1 hops.  One engine pass handles all N+1 probes
    (the zero vector plus each unit vector).
    """
    if iteration < 1:
        raise ValueError("iteration must be >= 1")
    n = instance.topology.node_count
    probes = np.concatenate([np.zeros((n, 1)), np.eye(n)], axis=1)
    state = run(instance, probes, iteration - 1)
    lam = decision_variables(instance, state, probes)
    offset = lam[:, 0].copy()
    weights = lam[:, 1:] - offset[:, None]
    return FusionWeights(weights, offset, iteration)


def verify_linearity(instance: QuadraticInstance, iteration: int,
                     trials: int, gen: np.random.Generator,
                     weights: Optional[FusionWeights] = None) -> float:
    """Max |lambda(gamma) - (W gamma + w0)|_inf over random probes.

    Probe gammas are scaled to the energy magnitudes so the check runs in
    the regime the detectors actually see.
    """
    if trials < 1:
        raise ValueError("need at least one probe")
    if weights is not None and weights.iteration != iteration:
        raise ValueError(f"weights were extracted at iteration {weights.iteration}, "
                         f"not {iteration}")
    fw = weights if weights is not None else extract_weights(instance, iteration)
    n = instance.topology.node_count
    scale = np.array(instance.energies)[:, None] / 2.0
    gammas = gen.standard_normal((n, trials)) * scale
    state = run(instance, gammas, iteration - 1)
    lam = decision_variables(instance, state, gammas)
    predicted = fw.weights @ gammas + fw.offset[:, None]
    return float(np.max(np.abs(lam - predicted)))

