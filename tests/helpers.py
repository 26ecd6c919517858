"""Small builders shared by the tests, the per-sample sensing oracles and
the per-node mixture oracles.

`gen_observations`, `llr_matched` and `llr_energy` build the local scores
from K raw samples per slot, the way the sensing model defines them; the
campaigns draw the same scores without keeping the samples, and the tests
pin the two against each other.  `stats_for_weights` pushes a weight matrix
through the exact components one node at a time, and `gfun` and
`solve_threshold` price and invert one node's `ConditionalStats`; against
them the tests pin the batched push-forward and threshold solve.
`node_moments` builds one node's `ComponentMoments` from its components,
and `own_components` reads one node's unpadded components out of a set.

`star` and `frozen` build topologies and pinned-pattern scenarios,
`optimize_p2` is the unpadded one-row ascent of one node's neighbourhood
design, which each padded row of `optimizer.neighbourhood_designs` must
equal (`node_designs` reads those rows back as the same per-node records),
and `mrc_probe` reads
the energy damping of the quadratic relaxation's second-round estimates.
"""

from dataclasses import dataclass, replace

import numpy as np

from mpfusion.graph import MrfParams, Topology, neighbors
from mpfusion.optimizer import LinearDesign, _ascend_rows, _check_alpha, stability_box
from mpfusion.performance import (
    _THRESHOLD_TOL,
    ComponentMoments,
    ConditionalStats,
    mixture_tail,
    solve_thresholds,
)
from mpfusion.quadratic import QuadraticInstance, run
from mpfusion.scenario import ScenarioConfig, ScenarioStats, moments_from_scenario


def star(n: int, hub: int = 1) -> Topology:
    """Star on n nodes with the given hub."""
    if not 1 <= hub <= n:
        raise ValueError("hub outside node range")
    return Topology(n, tuple((hub, j) for j in range(1, n + 1) if j != hub))


def frozen(config: ScenarioConfig, pattern) -> ScenarioConfig:
    """The scenario's frozen chain: no flips and no common draws, started in
    `pattern`, so every slot of its campaigns keeps that pattern."""
    return replace(config, flip=0.0, coupling=0.0, initial_activity=tuple(pattern))


@dataclass(frozen=True)
class NodeDesign:
    """One node's neighbourhood design: neighbour -> coefficient, and what
    its ascent found."""

    node: int
    coefficients: dict
    threshold: float
    pd: float
    evaluations: int
    converged: bool


def optimize_p2(moments: ComponentMoments, top: Topology, node: int,
                alpha: float) -> NodeDesign:
    """One node's neighbourhood design at a pinned false-alarm rate, on that
    node's components in `moments`: the unpadded one-row ascent that each
    row of `optimizer.neighbourhood_designs` must equal."""
    _check_alpha(alpha)
    hood = neighbors(top, node)
    point, converged, tau, _, pd, evals = _ascend_rows(
        moments, np.array([node]), np.array([[node, *hood]]),
        np.zeros((1, len(hood))), alpha, stability_box(top) * (1.0 - 1e-9))
    return NodeDesign(node, dict(zip(hood, map(float, point[0]))), float(tau[0]),
                      float(pd[0]), int(evals[0]), bool(converged[0]))


def node_designs(design: LinearDesign, top: Topology) -> dict:
    """Node -> `NodeDesign` of each row of a neighbourhood design."""
    return {j: NodeDesign(j, {k: float(design.weights[j - 1, k - 1]) for k in neighbors(top, j)},
                          float(design.thresholds[j - 1]), float(design.pd[j - 1]),
                          int(design.evaluations[j - 1]), bool(design.converged[j - 1]))
            for j in top.nodes}


def mrc_probe(instance: QuadraticInstance, k: int, j: int, energy_sweep):
    """|du_kj^(2)/dgamma_n| for n in N_k minus j, at each energy of node k.

    Probes the second-round intercept u_{k->j} as an affine map of gamma
    (difference of unit-vector and zero probes — exact).  Returns the probed
    neighbor ids and a (len(sweep), len(neighbors)) magnitude table; the
    no-other-neighbors case yields an empty table.
    """
    adjacent = neighbors(instance.topology, k)
    if j not in adjacent:
        raise ValueError(f"({k}, {j}) is not an edge")
    others = tuple(n for n in adjacent if n != j)
    mags = np.zeros((len(energy_sweep), len(others)))
    if not others:
        return others, mags
    n = instance.topology.node_count
    probes = np.concatenate([np.zeros((n, 1)), np.eye(n)], axis=1)
    for row, ek in enumerate(energy_sweep):
        energies = list(instance.energies)
        energies[k - 1] = float(ek)
        inst = QuadraticInstance(instance.topology, instance.params,
                                 tuple(energies), instance.convention)
        u = np.asarray(run(inst, probes, 2).estimates[(k, j)][0])
        for col, nb in enumerate(others):
            mags[row, col] = abs(u[nb] - u[0])
    return others, mags


def uniform_params(top: Topology, j_value: float, convention: str = "merged") -> MrfParams:
    """Same coupling on every edge."""
    return MrfParams(top, {e: j_value for e in top.edges}, convention)


def tree_config(rho_db: float = -16.0) -> ScenarioConfig:
    """15-node binary tree, coherent sensing, transmitter p covering
    (p, 2p, 2p + 1): the benchmark's tree-engines scenario, with 32, 64 or 96
    exact components per node and hypothesis."""
    edges = tuple((i // 2, i) for i in range(2, 16))
    coverage = {p: (p, 2 * p, 2 * p + 1) for p in range(1, 8)}
    return ScenarioConfig(node_count=15, edges=edges, coverage=coverage,
                          rho_db=rho_db, on_prob=(0.5,) * 7, sensing_mode="matched")


def gen_observations(amplitudes, noise_var: float, sample_count: int, gen: np.random.Generator):
    """Draw y = a + nu for constant-amplitude signals.

    `amplitudes` has one scalar per observation (any shape); the result
    appends a sample axis of length `sample_count`.
    """
    amp = np.asarray(amplitudes, dtype=float)
    noise = gen.standard_normal(amp.shape + (sample_count,)) * np.sqrt(noise_var)
    return amp[..., None] + noise


def llr_matched(y, template):
    """Coherent statistic t^T y - ||t||^2/2 along the last axis of y."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(template, dtype=float)
    if t.ndim != 1 or y.shape[-1] != t.shape[0]:
        raise ValueError("template must be a vector matching y's sample axis")
    return y @ t - 0.5 * float(t @ t)


def llr_energy(y, tau0: float):
    """Energy statistic ||y||^2 / K - tau0 along the last axis of y."""
    return np.mean(np.square(np.asarray(y, dtype=float)), axis=-1) - tau0


def stats_for_weights(stats: ScenarioStats, weight_matrix) -> dict:
    """ConditionalStats for linear rules lambda = W gamma, exactly.

    Row j of W pushed through node j's exact components from
    `moments_from_scenario`, one `stats_for_row` call per node.
    """
    w_mat = np.asarray(weight_matrix, dtype=float)
    n = stats.config.node_count
    if w_mat.shape != (n, n):
        raise ValueError("need square weights")
    nodes = np.arange(1, n + 1)
    moments = moments_from_scenario(stats)
    return {j: moments.stats_for_row(j, nodes, w_mat[j - 1]) for j in range(1, n + 1)}


def node_moments(node: int, weights, means, variances) -> ComponentMoments:
    """ComponentMoments of one node from its weights (M,) and score means
    and variances (M, N) under each hypothesis v in {-1, +1}."""
    return ComponentMoments(np.array([node]), *(
        {v: np.asarray(field[v], dtype=float)[None] for v in (-1, 1)}
        for field in (weights, means, variances)))


def own_components(moments: ComponentMoments, node: int) -> ComponentMoments:
    """The one-node set of node's own (unpadded) components in `moments`:
    the leading components of positive weight in its row, after which the
    row must hold only padding (weight 0, mean 0, variance 1)."""
    b = int(np.searchsorted(moments.nodes, node))
    assert moments.nodes[b] == node
    own = {"weights": {}, "means": {}, "variances": {}}
    for v in (-1, 1):
        k = np.count_nonzero(moments.weights[v][b] > 0)
        assert not moments.weights[v][b, k:].any() and not moments.means[v][b, k:].any()
        assert (moments.variances[v][b, k:] == 1.0).all()
        for name, per_v in own.items():
            per_v[v] = getattr(moments, name)[v][b, :k]
    return node_moments(node, own["weights"], own["means"], own["variances"])


def gfun(tau, v: int, stats: ConditionalStats):
    """P{lambda > tau | x_j = v} for the Gaussian-mixture model.

    Strictly decreasing and continuous in tau, with limits 1 and 0, so a
    root of gfun(tau) = p exists for any p in (0, 1).
    """
    out = mixture_tail(stats.weights[v], stats.means[v], stats.stds[v], tau)
    return float(out) if np.ndim(tau) == 0 else out


def solve_threshold(stats: ConditionalStats, v: int, target: float,
                    tol: float = _THRESHOLD_TOL) -> float:
    """Invert the tail mixture: find tau with gfun(tau, v) = target.

    The one-row call of `solve_thresholds`; the result is within `tol` of
    the target in the tail-probability domain.
    """
    return float(solve_thresholds(stats.weights[v], stats.means[v][None],
                                  stats.stds[v][None], target, tol)[0])
