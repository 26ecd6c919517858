"""Small builders shared by the tests, the per-sample sensing oracles and
the per-node mixture oracle.

`gen_observations`, `llr_matched` and `llr_energy` build the local scores
from K raw samples per slot, the way the sensing model defines them; the
campaigns draw the same scores without keeping the samples, and the tests
pin the two against each other.  `stats_for_weights` pushes a weight matrix
through the exact components one node at a time, against which the tests
pin the pipeline's batched threshold solve.
"""

import numpy as np

from mpfusion.graph import MrfParams, Topology
from mpfusion.scenario import ScenarioConfig, ScenarioStats, moments_from_scenario


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


def stats_for_weights(stats: ScenarioStats, weight_matrix, offsets) -> dict:
    """ConditionalStats for linear rules lambda = W gamma + w0, exactly.

    Row j of W (with offset w0_j) pushed through node j's exact components
    from `moments_from_scenario`, one `stats_for_row` call per node.
    """
    w_mat = np.asarray(weight_matrix, dtype=float)
    w0 = np.asarray(offsets, dtype=float)
    n = stats.config.node_count
    if w_mat.shape != (n, n) or w0.shape != (n,):
        raise ValueError("need square weights and per-node offsets")
    nodes = np.arange(1, n + 1)
    return {j: cm.stats_for_row(nodes, w_mat[j - 1], w0[j - 1])
            for j, cm in moments_from_scenario(stats).items()}
