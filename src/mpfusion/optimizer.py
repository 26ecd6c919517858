"""Design-side tooling: learning couplings from decision histories,
optimizing linear fusion weights against mixture statistics, and a blind
bootstrap that does the whole thing without ground truth.

Two design problems are covered.  The neighbourhood problem ("P2-style")
tunes one coefficient per incident edge, own score fixed at weight one,
maximizing detection probability at a pinned false-alarm rate; searches stay
inside the open box of `stability_box`, |c| < 1/(max degree - 1), so the
same coefficients can also drive the iterated linear engine.  The network
problem ("P1-style") tunes a full weight row per node at the same pinned
rate, inside [-2, 2] off the unit diagonal.

Both designs run one row search, `_search_row`: cyclic coordinate ascent
from a list of starts, keeping the best point, whose row is then priced once
for its threshold, Pf and Pd.  Each line search scans 21 points across the
box, then re-scans 21 points on [best - step, best + step] (clipped to the
box) until the grid step is at most `_LINE_TOL`; P2's coarse start grid is
one more scan.  Every scan is one batch: the design objective prices G
candidate rows at once through `performance.ComponentMoments.stats_for_rows`,
the single push-forward from linear rules to Gaussian mixtures, and
`performance.solve_thresholds`, which pins all G false-alarm rates together.
P1 seeds each row with that node's P2 design, which the caller passes in, so
a cell solves every neighbourhood design once.  Exact components come from
`scenario.moments_from_scenario`, blind ones from `blind_adapt` through the
cell fit `scenario._cell_moments`; both split their cells by hypothesis with
`ComponentMoments.from_cells`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .graph import MrfParams, Topology, max_degree, neighbors
from .performance import ComponentMoments, mixture_tail, solve_thresholds
from .scenario import _cell_moments

_COARSE_POINTS = 11
_SCAN_POINTS = 21
_STEP_TOL = 1e-4
_LINE_TOL = 1e-5
_MAX_SWEEPS = 60
_UNBOUNDED_BOX = 10.0
_P1_BOX = 2.0


class ContractionWarning(UserWarning):
    """Chosen coefficients leave the iterated-engine stability region."""


# ---------------------------------------------------------------------------
# coupling estimation


def learn_couplings(labels, top: Topology, zeta: float) -> MrfParams:
    """Empirical pairwise agreement, scaled: J_kj = zeta * mean(x_k x_j).

    `labels` is a (N, T) matrix of +-1 decisions (who produced them is the
    caller's business — ground truth, local detectors, or a blind pass).
    Magnitudes never exceed zeta since the agreement average lives in
    [-1, 1].  Returns parameters in the merged-coupling convention.
    """
    x = np.asarray(labels, dtype=float)
    if x.ndim != 2 or x.shape[0] != top.node_count:
        raise ValueError("labels must be (nodes, slots)")
    if not np.all(np.isin(x, (-1.0, 1.0))):
        raise ValueError("labels must be +-1 valued")
    if zeta < 0:
        raise ValueError("zeta must be nonnegative")
    t = x.shape[1]
    couplings = {}
    for (i, j) in top.edges:
        couplings[(i, j)] = zeta * float(np.dot(x[i - 1], x[j - 1]) / t)
    return MrfParams(top, couplings, convention="merged")


# ---------------------------------------------------------------------------
# neighbourhood design (one coefficient per incident edge)


@dataclass(frozen=True)
class P2Solution:
    node: int
    coefficients: dict            # neighbour -> coefficient
    threshold: float
    pd: float
    pf_target: float
    evaluations: int
    converged: bool


def _price_rows(moments: ComponentMoments, indices, coefficients, alpha: float):
    """Mixtures of the G rules with own weight one before the (G, d)
    `coefficients`, and their thresholds (G,) at false-alarm rate alpha."""
    mix = moments.stats_for_rows(
        indices, np.hstack((np.ones((len(coefficients), 1)), coefficients)))
    return mix, solve_thresholds(*mix[-1], alpha)


def stability_box(top: Topology) -> float:
    """Half-width of the open coefficient box keeping iteration stable:
    |c| below 1/(max degree - 1) keeps the linear recursion bounded on any
    graph.  Where that bound is vacuous (max degree at most one) the box is
    the finite stand-in `_UNBOUNDED_BOX`."""
    d = max_degree(top) if top.edges else 0
    return _UNBOUNDED_BOX if d <= 1 else 1.0 / (d - 1)


def _line_search(fun, i: int, point: np.ndarray, lo: float, hi: float):
    """Maximize fun over coordinate i: a scan of [lo, hi], then re-scans of
    [best - step, best + step] clipped to [lo, hi] until the grid step is at
    most _LINE_TOL.  `fun` maps a (G, d) batch of points to (G,) values.
    Leaves the best coordinate in point[i] and returns its value."""
    a, b = lo, hi
    best_val, best_c = -np.inf, point[i]
    batch = np.repeat(point[None], _SCAN_POINTS, axis=0)
    while True:
        grid = np.linspace(a, b, _SCAN_POINTS)
        batch[:, i] = grid
        vals = fun(batch)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val, best_c = float(vals[k]), grid[k]
        step = grid[1] - grid[0]
        if step <= _LINE_TOL:
            break
        a, b = max(lo, best_c - step), min(hi, best_c + step)
    point[i] = best_c
    return best_val


def _coordinate_ascent(fun, start: np.ndarray, box: float):
    """Cyclic coordinate ascent inside [-box, box]^d; returns (point, value,
    converged)."""
    point = start.copy()
    value = float(fun(point[None])[0])
    if point.size == 0:
        return point, value, True
    for _ in range(_MAX_SWEEPS):
        moved = 0.0
        for i in range(point.size):
            before = point[i]
            new_val = _line_search(fun, i, point, -box, box)
            if new_val >= value:
                value = new_val
            else:               # never step downhill
                point[i] = before
            moved = max(moved, abs(point[i] - before))
        if moved < _STEP_TOL:
            return point, value, True
    return point, value, False


def _search_row(moments: ComponentMoments, indices, alpha: float, starts,
                box: float):
    """Best row of coordinate ascent on the model Pd from each start.

    Ascent runs inside [-box, box]^d; the first start wins ties.  The kept
    row is priced once at false-alarm rate alpha.  Returns (coefficients,
    converged, tau, pf, pd, evaluations).
    """
    evals = 0

    def fun(batch):
        nonlocal evals
        evals += len(batch)
        mix, tau = _price_rows(moments, indices, batch, alpha)
        return mixture_tail(*mix[1], tau)

    best_point, best_val, converged = np.asarray(starts[0], dtype=float), -np.inf, True
    for start in starts:
        point, val, ok = _coordinate_ascent(fun, np.asarray(start, dtype=float), box)
        if val > best_val:
            best_point, best_val, converged = point, val, ok

    mix, tau = _price_rows(moments, indices, best_point[None], alpha)
    return (best_point, converged, float(tau[0]), float(mixture_tail(*mix[-1], tau)[0]),
            float(mixture_tail(*mix[1], tau)[0]), evals)


def optimize_p2(moments: ComponentMoments, top: Topology, node: int,
                alpha: float, seed: int | None = None) -> P2Solution:
    """Tune neighbour coefficients for one node at a pinned false-alarm rate.

    Own score keeps weight one; the neighbour coefficients live in the open
    stability box.  Multi-start (origin plus a coarse grid or seeded random
    starts) followed by cyclic coordinate ascent; the returned point is never
    worse than the plain local detector, because the origin is always one of
    the evaluated candidates and ascent never steps downhill.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    nbrs = neighbors(top, node)
    dim = len(nbrs)
    box = stability_box(top) * (1.0 - 1e-9)
    indices = np.array([node] + list(nbrs))

    starts, grid_evals = [np.zeros(dim)], 0
    if 0 < dim <= 2:
        axes = np.linspace(-box, box, _COARSE_POINTS)
        mesh = np.meshgrid(*([axes] * dim), indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        mix, tau = _price_rows(moments, indices, grid, alpha)
        starts.append(grid[int(np.argmax(mixture_tail(*mix[1], tau)))])
        grid_evals = len(grid)
    elif dim > 2:
        gen = rng.stream(0 if seed is None else seed, rng.OPTIMIZER, node)
        for _ in range(8):
            starts.append(gen.uniform(-box, box, size=dim))

    point, converged, tau, _, pd, evals = _search_row(moments, indices, alpha,
                                                      starts, box)
    return P2Solution(node, dict(zip(nbrs, (float(c) for c in point))),
                      tau, pd, alpha, grid_evals + evals, converged)


# ---------------------------------------------------------------------------
# network design (full weight row per node)


@dataclass(frozen=True)
class P1Solution:
    weights: np.ndarray           # (N, N), unit diagonal
    thresholds: np.ndarray        # (N,)
    pf: np.ndarray
    pd: np.ndarray
    notes: tuple = field(default=())


def optimize_p1(moments: dict, top: Topology, alpha: float, neighbourhood: dict,
                seed: int | None = None) -> P1Solution:
    """Best-effort network design: per-row detection maximization.

    Each node's row (own weight one, all other entries free in [-2, 2]) is
    tuned to maximize detection at false-alarm rate alpha.  `neighbourhood`
    maps every node to its `optimize_p2` design at that alpha; rows are
    seeded with it zero-extended, so the result is never worse than that
    design under the same statistics.  Rows whose kept ascent stopped at the
    sweep cap before converging are named in `notes`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    n = top.node_count
    weight_matrix = np.eye(n)
    thresholds, pf, pd = np.zeros(n), np.zeros(n), np.zeros(n)
    capped = []
    for j in top.nodes:
        hood = neighbourhood.get(j)
        if hood is None:
            raise ValueError(f"no neighbourhood design for node {j}")
        if hood.node != j or hood.pf_target != alpha:
            raise ValueError(
                f"neighbourhood design for node {j} is for node {hood.node} at "
                f"false-alarm rate {hood.pf_target}, not node {j} at {alpha}")
        others = [i for i in top.nodes if i != j]
        gen = rng.stream(0 if seed is None else seed, rng.OPTIMIZER, 100 + j)
        starts = [np.zeros(n - 1),
                  np.array([hood.coefficients.get(i, 0.0) for i in others]),
                  np.clip(gen.normal(scale=0.3, size=n - 1), -_P1_BOX, _P1_BOX)]
        row, converged, thresholds[j - 1], pf[j - 1], pd[j - 1], _ = _search_row(
            moments[j], np.array([j] + others), alpha, starts, _P1_BOX)
        weight_matrix[j - 1, np.array(others, dtype=int) - 1] = row
        if not converged:
            capped.append(j)

    notes = ()
    if capped:
        notes = (f"coordinate ascent hit the {_MAX_SWEEPS}-sweep cap before "
                 f"converging for nodes {', '.join(map(str, capped))}",)
    return P1Solution(weight_matrix, thresholds, pf, pd, notes)


# ---------------------------------------------------------------------------
# equal-gain combining


def egc_weights(top: Topology, c0: float) -> dict:
    """One common coefficient on every directed edge.

    Values outside the stability box are allowed (a single fusion pass is
    still well defined) but flagged with a ContractionWarning, since the
    iterated engine may then diverge.
    """
    if abs(c0) >= stability_box(top):
        warnings.warn(
            f"coefficient {c0} is outside the stability box "
            f"(|c| < {stability_box(top):g}); iterated fusion may diverge",
            ContractionWarning, stacklevel=2)
    return {edge: float(c0) for edge in top.directed_edges()}


# ---------------------------------------------------------------------------
# blind bootstrap


@dataclass(frozen=True)
class BlindResult:
    labels: np.ndarray            # (N, T) corrected +-1 labels
    moments: dict                 # node -> ComponentMoments (one-hop support)
    solutions: dict               # node -> P2Solution
    initial_accuracy: float | None = None
    final_accuracy: float | None = None


def _majority_pass(labels: np.ndarray, votes: np.ndarray, top: Topology) -> np.ndarray:
    new = labels.copy()
    for j in top.nodes:
        nbrs = neighbors(top, j)
        tally = labels[j - 1].astype(np.int64).copy()
        for k in nbrs:
            tally += votes[k - 1]
        flip = np.sign(tally)
        new[j - 1] = np.where(flip == 0, labels[j - 1], flip).astype(np.int8)
    return new


def _blind_moments(g: np.ndarray, labels: np.ndarray, top: Topology,
                   min_cell: int) -> dict:
    """ComponentMoments per node: one cell per pattern of the labels of j and
    its neighbours, NaN outside that one-hop set, split by j's label with
    `ComponentMoments.from_cells`.  Node j's label is the top bit of the
    cell code, so cells keep np.unique's lexicographic order."""
    n = g.shape[0]
    moments = {}
    for j in top.nodes:
        for v in (-1, 1):
            if not np.any(labels[j - 1] == v):
                raise ValueError(
                    f"blind labels give node {j} only one class; cannot adapt")
        local = np.array([j] + list(neighbors(top, j)))
        bits = local.size - 1
        codes = (1 << np.arange(bits, -1, -1)) @ (labels[local - 1] == 1)
        cell_codes, counts, means, variances = _cell_moments(g[local - 1], codes,
                                                             min_cell)
        spread = np.full((2, cell_codes.size, n), np.nan)
        spread[:, :, local - 1] = means, variances
        moments[j] = ComponentMoments.from_cells(
            j, np.where(cell_codes >> bits, 1, -1), counts, *spread)
    return moments


def blind_adapt(gamma, top: Topology, alpha: float, rounds: int = 3,
                min_cell: int = 5, truth=None, seed: int | None = None) -> BlindResult:
    """Label, cross-correct, estimate, and re-optimize without ground truth.

    Round zero labels each node by the sign of its own score.  Each of the
    `rounds` rounds, every node forms neighbour votes by thresholding the
    neighbour's score stream at its window mean, then corrects its own label
    by majority over {own label} + {votes}; ties keep the previous label.
    The corrected labels define one-hop cells from which Gaussian component
    moments are fitted (cells thinner than `min_cell` slots, at least 2, or
    without spread are folded away), and a neighbourhood design is run per
    node on those estimates.

    If `truth` (N, T) is supplied, initial/final label accuracies are
    reported for diagnostics; it never influences the estimates.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != top.node_count:
        raise ValueError("gamma rows must match the topology")
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    labels = np.where(g > 0, 1, -1).astype(np.int8)
    init_acc = None if truth is None else float(np.mean(labels == truth))

    centers = g.mean(axis=1, keepdims=True)
    votes = np.where(g > centers, 1, -1).astype(np.int8)
    for _ in range(rounds):
        labels = _majority_pass(labels, votes, top)
    final_acc = None if truth is None else float(np.mean(labels == truth))

    moments = _blind_moments(g, labels, top, min_cell)
    solutions = {j: optimize_p2(moments[j], top, j, alpha, seed=seed)
                 for j in top.nodes}
    return BlindResult(labels, moments, solutions, init_acc, final_acc)
