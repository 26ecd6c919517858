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

Both designs run one row search, `_ascend_rows`: projected-gradient ascent
on the model Pd, every row in lockstep from one start and with no seed.
Each step prices the trials of all live rows in one batch through
`performance.ComponentMoments._pd_gradient`: thresholds from
`performance.solve_thresholds`, model Pd and its closed-form gradient.
A row stops once a step gains or promises no more than Pd can resolve.
`neighbourhood_designs` runs every node in one ascent from the local
detector, each row padded to the largest degree with pinned zeros;
`optimize_p1` runs all rows in one ascent from the nodes' P2 designs, which
the caller passes in, so a cell solves every neighbourhood design once.  A
row's path does not depend on the batch.  Every design, blind ones too, is
one `LinearDesign`: its weight matrix with per-row thresholds, model Pf and
Pd, and convergence.
Every design takes one `ComponentMoments`: exact components from
`scenario.moments_from_scenario`, blind ones from `blind_adapt` through the
label-cell fit `_cell_moments`, both built by `ComponentMoments.from_cells`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import MrfParams, Topology, _is_integer, max_degree, neighbors
from .performance import ComponentMoments

_MAX_STEPS = 1000       # priced trials per row of one ascent
_PD_RESOLUTION = 1e-14  # a step that gains or promises no more Pd ends its row
_ARMIJO = 1e-4
_GRAD_TOL = 1e-6        # projected-gradient norm of a converged row
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
# linear designs


@dataclass(frozen=True)
class LinearDesign:
    """A linear fusion rule lambda = W gamma designed at false-alarm rate
    `alpha`, with what its row search found: node j's row of `weights` is
    its rule (own weight one), `thresholds`, `pf` and `pd` are model values
    on the components it was designed on, and `converged` and `evaluations`
    tell per row whether the ascent ended at a stationary point and how many
    rules it priced."""

    weights: np.ndarray           # (N, N), unit diagonal
    thresholds: np.ndarray        # (N,)
    pf: np.ndarray                # (N,)
    pd: np.ndarray                # (N,)
    converged: np.ndarray         # (N,) bool
    evaluations: np.ndarray       # (N,) int
    alpha: float


def stability_box(top: Topology) -> float:
    """Half-width of the open coefficient box keeping iteration stable:
    |c| below 1/(max degree - 1) keeps the linear recursion bounded on any
    graph.  Where that bound is vacuous (max degree at most one) the box is
    the finite stand-in `_UNBOUNDED_BOX`."""
    d = max_degree(top) if top.edges else 0
    return _UNBOUNDED_BOX if d <= 1 else 1.0 / (d - 1)


def _ascend_rows(moments: ComponentMoments, nodes, cols, start, alpha: float,
                 box):
    """Projected-gradient ascent of the model Pd at false-alarm rate alpha
    (Bertsekas, IEEE TAC 21(2), 1976), all rows in lockstep.

    Row g weighs the score of cols[g, 0] (node nodes[g]'s own) with one and
    those of cols[g, 1:] with coefficients in [-box, box], from start[g];
    `box` broadcasts to (G, d), and a coordinate with a box of 0 is pinned
    at 0.  Steps try w + t g clipped to the box (g from `_pd_gradient`),
    halving t until the Armijo rule holds; the first t moves the largest
    free coordinate (not held at a bound by an outward gradient) by one,
    later ones are Barzilai-Borwein steps s.s / s.y over the free
    coordinates (IMA J. Numer. Anal. 8, 1988), clipped to [1e-6, 1e6].  A
    row stops at a projected gradient of at most 1e-9, once a step's gain
    is at most `_PD_RESOLUTION` (the Pd an accepted step realised, or the
    g . (trial - w) a rejected one promised: a rejection halves t, so that
    bound shrinks too), or after `_MAX_STEPS` trials; it converged if its
    projected gradient is then at most `_GRAD_TOL`.  A rejected trial
    leaves its row where it was.  Returns points (G, d), converged,
    thresholds, Pf, Pd and rules priced (G,).
    """
    def price(who, points):
        rows = np.hstack((np.ones((len(points), 1)), points))
        tau, pf, pd, grad = moments._pd_gradient(nodes[who], cols[who], rows, alpha)
        return tau, pf, pd, grad[:, 1:]

    def held(who):
        """Coordinates of rows `who` held at a bound by an outward gradient."""
        w, g, b = point[who], grad[who], box[who]
        return ((w >= b) & (g > 0)) | ((w <= -b) & (g < 0))

    def slack(who):
        """Infinity norm of the projected gradient of rows `who`."""
        return np.abs(np.where(held(who), 0.0, grad[who])).max(axis=1, initial=0.0)

    every = np.arange(len(nodes))
    point = np.array(start, dtype=float)
    box = np.broadcast_to(box, point.shape)
    tau, pf, pd, grad = price(every, point)
    evals = np.ones(len(nodes), dtype=np.int64)
    live = slack(every) > 1e-9
    step = np.clip(1.0 / np.maximum(slack(every), 1e-6), 1e-6, 1e6)
    for _ in range(_MAX_STEPS):
        act = every[live]
        if not act.size:
            break
        trial = np.clip(point[act] + step[act, None] * grad[act], -box[act], box[act])
        priced = price(act, trial)
        evals[act] += 1
        move = trial - point[act]
        gain = priced[2] - pd[act]
        promised = (grad[act] * move).sum(axis=1)
        ok = gain >= _ARMIJO * promised
        acc, rej = act[ok], act[~ok]
        s, y = move[ok], grad[acc] - priced[3][ok]
        point[acc] = trial[ok]
        tau[acc], pf[acc], pd[acc], grad[acc] = (a[ok] for a in priced)
        free = ~held(acc)
        ss, sy = (s * s * free).sum(axis=1), (s * y * free).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            step[acc] = np.clip(np.where(sy > 0, ss / sy, 1e6), 1e-6, 1e6)
        live[acc] = (gain[ok] > _PD_RESOLUTION) & (slack(acc) > 1e-9)
        step[rej] *= 0.5
        live[rej] = promised[~ok] > _PD_RESOLUTION
    return point, slack(every) <= _GRAD_TOL, tau, pf, pd, evals


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _design(cols, found, alpha: float) -> LinearDesign:
    """The design of `_ascend_rows`' output `found` on rows `cols`, one per
    node in node order.  A padded coordinate points at the node's own score
    with a pinned +-0, so the coefficients are added to the identity, which
    keeps the unit diagonal."""
    points, converged, thresholds, pf, pd, evaluations = found
    weights = np.eye(len(cols))
    np.add.at(weights, (cols[:, :1] - 1, cols[:, 1:] - 1), points)
    return LinearDesign(weights, thresholds, pf, pd, converged, evaluations, alpha)


def neighbourhood_designs(moments: ComponentMoments, top: Topology,
                          alpha: float) -> LinearDesign:
    """Neighbourhood (P2) design of every node of `top`, each row on the
    node's own components in `moments` with one coefficient per incident
    edge, from one lockstep ascent started at the local detector (all
    neighbour coefficients zero), so no row is worse than it.  Every row is
    padded to the largest degree on the node's own score with coefficients
    pinned at 0 (a box of 0); a padded term adds +-0 to every sum of the
    ascent, so each row equals the node's own one-node ascent."""
    _check_alpha(alpha)
    hoods = [neighbors(top, j) for j in top.nodes]
    degree = np.array([len(hood) for hood in hoods])
    width = int(degree.max())
    cols = np.array([[j, *hood] + [j] * (width - len(hood))
                     for j, hood in zip(top.nodes, hoods)], dtype=np.intp)
    box = np.where(np.arange(width) < degree[:, None], stability_box(top) * (1.0 - 1e-9), 0.0)
    found = _ascend_rows(moments, np.array(top.nodes), cols,
                         np.zeros((top.node_count, width)), alpha, box)
    return _design(cols, found, alpha)


# ---------------------------------------------------------------------------
# network design (full weight row per node)


def optimize_p1(moments: ComponentMoments, top: Topology, alpha: float,
                start: LinearDesign) -> LinearDesign:
    """Network design: per-row detection maximization.

    Each node's row (own weight one, all other entries free in [-2, 2]) is
    tuned to maximize detection at false-alarm rate alpha; all rows run in
    one lockstep ascent, each from its row of `start`, a design of every
    node at that alpha (the neighbourhood designs), so the result is never
    worse than `start` under the same statistics.
    """
    _check_alpha(alpha)
    if start.alpha != alpha:
        raise ValueError(f"start design is for false-alarm rate {start.alpha}, not {alpha}")
    if start.weights.shape != (top.node_count, top.node_count):
        raise ValueError(f"start design has {start.weights.shape[0]} nodes, "
                         f"not {top.node_count}")
    cols = np.array([[j] + [i for i in top.nodes if i != j] for j in top.nodes])
    rows = start.weights[cols[:, :1] - 1, cols[:, 1:] - 1]
    return _design(cols, _ascend_rows(moments, np.array(top.nodes), cols, rows, alpha, _P1_BOX),
                   alpha)


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
    moments: ComponentMoments     # every node's, with one-hop support
    design: LinearDesign          # neighbourhood designs on `moments`
    folded_cells: dict            # node -> label cells folded away
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


def _cell_moments(samples: np.ndarray, codes: np.ndarray, min_cell: int):
    """Gaussian fit of the columns of `samples` (d, T) per cell of slots that
    share a nonnegative integer code (T,).  Cells with fewer than `min_cell`
    slots or a row without positive ddof=1 variance are folded away.  Returns
    the kept cells' codes and counts (k,), means and variances (k, d), in
    ascending code order, and the number of cells folded away.  A stable
    sort makes each cell a run of slots in ascending order, copied
    C-contiguous so that its moments carry the bits of a boolean-mask
    selection (a strided view sums rows in another order).
    """
    if min_cell < 2:
        raise ValueError("min_cell must be at least 2: a one-slot cell has "
                         "no sample variance")
    # the smallest unsigned type lets the stable sort run as a radix sort
    order = np.argsort(codes.astype(np.min_scalar_type(codes.max(initial=0))),
                       kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    counts = np.diff(np.r_[starts, codes.size])
    ordered = samples[:, order]
    cells = np.flatnonzero(counts >= min_cell)
    means = np.empty((cells.size, samples.shape[0]))
    variances = np.empty_like(means)
    for row, c in enumerate(cells):
        # the operations of ndarray.mean and .var(ddof=1), without their wrappers
        run = ordered[:, starts[c]:starts[c] + counts[c]].copy()
        means[row] = run.sum(axis=1) / counts[c]
        run -= means[row][:, None]
        run *= run
        variances[row] = run.sum(axis=1) / (counts[c] - 1)
    keep = ~np.any(variances <= 0, axis=1)
    cells = cells[keep]
    return (sorted_codes[starts[cells]], counts[cells], means[keep], variances[keep],
            starts.size - cells.size)


def _blind_moments(g: np.ndarray, labels: np.ndarray, top: Topology,
                   min_cell: int):
    """Every node's ComponentMoments, from one cell per pattern of the labels
    of j and its neighbours, NaN outside that one-hop set, split by j's
    label; and node -> the number of j's cells folded away.  Node j's label
    is the top bit of the cell code, so cells keep np.unique's
    lexicographic order.  Every node's labels must hold both classes."""
    n = g.shape[0]
    cells, folded = {}, {}
    for j in top.nodes:
        for v in (-1, 1):
            if not np.any(labels[j - 1] == v):
                raise ValueError(
                    f"blind labels give node {j} only one class; cannot adapt")
        local = np.array([j] + list(neighbors(top, j)))
        bits = local.size - 1
        codes = (1 << np.arange(bits, -1, -1)) @ (labels[local - 1] == 1)
        cell_codes, counts, means, variances, folded[j] = _cell_moments(
            g[local - 1], codes, min_cell)
        spread = np.full((2, cell_codes.size, n), np.nan)
        spread[:, :, local - 1] = means, variances
        cells[j] = (np.where(cell_codes >> bits, 1, -1), counts, *spread)
    return ComponentMoments.from_cells(cells), folded


def blind_adapt(gamma, top: Topology, alpha: float, rounds: int = 3,
                min_cell: int = 5, truth=None) -> BlindResult:
    """Label, cross-correct, estimate, and re-optimize without ground truth.

    Round zero labels each node by the sign of its own score.  Each of the
    `rounds` rounds, every node forms neighbour votes by thresholding the
    neighbour's score stream at its window mean, then corrects its own label
    by majority over {own label} + {votes}; ties keep the previous label.
    The corrected labels define one-hop cells from which Gaussian component
    moments are fitted (cells thinner than `min_cell` slots, at least 2, or
    without spread are folded away, and `folded_cells` counts them per
    node), and a neighbourhood design is run per node on those estimates.

    If `truth` (N, T) is supplied, initial/final label accuracies are
    reported for diagnostics; it never influences the estimates.
    """
    g = np.asarray(gamma, dtype=float)
    if g.ndim != 2 or g.shape[0] != top.node_count:
        raise ValueError("gamma rows must match the topology")
    if not _is_integer(rounds) or rounds < 0:
        raise ValueError(f"rounds must be a nonnegative integer, got {rounds!r}")
    if not _is_integer(min_cell):
        raise ValueError(f"min_cell must be an integer, got {min_cell!r}")
    labels = np.where(g > 0, 1, -1).astype(np.int8)
    init_acc = None if truth is None else float(np.mean(labels == truth))

    centers = g.mean(axis=1, keepdims=True)
    votes = np.where(g > centers, 1, -1).astype(np.int8)
    for _ in range(rounds):
        labels = _majority_pass(labels, votes, top)
    final_acc = None if truth is None else float(np.mean(labels == truth))

    moments, folded = _blind_moments(g, labels, top, min_cell)
    design = neighbourhood_designs(moments, top, alpha)
    return BlindResult(labels, moments, design, folded, init_acc, final_acc)
