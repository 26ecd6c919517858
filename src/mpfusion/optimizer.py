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

Both designs run one row search, `_search_rows`: cyclic coordinate ascent
on the model Pd from every (node, start) pair in lockstep, where each scan
prices the 21-point grids of all live pairs in one batch through
`performance.ComponentMoments.stats_for_rows`, the single push-forward from
linear rules to Gaussian mixtures over the nodes' components, and
`performance.solve_thresholds`, which pins every false-alarm rate of the
batch at once.  Each pair keeps its own ascent state, so its path is
the one it would take alone.  `optimize_p1` runs all nodes in one search;
`neighbourhood_designs` runs the nodes of each degree in one search, after
pricing their coarse start grids in one batch; a node's design is the one
its own one-node search would find.
P1 seeds each row with that node's P2 design, which the caller passes in, so
a cell solves every neighbourhood design once.  Every design takes one
`ComponentMoments`: exact components from `scenario.moments_from_scenario`,
blind ones from `blind_adapt` through the label-cell fit `_cell_moments`,
both built by `ComponentMoments.from_cells`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .graph import MrfParams, Topology, _is_integer, max_degree, neighbors
from .performance import ComponentMoments, mixture_tail, solve_thresholds

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


def _price(moments: ComponentMoments, nodes, indices, coefficients, alpha: float):
    """Mixtures of the G rules of nodes[g] with own weight one before the
    (G, d) `coefficients` over the scores indices[g], and their thresholds
    (G,) at false-alarm rate alpha."""
    mix = moments.stats_for_rows(
        nodes, indices, np.hstack((np.ones((len(coefficients), 1)), coefficients)))
    return mix, solve_thresholds(*mix[-1], alpha)


def stability_box(top: Topology) -> float:
    """Half-width of the open coefficient box keeping iteration stable:
    |c| below 1/(max degree - 1) keeps the linear recursion bounded on any
    graph.  Where that bound is vacuous (max degree at most one) the box is
    the finite stand-in `_UNBOUNDED_BOX`."""
    d = max_degree(top) if top.edges else 0
    return _UNBOUNDED_BOX if d <= 1 else 1.0 / (d - 1)


def _search_rows(moments: ComponentMoments, jobs, alpha: float, box: float) -> list:
    """Best rows of coordinate ascent on the model Pd, every job in lockstep.

    A job is (node, indices, starts): the rule of `node` weighs the score of
    indices[0] (the node's own) with one and the d scores of indices[1:]
    with free coefficients in [-box, box]; every job has the same d.  Each
    (job, start) pair runs cyclic coordinate ascent.  A line search scans
    21 points of [-box, box], then re-scans 21 points of
    [best - step, best + step] (clipped to the box) until the grid step is
    at most `_LINE_TOL`; a coordinate keeps its scan's best point only when
    that is not below the pair's value (never step downhill), and a pair
    stops after a sweep that moves no coordinate by `_STEP_TOL` (converged)
    or after `_MAX_SWEEPS` sweeps (not converged).  Every scan prices the
    grids of all live pairs in one batch.  Per job, the first start wins
    ties, and the kept row is priced once at false-alarm rate alpha.
    Returns one (coefficients, converged, tau, pf, pd, evaluations) per job.
    """
    nodes = np.array([node for node, _, _ in jobs])
    cols = np.array([indices for _, indices, _ in jobs], dtype=np.intp)
    dim = cols.shape[1] - 1
    owner = np.array([k for k, (_, _, starts) in enumerate(jobs) for _ in starts])
    point = np.array([s for _, _, starts in jobs for s in starts],
                     dtype=float).reshape(len(owner), dim)
    pairs = np.arange(len(owner))

    def pd_of(who, batch):
        mix, tau = _price(moments, nodes[owner[who]], cols[owner[who]], batch, alpha)
        return mixture_tail(*mix[1], tau)

    value = pd_of(pairs, point)
    evals = np.ones(len(owner), dtype=np.int64)
    live, converged = np.full(len(owner), dim > 0), np.full(len(owner), True)
    coord = np.zeros(len(owner), dtype=np.intp)
    sweeps = np.zeros(len(owner), dtype=np.intp)
    moved = np.zeros(len(owner))
    lo, hi = np.full(len(owner), -box), np.full(len(owner), box)
    line_best = np.full(len(owner), -np.inf)
    before = point[:, 0].copy() if dim else np.zeros(len(owner))
    line_arg = before.copy()
    steps = np.arange(_SCAN_POINTS)
    while live.any():
        act = pairs[live]
        rows = np.arange(act.size)[:, None]
        grid = steps * ((hi[act] - lo[act]) / (_SCAN_POINTS - 1))[:, None] + lo[act, None]
        grid[:, -1] = hi[act]
        batch = np.repeat(point[act, None], _SCAN_POINTS, axis=1)
        batch[rows, steps, coord[act, None]] = grid
        vals = pd_of(np.repeat(act, _SCAN_POINTS), batch.reshape(-1, dim))
        vals = vals.reshape(act.size, _SCAN_POINTS)
        evals[act] += _SCAN_POINTS
        k = vals.argmax(axis=1)
        peak, at = vals[rows[:, 0], k], grid[rows[:, 0], k]
        better = peak > line_best[act]
        line_best[act] = np.where(better, peak, line_best[act])
        line_arg[act] = np.where(better, at, line_arg[act])
        step = grid[:, 1] - grid[:, 0]
        lo[act] = np.maximum(-box, line_arg[act] - step)
        hi[act] = np.minimum(box, line_arg[act] + step)

        done = act[step <= _LINE_TOL]           # line searches that end here
        i = coord[done]
        uphill = line_best[done] >= value[done]
        value[done] = np.where(uphill, line_best[done], value[done])
        point[done, i] = np.where(uphill, line_arg[done], before[done])
        moved[done] = np.maximum(moved[done], np.abs(point[done, i] - before[done]))
        coord[done] += 1
        swept = done[coord[done] == dim]
        sweeps[swept] += 1
        settled = moved[swept] < _STEP_TOL
        capped = ~settled & (sweeps[swept] >= _MAX_SWEEPS)
        live[swept[settled | capped]] = False
        converged[swept[capped]] = False
        coord[swept], moved[swept] = 0, 0.0
        fresh = done[live[done]]                # start their next line search
        before[fresh] = line_arg[fresh] = point[fresh, coord[fresh]]
        lo[fresh], hi[fresh], line_best[fresh] = -box, box, -np.inf

    # per job, the first of its pairs with the highest value
    ends = np.cumsum([len(starts) for _, _, starts in jobs])
    best = [a + int(np.argmax(value[a:b]))
            for a, b in zip(np.concatenate(([0], ends[:-1])), ends)]
    mix, tau = _price(moments, nodes, cols, point[best], alpha)
    pf, pd = mixture_tail(*mix[-1], tau), mixture_tail(*mix[1], tau)
    return [(point[p], bool(converged[p]), float(tau[k]), float(pf[k]), float(pd[k]),
             int(evals[owner == k].sum())) for k, p in enumerate(best)]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _neighbourhood_group(moments: ComponentMoments, top: Topology, group,
                         alpha: float, seed: int | None) -> dict:
    """Neighbourhood designs of the nodes of `group`, which share a degree,
    from one lockstep search from the origin and a coarse grid or seeded
    random starts, so none is worse than the local detector; node ->
    P2Solution."""
    dim = len(neighbors(top, group[0]))
    box = stability_box(top) * (1.0 - 1e-9)
    cols = np.array([[j] + list(neighbors(top, j)) for j in group], dtype=np.intp)

    starts, grid_evals = {j: [np.zeros(dim)] for j in group}, 0
    if 0 < dim <= 2:
        axes = np.linspace(-box, box, _COARSE_POINTS)
        mesh = np.meshgrid(*([axes] * dim), indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        mix, tau = _price(moments, np.repeat(group, len(grid)),
                          np.repeat(cols, len(grid), axis=0),
                          np.tile(grid, (len(group), 1)), alpha)
        pd = mixture_tail(*mix[1], tau).reshape(len(group), len(grid))
        for j, row in zip(group, pd):
            starts[j].append(grid[int(np.argmax(row))])
        grid_evals = len(grid)
    elif dim > 2:
        for j in group:
            gen = rng.stream(0 if seed is None else seed, rng.OPTIMIZER, j)
            starts[j] += [gen.uniform(-box, box, size=dim) for _ in range(8)]

    found = _search_rows(moments, [(j, c, starts[j]) for j, c in zip(group, cols)],
                         alpha, box)
    return {j: P2Solution(j, dict(zip(c[1:].tolist(), (float(x) for x in point))),
                          tau, pd, alpha, grid_evals + evals, converged)
            for j, c, (point, converged, tau, _, pd, evals) in zip(group, cols, found)}


def neighbourhood_designs(moments: ComponentMoments, top: Topology, alpha: float,
                          seed: int | None = None) -> dict:
    """Node -> neighbourhood (P2) design for every node of `top`, each on
    its own components in `moments`.  Nodes of equal degree share one
    lockstep search; each design equals the node's own one-node search."""
    _check_alpha(alpha)
    groups = {}
    for j in top.nodes:
        groups.setdefault(len(neighbors(top, j)), []).append(j)
    found = {}
    for group in groups.values():
        found.update(_neighbourhood_group(moments, top, group, alpha, seed))
    return {j: found[j] for j in top.nodes}


# ---------------------------------------------------------------------------
# network design (full weight row per node)


@dataclass(frozen=True)
class P1Solution:
    weights: np.ndarray           # (N, N), unit diagonal
    thresholds: np.ndarray        # (N,)
    pf: np.ndarray
    pd: np.ndarray
    notes: tuple = field(default=())


def optimize_p1(moments: ComponentMoments, top: Topology, alpha: float,
                neighbourhood: dict, seed: int | None = None) -> P1Solution:
    """Best-effort network design: per-row detection maximization.

    Each node's row (own weight one, all other entries free in [-2, 2]) is
    tuned to maximize detection at false-alarm rate alpha; all rows run in
    one lockstep search.  `neighbourhood` maps every node to its
    neighbourhood design at that alpha; rows are seeded with it
    zero-extended, so the result is never worse than that design under the
    same statistics.  Rows whose kept ascent stopped at the sweep cap before
    converging are named in `notes`.
    """
    _check_alpha(alpha)
    n = top.node_count
    jobs = []
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
        jobs.append((j, [j] + others, [
            np.zeros(n - 1),
            np.array([hood.coefficients.get(i, 0.0) for i in others]),
            np.clip(gen.normal(scale=0.3, size=n - 1), -_P1_BOX, _P1_BOX)]))
    found = _search_rows(moments, jobs, alpha, _P1_BOX)

    weight_matrix = np.eye(n)
    thresholds, pf, pd = np.zeros(n), np.zeros(n), np.zeros(n)
    capped = []
    for (j, cols, _), (row, converged, tau, pf_j, pd_j, _) in zip(jobs, found):
        weight_matrix[j - 1, np.array(cols[1:], dtype=int) - 1] = row
        thresholds[j - 1], pf[j - 1], pd[j - 1] = tau, pf_j, pd_j
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
    moments: ComponentMoments     # every node's, with one-hop support
    solutions: dict               # node -> P2Solution
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
                min_cell: int = 5, truth=None, seed: int | None = None) -> BlindResult:
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
    solutions = neighbourhood_designs(moments, top, alpha, seed=seed)
    return BlindResult(labels, moments, solutions, folded, init_acc, final_acc)
