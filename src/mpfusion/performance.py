"""Detection-performance machinery.

Closed-form route: decision variables that are linear in the local scores
have, conditional on the hidden state vector, a Gaussian mixture law.
`ComponentMoments` holds the mixture components of a set of nodes, each
described by the score moments of every node, padded to one component
count.  `ComponentMoments.from_cells` builds it in one pass, splitting each
node's cells (activity patterns or label cells) by that node's hypothesis,
for the exact and the blind components alike.
`ComponentMoments.stats_for_rows` is the single push-forward from a batch
of linear rules to their component means and stds; one batch can mix rules
of different nodes.  `ComponentMoments.stats_for_row` is its one-row case,
giving a `ConditionalStats` of the node's own components, and
`ComponentMoments._pd_gradient` adds the gradient of the model Pd at a
pinned false-alarm rate, which the linear designs climb.
The false-alarm / detection probabilities are then mixtures of Q-tails
(`mixture_tail`).  Thresholds come from inverting that curve with one
solver, `solve_thresholds`: a safeguarded Newton iteration on a batch of
mixtures, whose step uses the mixture pdf (the tail's closed-form
derivative) and falls back to bisection of a per-row bracket; it raises
rather than return an unconverged value.

Empirical route: `monte_carlo_perf` tallies error rates from simulated
campaigns, and `gaussianity_check` quantifies how far conditioned samples
are from a moment-matched normal.  The two routes are kept separate so each
can vouch for the other in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sensing import q_function, q_inverse

_THRESHOLD_TOL = 1e-9
_MAX_NEWTON = 100
_MAX_GROWTH = 200
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# conditional mixture statistics


@dataclass(frozen=True)
class ConditionalStats:
    """Mixture description of one node's decision variable.

    For each hypothesis v in {-1, +1} there is a list of Gaussian
    components: `weights[v]` (summing to one), `means[v]`, `stds[v]`.
    Each component corresponds to one configuration of the remaining
    uncertainty (other node states, interferer patterns, ...).
    """

    node: int
    weights: dict
    means: dict
    stds: dict

    def __post_init__(self) -> None:
        for v in (-1, 1):
            if v not in self.weights:
                raise ValueError(f"missing components for v={v:+d}")
            w = np.asarray(self.weights[v], dtype=float)
            m = np.asarray(self.means[v], dtype=float)
            s = np.asarray(self.stds[v], dtype=float)
            if not (w.shape == m.shape == s.shape) or w.ndim != 1 or w.size == 0:
                raise ValueError("weights/means/stds must be matching 1-d arrays")
            if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
                raise ValueError("component weights must be a distribution")
            if np.any(s <= 0) or not np.all(np.isfinite(s)) or not np.all(np.isfinite(m)):
                raise ValueError("component moments must be finite with positive spread")
            object.__setattr__(self, "weights", {**self.weights, v: w})
            object.__setattr__(self, "means", {**self.means, v: m})
            object.__setattr__(self, "stds", {**self.stds, v: s})


@dataclass(frozen=True)
class ComponentMoments:
    """Mixture components of several nodes, padded to one component count.

    `nodes` holds the B node ids in ascending order.  For v in {-1, +1}:
    `weights[v]` is (B, M), `means[v]` and `variances[v]` are (B, M, N) —
    the conditional mean/variance of every node's score under each
    component — where M is the largest component count among the nodes.  A
    node with fewer components is filled with weight 0, mean 0 and variance
    1, so its padded terms are trailing zeros in every mixture sum, and
    `solve_thresholds` leaves them out of its brackets.  The zeros leave
    each sum bit for bit unchanged while M stays below 8, and also where
    both the node's own count and M are multiples of 8 no larger than 128:
    numpy sums a row of 8 to 128 terms in eight interleaved partial sums,
    which zeros appended in whole blocks of 8 leave as they were.  Other
    counts of 8 or more can shift that order.  Entries may be NaN for nodes
    outside the estimated set (blind estimation only sees one hop); touching
    a NaN in a rule is an error, not a silent zero.
    """

    nodes: np.ndarray
    weights: dict
    means: dict
    variances: dict

    @classmethod
    def from_cells(cls, cells: dict) -> "ComponentMoments":
        """Components of every node of `cells`, which maps a node to the
        (states, mass, means, variances) of its cells of slots or patterns.

        Cell c is one component of the node under hypothesis states[c]
        (+-1), with weight mass[c] (a probability or a slot count) and score
        moments means[c], variances[c] (each (N,)).  Cells without mass are
        dropped, and each hypothesis's weights are renormalized to sum to
        one.  Raises when a node's hypothesis is left without mass.
        """
        nodes = sorted(cells)
        split = {}
        for j in nodes:
            states, mass, means, variances = cells[j]
            for v in (-1, 1):
                sel = (states == v) & (mass > 0)
                if not sel.any():
                    raise ValueError(f"node {j} has no cell with mass in state {v:+d}")
                split[j, v] = mass[sel] / mass[sel].sum(), means[sel], variances[sel]
        fields = ({}, {}, {})             # weights, means, variances
        for v in (-1, 1):
            size = max(split[j, v][0].size for j in nodes)
            for k, pad in enumerate((0.0, 0.0, 1.0)):
                shape = (len(nodes), size) + split[nodes[0], v][k].shape[1:]
                fields[k][v] = np.full(shape, pad)
                for b, j in enumerate(nodes):
                    fields[k][v][b, :len(split[j, v][k])] = split[j, v][k]
        return cls(np.array(nodes), *fields)

    def _rules(self, nodes, indices, rows):
        """`rows` as (G, d) floats and, for v in {-1, +1}, `stats_for_rows`'
        mixtures followed by the score means and variances (G, d, M) used."""
        r = np.atleast_2d(np.asarray(rows, dtype=float))
        if r.shape[1] == 0:
            raise ValueError("a rule needs at least one score")
        nodes = np.asarray(nodes)
        at = np.searchsorted(self.nodes, nodes)
        held = self.nodes[np.minimum(at, self.nodes.size - 1)] == nodes
        if not held.all():
            raise ValueError(f"no components for node {nodes[~held][0]}")
        idx = np.broadcast_to(np.asarray(indices, dtype=np.intp) - 1, r.shape)
        out = {}
        for v in (-1, 1):
            _, size, cols = self.means[v].shape
            # (G, d, M) positions of the requested entries in the flat bank
            flat = ((at * size)[:, None, None] + np.arange(size)) * cols + idx[:, :, None]
            m, s2 = self.means[v].take(flat), self.variances[v].take(flat)
            if np.isnan(m).any() or np.isnan(s2).any():
                bad = np.isnan(m + s2).any(axis=(1, 2)).argmax()
                raise ValueError(
                    f"component moments for node {self.nodes[at[bad]]} "
                    f"do not cover all requested nodes")
            # each sum over the rule runs term by term in index order
            mean, var = r[:, :1] * m[:, 0], r[:, :1] * r[:, :1] * s2[:, 0]
            for k in range(1, r.shape[1]):
                mean = mean + r[:, k:k + 1] * m[:, k]
                var = var + r[:, k:k + 1] * r[:, k:k + 1] * s2[:, k]
            out[v] = (self.weights[v][at], mean, np.sqrt(var), m, s2)
        return r, out

    def stats_for_rows(self, nodes, indices, rows) -> dict:
        """Mixtures of the G rules sum_i rows[g, i] gamma_{indices[g, i]}
        under the components of node nodes[g].

        `rows` is (G, d), `nodes` (G,), and `indices` (G, d) or one (d,)
        list for every row.  Returns, for v in {-1, +1}, (weights (G, M),
        means (G, M), stds (G, M)).  Each entry is a product summed along
        its own row, so row g does not depend on the other rows of the batch.
        Raises when a node of `nodes` has no components here.
        """
        return {v: rule[:3] for v, rule in self._rules(nodes, indices, rows)[1].items()}

    def _pd_gradient(self, nodes, indices, rows, alpha: float):
        """Thresholds at false-alarm rate alpha, false-alarm and detection
        probabilities (G,) of the rules of `stats_for_rows`, and the gradient
        (G, d) of the detection probability in the weights at that rate.

        With z_m = (tau - mean_m) / std_m and f_m = weight_m phi(z_m) / std_m,
        the tail G_v of hypothesis v has dG_v/dw_i = sum_m f_m (mu_mi +
        z_m w_i s2_mi / std_m) and dG_v/dtau = -sum_m f_m; tau keeps
        G_{-1} = alpha, so dPd/dw = dG_1/dw - (dG_1/dtau / dG_{-1}/dtau)
        dG_{-1}/dw.  Row g does not depend on the other rows of the batch.
        """
        r, rules = self._rules(nodes, indices, rows)
        tau = solve_thresholds(*rules[-1][:3], alpha)
        tail, slope, grad = {}, {}, {}
        for v, (w, mean, std, m, s2) in rules.items():
            z = (tau[:, None] - mean) / std
            f = np.exp(-0.5 * z * z) / std * w * _INV_SQRT_2PI
            tail[v], slope[v] = (q_function(z) * w).sum(axis=1), f.sum(axis=1)
            grad[v] = ((f[:, None] * m).sum(axis=2)
                       + r * (f[:, None] * (z / std)[:, None] * s2).sum(axis=2))
        return tau, tail[-1], tail[1], grad[1] - (slope[1] / slope[-1])[:, None] * grad[-1]

    def stats_for_row(self, node: int, indices, row_weights) -> ConditionalStats:
        """Gaussian mixture of sum_i w_i gamma_i under node's own components
        (those of positive weight; the padding has weight 0)."""
        mix = self.stats_for_rows([node], indices, [row_weights])
        own = {v: mix[v][0][0] > 0 for v in (-1, 1)}
        return ConditionalStats(node, *({v: mix[v][k][0][own[v]] for v in (-1, 1)}
                                        for k in range(3)))


def mixture_tail(weights, means, stds, tau):
    """sum_m weights[m] Q((tau - means[..., m]) / stds[..., m]).

    `tau` (...) pairs with components `means`/`stds` of shape (..., M) or
    (M,); each value is summed along its own row of components.
    """
    t = np.asarray(tau, dtype=float)
    return (q_function((t[..., None] - means) / stds) * weights).sum(axis=-1)


def solve_thresholds(weights, means, stds, target: float,
                     tol: float = _THRESHOLD_TOL) -> np.ndarray:
    """Invert G tail mixtures at once: tau (G,) with
    mixture_tail(weights, means[g], stds[g], tau[g]) = target.

    `weights` is (M,) or (G, M), `means` and `stds` are (G, M).  Each row
    starts from the threshold of its moment-matched Gaussian and takes
    Newton steps on the tail, whose derivative is minus the mixture pdf.  A
    per-row bracket [lo, hi] (grown geometrically from the range of the
    row's components with positive weight, so padding never sets it, until
    it straddles the target) shrinks with every evaluation, and a Newton step
    that leaves it is replaced by the bracket midpoint.  A row is done when
    its tail is within `tol` of the target; rows are solved independently,
    so a row's result does not depend on the rest of the batch.  Raises
    RuntimeError when a row cannot be bracketed or is still short of `tol`
    after `_MAX_NEWTON` evaluations.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target probability must be in (0, 1)")
    w = np.asarray(weights, dtype=float)
    m = np.asarray(means, dtype=float)
    s = np.asarray(stds, dtype=float)
    if (m.ndim != 2 or m.shape != s.shape or w.shape not in (m.shape, m.shape[1:])
            or w.size == 0):
        raise ValueError("need (M,) or (G, M) weights and matching (G, M) means and stds")
    if not (np.isfinite(m).all() and np.isfinite(s).all() and (s > 0).all()):
        raise ValueError("component moments must be finite with positive spread")
    w = np.broadcast_to(w, m.shape)
    real = w > 0

    # grow both ends of each bracket outward until it straddles the target
    # (the tail decreases); the sign of `span` points each end outward
    span = np.outer(8.0 * np.where(real, s, 0.0).max(axis=1) + 1.0, [-1.0, 1.0])
    ends = np.stack((np.where(real, m, np.inf).min(axis=1),
                     np.where(real, m, -np.inf).max(axis=1)), axis=1) + span
    for _ in range(_MAX_GROWTH):
        short = (mixture_tail(w[:, None], m[:, None], s[:, None], ends) - target) * span > 0
        if not short.any():
            break
        ends[short] += span[short]
        span[short] *= 2.0
    else:
        raise RuntimeError("failed to bracket threshold")
    lo, hi = ends[:, 0].copy(), ends[:, 1].copy()

    mu = (m * w).sum(axis=1)
    sd = np.sqrt((w * (s * s + (m - mu[:, None]) ** 2)).sum(axis=1))
    tau = np.clip(mu + sd * q_inverse(target), lo, hi)
    # the unsettled rows `act`, with their iterates t and their own copies
    # of lo, hi, m, s and w
    act, t = np.arange(len(tau)), tau.copy()
    for _ in range(_MAX_NEWTON):
        z = (t[:, None] - m) / s
        err = (q_function(z) * w).sum(axis=1) - target
        live = np.abs(err) > tol
        if not live.all():
            tau[act[~live]] = t[~live]
            if not live.any():
                return tau
            act, t, lo, hi, m, s, w, z, err = (
                a[live] for a in (act, t, lo, hi, m, s, w, z, err))
        above = err > 0           # tail above target: the root lies right of t
        lo = np.where(above, t, lo)
        hi = np.where(above, hi, t)
        pdf = (np.exp(-0.5 * z * z) / s * w).sum(axis=1) * _INV_SQRT_2PI
        with np.errstate(divide="ignore", invalid="ignore"):
            step = t + err / pdf
        t = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
    raise RuntimeError(
        f"threshold solver missed tol={tol:g} on {act.size} of {len(tau)} "
        f"rows after {_MAX_NEWTON} iterations")


# ---------------------------------------------------------------------------
# empirical route


@dataclass
class PerfReport:
    """Per-node empirical error rates from one evaluation campaign.

    Rates are NaN where the campaign produced no occurrences of the
    conditioning event (e.g. a node that is never idle); `n_off`/`n_on`
    record how many slots informed each estimate.
    """

    nodes: tuple
    pf: np.ndarray
    pd: np.ndarray
    stderr_pf: np.ndarray
    stderr_pd: np.ndarray
    n_off: np.ndarray
    n_on: np.ndarray
    thresholds: np.ndarray
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def col(a):
            return [None if not math.isfinite(x) else float(x) for x in a]

        return {
            "nodes": list(self.nodes),
            "pf": col(self.pf),
            "pd": col(self.pd),
            "stderr_pf": col(self.stderr_pf),
            "stderr_pd": col(self.stderr_pd),
            "n_off": [int(x) for x in self.n_off],
            "n_on": [int(x) for x in self.n_on],
            "thresholds": [float(x) for x in self.thresholds],
            **self.meta,
        }


def monte_carlo_perf(lam, truth, thresholds, meta: dict | None = None) -> PerfReport:
    """Tally false-alarm / detection rates of thresholded decision variables.

    lam, truth: (N, T) arrays (decision variables and +-1 ground truth).
    Deterministic given its inputs: binomial standard errors are attached,
    and rates are NaN (not zero) when a node never saw the relevant state.
    """
    lam = np.asarray(lam, dtype=float)
    x = np.asarray(truth)
    tau = np.broadcast_to(np.asarray(thresholds, dtype=float), (lam.shape[0],))
    if lam.shape != x.shape or lam.ndim != 2:
        raise ValueError("lam and truth must be matching (nodes, slots) arrays")
    dec = lam > tau[:, None]
    on = x == 1
    off = ~on
    n_on = on.sum(axis=1)
    n_off = off.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pd_hat = np.where(n_on > 0, (dec & on).sum(axis=1) / np.maximum(n_on, 1), np.nan)
        pf_hat = np.where(n_off > 0, (dec & off).sum(axis=1) / np.maximum(n_off, 1), np.nan)
        se_pd = np.where(n_on > 0, np.sqrt(pd_hat * (1 - pd_hat) / np.maximum(n_on, 1)), np.nan)
        se_pf = np.where(n_off > 0, np.sqrt(pf_hat * (1 - pf_hat) / np.maximum(n_off, 1)), np.nan)
    nodes = tuple(range(1, lam.shape[0] + 1))
    return PerfReport(nodes, pf_hat, pd_hat, se_pf, se_pd,
                      n_off.astype(np.int64), n_on.astype(np.int64),
                      np.array(tau, dtype=float), meta or {})


@dataclass(frozen=True)
class GaussianityReport:
    ks_statistic: float
    mean: float
    std: float
    count: int


def gaussianity_check(samples) -> GaussianityReport:
    """Kolmogorov-Smirnov distance to a moment-matched normal.

    Fits mean and standard deviation to the samples themselves and reports
    sup |F_empirical - Phi((x - mean)/std)|.  Requires at least 100 samples
    and nondegenerate spread.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size < 100:
        raise ValueError("need at least 100 samples for a stable KS figure")
    mu = float(np.mean(s))
    sd = float(np.std(s))
    if sd <= 0 or not math.isfinite(sd):
        raise ValueError("degenerate sample spread")
    xs = np.sort(s)
    cdf = 1.0 - q_function((xs - mu) / sd)
    n = s.size
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return GaussianityReport(float(max(upper, lower)), mu, sd, n)
