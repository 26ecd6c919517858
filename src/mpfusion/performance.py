"""Detection-performance machinery.

Closed-form route: decision variables that are linear in the local scores
have, conditional on the hidden state vector, a Gaussian mixture law.
`ComponentMoments` describes one node's mixture components by the score
moments of every node, and `ComponentMoments.stats_for_row` is the single
push-forward from a linear rule to that node's `ConditionalStats`.  The
false-alarm / detection probabilities are then mixtures of Q-tails (`gfun`),
and thresholds come from inverting that curve (`solve_threshold`).

Empirical route: `monte_carlo_perf` tallies error rates from simulated
campaigns, and `gaussianity_check` quantifies how far conditioned samples
are from a moment-matched normal.  The two routes are kept separate so each
can vouch for the other in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sensing import q_function

_BISECT_TOL = 1e-9
_MAX_BISECT = 400


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

    def component_count(self, v: int) -> int:
        return self.weights[v].size


@dataclass(frozen=True)
class ComponentMoments:
    """Per-node mixture components with per-node score moments.

    For v in {-1, +1}: `weights[v]` is (M,), `means[v]` and `variances[v]`
    are (M, N) — the conditional mean/variance of every node's score under
    each component.  Entries may be NaN for nodes outside the estimated set
    (blind estimation only sees one hop); touching a NaN in an objective is
    an error, not a silent zero.
    """

    node: int
    weights: dict
    means: dict
    variances: dict

    def stats_for_row(self, indices, row_weights, offset: float = 0.0) -> ConditionalStats:
        """Gaussian mixture of sum_i w_i gamma_i (+offset) over components."""
        idx = np.asarray(indices, dtype=np.intp) - 1
        w = np.asarray(row_weights, dtype=float)
        weights_by_v, means_by_v, stds_by_v = {}, {}, {}
        for v in (-1, 1):
            m = self.means[v][:, idx]
            s2 = self.variances[v][:, idx]
            if np.any(np.isnan(m)) or np.any(np.isnan(s2)):
                raise ValueError(
                    f"component moments for node {self.node} do not cover "
                    f"all requested nodes")
            weights_by_v[v] = self.weights[v]
            means_by_v[v] = m @ w + offset
            stds_by_v[v] = np.sqrt(s2 @ (w ** 2))
        return ConditionalStats(self.node, weights_by_v, means_by_v, stds_by_v)


def gfun(tau, v: int, stats: ConditionalStats):
    """P{lambda > tau | x_j = v} for the Gaussian-mixture model.

    Strictly decreasing and continuous in tau, with limits 1 and 0, so a
    root of gfun(tau) = p exists for any p in (0, 1).
    """
    w = stats.weights[v]
    m = stats.means[v]
    s = stats.stds[v]
    t = np.asarray(tau, dtype=float)
    tails = q_function((t[..., None] - m) / s)
    out = tails @ w
    return float(out) if np.isscalar(tau) or np.ndim(tau) == 0 else out


def solve_threshold(stats: ConditionalStats, v: int, target: float,
                    tol: float = _BISECT_TOL) -> float:
    """Invert the tail mixture: find tau with gfun(tau, v) = target.

    Bisection with geometric bracket growth; terminates when the mixture
    value is within `tol` of the target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target probability must be in (0, 1)")
    m = stats.means[v]
    s = stats.stds[v]
    span = float(np.max(s)) * 8.0 + 1.0
    lo = float(np.min(m)) - span
    hi = float(np.max(m)) + span
    # grow the bracket until it straddles the target (gfun is decreasing)
    for _ in range(200):
        if gfun(lo, v, stats) >= target:
            break
        lo -= span
        span *= 2.0
    else:
        raise RuntimeError("failed to bracket threshold from below")
    span = float(np.max(s)) * 8.0 + 1.0
    for _ in range(200):
        if gfun(hi, v, stats) <= target:
            break
        hi += span
        span *= 2.0
    else:
        raise RuntimeError("failed to bracket threshold from above")
    mid = 0.5 * (lo + hi)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        val = gfun(mid, v, stats)
        if abs(val - target) <= tol:
            return mid
        if val > target:
            lo = mid
        else:
            hi = mid
    return mid


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

    def available(self, kind: str) -> np.ndarray:
        counts = self.n_off if kind == "pf" else self.n_on
        return counts > 0

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


def empirical_gfun(lam_samples, tau) -> tuple:
    """(rate, stderr) of P{lambda > tau} from raw samples of one node."""
    s = np.asarray(lam_samples, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a nonempty 1-d sample vector")
    p = float(np.mean(s > tau))
    return p, math.sqrt(p * (1 - p) / s.size)


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
