"""Benchmark sensing scenario: a small network of sensors watching a band
shared by a few intermittent transmitters.

The default layout is a five-node chain with two transmitters: transmitter 1
reaches nodes (1, 2, 3) and transmitter 2 reaches nodes (3, 4, 5).  Per-link
SNRs are staggered around a common level rho by +-delta_rho so the two
footprints are asymmetric, and node 3 hears both sources coherently.  A node
counts as "occupied" (x_j = +1) when any transmitter covering it is on.

Transmitter on/off dynamics follow coupled two-state chains: each slot,
with probability `coupling` all transmitters copy one fresh Bernoulli(pi)
draw, otherwise each flips independently with the rates that keep
Bernoulli(pi) stationary.  This gives tunable cross-transmitter correlation
with a fixed duty cycle.  `draw_activity` walks the chains over one block of
uniforms drawn up front: a step reads one for the coupling test, then one for
the common draw or P for the flips.  A generator's `random(n)` returns the
same doubles as n scalar `random()` calls, so the walk equals a slot-by-slot
one that draws each uniform as it needs it; the block is sized for the worst
case, and the uniforms left over at its end belong to the activity stream
alone, so nothing downstream moves.  Where each coupling test sits follows
by blocked pointer jumping over the uniforms, with no per-slot Python; per
chain a step then resets, keeps or negates the state, so the states follow
from the last reset and a parity of negations.

Everything here is driven by the keyed streams in `rng`, so campaigns are
reproducible from (seed, index) regardless of what else ran first.  A
`Campaign` keeps activity, node truth and local scores, never the raw
receiver samples: energy scores are one exact noncentral chi-square draw per
node and slot, matched ones are reduced from K samples.  `ScenarioConfig`
builds its topology when constructed, so a bad edge list fails there.

The analytic route to a linear rule's mixture is `scenario_stats` ->
`moments_from_scenario` (one `performance.ComponentMoments` with the exact
per-pattern components of every node) -> its single push-forward
`stats_for_rows`, which prices every row of a weight matrix in one batch
(`pipeline._Cell.linear_thresholds`).  The patterns are split by each
node's hypothesis with `performance.ComponentMoments.from_cells`, the split
`optimizer.blind_adapt` also applies to its label cells.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng, sensing
from .graph import Topology, _is_integer, chain
from .performance import ComponentMoments

_OBS_CHUNK = 2048
_WALK_BLOCK = 64          # steps per block of `_coupling_tests`, a power of 2

# SNR stagger (in units of delta_rho) for three-node footprints, by the
# position of the node within the footprint and the parity of the
# transmitter id.  Footprints of any other size sit flat at rho.
_STAGGER = {1: (1.0, 0.0, -1.0), 0: (0.0, -1.0, 1.0)}

DEFAULT_COVERAGE = {1: (1, 2, 3), 2: (3, 4, 5)}


def _integer(value, what: str) -> int:
    if not _is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _sequence(value, what: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {value!r}") from None


def _is_real(value) -> bool:
    """True for a finite Python or numpy real; bools and strings are not
    levels, rates or probabilities."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _real(value, what: str) -> float:
    if not _is_real(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of one benchmark setup."""

    node_count: int = 5
    edges: tuple | None = None          # None -> chain topology
    coverage: dict = field(default_factory=lambda: dict(DEFAULT_COVERAGE))
    rho_db: float = -5.0
    delta_rho_db: float = 1.0
    sample_count: int = 100
    noise_var: float = 1.0
    far: float = 0.1
    on_prob: tuple = (0.5, 0.5)
    flip: float = 0.2
    coupling: float = 0.5
    sensing_mode: str = "energy"
    initial_activity: tuple | None = None

    def __post_init__(self) -> None:
        for name in ("rho_db", "delta_rho_db", "noise_var", "far", "flip", "coupling"):
            _real(getattr(self, name), name)
        if _integer(self.node_count, "node_count") < 1:
            raise ValueError("need at least one node")
        cov = {_integer(p, "coverage transmitter id"):
               tuple(sorted(_integer(n, "coverage entry") for n in nodes))
               for p, nodes in self.coverage.items()}
        object.__setattr__(self, "coverage", cov)
        if not cov:
            raise ValueError("need at least one transmitter")
        covered = set()
        for p, nodes in cov.items():
            if not nodes:
                raise ValueError(f"transmitter {p} covers no nodes")
            for node in nodes:
                if not 1 <= node <= self.node_count:
                    raise ValueError(f"transmitter {p} covers unknown node {node}")
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"transmitter {p} lists a node twice")
            covered.update(nodes)
        if covered != set(range(1, self.node_count + 1)):
            missing = sorted(set(range(1, self.node_count + 1)) - covered)
            raise ValueError(f"nodes {missing} are covered by no transmitter")
        pi = self.on_prob
        if np.isscalar(pi):
            pi = tuple(_real(pi, "on_prob") for _ in cov)
        else:
            pi = tuple(_real(x, "on_prob entry") for x in _sequence(pi, "on_prob"))
        if len(pi) != len(cov):
            raise ValueError("on_prob must give one duty cycle per transmitter")
        object.__setattr__(self, "on_prob", pi)
        for x in pi:
            if not 0.0 <= x <= 1.0:
                raise ValueError("duty cycles must lie in [0, 1]")
        if not 0.0 <= self.coupling <= 1.0:
            raise ValueError("coupling must lie in [0, 1]")
        if self.coupling > 0.0 and len(set(pi)) > 1:
            raise ValueError("coupled transmitters need equal duty cycles")
        if not 0.0 <= self.flip <= 1.0:
            raise ValueError("flip rate must lie in [0, 1]")
        if any(2.0 * self.flip * max(x, 1.0 - x) > 1.0 for x in pi):
            raise ValueError("flip rate too high for the requested duty cycle")
        if self.sensing_mode not in ("energy", "matched"):
            raise ValueError(f"unknown sensing mode {self.sensing_mode!r}")
        if self.noise_var <= 0:
            raise ValueError("noise variance must be positive")
        if _integer(self.sample_count, "sample_count") < 1:
            raise ValueError("need at least one sample per slot")
        if not 0.0 < self.far < 1.0:
            raise ValueError("false-alarm target must lie in (0, 1)")
        if self.initial_activity is not None:
            ia = tuple(_integer(b, "initial_activity entry")
                       for b in _sequence(self.initial_activity, "initial_activity"))
            if len(ia) != len(cov) or any(b not in (0, 1) for b in ia):
                raise ValueError("initial_activity must be one 0/1 flag per transmitter")
            object.__setattr__(self, "initial_activity", ia)
        if self.edges is not None:
            object.__setattr__(self, "edges", tuple(
                tuple(_integer(a, "edges entry") for a in _sequence(e, "edge"))
                for e in _sequence(self.edges, "edges")))
        self.topology()     # a bad edge list (e.g. one not a pair) fails here

    @property
    def pu_ids(self) -> tuple:
        return tuple(sorted(self.coverage))

    @property
    def pu_count(self) -> int:
        return len(self.coverage)

    def topology(self) -> Topology:
        if self.edges is None:
            return chain(self.node_count)
        return Topology(self.node_count, self.edges)

    @property
    def tau0(self) -> float:
        return sensing.energy_threshold(self.noise_var, self.sample_count, self.far)


def snr_assignment(config: ScenarioConfig) -> dict:
    """Per (node, transmitter) link SNR in dB.

    Three-node footprints get the staggered pattern (one link delta_rho
    above rho, one at rho, one below, with the order depending on the
    transmitter id's parity); any other footprint size sits flat at rho.
    """
    out = {}
    for p in config.pu_ids:
        nodes = config.coverage[p]
        if len(nodes) == 3:
            offsets = _STAGGER[p % 2]
        else:
            offsets = (0.0,) * len(nodes)
        for node, off in zip(nodes, offsets):
            out[(node, p)] = config.rho_db + off * config.delta_rho_db
    return out


def link_amplitudes(config: ScenarioConfig) -> np.ndarray:
    """(N, P) per-sample received amplitudes a[j, p]; zero where uncovered.

    The link SNR is per-sample: E_link = K * sigma^2 * 10^(snr/10), so the
    amplitude sqrt(E_link / K) does not depend on the window length.
    """
    snr = snr_assignment(config)
    amp = np.zeros((config.node_count, config.pu_count))
    for col, p in enumerate(config.pu_ids):
        for node in config.coverage[p]:
            db = snr[(node, p)]
            amp[node - 1, col] = np.sqrt(config.noise_var * 10.0 ** (db / 10.0))
    return amp


def nominal_templates(config: ScenarioConfig) -> np.ndarray:
    """(N,) per-sample template amplitude: all covering transmitters on."""
    return link_amplitudes(config).sum(axis=1)


# ---------------------------------------------------------------------------
# transmitter activity process


def pu_configs(config: ScenarioConfig) -> np.ndarray:
    """(2^P, P) matrix of 0/1 activity patterns, little-endian by row index."""
    p = config.pu_count
    idx = np.arange(2 ** p, dtype=np.int64)
    return ((idx[:, None] >> np.arange(p)) & 1).astype(np.int8)


def _transition_matrix(config: ScenarioConfig) -> np.ndarray:
    """(2^P, 2^P) one-slot kernel, trans[a, b] = P(pattern a -> pattern b).

    The independent-flip part is built as one (m, m) product per
    transmitter, multiplied in transmitter order, so every entry carries
    the same rounding as a per-entry product over the chains.
    """
    pats = pu_configs(config)
    m = pats.shape[0]
    pi = np.array(config.on_prob)
    kappa = config.coupling
    f = config.flip
    up = 2.0 * f * pi            # P(off -> on) per chain
    down = 2.0 * f * (1.0 - pi)  # P(on -> off) per chain
    on = pats == 1
    stay = np.where(on, 1.0 - down, 1.0 - up)      # (m, P), by source row
    move = np.where(on, down, up)
    trans = np.ones((m, m))
    for c in range(config.pu_count):
        same = pats[:, None, c] == pats[None, :, c]
        trans *= np.where(same, stay[:, None, c], move[:, None, c])
    trans *= 1.0 - kappa
    if kappa > 0.0:
        trans[:, m - 1] += kappa * pi[0]
        trans[:, 0] += kappa * (1.0 - pi[0])
    return trans


def stationary_activity(config: ScenarioConfig) -> np.ndarray:
    """Stationary distribution over the 2^P activity patterns.

    Solved exactly from the one-slot transition kernel, so it reflects the
    cross-transmitter correlation induced by the common-draw coupling (it is
    a product law only at coupling = 0).  Raises if there is no unique law.
    """
    if config.pu_count > 10:
        raise ValueError("stationary solve limited to 10 transmitters")
    if config.flip == 0.0 and config.coupling == 0.0:
        raise ValueError("flip = 0 and coupling = 0 make every activity pattern "
                         "absorbing: there is no unique stationary law")
    trans = _transition_matrix(config)
    m = trans.shape[0]
    a = trans.T - np.eye(m)
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    probs = np.linalg.solve(a, b)
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def _coupling_tests(common: np.ndarray, steps: int, p: int) -> np.ndarray:
    """Positions (steps,) in the uniforms of the walk's coupling tests.

    The test after one at i sits at next[i] = i + 2 after a common draw and
    i + 1 + P otherwise.  Pointer jumping composes next into next^B (B =
    `_WALK_BLOCK`) by doubling, walks one anchor per block of B steps
    through it, and fills every block at once, one gather per offset.
    Position n is a sink, so the last block may run past the end."""
    n = common.size
    nxt = np.arange(1 + p, n + 2 + p)
    nxt[:n] -= (p - 1) * common
    np.minimum(nxt, n, out=nxt)
    jump = nxt
    for _ in range(_WALK_BLOCK.bit_length() - 1):
        # every entry lies in [0, n], so "clip" only skips the bounds check
        jump = np.take(jump, jump, mode="clip")
    anchors = np.empty(-(-steps // _WALK_BLOCK), dtype=np.intp)
    i = 0
    for b in range(anchors.size):
        anchors[b] = i
        i = jump[i]
    at = np.empty((_WALK_BLOCK, anchors.size), dtype=np.intp)
    at[0] = anchors
    for k in range(1, _WALK_BLOCK):
        at[k] = nxt[at[k - 1]]
    return at.T.ravel()[:steps]


def draw_activity(config: ScenarioConfig, slots: int,
                  gen: np.random.Generator) -> np.ndarray:
    """(T, P) activity matrix; starts from the stationary law (or the
    configured pattern) and walks the coupled chains.

    `slots` must be a positive integer.  The coupling tests are placed by
    `_coupling_tests`, and the states follow per chain on a (P, T) layout:
    each is its last reset's value, negated once per negation since.  The
    result is the per-slot walk's, uniform for uniform and state for state.
    """
    slots = _integer(slots, "slots")
    if slots < 1:
        raise ValueError("need at least one slot")
    p = config.pu_count
    if config.initial_activity is not None:
        state = list(config.initial_activity)
    else:
        probs = stationary_activity(config)
        pick = int(np.searchsorted(np.cumsum(probs), gen.random()))
        state = pu_configs(config)[min(pick, probs.size - 1)].tolist()
    # a step uses at most 1 + P uniforms; the tail of the block may go unused
    u = gen.random((slots - 1) * (1 + p))
    common = u < config.coupling
    at = _coupling_tests(common, slots - 1, p)
    pi = np.array(config.on_prob)[:, None]
    reset = common[at]
    z = u[at + 1] < config.on_prob[0]
    r = u[at + 1 + np.arange(p)[:, None]]          # (P, T - 1)
    # per chain and slot, the next state from off and from on (slot 0 holds
    # the first state): the two agree on a reset, else the step keeps the
    # state (0, 1) or negates it (1, 0)
    from_off = np.empty((p, slots), dtype=bool)
    from_on = np.empty_like(from_off)
    from_off[:, 0] = from_on[:, 0] = state
    from_off[:, 1:] = np.where(reset, z, r < 2.0 * config.flip * pi)
    from_on[:, 1:] = np.where(reset, z, r >= 2.0 * config.flip * (1.0 - pi))
    # a state is the last reset's value, negated once per negation since;
    # a count that wraps at 256 keeps its parity
    parity = np.cumsum(from_off > from_on, axis=1, dtype=np.uint8) & 1
    last = np.maximum.accumulate(np.where(from_off == from_on, np.arange(slots), 0), axis=1)
    states = np.take_along_axis(from_off ^ parity, last, axis=1) ^ parity
    return np.ascontiguousarray(states.T, dtype=np.int8)


def node_states(config: ScenarioConfig, activity: np.ndarray) -> np.ndarray:
    """Map (T, P) activity to (N, T) node occupancy in {-1, +1} (OR rule)."""
    amp = link_amplitudes(config) > 0
    hit = amp @ activity.T.astype(np.int64)
    return np.where(hit > 0, 1, -1).astype(np.int8)


# ---------------------------------------------------------------------------
# campaigns


@dataclass(frozen=True)
class Campaign:
    """One simulated stretch of slots: activity, truth, and local scores."""

    config: ScenarioConfig
    activity: np.ndarray          # (T, P) 0/1
    x: np.ndarray                 # (N, T) +-1
    gamma: np.ndarray             # (N, T) local scores
    seed: int
    index: int


def run_campaign(config: ScenarioConfig, slots: int, seed: int,
                 index: int = 0) -> Campaign:
    """Simulate `slots` sensing slots.

    Reproducible from (config, slots, seed, index): transmitter activity and
    receiver noise come from separately keyed streams, so campaigns with
    different indices are independent while a repeated call is bit-identical.
    A scenario with flip = coupling = 0 and an `initial_activity` is a frozen
    chain that keeps that pattern for every slot, which is how conditioned
    sampling is done.  An energy score mean(y^2) - tau0 is drawn from its
    exact law, sigma^2 / K times a noncentral chi-square with K degrees of
    freedom and noncentrality K a^2 / sigma^2, less tau0.  Matched scores are
    reduced from K samples per slot, one node and `_OBS_CHUNK` slots at a
    time, into one buffer reused for the whole campaign.
    """
    slots = _integer(slots, "slots")
    act_gen = rng.stream(seed, rng.PU_ACTIVITY, index)
    obs_gen = rng.stream(seed, rng.OBSERVATIONS, index)

    activity = draw_activity(config, slots, act_gen)
    x = node_states(config, activity)

    amp = link_amplitudes(config)                   # (N, P)
    slot_amp = amp @ activity.T.astype(float)       # (N, T)
    sigma = np.sqrt(config.noise_var)
    k = config.sample_count
    n = config.node_count
    if config.sensing_mode == "energy":
        gamma = obs_gen.noncentral_chisquare(k, k * slot_amp ** 2 / config.noise_var)
        gamma *= config.noise_var / k
        gamma -= config.tau0
        return Campaign(config, activity, x, gamma, seed, index)

    templates = nominal_templates(config)
    offsets = k * templates ** 2 / 2.0
    gamma = np.empty((n, slots))
    buf = np.empty((min(_OBS_CHUNK, slots), k))
    for start in range(0, slots, _OBS_CHUNK):
        stop = min(start + _OBS_CHUNK, slots)
        # the stream fills a chunk node by node, so drawing one node's rows
        # at a time into one reused buffer reads the same numbers
        y = buf[:stop - start]
        for i in range(n):
            obs_gen.standard_normal(out=y)
            y *= sigma
            y += slot_amp[i, start:stop, None]
            gamma[i, start:stop] = templates[i] * y.sum(axis=1) - offsets[i]
    return Campaign(config, activity, x, gamma, seed, index)


# ---------------------------------------------------------------------------
# analytic conditional statistics


@dataclass(frozen=True)
class ScenarioStats:
    """Exact per-pattern score moments for one scenario.

    Column c corresponds to the activity pattern `patterns[c]`; `x_table`
    gives each node's occupancy under that pattern, and `gamma_mean` /
    `gamma_var` the score moments (scores are conditionally independent
    across nodes given the pattern).
    """

    config: ScenarioConfig
    patterns: np.ndarray       # (M, P)
    probs: np.ndarray          # (M,)
    x_table: np.ndarray        # (N, M)
    gamma_mean: np.ndarray     # (N, M)
    gamma_var: np.ndarray      # (N, M)


def scenario_stats(config: ScenarioConfig) -> ScenarioStats:
    """Compute the exact pattern probabilities and score moments."""
    pats = pu_configs(config)
    probs = stationary_activity(config)
    amp = link_amplitudes(config)
    slot_amp = amp @ pats.T.astype(float)            # (N, M)
    x_table = np.where((amp > 0) @ pats.T > 0, 1, -1).astype(np.int8)

    k = config.sample_count
    if config.sensing_mode == "energy":
        mean, var = sensing.energy_moments(k * slot_amp ** 2, config.noise_var, k,
                                           config.tau0)
    else:
        templates = nominal_templates(config)[:, None]
        energy = np.repeat(k * templates ** 2, slot_amp.shape[1], axis=1)
        mean, var = sensing.matched_moments(energy, k * templates * slot_amp,
                                            config.noise_var)
    return ScenarioStats(config, pats, probs, x_table, mean, var)


def moments_from_scenario(stats: ScenarioStats) -> ComponentMoments:
    """Exact components of every node from analytic scenario statistics.

    Conditional on an activity pattern the scores are independent Gaussians,
    so each live pattern with x_j = v is one exact mixture component of node
    j under hypothesis v, weighted by its renormalized stationary
    probability (`ComponentMoments.from_cells` with the patterns as cells).
    Patterns with zero stationary probability are dropped; if a node has no
    mass on one hypothesis (e.g. perpetually occupied), that node raises.
    """
    return ComponentMoments.from_cells(
        {j: (stats.x_table[j - 1], stats.probs, stats.gamma_mean.T, stats.gamma_var.T)
         for j in range(1, stats.config.node_count + 1)})


def with_rho(config: ScenarioConfig, rho_db: float,
             delta_rho_db: float | None = None) -> ScenarioConfig:
    """Copy of the scenario at a different operating SNR."""
    kwargs = {"rho_db": float(rho_db)}
    if delta_rho_db is not None:
        kwargs["delta_rho_db"] = float(delta_rho_db)
    return replace(config, **kwargs)
