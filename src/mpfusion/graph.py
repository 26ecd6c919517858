"""Network topology, the message schedule, and pairwise-field parameters.

Nodes are 1-based integers.  An undirected edge {i, j} is stored once as the
sorted pair (min, max); message passing uses *directed* edges (k, j), meaning
"from k to j".  `Topology.adjacency`, built once per topology, is the one
neighbour index: `neighbors`, `feeder_edges`, `hop_distance` and
`max_degree` all read it.  `run_schedule` is the one message loop of both
engine families (`discrete.run_messages` and `quadratic.run`): it follows
`message_schedule` and only the per-edge step differs between them.

The pairwise field over states x in {-1,+1}^N is

    p(x) ∝ prod_j phi_j(x_j) * prod_{ij in E} exp(J_ij x_i x_j)

with no node bias (theta = 0); all per-node evidence enters through the
local statistics gamma_j at runtime, never through the field itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Tuple

Edge = Tuple[int, int]


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; bools and floats, even integral
    ones like 2.0, are not counts, node ids or flags."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _canon(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Topology:
    """Undirected simple graph on nodes 1..node_count."""

    node_count: int
    edges: Tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not _is_integer(self.node_count) or self.node_count < 1:
            raise ValueError(f"node_count must be an integer >= 1, got {self.node_count!r}")
        seen = set()
        canon = []
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair")
            i, j = e
            if not (_is_integer(i) and _is_integer(j)):
                raise ValueError(f"edge {e!r} has a node id that is not an integer")
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (1 <= i <= self.node_count and 1 <= j <= self.node_count):
                raise ValueError(f"edge {e!r} references a node outside 1..{self.node_count}")
            c = _canon(i, j)
            if c in seen:
                raise ValueError(f"duplicate edge {c!r}")
            seen.add(c)
            canon.append(c)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def directed_edges(self) -> Tuple[Edge, ...]:
        """Both orientations of every edge, sorted."""
        out = []
        for i, j in self.edges:
            out.append((i, j))
            out.append((j, i))
        return tuple(sorted(out))

    @cached_property
    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """Node -> its neighbours in ascending order, built once."""
        adj: Dict[int, list] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {n: tuple(sorted(nbrs)) for n, nbrs in adj.items()}


def chain(n: int) -> Topology:
    """Path graph 1-2-...-n."""
    return Topology(n, tuple((i, i + 1) for i in range(1, n)))


def neighbors(top: Topology, j: int) -> Tuple[int, ...]:
    """Neighbors of j in ascending order."""
    if not 1 <= j <= top.node_count:
        raise ValueError(f"node {j} outside 1..{top.node_count}")
    return top.adjacency[j]


def feeder_edges(top: Topology) -> Dict[Edge, Tuple[Edge, ...]]:
    """For each directed edge (k, j), the edges (n, k) with n in N(k) minus j,
    ascending in n: the messages a round sums into k -> j."""
    return {(k, j): tuple((n, k) for n in top.adjacency[k] if n != j)
            for (k, j) in top.directed_edges()}


def _settle_rounds(feeders: Dict[Edge, Tuple[Edge, ...]]) -> Dict[Edge, float]:
    """The round after which each directed edge's message stops changing:
    1 + the largest settle round of its feeders (1 with none), math.inf
    when a cycle feeds it.  On a tree it is the hop count of the longest
    path that ends with the edge, at most the diameter."""
    readers: Dict[Edge, list] = {e: [] for e in feeders}
    waiting = {}
    for e, fs in feeders.items():
        waiting[e] = len(fs)
        for f in fs:
            readers[f].append(e)
    settle: Dict[Edge, float] = {}
    ready = [e for e, n in waiting.items() if n == 0]
    while ready:
        e = ready.pop()
        settle[e] = 1 + max((settle[f] for f in feeders[e]), default=0)
        for r in readers[e]:
            waiting[r] -= 1
            if waiting[r] == 0:
                ready.append(r)
    return {e: settle.get(e, math.inf) for e in feeders}


def message_schedule(top: Topology, rounds: int):
    """Demand-driven schedule for `rounds` rounds of a message iteration
    from the zero start, on the feeder lists of `feeder_edges`.

    A round-r message on edge e reads each feeder f at round r - 1.  Once
    r - 1 >= settle(f) that value equals f's round-settle(f) value (see
    `_settle_rounds`), so the read is made at min(r - 1, settle(f)) instead,
    and e's final value is its round-min(rounds, settle(e)) value.  Working
    back from the final values marks every (edge, round) value some reader
    needs; only those are computed, so on a tree with rounds >= diameter
    each directed edge is computed once, while edges a cycle feeds still
    compute every round.

    Returns one batch per round 1..rounds: the (e, feeders of e) pairs to
    compute that round, edges ascending.  No edge is computed after its
    settle round, and every value a round-r step reads below its settle
    round is computed at round r - 1, so the latest value of a feeder
    (the zero start before its first computation) is the one to read.
    Computing a whole batch from the latest values before storing any of
    its results keeps at most two values per edge live, as in a flood's two
    generations, and leaves every edge on its final value; `run_schedule`
    applies that rule.  `rounds` must be a nonnegative integer.
    """
    if not _is_integer(rounds) or rounds < 0:
        raise ValueError(f"rounds must be a nonnegative integer, got {rounds!r}")
    feeders = feeder_edges(top)
    settle = _settle_rounds(feeders)
    marked = [set() for _ in range(rounds + 1)]
    for e in feeders:
        marked[min(rounds, settle[e])].add(e)
    for r in range(rounds, 0, -1):
        for e in marked[r]:
            for f in feeders[e]:
                marked[min(r - 1, settle[f])].add(f)
    return [tuple((e, feeders[e]) for e in sorted(marked[r]))
            for r in range(1, rounds + 1)]


def run_schedule(top: Topology, rounds: int, start, step: Callable) -> Dict[Edge, object]:
    """Every directed edge's value after `rounds` rounds of a message
    iteration from `start`, the round-0 value of every edge.

    `step(e, incoming)` gives e's next value from its feeders' latest
    values, in the order of `feeder_edges`.  Each batch of `message_schedule`
    is computed in full before any of its results is stored, so the values
    equal a flood of `rounds` rounds.  Returns {edge: value}, edges sorted.
    """
    values = {e: start for e in top.directed_edges()}
    for batch in message_schedule(top, rounds):
        values.update([(e, step(e, [values[f] for f in feeders]))
                       for e, feeders in batch])
    return values


def hop_distance(top: Topology, i: int, j: int) -> float:
    """Shortest-path hop count; math.inf when i and j are disconnected."""
    for n in (i, j):
        if not 1 <= n <= top.node_count:
            raise ValueError(f"node {n} outside 1..{top.node_count}")
    if i == j:
        return 0.0
    adj = top.adjacency
    dist = {i: 0}
    frontier = [i]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    if v == j:
                        return float(dist[v])
                    nxt.append(v)
        frontier = nxt
    return math.inf


def max_degree(top: Topology) -> int:
    """Largest node degree; error on an edgeless graph."""
    if not top.edges:
        raise ValueError("max_degree undefined on an edgeless graph")
    return max(len(nbrs) for nbrs in top.adjacency.values())


@dataclass(frozen=True)
class MrfParams:
    """Edge couplings J_ij keyed by canonical (undirected) edge.

    Every edge of the topology must carry a finite coupling; sign is free
    (negative = repulsive).  `convention` records how the scalar relates to
    the pairwise exponent: "merged" means J is the *effective* message
    coupling (exponent J/2 per orientation product), "raw" means J is the
    literal exponent of exp(J x_i x_j).  Engines consume the effective
    value via `effective_coupling`.
    """

    topology: Topology
    couplings: Dict[Edge, float] = field(default_factory=dict)
    convention: str = "merged"

    def __post_init__(self) -> None:
        if self.convention not in ("merged", "raw"):
            raise ValueError(f"unknown coupling convention {self.convention!r}")
        canon = {}
        for e, v in self.couplings.items():
            c = _canon(*e)
            if c not in self.topology.edges:
                raise ValueError(f"coupling for non-edge {e!r}")
            if c in canon:
                raise ValueError(f"coupling given twice for edge {c!r}")
            if not math.isfinite(v):
                raise ValueError(f"non-finite coupling on edge {c!r}")
            canon[c] = float(v)
        missing = set(self.topology.edges) - set(canon)
        if missing:
            raise ValueError(f"missing couplings for edges {sorted(missing)}")
        object.__setattr__(self, "couplings", canon)

    def coupling(self, k: int, j: int) -> float:
        return self.couplings[_canon(k, j)]

    def effective_coupling(self, k: int, j: int) -> float:
        """The message-domain coupling: J itself under "merged", 2J under "raw"."""
        j_val = self.coupling(k, j)
        return j_val if self.convention == "merged" else 2.0 * j_val
