"""Topology and MRF parameter container tests.

Hop distances are checked against an independent oracle based on powers of
the adjacency matrix rather than the BFS used by the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfusion.graph import (
    MrfParams,
    Topology,
    _settle_rounds,
    chain,
    feeder_edges,
    hop_distance,
    max_degree,
    message_schedule,
    neighbors,
)
from helpers import star, uniform_params
from strategies import random_graphs


def _hops_by_matrix_power(top, i, j):
    """Smallest k with (A^k)[i,j] > 0, via dense matrix powers."""
    n = top.node_count
    a = np.zeros((n, n))
    for (u, v) in top.edges:
        a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
    if i == j:
        return 0
    acc = np.eye(n)
    for k in range(1, n):
        acc = acc @ a
        if acc[i - 1, j - 1] > 0:
            return k
    return float("inf")


def test_chain_structure():
    top = chain(5)
    assert top.node_count == 5
    assert top.edges == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert neighbors(top, 3) == (2, 4)
    assert neighbors(top, 1) == (2,)
    assert max_degree(top) == 2


def test_star_structure():
    top = star(5, hub=1)
    assert neighbors(top, 1) == (2, 3, 4, 5)
    assert all(neighbors(top, k) == (1,) for k in range(2, 6))
    assert max_degree(top) == 4


@pytest.mark.parametrize("make", [lambda: chain(6), lambda: star(6)])
def test_hop_distance_matches_matrix_power_oracle(make):
    top = make()
    for i in top.nodes:
        for j in top.nodes:
            assert hop_distance(top, i, j) == _hops_by_matrix_power(top, i, j)


def test_hop_distance_disconnected_is_inf():
    top = Topology(node_count=4, edges=((1, 2),))
    assert hop_distance(top, 1, 4) == float("inf")


def test_edges_are_canonicalized():
    top = Topology(node_count=3, edges=((2, 1), (3, 2)))
    assert top.edges == ((1, 2), (2, 3))


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        Topology(node_count=3, edges=((2, 1), (1, 2)))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Topology(node_count=3, edges=((1, 1),))


def test_out_of_range_node_rejected():
    with pytest.raises(ValueError):
        Topology(node_count=3, edges=((1, 4),))


@pytest.mark.parametrize("node_count,edges", [
    (True, ()),
    (3.0, ((1, 2),)),
    (3, ((1.5, 2),)),
    (3, ((1, 2.0),)),
    (3, ((True, 2),)),
], ids=["bool-count", "float-count", "fractional-id", "integral-float-id",
        "bool-id"])
def test_non_integer_counts_and_ids_rejected(node_count, edges):
    with pytest.raises(ValueError):
        Topology(node_count, edges)


def test_numpy_integer_counts_and_ids_accepted():
    top = Topology(np.int64(3), ((np.int64(1), np.int32(2)), (2, 3)))
    assert top.edges == ((1, 2), (2, 3))
    assert neighbors(top, 2) == (1, 3)


@settings(max_examples=80, deadline=None)
@given(top=random_graphs(max_extra_edges=3))
def test_adjacency_matches_a_scan_of_the_edge_list(top):
    scan = {n: tuple(sorted([b for a, b in top.edges if a == n]
                            + [a for a, b in top.edges if b == n]))
            for n in top.nodes}
    assert top.adjacency == scan
    assert all(neighbors(top, n) == scan[n] for n in top.nodes)
    if top.edges:
        assert max_degree(top) == max(len(v) for v in scan.values())
    want = {}
    for k, j in top.directed_edges():
        want[(k, j)] = tuple((n, k) for n, m in sorted(top.directed_edges())
                             if m == k and n != j)
    assert feeder_edges(top) == want
    assert list(feeder_edges(top)) == list(top.directed_edges())


def test_effective_coupling_conventions():
    top = chain(3)
    merged = uniform_params(top, 0.3, convention="merged")
    raw = uniform_params(top, 0.3, convention="raw")
    # merged: the stored value already is the message-level coupling;
    # raw: psi = exp(J x_i x_j) so the message sees 2J
    assert merged.effective_coupling(1, 2) == pytest.approx(0.3, abs=0)
    assert raw.effective_coupling(1, 2) == pytest.approx(0.6, abs=0)
    assert merged.coupling(2, 1) == merged.coupling(1, 2)


def test_params_unknown_edge_rejected():
    top = chain(3)
    with pytest.raises(ValueError):
        MrfParams(topology=top, couplings={(1, 3): 0.1}, convention="merged")


def test_params_missing_edge_rejected():
    top = chain(3)
    with pytest.raises(ValueError):
        MrfParams(topology=top, couplings={(1, 2): 0.1}, convention="merged")


def test_params_bad_convention_rejected():
    top = chain(3)
    with pytest.raises(ValueError):
        uniform_params(top, 0.1, convention="exact")


def test_settle_rounds_on_a_chain_and_a_cycle():
    # on a path the message k -> k+1 settles after k rounds
    settle = _settle_rounds(feeder_edges(chain(5)))
    assert [settle[(k, k + 1)] for k in range(1, 5)] == [1, 2, 3, 4]
    assert [settle[(k + 1, k)] for k in range(1, 5)] == [4, 3, 2, 1]
    # a triangle with a pendant node 4 on node 3: only 4 -> 3 settles
    settle = _settle_rounds(feeder_edges(Topology(4, ((1, 2), (1, 3), (2, 3), (3, 4)))))
    assert settle[(4, 3)] == 1
    assert all(v == math.inf for e, v in settle.items() if e != (4, 3))


@settings(max_examples=80, deadline=None)
@given(top=random_graphs(max_extra_edges=3), data=st.data())
def test_schedule_reads_each_feeder_at_its_capped_round(top, data):
    # a round-r step must find every feeder f last computed at round
    # min(r - 1, settle(f)), and each edge must end on round
    # min(rounds, settle(e)); round 0 is the zero start
    rounds = data.draw(st.integers(min_value=0, max_value=top.node_count + 2))
    feeders = feeder_edges(top)
    settle = _settle_rounds(feeders)
    batches = message_schedule(top, rounds)
    assert len(batches) == rounds
    last = {e: 0 for e in feeders}
    for r, batch in enumerate(batches, start=1):
        assert [e for e, _ in batch] == sorted({e for e, _ in batch})
        for e, feeds in batch:
            assert feeds == feeders[e]
            assert all(last[f] == min(r - 1, settle[f]) for f in feeds)
        last.update((e, r) for e, _ in batch)
    assert last == {e: min(rounds, settle[e]) for e in feeders}


def test_schedule_computes_settled_messages_once():
    tree = Topology(15, tuple((i // 2, i) for i in range(2, 16)))
    computed = [e for batch in message_schedule(tree, 14) for e, _ in batch]
    assert sorted(computed) == sorted(tree.directed_edges())
    # on a triangle every message is fed by the cycle: all six every round
    batches = message_schedule(Topology(3, ((1, 2), (1, 3), (2, 3))), 4)
    assert [len(b) for b in batches] == [6, 6, 6, 6]
