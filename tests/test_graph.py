"""Topology and MRF parameter container tests.

Hop distances are checked against an independent oracle based on powers of
the adjacency matrix rather than the BFS used by the implementation.
"""

import numpy as np
import pytest

from mpfusion.graph import (
    MrfParams,
    Topology,
    chain,
    hop_distance,
    max_degree,
    neighbors,
    star,
    uniform_params,
)


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
