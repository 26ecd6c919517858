"""Hypothesis strategies shared by the engine tests."""

from hypothesis import strategies as st

from mpfusion.graph import Topology


@st.composite
def random_graphs(draw, max_nodes=8, max_extra_edges=0):
    """A random connected graph on 1..max_nodes nodes: a random tree (node
    i > 1 hangs off a node below it, relabelled by a random permutation so
    no node order is favoured) plus up to `max_extra_edges` further edges,
    each of which closes a cycle."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [draw(st.integers(min_value=1, max_value=i - 1))
               for i in range(2, n + 1)]
    label = draw(st.permutations(range(1, n + 1)))
    edges = {tuple(sorted((label[p - 1], label[i - 1])))
             for i, p in zip(range(2, n + 1), parents)}
    spare = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
             if (a, b) not in edges]
    if spare and max_extra_edges:
        edges.update(draw(st.lists(st.sampled_from(spare),
                                   max_size=max_extra_edges, unique=True)))
    return Topology(n, tuple(sorted(edges)))
