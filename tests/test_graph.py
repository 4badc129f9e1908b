import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lsprune import Graph, GraphStructureError, build_adjacency

from util import random_graph


def test_triangle_adjacency():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    adj = build_adjacency(g)
    assert adj.neighbors_of(0).tolist() == [1, 2]
    assert adj.neighbors_of(1).tolist() == [0, 2]
    assert adj.neighbors_of(2).tolist() == [0, 1]


def test_isolated_node_has_empty_neighborhood():
    g = Graph(3, [(0, 1)])
    adj = build_adjacency(g)
    assert adj.neighbors_of(2).tolist() == []
    assert adj.degrees.tolist() == [1, 1, 0]


def test_path_satisfies_handshake_identity():
    g = Graph(3, [(0, 1), (1, 2)])
    adj = build_adjacency(g)
    assert adj.degrees.tolist() == [1, 2, 1]
    assert adj.degrees.sum() == 2 * g.num_edges


def test_degree_star_center():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert build_adjacency(g).degrees.tolist() == [3, 1, 1, 1]


def test_degree_isolated_node():
    assert build_adjacency(Graph(2, [])).degrees.tolist() == [0, 0]


def test_degree_excludes_self_loop():
    # hand count: one real edge, the loop contributes nothing
    g = Graph(2, [(0, 1)], self_loops=frozenset({0}))
    assert build_adjacency(g).degrees.tolist() == [1, 1]


def test_edges_canonicalized_at_ingestion():
    g = Graph(3, [(2, 0), (1, 0)])
    assert g.edges.tolist() == [[0, 2], [0, 1]]


def test_duplicate_edge_rejected():
    with pytest.raises(GraphStructureError, match="duplicate edge"):
        Graph(3, [(0, 1), (1, 0)])


def test_out_of_range_edge_rejected():
    with pytest.raises(GraphStructureError, match="out of range"):
        Graph(3, [(0, 5)])


def test_loop_in_edge_list_rejected():
    with pytest.raises(GraphStructureError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_attr_shape_mismatches_rejected():
    with pytest.raises(GraphStructureError):
        Graph(2, [(0, 1)], node_attrs=np.zeros((3, 2)))
    with pytest.raises(GraphStructureError):
        Graph(2, [(0, 1)], edge_attrs=np.zeros((2, 2)))
    with pytest.raises(GraphStructureError):
        Graph(2, [(0, 1)], node_labels=[1, 2, 3])
    with pytest.raises(GraphStructureError):
        Graph(2, [(0, 1)], self_loops=frozenset({5}))


def test_arrays_frozen_after_construction():
    g = Graph(2, [(0, 1)], node_attrs=[[1.0], [2.0]])
    with pytest.raises(ValueError):
        g.edges[0, 0] = 9
    with pytest.raises(ValueError):
        g.node_attrs[0, 0] = 9.0


@given(st.integers(0, 50), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_adjacency_symmetry_and_handshake(num_nodes, edge_prob, seed):
    g = random_graph(np.random.default_rng(seed), num_nodes, edge_prob)
    adj = build_adjacency(g)
    neighbor_sets = [set(adj.neighbors_of(u).tolist()) for u in range(num_nodes)]
    for u in range(num_nodes):
        nbrs = adj.neighbors_of(u)
        assert np.all(np.diff(nbrs) > 0)  # ascending, no repeats
        for v in nbrs.tolist():
            assert u in neighbor_sets[v]
    assert adj.degrees.sum() == 2 * g.num_edges


def test_incident_edge_indices_point_into_edge_list():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 20, 0.3)
    adj = build_adjacency(g)
    for u in range(g.num_nodes):
        for v, e in zip(adj.neighbors_of(u).tolist(), adj.incident_edges_of(u).tolist()):
            assert sorted(g.edges[e].tolist()) == sorted((u, v))
