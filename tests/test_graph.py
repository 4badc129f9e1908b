import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsprune import Graph, build_adjacency
from lsprune.graph import MAX_NODES, GraphStructureError

from util import incident_edges_of, lexsort_adjacency, neighbors_of, random_graph


def test_triangle_adjacency():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    adj = build_adjacency(g)
    assert neighbors_of(adj, 0).tolist() == [1, 2]
    assert neighbors_of(adj, 1).tolist() == [0, 2]
    assert neighbors_of(adj, 2).tolist() == [0, 1]


def test_isolated_node_has_empty_neighborhood():
    g = Graph(3, [(0, 1)])
    adj = build_adjacency(g)
    assert neighbors_of(adj, 2).tolist() == []
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


def test_node_count_whose_square_overflows_int64_rejected():
    # u * n + v wraps for n = 2**33 and would make these two distinct edges one
    with pytest.raises(GraphStructureError, match=f"num_nodes {2**33} exceeds {MAX_NODES}"):
        Graph(num_nodes=2**33, edges=[(2**32, 2**33 - 1), (0, 2**33 - 1)])
    with pytest.raises(GraphStructureError, match="exceeds"):
        Graph(num_nodes=MAX_NODES + 1, edges=[])
    n = MAX_NODES
    assert n * n <= 2**63 < (n + 1) ** 2
    # at the bound the largest key, (n - 2) * n + (n - 1), still fits int64
    assert Graph(n, [(n - 2, n - 1), (0, n - 1)]).edges.tolist() == [[n - 2, n - 1], [0, n - 1]]
    with pytest.raises(GraphStructureError, match=f"duplicate edge \\({n - 2}, {n - 1}\\)"):
        Graph(n, [(n - 2, n - 1), (n - 1, n - 2)])


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
    neighbor_sets = [set(neighbors_of(adj, u).tolist()) for u in range(num_nodes)]
    for u in range(num_nodes):
        nbrs = neighbors_of(adj, u)
        assert np.all(np.diff(nbrs) > 0)  # ascending, no repeats
        for v in nbrs.tolist():
            assert u in neighbor_sets[v]
    assert adj.degrees.sum() == 2 * g.num_edges


def test_incident_edge_indices_point_into_edge_list():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 20, 0.3)
    adj = build_adjacency(g)
    for u in range(g.num_nodes):
        for v, e in zip(neighbors_of(adj, u).tolist(), incident_edges_of(adj, u).tolist()):
            assert sorted(g.edges[e].tolist()) == sorted((u, v))


@settings(max_examples=80, deadline=None)
@given(
    num_nodes=st.integers(1, 130),
    edge_prob=st.floats(0.0, 0.5),
    isolated=st.floats(0.0, 0.5),
    row_order=st.sampled_from(["as drawn", "shuffled", "reversed"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_nodes=1, edge_prob=0.0, isolated=0.0, row_order="as drawn", seed=0)
@example(num_nodes=130, edge_prob=0.5, isolated=0.3, row_order="reversed", seed=1)
def test_adjacency_matches_lexsort_reference(num_nodes, edge_prob, isolated, row_order, seed):
    rng = np.random.default_rng(seed)
    edges = random_graph(rng, num_nodes, edge_prob).edges
    cut = rng.random(num_nodes) < isolated  # nodes whose every edge is dropped
    edges = edges[~(cut[edges[:, 0]] | cut[edges[:, 1]])]
    if row_order == "shuffled":
        edges = edges[rng.permutation(len(edges))]
    elif row_order == "reversed":
        edges = edges[::-1, ::-1]  # last row first, each pair as (larger, smaller)
    g = Graph(num_nodes, edges)
    adj = build_adjacency(g)
    indptr, neighbors, edge_index = lexsort_adjacency(g)
    for got, want in ((adj.indptr, indptr), (adj.neighbors, neighbors),
                      (adj.edge_index, edge_index)):
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
