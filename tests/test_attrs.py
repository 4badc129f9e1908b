import numpy as np
import pytest

from lsprune import Graph, build_edge_attrs, embed_scalar_attrs
from lsprune.attrs import CANONICAL, CENTER_FIRST, CONSTRUCTION_MODES, edge_attr_dim

from util import assembled_rows, embedding_table


def two_node_graph(edge_attr=None):
    return Graph(
        2,
        [(0, 1)],
        node_attrs=[[1.0, 2.0], [3.0, 4.0]],
        edge_attrs=None if edge_attr is None else [edge_attr],
    )


def test_node_only_row_is_concatenation():
    table = build_edge_attrs(two_node_graph(), "node_only")
    assert assembled_rows(table).tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert table.dim == 4


def test_row_identical_whichever_endpoint_listed_first():
    # the edge is canonicalized at ingestion, so (1, 0) produces the same row
    g_fwd = Graph(2, [(0, 1)], node_attrs=[[1.0, 2.0], [3.0, 4.0]])
    g_rev = Graph(2, [(1, 0)], node_attrs=[[1.0, 2.0], [3.0, 4.0]])
    t_fwd = build_edge_attrs(g_fwd, "node_only", CANONICAL)
    t_rev = build_edge_attrs(g_rev, "node_only", CANONICAL)
    assert np.array_equal(assembled_rows(t_fwd), assembled_rows(t_rev))


def test_node_and_edge_row_layout():
    g = Graph(2, [(0, 1)], node_attrs=[[1.0], [2.0]], edge_attrs=[[9.0]])
    table = build_edge_attrs(g, "node_and_edge")
    assert assembled_rows(table).tolist() == [[1.0, 9.0, 2.0]]


def test_raw_edge_rows_pass_through():
    g = Graph(2, [(0, 1)], edge_attrs=[[7.0, 8.0]])
    table = build_edge_attrs(g, "raw_edge")
    assert assembled_rows(table).tolist() == [[7.0, 8.0]]


def test_missing_attributes_rejected():
    with pytest.raises(ValueError, match="node attributes"):
        build_edge_attrs(Graph(2, [(0, 1)]), "node_only")
    with pytest.raises(ValueError, match="edge attributes"):
        build_edge_attrs(two_node_graph(), "node_and_edge")
    with pytest.raises(ValueError, match="mode"):
        build_edge_attrs(two_node_graph(), "bogus")


def test_center_first_swaps_endpoint_blocks():
    g = Graph(2, [(0, 1)], node_attrs=[[1.0], [2.0]], edge_attrs=[[9.0]])
    table = build_edge_attrs(g, "node_and_edge", CENTER_FIRST)
    from_smaller, from_larger = table.oriented()
    assert assembled_rows(from_smaller).tolist() == [[1.0, 9.0, 2.0]]
    assert assembled_rows(from_larger).tolist() == [[2.0, 9.0, 1.0]]


def test_canonical_oriented_views_are_the_table():
    table = build_edge_attrs(two_node_graph(), "node_only", CANONICAL)
    a, b = table.oriented()
    assert a is table and b is table


def test_center_first_raw_edge_is_orientation_free():
    g = Graph(2, [(0, 1)], edge_attrs=[[7.0, 8.0]])
    table = build_edge_attrs(g, "raw_edge", CENTER_FIRST)
    a, b = table.oriented()
    assert np.array_equal(assembled_rows(a), assembled_rows(b))


def test_determinism_given_same_inputs():
    rng = np.random.default_rng(5)
    g = Graph(6, [(0, 1), (2, 3), (1, 4)], node_attrs=rng.standard_normal((6, 3)))
    t1 = build_edge_attrs(g, "node_only")
    t2 = build_edge_attrs(g, "node_only")
    assert np.array_equal(assembled_rows(t1), assembled_rows(t2))


def test_permutation_consistency():
    # relabeling nodes permutes rows but preserves row equality for edges
    # whose endpoint attribute multisets matched before
    rng = np.random.default_rng(11)
    attrs = rng.standard_normal((5, 2))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    g = Graph(5, edges, node_attrs=attrs)
    perm = np.array([3, 0, 4, 1, 2])  # old index -> new index
    g_perm = Graph(
        5,
        [(perm[u], perm[v]) for u, v in edges],
        node_attrs=attrs[np.argsort(perm)],
    )
    rows = assembled_rows(build_edge_attrs(g, "node_only"))
    rows_perm = assembled_rows(build_edge_attrs(g_perm, "node_only"))
    for i in range(len(edges)):
        # endpoint multiset unchanged, so sorted blocks must agree
        blocks = sorted([rows[i, :2].tolist(), rows[i, 2:].tolist()])
        blocks_perm = sorted([rows_perm[i, :2].tolist(), rows_perm[i, 2:].tolist()])
        assert blocks == blocks_perm


def test_zscore_standardizes_input_columns():
    g = Graph(
        3,
        [(0, 1), (1, 2)],
        node_attrs=[[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]],
    )
    table = build_edge_attrs(g, "node_only", zscore=True)
    std = np.std([0.0, 1.0, 2.0])
    # constant column 1 is centered to zero, not divided by zero
    assert assembled_rows(table)[0].tolist() == pytest.approx([-1 / std, 0.0, 0.0, 0.0])


def test_embedding_table_column_major_layout():
    m, seed = 4, 123
    table = embedding_table(m, seed)
    stream = np.random.default_rng(seed).standard_normal(m * m)
    for col in range(m):
        assert np.array_equal(table[:, col], stream[m * col : m * (col + 1)])


def test_embed_equal_values_equal_rows():
    rows = embed_scalar_attrs([3, 3], m=5, seed=0)
    assert np.array_equal(rows[0], rows[1])


def test_embed_rows_match_regenerated_table():
    table = embedding_table(2, seed=42)
    rows = embed_scalar_attrs([0, 1], m=2, seed=42)
    assert np.array_equal(rows[0], table[:, 0])
    assert np.array_equal(rows[1], table[:, 1])


def test_embed_value_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        embed_scalar_attrs([5], m=5, seed=0)


def test_molecule_style_combined_attribute():
    # two scalar-coded nodes and one scalar-coded edge, lifted through two
    # embedding tables and assembled as [node_u | edge | node_v]
    m_nodes, m_edges = 3, 4
    node_codes = [2, 0]
    edge_code = 1
    node_vecs = embed_scalar_attrs(node_codes, m=m_nodes, seed=7)
    edge_vec = embed_scalar_attrs([edge_code], m=m_edges, seed=8)
    g = Graph(2, [(0, 1)], node_attrs=node_vecs, edge_attrs=edge_vec)
    table = build_edge_attrs(g, "node_and_edge")

    nv = embedding_table(m_nodes, seed=7)
    ev = embedding_table(m_edges, seed=8)
    expected = np.concatenate([nv[:, 2], ev[:, 1], nv[:, 0]])
    assert np.array_equal(assembled_rows(table)[0], expected)


def test_edgeless_graph_keeps_row_width():
    g = Graph(3, [], node_attrs=np.zeros((3, 2)))
    table = build_edge_attrs(g, "node_only")
    assert assembled_rows(table).shape == (0, 4)


@pytest.mark.parametrize("mode", CONSTRUCTION_MODES)
@pytest.mark.parametrize("num_edges", [0, 3])
def test_edge_attr_dim_matches_built_rows(mode, num_edges):
    edges = [(0, 1), (1, 2), (0, 2)][:num_edges]
    g = Graph(3, edges, node_attrs=np.ones((3, 2)), edge_attrs=np.ones((num_edges, 5)))
    table = build_edge_attrs(g, mode)
    assert assembled_rows(table).shape == (num_edges, edge_attr_dim(g, mode))
