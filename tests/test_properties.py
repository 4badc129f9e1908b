"""Properties of ``lsp_prune`` on small drawn graphs, through every hash path.

Each example draws a graph whose attributes take a few levels, so that
signatures repeat and argmins tie, and a configuration: variant, mode,
endpoint order, ``zscore``, ``k`` and a small ``m`` (lsp-t) that forces
bucket collisions.  Under lsp-p each function's offset is set so that one
edge's documented-order projection lies exactly on a bin edge, where a
summation in any other order can move it by one bucket.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsprune import Graph, LshFamily, LshFamilyConfig, build_edge_attrs, lsp_prune

from util import brute_force_minhash, edge_vector_blocks, kept_edges, projection
from util import projection_buckets, selection_lists

LEVELS = (-1.0, 0.0, 0.5, 1.5)


def small_graphs(q: int, d_e: int, max_nodes: int = 7):
    """Graphs of up to ``max_nodes`` nodes with ``q`` node and ``d_e`` edge attributes from ``LEVELS``."""
    values = st.sampled_from(LEVELS)

    @st.composite
    def draw_graph(draw):
        n = draw(st.integers(1, max_nodes))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=10))) if pairs else []
        node_attrs = draw(st.lists(values, min_size=n * q, max_size=n * q))
        edge_attrs = draw(st.lists(values, min_size=len(edges) * d_e, max_size=len(edges) * d_e))
        return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                     node_attrs=np.reshape(node_attrs, (n, q)),
                     edge_attrs=np.reshape(edge_attrs, (len(edges), d_e)))

    return draw_graph()


graph_pairs = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda dims: st.tuples(small_graphs(*dims), small_graphs(*dims)))


configs = st.fixed_dictionaries({
    "variant": st.sampled_from(["lsp_t", "lsp_p"]),
    "mode": st.sampled_from(["node_only", "node_and_edge", "raw_edge"]),
    "order": st.sampled_from(["canonical", "center_first"]),
    "zscore": st.booleans(),
    "k": st.integers(1, 4),
    "m": st.sampled_from([2, 4, 8]),
    "seed": st.integers(0, 2**16),
})


def family_for(table, cfg, edge_choice: int) -> LshFamily:
    """The drawn family over ``table``; under lsp-p, function ``i`` puts one edge on a bin edge."""
    family = LshFamily.from_config(LshFamilyConfig(
        cfg["variant"], d=table.dim, k=cfg["k"], m=cfg["m"], l=0.5, master_seed=cfg["seed"]))
    if cfg["variant"] == "lsp_t" or not len(table):
        return family
    views = table.oriented()
    offsets = []
    for i, w in enumerate(family.vectors):
        view, e = views[(edge_choice + i) % 2], (edge_choice + i) % len(table)
        offsets.append(-projection(edge_vector_blocks(view, e), w))  # p + (-p) is exactly 0
    return replace(family, offsets=np.array(offsets))


def one_edge(view, e: int):
    """The table of edge ``e`` of ``view`` alone."""
    edge_attrs = None if view.edge_attrs is None else view.edge_attrs[e : e + 1]
    return replace(view, edges=view.edges[e : e + 1], edge_attrs=edge_attrs)


def union(g: Graph, h: Graph) -> Graph:
    """``g`` and ``h`` side by side, ``h``'s nodes shifted past ``g``'s."""
    return Graph(
        g.num_nodes + h.num_nodes,
        np.concatenate([g.edges, h.edges + g.num_nodes]),
        node_attrs=np.concatenate([g.node_attrs, h.node_attrs]),
        edge_attrs=np.concatenate([g.edge_attrs, h.edge_attrs]),
    )


def drawn_case(graphs, cfg, edge_choice):
    """The union of the drawn graph pair, its table and the drawn family."""
    u = union(*graphs)
    table = build_edge_attrs(u, cfg["mode"], cfg["order"], zscore=cfg["zscore"])
    return u, table, family_for(table, cfg, edge_choice)


cases = st.tuples(graph_pairs, configs, st.integers(0, 100))
property_settings = settings(max_examples=100, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@property_settings
@given(case=cases)
def test_pruning_equals_the_minhash_oracle(case):
    # every (node, function, neighbor) triple enumerated naively, argmins by a plain loop
    u, table, family = drawn_case(*case)
    result = lsp_prune(u, table, family)
    kept, selections = brute_force_minhash(u, table, family)
    assert kept_edges(result) == kept and selection_lists(result) == selections


@property_settings
@given(case=cases)
def test_buckets_do_not_depend_on_position(case):
    # a vector's buckets are its buckets when hashed alone; under lsp-p they are the
    # documented order's, from vectors built from the table's fields
    _, table, family = drawn_case(*case)
    for view in table.oriented():
        buckets = family.bucket_matrix(view)
        for e in range(len(view)):
            assert np.array_equal(buckets[:, e], family.bucket_matrix(one_edge(view, e))[:, 0])
        if family.config.variant == "lsp_p":
            assert np.array_equal(buckets, projection_buckets(view, family))


@property_settings
@given(case=cases)
def test_pruning_a_disjoint_union_prunes_each_part(case):
    # pruning g and h apart (on the union's attributes after any z-scoring, since
    # z-scores are taken over the whole graph) gives the union's result
    (g, h), _, _ = case
    u, table, family = drawn_case(*case)
    result = lsp_prune(u, table, family)
    kept_apart, selections_apart = set(), {}
    for part, first_node, first_edge in ((g, 0, 0), (h, g.num_nodes, g.num_edges)):
        nodes = slice(first_node, first_node + part.num_nodes)
        edges = slice(first_edge, first_edge + part.num_edges)
        alone = Graph(part.num_nodes, part.edges, node_attrs=u.node_attrs[nodes],
                      edge_attrs=u.edge_attrs[edges])
        part_table = replace(table, node_attrs=None if table.node_attrs is None
                             else table.node_attrs[nodes], edges=part.edges,
                             edge_attrs=None if table.edge_attrs is None
                             else table.edge_attrs[edges])
        picked = lsp_prune(alone, part_table, family)
        kept_apart |= {(a + first_node, b + first_node) for a, b in kept_edges(picked)}
        for node, picks in selection_lists(picked).items():
            selections_apart[node + first_node] = [(i, v + first_node) for i, v in picks]
    assert kept_edges(result) == kept_apart and selection_lists(result) == selections_apart
