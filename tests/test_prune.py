import numpy as np
import pytest

from lsprune import (
    Graph,
    LshFamily,
    LshFamilyConfig,
    build_adjacency,
    build_edge_attrs,
    lsp_prune,
)
from lsprune.prune import RandomPruneConfig, prune_dataset, random_prune

from util import brute_force_minhash, kept_edges, random_graph, selection_lists


def family(variant="lsp_p", d=4, k=2, seed=0):
    return LshFamily.from_config(LshFamilyConfig(variant, d=d, k=k, master_seed=seed))


def attributed(g, seed=0):
    rng = np.random.default_rng(seed)
    return Graph(
        g.num_nodes,
        g.edges,
        node_attrs=g.node_attrs,
        edge_attrs=rng.standard_normal((g.num_edges, 4)),
        self_loops=g.self_loops,
    )


def test_single_edge_always_kept():
    g = Graph(2, [(0, 1)], edge_attrs=[[1.0, 2.0, 3.0, 4.0]])
    for k in (1, 2, 5):
        res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=k))
        assert kept_edges(res) == {(0, 1)}


def test_star_with_k1_keeps_all_leaf_lifelines():
    # center picks one argmin edge; every leaf's only edge joins the union
    g = Graph(4, [(0, 1), (0, 2), (0, 3)], edge_attrs=np.eye(3, 4))
    res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=1))
    assert kept_edges(res) == {(0, 1), (0, 2), (0, 3)}
    lists = selection_lists(res)
    assert len(lists[0]) == 1  # the center contributed exactly one pick


def test_tie_break_prefers_smallest_neighbor():
    # identical attribute rows make every hash collide, so the argmin is
    # decided purely by the tie-break
    g = Graph(4, [(0, 3), (0, 2), (0, 1)], edge_attrs=np.ones((3, 4)))
    res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=3))
    for func, nbr in selection_lists(res)[0]:
        assert nbr == 1


def test_twin_nodes_select_matching_attribute_sets():
    # two centers (0, 1) with disjoint neighbor sets carrying identical
    # attribute vectors; their selected attribute multisets must coincide
    rng = np.random.default_rng(7)
    nbr_attrs = rng.standard_normal((4, 3))
    center_attr = rng.standard_normal(3)
    node_attrs = np.vstack([center_attr, center_attr, nbr_attrs, nbr_attrs])
    edges = [(0, v) for v in range(2, 6)] + [(1, v) for v in range(6, 10)]
    g = Graph(10, edges, node_attrs=node_attrs)
    for variant in ("lsp_t", "lsp_p"):
        for seed in range(5):
            res = lsp_prune(
                g, build_edge_attrs(g, "node_only"), family(variant, d=6, k=2, seed=seed)
            )
            lists = selection_lists(res)
            sel0 = {tuple(node_attrs[v]) for _i, v in lists[0]}
            sel1 = {tuple(node_attrs[v]) for _i, v in lists[1]}
            assert sel0 == sel1


def test_random_prune_extremes():
    g = random_graph(np.random.default_rng(0), 20, 0.4)
    assert np.array_equal(
        random_prune(g, RandomPruneConfig(1.0, seed=1)).graph.edges, g.edges
    )
    assert random_prune(g, RandomPruneConfig(0.0, seed=1)).graph.num_edges == 0


def test_random_prune_binomial_band():
    # |E| = 10^4, p = 0.3: kept count concentrates in 3000 +- 150 (>3 sigma)
    n = 150
    iu, iv = np.triu_indices(n, 1)
    edges = np.stack([iu, iv], axis=1)[:10_000]
    g = Graph(n, edges)
    for seed in range(5):
        res = random_prune(g, RandomPruneConfig(0.3, seed=seed))
        assert 2850 <= res.stats.edges_out <= 3150


def test_random_prune_deterministic():
    g = random_graph(np.random.default_rng(1), 30, 0.3)
    a = random_prune(g, RandomPruneConfig(0.5, seed=9))
    b = random_prune(g, RandomPruneConfig(0.5, seed=9))
    assert np.array_equal(a.kept_edge_indices, b.kept_edge_indices)


def test_lsp_prune_deterministic_and_order_independent():
    rng = np.random.default_rng(2)
    g = attributed(random_graph(rng, 40, 0.2), seed=3)
    attrs = build_edge_attrs(g, "raw_edge")
    fam = family(k=3, seed=5)
    first = lsp_prune(g, attrs, fam)
    second = lsp_prune(g, attrs, fam, adjacency=build_adjacency(g))
    assert np.array_equal(first.kept_edge_indices, second.kept_edge_indices)
    assert np.array_equal(first.selections, second.selections)

    # permuting the edge-list order must not change the kept pair set
    perm = np.random.default_rng(0).permutation(g.num_edges)
    g_perm = Graph(g.num_nodes, g.edges[perm], edge_attrs=g.edge_attrs[perm])
    third = lsp_prune(g_perm, build_edge_attrs(g_perm, "raw_edge"), fam)
    assert kept_edges(third) == kept_edges(first)


def test_no_node_orphaned():
    rng = np.random.default_rng(4)
    for trial in range(20):
        g = attributed(random_graph(rng, 30, 0.15), seed=trial)
        res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=1, seed=trial))
        deg_before = build_adjacency(g).degrees
        deg_after = build_adjacency(res.graph).degrees
        assert np.all(deg_after[deg_before >= 1] >= 1)


def test_monotone_coverage_in_k():
    rng = np.random.default_rng(6)
    g = attributed(random_graph(rng, 25, 0.3), seed=8)
    attrs = build_edge_attrs(g, "raw_edge")
    kept_prev: set = set()
    for k in (1, 2, 3, 4):
        res = lsp_prune(g, attrs, family(k=k, seed=42))
        kept = kept_edges(res)
        assert kept_prev <= kept  # extending the family only adds edges
        kept_prev = kept


def test_union_reconstructs_kept_edges():
    rng = np.random.default_rng(9)
    g = attributed(random_graph(rng, 20, 0.3), seed=10)
    res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=2, seed=1))
    rebuilt = {
        (min(u, v), max(u, v))
        for u, lst in selection_lists(res).items()
        for _i, v in lst
    }
    assert rebuilt == kept_edges(res)


def test_selection_counts_bounded():
    rng = np.random.default_rng(12)
    g = attributed(random_graph(rng, 30, 0.2), seed=13)
    deg = build_adjacency(g).degrees
    for k in (1, 3):
        res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=k, seed=3))
        lists = selection_lists(res)
        for u in range(g.num_nodes):
            if deg[u] == 0:
                assert u not in lists
                continue
            distinct = {v for _i, v in lists[u]}
            assert 1 <= len(distinct) <= min(k, deg[u])
        assert res.graph.num_edges <= min(g.num_edges, k * g.num_nodes)


def test_attributes_and_loops_carried_through():
    rng = np.random.default_rng(14)
    g = random_graph(rng, 15, 0.3, node_dim=3, edge_dim=4, with_loops=True, with_labels=True)
    res = lsp_prune(g, build_edge_attrs(g, "raw_edge"), family(k=1, seed=0))
    out = res.graph
    assert np.array_equal(out.node_attrs, g.node_attrs)
    assert np.array_equal(out.node_labels, g.node_labels)
    assert out.graph_label == g.graph_label
    assert out.self_loops == g.self_loops
    assert np.array_equal(out.edge_attrs, g.edge_attrs[res.kept_edge_indices])


def test_empty_graph_prunes_to_empty():
    g = Graph(5, [], node_attrs=np.zeros((5, 2)))
    res = lsp_prune(g, build_edge_attrs(g, "node_only"), family(d=4, k=2))
    assert res.graph.num_edges == 0
    assert res.selections.shape == (0, 3)
    assert res.stats.kept_fraction == 1.0


def test_dimension_mismatches_rejected():
    g = Graph(2, [(0, 1)], edge_attrs=[[1.0, 2.0]])
    attrs = build_edge_attrs(g, "raw_edge")
    with pytest.raises(ValueError, match="dimension"):
        lsp_prune(g, attrs, family(d=3))
    other = Graph(3, [(0, 1), (1, 2)], edge_attrs=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="rows"):
        lsp_prune(g, build_edge_attrs(other, "raw_edge"), family(d=2))


def test_hash_evaluations_once_per_edge_per_function(monkeypatch):
    g = attributed(random_graph(np.random.default_rng(15), 20, 0.4), seed=16)
    attrs = build_edge_attrs(g, "raw_edge")
    fam = family(k=3, seed=2)
    hashed_rows = []
    original = LshFamily.bucket_matrix

    def counting(self, rows):
        hashed_rows.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(LshFamily, "bucket_matrix", counting)
    lsp_prune(g, attrs, fam)
    # canonical attrs: one matrix call covering k * |E| evaluations total
    assert hashed_rows == [g.num_edges]


def test_center_first_hashes_both_orientations(monkeypatch):
    rng = np.random.default_rng(17)
    g = random_graph(rng, 15, 0.3, node_dim=2)
    attrs = build_edge_attrs(g, "node_only", "center_first")
    fam = family(d=4, k=2, seed=3)
    calls = []
    original = LshFamily.bucket_matrix

    def counting(self, rows):
        calls.append(len(rows))
        return original(self, rows)

    monkeypatch.setattr(LshFamily, "bucket_matrix", counting)
    res = lsp_prune(g, attrs, fam)
    assert calls == [g.num_edges, g.num_edges]
    # still a valid selection: no orphaned nodes, union semantics intact
    deg_before = build_adjacency(g).degrees
    deg_after = build_adjacency(res.graph).degrees
    assert np.all(deg_after[deg_before >= 1] >= 1)


def test_brute_force_oracle_agreement():
    rng = np.random.default_rng(18)
    for trial in range(30):
        g = attributed(random_graph(rng, int(rng.integers(2, 12)), 0.4), seed=trial)
        if g.num_edges == 0:
            continue
        attrs = build_edge_attrs(g, "raw_edge")
        variant = "lsp_t" if trial % 2 else "lsp_p"
        fam = family(variant, k=int(rng.integers(1, 4)), seed=trial)
        res = lsp_prune(g, attrs, fam)
        kept_oracle, sel_oracle = brute_force_minhash(g, attrs.rows, fam)
        assert kept_edges(res) == kept_oracle
        assert selection_lists(res) == sel_oracle


def test_prune_dataset_identical_graphs_identical_results():
    g = attributed(random_graph(np.random.default_rng(19), 20, 0.3), seed=20)
    fam = family(k=2, seed=0)
    results = prune_dataset([g, g], family=fam, attr_mode="raw_edge")
    assert np.array_equal(results[0].kept_edge_indices, results[1].kept_edge_indices)

    rand = prune_dataset([g, g], random_cfg=RandomPruneConfig(0.5, seed=4))
    assert np.array_equal(rand[0].kept_edge_indices, rand[1].kept_edge_indices)


def test_prune_dataset_batch_of_one_equals_single_call():
    g = attributed(random_graph(np.random.default_rng(21), 18, 0.3), seed=22)
    fam = family(k=2, seed=5)
    batch = prune_dataset([g], family=fam, attr_mode="raw_edge")
    single = lsp_prune(g, build_edge_attrs(g, "raw_edge"), fam)
    assert np.array_equal(batch[0].kept_edge_indices, single.kept_edge_indices)


def test_prune_dataset_permuted_twins_keep_permuted_edges():
    # intrinsic per-edge attributes travel with their edges under relabeling,
    # so with tie-free hashes the kept sets are related by exactly the node
    # permutation (the index tie-break itself is not relabeling-invariant)
    rng = np.random.default_rng(23)
    n = 12
    g = random_graph(rng, n, 0.4, edge_dim=4)
    perm = rng.permutation(n)
    g_perm = Graph(
        n,
        np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1),
        edge_attrs=g.edge_attrs,
    )
    fam = LshFamily.from_config(
        LshFamilyConfig("lsp_p", d=4, k=2, l=1e-9, master_seed=7)
    )
    buckets = fam.bucket_matrix(g.edge_attrs)
    for i in range(2):  # tiny bins keep every edge in its own bucket
        assert len(np.unique(buckets[i])) == g.num_edges
    res, res_perm = prune_dataset([g, g_perm], family=fam, attr_mode="raw_edge")
    mapped = {(min(perm[u], perm[v]), max(perm[u], perm[v]))
              for u, v in kept_edges(res)}
    assert mapped == kept_edges(res_perm)


def test_prune_dataset_names_the_failing_graph():
    good = attributed(random_graph(np.random.default_rng(24), 10, 0.4), seed=25)
    bad = Graph(3, [(0, 1)])  # no attributes at all
    fam = family(k=1, seed=0)
    with pytest.raises(ValueError, match="graph 1"):
        prune_dataset([good, bad], family=fam)


def test_prune_dataset_requires_exactly_one_method():
    g = attributed(random_graph(np.random.default_rng(26), 5, 0.5), seed=27)
    with pytest.raises(ValueError):
        prune_dataset([g])
    with pytest.raises(ValueError):
        prune_dataset([g], family=family(), random_cfg=RandomPruneConfig(0.5))
