import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsprune.analysis as analysis
from lsprune import Graph, build_adjacency
from lsprune.analysis import (
    all_pair_blocks,
    bernoulli_edge_pruner,
    bernoulli_thinning_variance,
    jaccard_locality,
    khop_sizes,
    neighborhood_stats,
    neighborhood_variance_curve,
    variance_scaling_check,
)

from util import (
    floyd_warshall_distances,
    floyd_warshall_khop,
    random_graph,
    selection_lists,
    set_jaccard,
)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_path_two_hops_from_endpoint():
    assert khop_sizes(path_graph(4), 2)[0] == 2


def test_complete_graph_saturates_immediately():
    g = complete_graph(6)
    for k in (1, 2, 5):
        assert khop_sizes(g, k).tolist() == [5] * 6


def test_depth_one_equals_degree():
    g = random_graph(np.random.default_rng(0), 25, 0.2)
    assert np.array_equal(khop_sizes(g, 1), build_adjacency(g).degrees)


def test_self_loops_do_not_count():
    g = Graph(3, [(0, 1)], self_loops=frozenset({0, 2}))
    assert khop_sizes(g, 3).tolist() == [1, 1, 0]


def test_depth_must_be_positive():
    with pytest.raises(ValueError):
        khop_sizes(path_graph(3), 0)


def test_khop_matches_floyd_warshall_oracle():
    rng = np.random.default_rng(1)
    for trial in range(15):
        n = int(rng.integers(2, 30))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.5)))
        for k in (1, 2, 4):
            assert np.array_equal(khop_sizes(g, k), floyd_warshall_khop(g, k))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 150),  # above 64 live nodes, one-word blocks split the sources
    components=st.integers(1, 3),
    edge_prob=st.floats(0.0, 0.3),
    depths=st.one_of(  # depth 1 alone stops every block after the level-1 scatter
        st.just([1]),
        st.lists(st.one_of(st.integers(1, 4), st.integers(5, 90)), min_size=1, max_size=5),
    ),
    # a one-byte budget gives one-word blocks and one-row chunks; 512 and 2048 bytes
    # give blocks of one or two words whose levels walk the CSR in several row chunks
    budget=st.sampled_from([1, 512, 2048, analysis._KHOP_BLOCK_BYTES]),
    hub=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=64, components=1, edge_prob=0.05, depths=[3, 1, 3], budget=1, hub=False, seed=0)
@example(n=65, components=2, edge_prob=0.1, depths=[90, 2], budget=1, hub=False, seed=1)
@example(n=65, components=1, edge_prob=0.03, depths=[1, 2, 4],
         budget=analysis._KHOP_BLOCK_BYTES, hub=False, seed=2)
@example(n=150, components=3, edge_prob=0.05, depths=[1], budget=1, hub=False, seed=3)
# two-word blocks, each level in four row chunks of up to 128 entries
@example(n=150, components=1, edge_prob=0.08, depths=[1, 2, 3], budget=2048, hub=False, seed=4)
# the hub's row of 71 entries is longer than a chunk of 64
@example(n=150, components=1, edge_prob=0.02, depths=[2, 1, 5], budget=512, hub=True, seed=5)
def test_khop_kernel_matches_floyd_warshall(n, components, edge_prob, depths, budget, hub,
                                            seed):
    # nodes of component -1 stay isolated; no edge joins two components; with a hub,
    # the first node of each component is joined to every other node of it
    rng = np.random.default_rng(seed)
    comp = rng.integers(-1, components, size=n)
    base = random_graph(rng, n, edge_prob)
    u, v = base.edges.T
    edges = {tuple(e) for e in base.edges[(comp[u] == comp[v]) & (comp[u] >= 0)].tolist()}
    for c in range(components if hub else 0):
        members = np.flatnonzero(comp == c).tolist()
        edges |= {(members[0], w) for w in members[1:]}
    g = Graph(n, sorted(edges))
    dist = floyd_warshall_distances(g)
    want = np.array([floyd_warshall_khop(g, k, dist) for k in depths])
    with mock.patch.object(analysis, "_KHOP_BLOCK_BYTES", budget):
        stats = neighborhood_stats(g, depths)
        sizes = [khop_sizes(g, k) for k in depths]
    assert stats.depths == tuple(depths)
    assert np.array_equal(stats.counts, want)
    assert np.array_equal(np.array(sizes), want)
    assert np.array_equal(stats.variances, want.var(axis=1))


def test_two_block_graph_against_oracle():
    # two dense blocks joined by a single bridge
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(u, v) for u in range(5, 10) for v in range(u + 1, 10)]
    edges += [(4, 5)]
    g = Graph(10, edges)
    for k in (1, 2, 3):
        assert np.array_equal(khop_sizes(g, k), floyd_warshall_khop(g, k))


def test_khop_sweep_memory_stays_within_the_block_budget():
    # 4,000 nodes and 40,000 edges: each k-hop working array keeps within
    # _KHOP_BLOCK_BYTES, so the adjacency and its node-sized arrays set the peak
    n = 4000
    rng = np.random.default_rng(40)
    lo, hi = np.sort(rng.integers(0, n, (60_000, 2)), axis=1).T
    keys = rng.permutation(np.unique((lo * n + hi)[lo < hi]))[:40_000]
    g = Graph(n, np.stack([keys // n, keys % n], axis=1))
    tracemalloc.start()
    try:
        stats = neighborhood_stats(g, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges == 40_000 and stats.counts.shape == (2, n)
    assert peak < 5_000_000


def test_counts_monotone_in_depth_and_bounded():
    g = random_graph(np.random.default_rng(2), 40, 0.1)
    stats = neighborhood_stats(g, depths=(1, 2, 3, 4))
    assert np.all(np.diff(stats.counts, axis=0) >= 0)
    assert stats.counts.max() <= g.num_nodes - 1


def test_variance_scaling_identity_trivial_cases():
    lhs, rhs = variance_scaling_check([2, 2, 2], 0.7)
    assert lhs == pytest.approx(0.0, abs=1e-30)
    assert rhs == 0.0
    lhs, rhs = variance_scaling_check([1, 3], 0.5)
    assert lhs == pytest.approx(0.25)
    assert rhs == pytest.approx(0.25)


def test_variance_scaling_identity_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        degrees = rng.integers(0, 50, size=int(rng.integers(2, 60)))
        p = float(rng.random())
        lhs, rhs = variance_scaling_check(degrees, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_bernoulli_variance_exceeds_deterministic_identity():
    # on a regular graph the deterministic identity gives zero while
    # Bernoulli keeping still spreads the degrees
    degrees = [4, 4, 4, 4]
    _lhs, rhs = variance_scaling_check(degrees, 0.5)
    assert rhs == 0.0
    assert bernoulli_thinning_variance(degrees, 0.5) == pytest.approx(0.25 * 4)


def test_bernoulli_variance_formula_matches_simulation():
    degrees = np.array([1, 3, 6, 10, 2])
    p = 0.4
    rng = np.random.default_rng(4)
    sampled = rng.binomial(degrees[None, :].repeat(200_000, axis=0), p)
    assert sampled.var() == pytest.approx(bernoulli_thinning_variance(degrees, p), rel=0.02)


def test_variance_curve_full_fraction_is_exact():
    g = random_graph(np.random.default_rng(5), 30, 0.15)
    curve = neighborhood_variance_curve(
        g, depths=(1, 2), keep_fractions=(0.5, 1.0),
        pruner=bernoulli_edge_pruner(seed=0), trials=3,
    )
    expected = neighborhood_stats(g, (1, 2)).variances
    assert np.array_equal(curve.variances[1], expected)


def test_variance_curve_regular_graph_depth_one_zero():
    cycle = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    curve = neighborhood_variance_curve(
        cycle, depths=(1,), keep_fractions=(1.0,),
        pruner=bernoulli_edge_pruner(seed=0),
    )
    assert curve.variances[0, 0] == 0.0


def test_variance_grows_with_depth_on_sparse_graph():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 200, 2.0 / 200)
    stats = neighborhood_stats(g, depths=(1, 3))
    assert stats.variances[1] > stats.variances[0]


def test_variance_curve_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        neighborhood_variance_curve(g, (1,), (0.0,), bernoulli_edge_pruner(0))
    with pytest.raises(ValueError):
        neighborhood_variance_curve(g, (1,), (0.5,), bernoulli_edge_pruner(0), trials=0)


def test_jaccard_identical_and_disjoint_neighborhoods():
    g = Graph(6, [(0, 2), (0, 3), (1, 2), (1, 3), (4, 2), (5, 3)])
    values = jaccard_locality(g, g, [(0, 1), (4, 5)])
    assert values[0].tolist() == [1.0, 1.0]
    assert values[1].tolist() == [0.0, 0.0]


def test_jaccard_isolated_pair_defined_as_one():
    g = Graph(3, [(0, 1)])
    g_pruned = Graph(3, [])
    values = jaccard_locality(g, g_pruned, [(0, 1), (2, 2)])
    assert values[1].tolist() == [1.0, 1.0]  # isolated vs itself, before and after
    assert values[0, 1] == 1.0  # both endpoints isolated after full pruning


def test_jaccard_requires_same_node_set():
    with pytest.raises(ValueError):
        jaccard_locality(path_graph(3), path_graph(4), [(0, 1)])
    with pytest.raises(ValueError):
        jaccard_locality(path_graph(3), path_graph(3), [(0, 5)])
    with pytest.raises(ValueError, match="out of range"):
        jaccard_locality(path_graph(3), path_graph(3), [(0, 1), (2**70, 0)])


@given(st.integers(0, 25), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_jaccard_matches_set_reference(num_nodes, edge_prob, keep_prob, seed):
    rng = np.random.default_rng(seed)
    base = random_graph(rng, num_nodes, edge_prob)
    n = num_nodes + 1  # node num_nodes is always isolated
    g = Graph(n, base.edges)
    g_pruned = Graph(n, base.edges[rng.random(base.num_edges) < keep_prob])
    pairs = [(u, u) for u in range(n)] + rng.integers(0, n, size=(30, 2)).tolist()
    got = jaccard_locality(g, g_pruned, pairs)
    want = [[set_jaccard(g, u, v), set_jaccard(g_pruned, u, v)] for u, v in pairs]
    assert got.tolist() == want


@pytest.mark.parametrize("budget", [1, 1000, analysis._KHOP_BLOCK_BYTES])
def test_jaccard_many_pairs_match_set_reference(budget):
    # nodes 90 and 91 are hubs joined to every other node: a 1000-byte budget walks 62
    # entries per chunk, so each hub pair is a chunk of its own, and the default one
    # fits about 32,000, which the 400 copies of the hub-hub pair cross
    rng = np.random.default_rng(11)
    g = random_graph(rng, 90, 0.1)
    hubs = [(h, u) for h in (90, 91) for u in range(h)]
    g = Graph(92, np.concatenate([g.edges, hubs]))
    g_pruned = Graph(92, g.edges[rng.random(g.num_edges) < 0.5])
    pairs = [(u, v) for u in range(92) for v in range(u, 92)] + [(91, 90)] * 400
    with mock.patch.object(analysis, "_KHOP_BLOCK_BYTES", budget):
        got = jaccard_locality(g, g_pruned, pairs)
    want = {(u, v): [set_jaccard(g, u, v), set_jaccard(g_pruned, u, v)] for u, v in set(pairs)}
    assert got.tolist() == [want[p] for p in pairs]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10])
@pytest.mark.parametrize("budget", [1, 2, 9, 45, 64])
def test_all_pair_blocks_follow_triu_indices(n, budget):
    with mock.patch.object(analysis, "_PAIR_BLOCK", budget):
        blocks = list(all_pair_blocks(n))
    assert [len(b) for b in blocks[:-1]] == [budget] * (len(blocks) - 1)
    assert 0 < len(blocks[-1]) <= budget or (n < 2 and len(blocks) == 1)
    got = np.concatenate(blocks)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.column_stack(np.triu_indices(n, 1)))


def test_jaccard_over_prebuilt_adjacency_matches_its_own_build():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 40, 0.2)
    g_pruned = Graph(40, g.edges[rng.random(g.num_edges) < 0.5])
    pairs = np.column_stack(np.triu_indices(40, 1))
    adjacency = (build_adjacency(g), build_adjacency(g_pruned))
    got = jaccard_locality(g, g_pruned, pairs, adjacency)
    assert got.tolist() == jaccard_locality(g, g_pruned, pairs).tolist()


def test_jaccard_memory_is_bounded_by_walked_entries():
    # 2,048 pairs of two degree-2000 hubs on a 4,000-edge graph walk 4M entries
    g = Graph(2002, [(h, w) for h in (0, 1) for w in range(2, 2002)])
    tracemalloc.start()
    try:
        values = jaccard_locality(g, g, [(0, 1)] * 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == [[1.0, 1.0]] * 2048
    assert peak < 8_000_000


def test_jaccard_after_twin_consistent_pruning():
    from lsprune import LshFamily, LshFamilyConfig, build_edge_attrs, lsp_prune

    # degree-1 twins hanging off the same hub: their lone edges are leaf
    # lifelines, so pruning preserves J(u, u') = 1 for any variant and seed
    rng = np.random.default_rng(7)
    node_attrs = rng.standard_normal((7, 2))
    node_attrs[1] = node_attrs[0]  # twins 0 and 1
    edges = [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6)]
    g = Graph(7, edges, node_attrs=node_attrs)
    for seed in range(5):
        fam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=4, k=1, master_seed=seed))
        res = lsp_prune(g, build_edge_attrs(g, "node_only"), fam)
        values = jaccard_locality(g, res.graph, [(0, 1)])
        assert values[0].tolist() == [1.0, 1.0]


def test_jaccard_shared_neighbor_twins_retain_attribute_consistency():
    from lsprune import LshFamily, LshFamilyConfig, build_edge_attrs, lsp_prune

    # twins sharing the same four neighbors: their own picks coincide, but the
    # neighbors' tie-breaks favor the smaller center, so the *id-level*
    # Jaccard may drop below 1 while the selected attribute sets still match
    rng = np.random.default_rng(7)
    shared = rng.standard_normal((4, 2))
    center = rng.standard_normal(2)
    node_attrs = np.vstack([center, center, shared])
    edges = [(0, v) for v in range(2, 6)] + [(1, v) for v in range(2, 6)]
    g = Graph(6, edges, node_attrs=node_attrs)
    fam = LshFamily.from_config(LshFamilyConfig("lsp_p", d=4, k=2, master_seed=1))
    res = lsp_prune(g, build_edge_attrs(g, "node_only"), fam)
    lists = selection_lists(res)
    picks0 = {v for _i, v in lists[0]}
    picks1 = {v for _i, v in lists[1]}
    assert picks0 == picks1  # identical hash inputs, identical argmins
    values = jaccard_locality(g, res.graph, [(0, 1)])
    assert values[0, 0] == 1.0
    assert values[0, 1] <= 1.0
