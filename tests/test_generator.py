import tracemalloc

import numpy as np
import pytest

from lsprune import (
    GeneratorConfig,
    generate_class_template,
    generate_dataset,
    generate_sample,
)


def small_cfg(**overrides):
    base = dict(
        num_samples=8,
        num_classes=2,
        min_nodes=5,
        max_nodes=8,
        node_dim=3,
        edge_dim=2,
        connectivity_rate=0.4,
        node_removal_probability=0.1,
        seed=0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def test_round_robin_labels_exactly_balanced():
    data = generate_dataset(small_cfg(num_samples=4, num_classes=2))
    labels = [label for _g, label in data]
    assert labels == [0, 1, 0, 1]


def test_noise_free_limit_reproduces_centers():
    cfg = small_cfg(
        num_samples=12,
        num_classes=2,
        node_noise_std=0.0,
        edge_noise_std=0.0,
        node_removal_probability=0.0,
    )
    data = generate_dataset(cfg)
    by_key = {}
    for g, label in data:
        by_key.setdefault((label, g.num_nodes), []).append(g)
    for group in by_key.values():
        for g in group[1:]:
            assert np.array_equal(g.node_attrs, group[0].node_attrs)
            assert np.array_equal(g.edges, group[0].edges)
            assert np.array_equal(g.edge_attrs, group[0].edge_attrs)


def test_noise_free_samples_are_template_slices():
    cfg = small_cfg(
        num_samples=4,
        node_noise_std=0.0,
        edge_noise_std=0.0,
        node_removal_probability=0.0,
    )
    templates = [generate_class_template(cfg, c) for c in range(cfg.num_classes)]
    for s in range(cfg.num_samples):
        sample = generate_sample(cfg, templates, s)
        tpl = templates[sample.label]
        n = sample.graph.num_nodes
        assert np.array_equal(sample.graph.node_attrs, tpl.node_centers[:n])
        induced = tpl.edges[(tpl.edges[:, 0] < n) & (tpl.edges[:, 1] < n)]
        assert np.array_equal(sample.graph.edges, induced)


def test_expected_edge_count_under_direction_union():
    # p = 0.2 per direction, union gives 1 - (1-p)^2 = 0.36 per pair;
    # n = 50 fixed: expected edges = 0.36 * C(50, 2) = 441
    cfg = GeneratorConfig(
        num_samples=200,
        num_classes=200,  # one sample per class template
        min_nodes=50,
        max_nodes=50,
        node_dim=1,
        edge_dim=1,
        connectivity_rate=0.2,
        node_removal_probability=0.0,
        seed=3,
    )
    data = generate_dataset(cfg)
    mean_edges = np.mean([g.num_edges for g, _l in data])
    assert abs(mean_edges - 441.0) / 441.0 < 0.05


def test_template_extremes():
    full = generate_class_template(small_cfg(connectivity_rate=1.0), 0)
    assert len(full.edges) == 8 * 7 // 2
    empty = generate_class_template(small_cfg(connectivity_rate=0.0), 0)
    assert len(empty.edges) == 0


def test_distinct_classes_get_distinct_templates():
    cfg = small_cfg()
    t0 = generate_class_template(cfg, 0)
    t1 = generate_class_template(cfg, 1)
    assert not np.array_equal(t0.node_centers, t1.node_centers)


def test_template_deterministic_per_class():
    cfg = small_cfg()
    a = generate_class_template(cfg, 1)
    b = generate_class_template(cfg, 1)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.node_centers, b.node_centers)
    assert np.array_equal(a.edge_centers, b.edge_centers)


def test_dataset_reproducible_from_config():
    cfg = small_cfg(num_samples=6)
    d1 = generate_dataset(cfg)
    d2 = generate_dataset(cfg)
    for (g1, l1), (g2, l2) in zip(d1, d2):
        assert l1 == l2
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(g1.node_attrs, g2.node_attrs)
        assert np.array_equal(g1.edge_attrs, g2.edge_attrs)


def test_dataset_builds_only_the_templates_it_uses():
    # two samples of fifty classes need two templates; building all fifty holds 25 times more
    cfg = small_cfg(num_samples=2, num_classes=50, min_nodes=30, max_nodes=30, edge_dim=20)
    tpl = generate_class_template(cfg, 0)
    one = tpl.edges.nbytes + tpl.node_centers.nbytes + tpl.edge_centers.nbytes
    tracemalloc.start()
    try:
        for _sample in generate_dataset(cfg):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * one


def test_different_seeds_differ():
    d1 = generate_dataset(small_cfg(seed=1, node_removal_probability=0.0))
    d2 = generate_dataset(small_cfg(seed=2, node_removal_probability=0.0))
    assert any(
        not np.array_equal(g1.node_attrs, g2.node_attrs)
        for (g1, _), (g2, _) in zip(d1, d2)
    )


def test_attribute_noise_scale():
    # 170 samples x 30 nodes x 20 dims puts both deviations past 1e5 entries
    cfg = GeneratorConfig(
        num_samples=170,
        num_classes=3,
        min_nodes=30,
        max_nodes=30,
        node_dim=20,
        edge_dim=20,
        connectivity_rate=0.3,
        node_noise_std=0.25,
        edge_noise_std=0.1,
        node_removal_probability=0.0,
        seed=5,
    )
    templates = [generate_class_template(cfg, c) for c in range(cfg.num_classes)]
    node_devs, edge_devs = [], []
    for s in range(cfg.num_samples):
        sample = generate_sample(cfg, templates, s)
        tpl = templates[sample.label]
        n = sample.graph.num_nodes
        node_devs.append((sample.graph.node_attrs - tpl.node_centers[:n]).ravel())
        induced = (tpl.edges[:, 0] < n) & (tpl.edges[:, 1] < n)
        edge_devs.append((sample.graph.edge_attrs - tpl.edge_centers[induced]).ravel())
    node_devs = np.concatenate(node_devs)
    edge_devs = np.concatenate(edge_devs)
    assert len(node_devs) >= 100_000 and len(edge_devs) >= 100_000
    assert abs(node_devs.std() - 0.25) / 0.25 < 0.05
    assert abs(edge_devs.std() - 0.1) / 0.1 < 0.05


def test_node_counts_within_bounds_and_removal_bites():
    cfg = small_cfg(num_samples=100, min_nodes=10, max_nodes=12,
                    node_removal_probability=0.3, seed=9)
    data = generate_dataset(cfg)
    counts = np.array([g.num_nodes for g, _l in data])
    assert counts.min() >= 1
    assert counts.max() <= 12
    assert counts.mean() < 10.5  # clearly below the no-removal range


def test_removal_never_empties_graph():
    cfg = small_cfg(num_samples=50, min_nodes=1, max_nodes=2,
                    node_removal_probability=0.95, seed=11)
    for g, _l in generate_dataset(cfg):
        assert g.num_nodes >= 1


def test_sample_provenance_tracks_surviving_template_nodes():
    cfg = small_cfg(num_samples=10, node_removal_probability=0.4, seed=13)
    templates = [generate_class_template(cfg, c) for c in range(cfg.num_classes)]
    for s in range(cfg.num_samples):
        sample = generate_sample(cfg, templates, s)
        assert len(sample.template_nodes) == sample.graph.num_nodes
        assert np.all(np.diff(sample.template_nodes) > 0)
        assert sample.template_nodes.max() < cfg.max_nodes


def test_symmetric_flag_changes_edge_density():
    # union of two directed draws is denser than a single per-pair draw
    counts = {}
    for flag in (False, True):
        cfg = GeneratorConfig(
            num_samples=1, num_classes=40, min_nodes=30, max_nodes=30,
            node_dim=1, edge_dim=1, connectivity_rate=0.2, seed=17,
            is_symmetric=flag,
        )
        templates = [generate_class_template(cfg, c) for c in range(40)]
        counts[flag] = np.mean([len(t.edges) for t in templates])
    assert counts[False] > counts[True] * 1.4


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        small_cfg(min_nodes=0)
    with pytest.raises(ValueError):
        small_cfg(min_nodes=9, max_nodes=8)
    with pytest.raises(ValueError):
        small_cfg(connectivity_rate=1.5)
    with pytest.raises(ValueError):
        small_cfg(node_noise_std=-0.1)
    with pytest.raises(ValueError):
        small_cfg(num_samples=0)


def test_table_defaults():
    cfg = GeneratorConfig()
    assert (cfg.num_samples, cfg.num_classes) == (20000, 100)
    assert (cfg.min_nodes, cfg.max_nodes) == (40, 60)
    assert (cfg.node_dim, cfg.edge_dim) == (10, 40)
    assert cfg.connectivity_rate == 0.2
    assert (cfg.node_centers_std, cfg.edge_centers_std) == (0.2, 0.2)
    assert (cfg.node_noise_std, cfg.edge_noise_std) == (0.25, 0.1)
    assert cfg.is_symmetric is False
    assert cfg.node_removal_probability == 0.1
