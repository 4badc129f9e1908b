"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, not tuned at runtime.
"""

import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest
from scipy.stats import spearmanr

from lsprune import (
    Graph,
    LshFamily,
    LshFamilyConfig,
    build_adjacency,
    build_edge_attrs,
    lsp_prune,
    write_container,
)
from lsprune.analysis import (
    bernoulli_edge_pruner,
    neighborhood_variance_curve,
    variance_scaling_check,
)
from lsprune.cli import main as cli_main
from lsprune.generator import (
    GeneratorConfig,
    generate_class_template,
    generate_dataset,
    generate_sample,
)

from util import brute_force_minhash, collision_rate, kept_edges, random_graph, selection_lists


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def big_random_graph(num_nodes: int, num_edges: int, seed: int) -> Graph:
    """Vectorized unique-pair sampling for timing-scale graphs."""
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < num_edges:
        need = num_edges - len(keys)
        u = rng.integers(0, num_nodes, size=int(need * 1.5) + 64)
        v = rng.integers(0, num_nodes, size=len(u))
        mask = u != v
        lo = np.minimum(u, v)[mask]
        hi = np.maximum(u, v)[mask]
        keys = np.unique(np.concatenate([keys, lo * num_nodes + hi]))
    keys = keys[:num_edges]
    return Graph(num_nodes, np.stack([keys // num_nodes, keys % num_nodes], axis=1))


# ------------------------------------------------------------------ 1

def test_c01_determinism_byte_identical_outputs(tmp_path, capsys):
    with criterion(1, "determinism"):
        src = tmp_path / "in.lspg"
        rng = np.random.default_rng(0)
        write_container(
            [random_graph(rng, 15, 0.4, node_dim=3, edge_dim=2) for _ in range(3)], src
        )

        def run_twice(args, out_name):
            blobs = []
            for tag in ("x", "y"):
                out = tmp_path / f"{tag}_{out_name}"
                assert cli_main(args + ["--output", str(out)]) == 0
                files = [out.read_bytes()]
                fam = out.parent / (out.name + ".family")
                if fam.exists():
                    files.append(fam.read_bytes())
                # the report carries wall time; compare everything else
                report = out.parent / (out.name + ".report.tsv")
                rows = [r.rsplit("\t", 1)[0] for r in report.read_text().splitlines()]
                files.append("\n".join(rows).encode())
                blobs.append(files)
            assert blobs[0] == blobs[1]

        base = ["prune", "--input", str(src)]
        run_twice(base + ["--method", "lsp-p", "--k", "4", "--l", "1.0", "--seed", "7"], "p.lspg")
        run_twice(base + ["--method", "lsp-t", "--k", "2", "--seed", "3"], "t.lspg")
        run_twice(base + ["--method", "random", "--p", "0.6", "--seed", "5"], "r.lspg")

        gen = ["generate", "--num-samples", "8", "--num-classes", "4",
               "--min-nodes", "5", "--max-nodes", "8", "--node-dim", "2",
               "--edge-dim", "2", "--seed", "11"]
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{tag}_gen.lspg"
            assert cli_main(gen + ["--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()  # swallow the config echoes


# ------------------------------------------------------------------ 2

def test_c02_edge_budget():
    with criterion(2, "edge budget"):
        rng = np.random.default_rng(1)
        for gi in range(100):
            n = int(rng.integers(2, 201))
            g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)), edge_dim=4)
            if g.num_edges == 0:
                continue
            attrs = build_edge_attrs(g, "raw_edge")
            deg = build_adjacency(g).degrees
            variant = "lsp_t" if gi % 2 else "lsp_p"
            for k in (1, 2, 4, 8):
                fam = LshFamily.from_config(
                    LshFamilyConfig(variant, d=4, k=k, master_seed=gi)
                )
                res = lsp_prune(g, attrs, fam)
                lists = selection_lists(res)
                for u in range(n):
                    if deg[u] == 0:
                        assert u not in lists
                        continue
                    distinct = {v for _i, v in lists[u]}
                    assert 1 <= len(distinct) <= min(k, deg[u])
                assert res.graph.num_edges <= min(g.num_edges, k * n)


# ------------------------------------------------------------------ 3

def _twin_scenario():
    """Four twin pairs; each center owns 4 private neighbors whose attribute
    vectors coincide across the pair (matching index order)."""
    rng = np.random.default_rng(42)
    q = 3
    num_pairs = 4
    centers = 2 * num_pairs
    attrs = [np.zeros(q)] * centers
    edges = []
    next_node = centers
    for pair in range(num_pairs):
        center_attr = rng.standard_normal(q)
        nbr_attrs = rng.standard_normal((4, q))
        for side in (0, 1):
            c = 2 * pair + side
            attrs[c] = center_attr
            for j in range(4):
                edges.append((c, next_node))
                attrs.append(nbr_attrs[j])
                next_node += 1
    return Graph(next_node, edges, node_attrs=np.vstack(attrs)), num_pairs


def test_c03_twin_consistency():
    with criterion(3, "twin consistency"):
        g, num_pairs = _twin_scenario()
        table = build_edge_attrs(g, "node_only")
        for variant in ("lsp_t", "lsp_p"):
            for seed in range(20):
                for k in (1, 2, 4):
                    fam = LshFamily.from_config(
                        LshFamilyConfig(variant, d=table.dim, k=k, master_seed=seed)
                    )
                    lists = selection_lists(lsp_prune(g, table, fam))
                    for pair in range(num_pairs):
                        left = {tuple(g.node_attrs[v]) for _i, v in lists[2 * pair]}
                        right = {tuple(g.node_attrs[v]) for _i, v in lists[2 * pair + 1]}
                        union = left | right
                        jaccard = len(left & right) / len(union)
                        assert jaccard == 1.0


# ------------------------------------------------------------------ 4

def test_c04_random_prune_divergence():
    with criterion(4, "random-prune divergence"):
        # keep exactly 2 of 4 neighbors uniformly on each side; the chance
        # that both sides keep one specific 2-subset is (1/6)^2 = 1/36
        trials = 100_000
        rng = np.random.default_rng(8)

        def draw_subsets():
            picks = np.argsort(rng.random((trials, 4)), axis=1)[:, :2]
            return np.sort(picks, axis=1)

        left = draw_subsets()
        right = draw_subsets()
        target = np.array([0, 1])
        hit = np.all(left == target, axis=1) & np.all(right == target, axis=1)
        rate = hit.mean()
        assert abs(rate - 1.0 / 36.0) <= 0.003


# ------------------------------------------------------------------ 5

def test_c05_lsh_sensitivity():
    with criterion(5, "LSH sensitivity"):
        d = 16
        rng = np.random.default_rng(12)
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        base = rng.standard_normal(d)
        distances = np.geomspace(0.05, 5.0, 10)
        pairs = [(base, base + r * direction) for r in distances]
        cfg = LshFamilyConfig("lsp_p", d=d, l=1.0, master_seed=17)
        rates = collision_rate(cfg, pairs, trials=10_000)

        assert rates[0] - rates[-1] >= 0.5
        diffs = np.diff(rates)
        inversions = diffs[diffs > 0]
        assert len(inversions) <= 1
        if len(inversions):
            assert inversions[0] < 0.02


# ------------------------------------------------------------------ 6

def test_c06_variance_scaling_identity():
    with criterion(6, "variance-scaling identity"):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            degrees = rng.integers(0, 200, size=int(rng.integers(2, 80)))
            for p in (0.0, float(rng.random()), float(rng.random()), 1.0):
                lhs, rhs = variance_scaling_check(degrees, p)
                assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-18)


# ------------------------------------------------------------------ 7

def test_c07_variance_curve_trend():
    with criterion(7, "variance-curve trend"):
        # generator defaults scaled to 500 nodes: the connectivity rate is
        # scaled by (50/500)^2 so the expected edge count stays at the
        # default ~441 (the raw rate would saturate every 3-hop neighborhood
        # and erase the depth trend)
        cfg = GeneratorConfig(
            num_samples=1,
            num_classes=1,
            min_nodes=500,
            max_nodes=500,
            connectivity_rate=0.002,
            node_removal_probability=0.0,
            seed=4,
        )
        (g,) = generate_dataset(cfg)
        fractions = tuple(round(0.1 * i, 1) for i in range(1, 11))
        curve = neighborhood_variance_curve(
            g, depths=(1, 3, 5), keep_fractions=fractions,
            pruner=bernoulli_edge_pruner(seed=0), trials=3,
        )
        for di in range(3):
            rho = spearmanr(fractions, curve.variances[:, di]).statistic
            assert rho >= 0.9
        assert curve.variances[-1, 2] > curve.variances[-1, 0]  # k=5 vs k=1 at 1.0


# ------------------------------------------------------------------ 8

def test_c08_complexity_linearity():
    with criterion(8, "complexity linearity"):
        d, seed = 8, 31
        rng = np.random.default_rng(seed)
        n_nodes = 4096
        sizes = {}
        for m in (1_000_000, 2_000_000):
            g = big_random_graph(n_nodes, m, seed)
            g = Graph(g.num_nodes, g.edges, edge_attrs=rng.standard_normal((m, d)))
            sizes[m] = (g, build_edge_attrs(g, "raw_edge"), build_adjacency(g))
        families = {
            k: LshFamily.from_config(LshFamilyConfig("lsp_p", d=d, k=k, master_seed=1))
            for k in (1, 2)
        }

        # interleave the configurations so machine drift cancels in ratios,
        # rotating the order each round so every config sees the same mix of
        # cache predecessors; one untimed warm-up round avoids first-touch
        # page-fault skew
        configs = [(m, k) for m in sizes for k in (1, 2)]
        times = {c: [] for c in configs}
        for _round in range(6):
            offset = _round % len(configs)
            for m, k in configs[offset:] + configs[:offset]:
                g, attrs, adj = sizes[m]
                t0 = perf_counter()
                lsp_prune(g, attrs, families[k], adjacency=adj)
                elapsed = perf_counter() - t0
                if _round:  # 5 timed rounds
                    times[(m, k)].append(elapsed)
        med = {c: float(np.median(ts)) for c, ts in times.items()}

        edge_ratio_k1 = med[(2_000_000, 1)] / med[(1_000_000, 1)]
        edge_ratio_k2 = med[(2_000_000, 2)] / med[(1_000_000, 2)]
        k_ratio_e1 = med[(1_000_000, 2)] / med[(1_000_000, 1)]
        k_ratio_e2 = med[(2_000_000, 2)] / med[(2_000_000, 1)]
        print(
            f"  edge-doubling ratios {edge_ratio_k1:.2f}/{edge_ratio_k2:.2f}, "
            f"k-doubling ratios {k_ratio_e1:.2f}/{k_ratio_e2:.2f}"
        )
        for ratio in (edge_ratio_k1, edge_ratio_k2, k_ratio_e1, k_ratio_e2):
            assert 1.5 <= ratio <= 3.0


# ------------------------------------------------------------------ 9

def test_c09_generator_statistics():
    with criterion(9, "generator statistics"):
        cfg = GeneratorConfig(num_samples=200, seed=6)
        data = generate_dataset(cfg)

        labels = [g.graph_label for g in data]
        assert all(labels.count(c) == 2 for c in range(100))

        counts = np.array([g.num_nodes for g in data])
        keep = 1.0 - cfg.node_removal_probability
        sigma = math.sqrt(cfg.min_nodes * keep * (1.0 - keep))
        assert counts.min() >= cfg.min_nodes * keep - 3 * sigma
        assert counts.max() <= cfg.max_nodes

        templates = [generate_class_template(cfg, c) for c in range(cfg.num_classes)]
        node_devs, edge_devs = [], []
        for s in range(cfg.num_samples):
            sample = generate_sample(cfg, templates, s)
            tpl = templates[sample.graph.graph_label]
            centers = tpl.node_centers[sample.template_nodes]
            node_devs.append((sample.graph.node_attrs - centers).ravel())

            n = sample.num_initial_nodes
            induced = (tpl.edges[:, 0] < n) & (tpl.edges[:, 1] < n)
            kept = np.isin(tpl.edges[:, 0], sample.template_nodes) & np.isin(
                tpl.edges[:, 1], sample.template_nodes
            )
            ecenters = tpl.edge_centers[induced & kept]
            edge_devs.append((sample.graph.edge_attrs - ecenters).ravel())

        node_std = np.concatenate(node_devs).std()
        edge_std = np.concatenate(edge_devs).std()
        assert abs(node_std - 0.25) / 0.25 < 0.05
        assert abs(edge_std - 0.1) / 0.1 < 0.05


# ------------------------------------------------------------------ 10

def test_c10_minhash_oracle_equivalence():
    with criterion(10, "MinHash oracle equivalence"):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, float(rng.uniform(0.2, 0.8)), edge_dim=3)
            if g.num_edges == 0:
                continue
            attrs = build_edge_attrs(g, "raw_edge")
            variant = "lsp_t" if checked % 2 else "lsp_p"
            fam = LshFamily.from_config(
                LshFamilyConfig(variant, d=3, k=int(rng.integers(1, 5)),
                                master_seed=checked)
            )
            res = lsp_prune(g, attrs, fam)
            kept_oracle, sel_oracle = brute_force_minhash(g, attrs, fam)
            assert kept_edges(res) == kept_oracle
            assert selection_lists(res) == sel_oracle
            checked += 1
