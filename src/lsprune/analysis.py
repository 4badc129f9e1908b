"""k-hop neighborhood statistics and locality metrics.

The central quantity is the size of each node's k-hop neighborhood (nodes
reachable within ``k`` hops, the node itself excluded; depth 1 equals the
degree).  The population variance of these sizes across nodes measures how
unevenly information concentrates as depth grows; thinning edges shrinks it.

For depth 1 and a deterministic kept fraction ``p`` the shrinkage is the
exact identity ``Var(p * d) = p^2 * Var(d)``, which
:func:`variance_scaling_check` returns both sides of.  Per-edge Bernoulli
keeping is noisier: its analytic degree variance gains a thinning term and is
exposed separately as :func:`bernoulli_thinning_variance` so the two are
never conflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .graph import Graph, build_adjacency
from .prune import RandomPruneConfig, random_prune
from .seeding import mix_seed

# memory cap for the chunked all-pairs distance sweep (floats per chunk)
_DIST_CHUNK_BUDGET = 20_000_000
# node pairs per Jaccard chunk; bounds the adjacency rows sliced at once
_JACCARD_CHUNK = 2048


def _adjacency_matrix(g: Graph) -> csr_matrix:
    adj = build_adjacency(g)
    ones = np.ones(len(adj.neighbors))
    return csr_matrix((ones, adj.neighbors, adj.indptr), shape=(g.num_nodes, g.num_nodes))


def _khop_counts(g: Graph, depths: tuple[int, ...]) -> np.ndarray:
    """Counts matrix of shape (len(depths), num_nodes); one BFS sweep total."""
    limit = max(depths)
    n = g.num_nodes
    counts = np.zeros((len(depths), n), dtype=np.int64)
    if n == 0 or g.num_edges == 0:
        return counts
    adj = _adjacency_matrix(g)
    chunk = max(1, _DIST_CHUNK_BUDGET // n)
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        dist = dijkstra(adj, unweighted=True, limit=limit, indices=idx)
        for row, k in enumerate(depths):
            counts[row, idx] = (dist <= k).sum(axis=1) - 1  # drop the node itself
    return counts


def khop_sizes(g: Graph, k: int) -> np.ndarray:
    """Per-node count of nodes reachable within ``k`` hops (self excluded).

    Breadth-first level expansion over the undirected edges; self-loops are
    ignored.  ``k=1`` reproduces the degrees.
    """
    if k < 1:
        raise ValueError(f"depth must be >= 1, got {k}")
    return _khop_counts(g, (k,))[0]


@dataclass(frozen=True)
class NeighborhoodStats:
    """Neighborhood sizes and their population variance per requested depth."""

    depths: tuple[int, ...]
    counts: np.ndarray  # (len(depths), num_nodes)
    variances: np.ndarray  # (len(depths),)
    kept_fraction: float


def neighborhood_stats(g: Graph, depths, kept_fraction: float = 1.0) -> NeighborhoodStats:
    """Compute k-hop sizes and variances for several depths in one sweep."""
    depths = tuple(int(k) for k in depths)
    if not depths or min(depths) < 1:
        raise ValueError(f"depths must be >= 1, got {depths}")
    counts = _khop_counts(g, depths)
    return NeighborhoodStats(
        depths=depths,
        counts=counts,
        variances=counts.var(axis=1) if g.num_nodes else np.zeros(len(depths)),
        kept_fraction=kept_fraction,
    )


@dataclass(frozen=True)
class VarianceCurve:
    """Neighborhood-size variance per (kept fraction, depth), trial-averaged."""

    fractions: tuple[float, ...]
    depths: tuple[int, ...]
    variances: np.ndarray  # (len(fractions), len(depths))
    trials: int


PruneFn = Callable[[Graph, float, int], Graph]


def bernoulli_edge_pruner(seed: int) -> PruneFn:
    """Pruner callable keeping each edge with the requested fraction.

    Trial ``t`` at fraction ``f`` uses an independent sub-seed of ``seed``,
    so curves are reproducible yet trials differ.
    """

    def prune(g: Graph, fraction: float, trial: int) -> Graph:
        cfg = RandomPruneConfig(
            keep_probability=fraction,
            seed=mix_seed(seed, trial, int(round(fraction * 1_000_000))),
        )
        return random_prune(g, cfg).graph

    return prune


def neighborhood_variance_curve(
    g: Graph,
    depths,
    keep_fractions,
    pruner: PruneFn,
    trials: int = 1,
) -> VarianceCurve:
    """Variance of k-hop sizes as a function of the kept-edge fraction.

    For each fraction the graph is pruned ``trials`` times by ``pruner`` and
    the per-depth population variances are averaged.  Fraction 1.0 is the
    unpruned graph, evaluated once.
    """
    depths = tuple(int(k) for k in depths)
    fractions = tuple(float(f) for f in keep_fractions)
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in (0, 1], got {fractions}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    table = np.zeros((len(fractions), len(depths)))
    for fi, fraction in enumerate(fractions):
        if fraction >= 1.0:
            table[fi] = neighborhood_stats(g, depths).variances
            continue
        acc = np.zeros(len(depths))
        for t in range(trials):
            pruned = pruner(g, fraction, t)
            acc += neighborhood_stats(pruned, depths, kept_fraction=fraction).variances
        table[fi] = acc / trials
    return VarianceCurve(fractions=fractions, depths=depths, variances=table, trials=trials)


def variance_scaling_check(degrees, p: float) -> tuple[float, float]:
    """Both sides of the depth-1 scaling identity ``Var(p*d) = p^2 * Var(d)``.

    Returns ``(Var(p * d), p^2 * Var(d))`` using population variance; the two
    agree to floating-point rounding for every input.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    d = np.asarray(degrees, dtype=np.float64)
    return float(np.var(p * d)), float(p * p * np.var(d))


def bernoulli_thinning_variance(degrees, p: float) -> float:
    """Analytic degree variance under per-edge Bernoulli keeping.

    ``p^2 * Var(d) + p * (1 - p) * E[d]``: the extra thinning term is why the
    stochastic baseline does not satisfy the deterministic scaling identity
    (on a regular graph the identity gives 0, Bernoulli keeping does not).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    d = np.asarray(degrees, dtype=np.float64)
    return float(p * p * np.var(d) + p * (1.0 - p) * d.mean())


def jaccard_locality(g: Graph, g_pruned: Graph, pairs) -> np.ndarray:
    """Neighborhood Jaccard similarity of node pairs before and after pruning.

    Returns an array of ``(J_before, J_after)`` rows, where
    ``J(u, v) = |N_u & N_v| / |N_u | N_v|`` and the empty/empty case (two
    isolated nodes) is defined as 1.  Consistent pruning should keep similar
    pairs similar; that is what this quantifies.
    """
    if g_pruned.num_nodes != g.num_nodes:
        raise ValueError("pruned graph must keep the original node set")
    pairs = np.asarray(pairs).reshape(-1, 2)  # ids beyond int64 stay objects until checked
    bad = ((pairs < 0) | (pairs >= g.num_nodes)).any(axis=1)
    if bad.any():
        u, v = pairs[bad][0]
        raise ValueError(f"pair ({u}, {v}) out of range")
    pairs = pairs.astype(np.int64)

    out = np.empty((len(pairs), 2))
    for col, graph in enumerate((g, g_pruned)):
        adj = _adjacency_matrix(graph)
        deg = np.diff(adj.indptr)
        for start in range(0, len(pairs), _JACCARD_CHUNK):
            u, v = pairs[start : start + _JACCARD_CHUNK].T
            inter = np.asarray(adj[u].multiply(adj[v]).sum(axis=1)).ravel()
            union = deg[u] + deg[v] - inter  # |N_u | N_v| = d_u + d_v - |N_u & N_v|
            out[start : start + len(u), col] = np.divide(
                inter, union, out=np.ones(len(u)), where=union > 0
            )
    return out
