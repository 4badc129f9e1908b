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

from .graph import Graph, build_adjacency
from .prune import RandomPruneConfig, random_prune
from .seeding import mix_seed

# byte bound of any one working array of the k-hop kernel and of a Jaccard chunk:
# a k-hop level's reach, gathered row chunk and grown block then fit a 2 MiB L2 cache
_KHOP_BLOCK_BYTES = 512_000


def _row_popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _runs(spans: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """``(start, stop)`` runs of consecutive items whose ``spans`` add up to at most ``cap``.

    An item that spans more than ``cap`` is a run of its own.
    """
    offsets = np.cumsum(np.append(0, spans))
    runs, a = [], 0
    while a < len(spans):
        b = max(a + 1, int(np.searchsorted(offsets, offsets[a] + cap, side="right")) - 1)
        runs.append((a, b))
        a = b
    return runs


def _khop_counts(g: Graph, depths: tuple[int, ...]) -> np.ndarray:
    """Counts matrix of shape (len(depths), num_nodes) by bitset level expansion.

    ``reach[v]`` holds one bit per source of the current block of 64-bit
    words: the sources that reach ``v`` within the current level.  Level 1
    is set straight from the CSR, since the sources that reach ``v`` in one
    hop are ``v`` and its neighbors.  Each deeper level ORs every node's
    neighbor rows into its own; a block stops expanding once a level adds no
    bit, since every deeper level is then the same.

    The expansion is cache-blocked by ``_KHOP_BLOCK_BYTES``.  A block is as
    many words wide as keeps ``reach`` within it (one word, and more bytes,
    above ``_KHOP_BLOCK_BYTES / 8`` live nodes).  Each deeper level walks the
    CSR in row chunks whose gathered neighbor words keep within it too, a row
    longer than that being a chunk of its own, and ORs each chunk's
    ``reduceat`` straight into a fresh ``grown`` block.  The level-1 scatter
    holds index arrays as long as the block's stretch of the CSR.
    """
    limit = max(depths)
    counts = np.zeros((len(depths), g.num_nodes), dtype=np.int64)
    if g.num_edges == 0:
        return counts
    adj = build_adjacency(g)
    # isolated nodes reach no one and no one reaches them: expand over the
    # others only, which also keeps every reduceat segment non-empty
    # (reduceat yields the segment's first row, not the identity, on empty ones)
    has = adj.degrees > 0
    live = int(has.sum())
    nbrs = (np.cumsum(has) - 1)[adj.neighbors]
    bounds = np.append(adj.indptr[:-1][has], len(nbrs))  # CSR offsets over live nodes
    bit = np.uint64(1) << (np.arange(live) % 64).astype(np.uint64)  # a source's bit in its word
    words = -(-live // 64)
    block = min(words, max(1, _KHOP_BLOCK_BYTES // (8 * live)))  # words of sources per block
    # rows, neighbors and reduceat offsets of each row chunk
    chunks = [
        (slice(a, b), nbrs[bounds[a] : bounds[b]], bounds[a:b] - bounds[a])
        for a, b in _runs(np.diff(bounds), _KHOP_BLOCK_BYTES // (8 * block))
    ]
    sizes_at = np.zeros((len(depths), live), dtype=np.int64)
    for w0 in range(0, words, block):
        width = min(block, words - w0)
        lo, hi = 64 * w0, min(live, 64 * (w0 + width))
        reach = np.zeros((live, width), dtype=np.uint64)
        # level 1: each source's own bit, then the same bit in each neighbor's row;
        # the incidences of sources lo..hi-1 are one contiguous stretch of the CSR
        flat = reach.reshape(-1)
        own = np.arange(lo, hi)
        flat[own * width + own // 64 - w0] = bit[own]
        src = np.repeat(own, np.diff(bounds[lo : hi + 1]))
        np.bitwise_or.at(flat, nbrs[bounds[lo] : bounds[hi]] * width + src // 64 - w0, bit[src])
        sizes = [_row_popcount(reach)]  # sizes[j]: reach within level j + 1
        while len(sizes) < limit:
            grown = np.empty_like(reach)
            for rows, seg, offsets in chunks:
                # np.take gathers rows several times faster than reach[seg]
                np.bitwise_or.reduceat(
                    np.take(reach, seg, axis=0), offsets, axis=0, out=grown[rows]
                )
                grown[rows] |= reach[rows]
            if np.array_equal(grown, reach):
                break
            reach = grown
            sizes.append(_row_popcount(reach))
        for row, k in enumerate(depths):
            sizes_at[row] += sizes[min(k, len(sizes)) - 1]
    counts[:, has] = sizes_at - 1  # each node's own bit
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


def _check_depths(depths) -> tuple[int, ...]:
    depths = tuple(int(k) for k in depths)
    if not depths or min(depths) < 1:
        raise ValueError(f"depths must be >= 1, got {depths}")
    return depths


def neighborhood_stats(g: Graph, depths) -> NeighborhoodStats:
    """Compute k-hop sizes and variances for several depths in one sweep."""
    depths = _check_depths(depths)
    counts = _khop_counts(g, depths)
    return NeighborhoodStats(
        depths=depths,
        counts=counts,
        variances=counts.var(axis=1) if g.num_nodes else np.zeros(len(depths)),
    )


@dataclass(frozen=True)
class VarianceCurve:
    """Neighborhood-size variance per (kept fraction, depth), trial-averaged."""

    fractions: tuple[float, ...]
    depths: tuple[int, ...]
    variances: np.ndarray  # (len(fractions), len(depths))


PruneFn = Callable[[Graph, float, int], Graph]


def bernoulli_edge_pruner(seed: int) -> PruneFn:
    """Pruner callable keeping each edge with the requested fraction.

    Trial ``t`` at fraction ``f`` uses an independent sub-seed of ``seed``,
    so curves are reproducible yet trials differ.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    def prune(g: Graph, fraction: float, trial: int) -> Graph:
        cfg = RandomPruneConfig(
            keep_probability=fraction,
            seed=mix_seed(seed, trial, int(round(fraction * 1_000_000))),
        )
        return random_prune(g, cfg).graph

    return prune


def check_curve_args(depths, keep_fractions, trials: int):
    """Validated ``(depths, fractions)`` tuples of a variance curve run ``trials`` times."""
    fractions = tuple(float(f) for f in keep_fractions)
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in (0, 1], got {fractions}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _check_depths(depths), fractions


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
    depths, fractions = check_curve_args(depths, keep_fractions, trials)
    table = np.zeros((len(fractions), len(depths)))
    for fi, fraction in enumerate(fractions):
        if fraction >= 1.0:
            table[fi] = neighborhood_stats(g, depths).variances
            continue
        acc = np.zeros(len(depths))
        for t in range(trials):
            pruned = pruner(g, fraction, t)
            acc += neighborhood_stats(pruned, depths).variances
        table[fi] = acc / trials
    return VarianceCurve(fractions=fractions, depths=depths, variances=table)


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

    ``|N_u & N_v|`` is counted by looking each entry of the shorter neighbor
    list up in the sorted ``row * n + neighbor`` keys of the adjacency.  Pairs
    go in chunks of walked entries whose int64 arrays keep within
    ``_KHOP_BLOCK_BYTES``, so hub pairs do not raise the peak; a pair that
    walks more than that is a chunk of its own.
    """
    if g_pruned.num_nodes != g.num_nodes:
        raise ValueError("pruned graph must keep the original node set")
    pairs = np.asarray(pairs).reshape(-1, 2)  # ids beyond int64 stay objects until checked
    bad = ((pairs < 0) | (pairs >= g.num_nodes)).any(axis=1)
    if bad.any():
        u, v = pairs[bad][0]
        raise ValueError(f"pair ({u}, {v}) out of range")
    pairs = pairs.astype(np.int64)

    n = g.num_nodes
    out = np.empty((len(pairs), 2))
    for col, graph in enumerate((g, g_pruned)):
        adj = build_adjacency(graph)
        deg = adj.degrees
        # row * n + neighbor is ascending along the CSR, so lookups can bisect it
        keys = np.repeat(np.arange(n, dtype=np.int64), deg) * n + adj.neighbors
        # a pair walks its shorter list, plus one entry so that pairs of isolated nodes
        # count too; each int64 array over a chunk's entries takes half the budget at most
        chunks = _runs(np.minimum(deg[pairs[:, 0]], deg[pairs[:, 1]]) + 1, _KHOP_BLOCK_BYTES // 16)
        for start, stop in chunks:
            u, v = pairs[start:stop].T
            swap = deg[u] > deg[v]  # walk the shorter list, look each entry up in the other
            u, v = np.where(swap, v, u), np.where(swap, u, v)
            lens = deg[u]
            owner = np.repeat(np.arange(len(u)), lens)
            first = np.repeat(adj.indptr[u] - (np.cumsum(lens) - lens), lens)
            query = v[owner] * n + adj.neighbors[first + np.arange(len(owner))]
            pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            inter = np.bincount(owner[keys[pos] == query], minlength=len(u))
            union = deg[u] + deg[v] - inter  # |N_u | N_v| = d_u + d_v - |N_u & N_v|
            out[start:stop, col] = np.divide(
                inter, union, out=np.ones(len(u)), where=union > 0
            )
    return out
