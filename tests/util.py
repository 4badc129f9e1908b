"""Shared test helpers: random graph construction and independent oracles.

The oracles here are deliberately naive re-implementations (triple loops,
Floyd-Warshall) kept separate from the library's vectorized paths; tests
compare the two.
"""

from __future__ import annotations

import numpy as np

from lsprune import Graph


def random_graph(
    rng: np.random.Generator,
    num_nodes: int,
    edge_prob: float = 0.3,
    node_dim: int = 0,
    edge_dim: int = 0,
    with_loops: bool = False,
    with_labels: bool = False,
) -> Graph:
    """Erdos-Renyi style graph with optional attributes, loops, and labels."""
    iu, iv = np.triu_indices(num_nodes, 1)
    present = rng.random(len(iu)) < edge_prob
    edges = np.stack([iu[present], iv[present]], axis=1)
    node_attrs = rng.standard_normal((num_nodes, node_dim)) if node_dim else None
    edge_attrs = rng.standard_normal((len(edges), edge_dim)) if edge_dim else None
    loops = frozenset()
    if with_loops and num_nodes:
        loops = frozenset(
            int(u) for u in rng.choice(num_nodes, size=min(2, num_nodes), replace=False)
        )
    labels = rng.integers(0, 3, size=num_nodes) if with_labels else None
    return Graph(
        num_nodes=num_nodes,
        edges=edges,
        node_attrs=node_attrs,
        edge_attrs=edge_attrs,
        node_labels=labels,
        self_loops=loops,
        graph_label=int(rng.integers(0, 5)) if with_labels else None,
    )


def brute_force_minhash(g: Graph, attr_rows: np.ndarray, family) -> tuple[set, dict]:
    """Enumerate every (node, function, neighbor) triple naively.

    Returns the kept edge set (canonical pairs) and the per-node selection
    lists.  Buckets come from one ``bucket_matrix`` call; the argmin is a
    plain loop.  Assumes endpoint-symmetric rows.
    """
    buckets = family.bucket_matrix(attr_rows)
    adjacency: dict[int, list[tuple[int, int]]] = {u: [] for u in range(g.num_nodes)}
    for e, (u, v) in enumerate(g.edges.tolist()):
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))

    kept: set[tuple[int, int]] = set()
    selections: dict[int, list[tuple[int, int]]] = {}
    for u in range(g.num_nodes):
        if not adjacency[u]:
            continue
        picks = []
        for i in range(family.config.k):
            best_bucket = None
            best_nbr = None
            best_edge = None
            for v, e in sorted(adjacency[u]):
                bucket = buckets[i, e]
                if best_bucket is None or bucket < best_bucket:
                    best_bucket, best_nbr, best_edge = bucket, v, e
            picks.append((i, best_nbr))
            a, b = g.edges[best_edge]
            kept.add((int(a), int(b)))
        selections[u] = picks
    return kept, selections


def set_jaccard(g: Graph, u: int, v: int) -> float:
    """Neighborhood Jaccard of ``u`` and ``v`` from Python sets over the edge list."""
    nbrs = {x: set() for x in (u, v)}
    for a, b in g.edges.tolist():
        for x, y in ((a, b), (b, a)):
            if x in nbrs:
                nbrs[x].add(y)
    union = nbrs[u] | nbrs[v]
    return len(nbrs[u] & nbrs[v]) / len(union) if union else 1.0


def floyd_warshall_distances(g: Graph) -> list[list[int]]:
    """All-pairs hop distances by Floyd-Warshall; unreachable pairs get 1 << 30."""
    n = g.num_nodes
    inf = 1 << 30  # larger than any distance and any queried depth
    dist = [[0 if a == b else inf for b in range(n)] for a in range(n)]
    for u, v in g.edges.tolist():
        dist[u][v] = dist[v][u] = 1
    for mid in range(n):
        via = dist[mid]
        for a in range(n):
            row, head = dist[a], dist[a][mid]
            for b in range(n):
                if head + via[b] < row[b]:
                    row[b] = head + via[b]
    return dist


def floyd_warshall_khop(g: Graph, k: int, dist: list[list[int]] | None = None) -> np.ndarray:
    """All-pairs shortest-path oracle for k-hop neighborhood sizes."""
    if dist is None:
        dist = floyd_warshall_distances(g)
    return np.array([sum(d <= k for d in row) - 1 for row in dist], dtype=np.int64)
