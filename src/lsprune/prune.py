"""Per-node MinHash edge selection and the random-removal baseline.

For every node ``u`` and every hash function ``i``, the neighbor whose edge
attribute hashes to the minimal bucket is selected (ties broken by smallest
neighbor index), and the union of all selected edges forms the sparsified
edge set.  Because the same seeded functions are applied everywhere, nodes
with matching neighbor-attribute sets make matching selections, which is the
whole point: similar local environments stay similar after pruning.

The selection is expressed with vectorized segment reductions, so results are
independent of node iteration order and worker count.  Each (edge, function)
pair is hashed once; under the endpoint-symmetric ``canonical`` attribute
order both endpoints share that value, for a total of ``k * |E|`` hash
evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .attrs import CANONICAL, EdgeAttrTable, build_edge_attrs
from .graph import AdjacencyView, Graph, build_adjacency
from .hashing import LshFamily


class GraphError(ValueError):
    """Graph ``index`` of a dataset failed with ``detail``."""

    def __init__(self, index: int, detail):
        super().__init__(f"graph {index}: {detail}")
        self.index, self.detail = index, detail

    def __reduce__(self):  # a forked worker's failure is pickled for the main process to raise
        return type(self), (self.index, self.detail)


@dataclass(frozen=True)
class PruneStats:
    edges_in: int
    edges_out: int
    kept_fraction: float
    wall_time_s: float


@dataclass(frozen=True)
class RandomPruneConfig:
    """Baseline config: keep each edge independently with probability ``p``."""

    keep_probability: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.keep_probability <= 1.0:
            raise ValueError(
                f"keep_probability must be in [0, 1], got {self.keep_probability}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PruneResult:
    """Outcome of a pruning run.

    ``graph`` is the sparsified graph (original nodes, attributes of kept
    edges, self-loops untouched).  ``kept_edge_indices`` point into the input
    edge list.  ``selections`` has one ``(node, function, neighbor)`` row per
    MinHash pick; it is empty for the random baseline.
    """

    graph: Graph
    kept_edge_indices: np.ndarray
    selections: np.ndarray
    stats: PruneStats


def _subgraph(g: Graph, kept_idx: np.ndarray) -> Graph:
    return Graph(
        num_nodes=g.num_nodes,
        edges=g.edges[kept_idx],
        node_attrs=g.node_attrs,
        edge_attrs=None if g.edge_attrs is None else g.edge_attrs[kept_idx],
        node_labels=g.node_labels,
        graph_label=g.graph_label,
        self_loops=g.self_loops,
    )


def _result(g: Graph, kept_idx: np.ndarray, selections: np.ndarray, t0: float) -> PruneResult:
    kept_idx = np.asarray(kept_idx, dtype=np.int64)
    stats = PruneStats(
        edges_in=g.num_edges,
        edges_out=len(kept_idx),
        kept_fraction=len(kept_idx) / g.num_edges if g.num_edges else 1.0,
        wall_time_s=perf_counter() - t0,
    )
    return PruneResult(
        graph=_subgraph(g, kept_idx),
        kept_edge_indices=kept_idx,
        selections=selections,
        stats=stats,
    )


def lsp_prune(
    g: Graph,
    attrs: EdgeAttrTable,
    family: LshFamily,
    adjacency: AdjacencyView | None = None,
) -> PruneResult:
    """Sparsify ``g`` by per-node MinHash over ``family``'s hash functions.

    Args:
        g: Input graph.
        attrs: Edge-attribute table aligned with ``g.edges``.
        family: Seeded hash family; ``family.config.d`` must equal
            ``attrs.dim``.
        adjacency: Optional prebuilt adjacency view of ``g``.

    Returns:
        PruneResult whose kept edge set is exactly the union of every node's
        per-function argmin picks.  An edgeless graph yields an empty kept
        set, not an error.
    """
    t0 = perf_counter()
    if attrs.num_edges != g.num_edges:
        raise ValueError(
            f"attribute table has {attrs.num_edges} rows for {g.num_edges} edges"
        )
    if attrs.dim != family.config.d:
        raise ValueError(
            f"family dimension {family.config.d} does not match attributes of dimension {attrs.dim}"
        )

    k = family.config.k
    if g.num_edges == 0:
        return _result(g, np.empty(0, np.int64), np.empty((0, 3), np.int64), t0)

    adj = adjacency if adjacency is not None else build_adjacency(g)

    rows_small, rows_large = attrs.oriented_rows()
    h_small = family.bucket_matrix(rows_small)  # (k, |E|), one evaluation per edge per function
    h_large = h_small if rows_large is rows_small else family.bucket_matrix(rows_large)

    nbrs = adj.neighbors
    eidx = adj.edge_index
    deg = adj.degrees
    nonzero = deg > 0
    starts = adj.indptr[:-1][nonzero]
    seg_counts = deg[nonzero]
    nodes = np.flatnonzero(nonzero)
    n_inc = len(nbrs)
    pos = np.arange(n_inc)
    if h_large is not h_small:
        center = np.repeat(np.arange(g.num_nodes), deg)
        center_is_larger = center > nbrs

    picked_edges = np.empty((len(nodes), k), dtype=np.int64)
    picked_nbrs = np.empty((len(nodes), k), dtype=np.int64)
    for i in range(k):
        h = h_small[i][eidx]
        if h_large is not h_small:
            h = np.where(center_is_larger, h_large[i][eidx], h)
        seg_min = np.minimum.reduceat(h, starts)
        # segments are sorted by neighbor index, so the first position at the
        # minimum realizes the smallest-neighbor tie-break
        cand = np.where(h == np.repeat(seg_min, seg_counts), pos, n_inc)
        first = np.minimum.reduceat(cand, starts)
        picked_edges[:, i] = eidx[first]
        picked_nbrs[:, i] = nbrs[first]

    selections = np.column_stack(
        [
            np.repeat(nodes, k),
            np.tile(np.arange(k), len(nodes)),
            picked_nbrs.reshape(-1),
        ]
    )
    kept = np.zeros(g.num_edges, dtype=bool)
    kept[picked_edges.ravel()] = True
    return _result(g, np.flatnonzero(kept), selections, t0)


def random_prune(g: Graph, cfg: RandomPruneConfig) -> PruneResult:
    """Keep each edge independently with probability ``cfg.keep_probability``."""
    t0 = perf_counter()
    rng = np.random.default_rng(cfg.seed)
    keep = rng.random(g.num_edges) < cfg.keep_probability
    return _result(g, np.flatnonzero(keep), np.empty((0, 3), np.int64), t0)


def prune_dataset(
    graphs,
    *,
    family: LshFamily | None = None,
    random_cfg: RandomPruneConfig | None = None,
    attr_mode: str | None = None,
    endpoint_order: str = CANONICAL,
    zscore: bool = False,
) -> list[PruneResult]:
    """Prune every graph in a dataset with one shared configuration.

    Exactly one of ``family`` / ``random_cfg`` selects the method.  The same
    hash family (same seeds) is applied to each graph, which is what makes
    selections consistent across samples; the random baseline reseeds from
    ``random_cfg.seed`` per graph so identical graphs yield identical
    results.  The first per-graph failure raises a :class:`GraphError`.
    """
    if (family is None) == (random_cfg is None):
        raise ValueError("pass exactly one of family= or random_cfg=")

    results: list[PruneResult] = []
    for idx, g in enumerate(graphs):
        try:
            if family is not None:
                mode = attr_mode if attr_mode is not None else resolve_attr_mode(g)
                attrs = build_edge_attrs(g, mode, endpoint_order, zscore=zscore)
                results.append(lsp_prune(g, attrs, family))
            else:
                results.append(random_prune(g, random_cfg))
        except Exception as exc:
            raise GraphError(idx, exc) from exc
    return results


def resolve_attr_mode(g: Graph) -> str:
    """Pick the construction mode covering every attribute the graph carries."""
    has_nodes = g.node_attrs is not None
    has_edges = g.edge_attrs is not None
    if has_nodes and has_edges:
        return "node_and_edge"
    if has_nodes:
        return "node_only"
    if has_edges:
        return "raw_edge"
    raise ValueError("graph carries no attributes; cannot construct hash inputs")
