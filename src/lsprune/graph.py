"""In-memory undirected attributed graph and adjacency queries.

A :class:`Graph` is immutable after construction: edges are canonicalized to
``u < v`` pairs, duplicates are rejected loudly, and attribute matrices are
frozen read-only.  Self-loops live in a separate set and never take part in
edge pruning or degree counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphStructureError(ValueError):
    """Raised when node/edge data violates the structural invariants."""


# the largest n with n * n <= 2**63: every edge key u * n + v (< n * n) then fits
# int64, which the duplicate check, the adjacency sort and the Jaccard lookups rely on
MAX_NODES = 3_037_000_499


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected graph with dense node indices ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Node count; indices are dense.
    edges:
        Sequence of node-index pairs.  Pairs are canonicalized so the smaller
        index comes first; the row order itself is preserved because attribute
        rows align with it.  Duplicate edges (after canonicalization) and
        pairs of the form ``(u, u)`` are rejected.
    node_attrs:
        Optional ``num_nodes x q`` float matrix.
    edge_attrs:
        Optional ``len(edges) x d_e`` float matrix of raw edge features.
    node_labels:
        Optional per-node integer targets.
    graph_label:
        Optional integer target for whole-graph classification.
    self_loops:
        Node indices carrying a loop.  Kept apart from ``edges`` and passed
        through pruning untouched.
    """

    num_nodes: int
    edges: np.ndarray
    node_attrs: np.ndarray | None = None
    edge_attrs: np.ndarray | None = None
    node_labels: np.ndarray | None = None
    graph_label: int | None = None
    self_loops: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.num_nodes < 0:
            raise GraphStructureError(f"num_nodes must be >= 0, got {self.num_nodes}")
        if self.num_nodes > MAX_NODES:
            raise GraphStructureError(
                f"num_nodes {self.num_nodes} exceeds {MAX_NODES}, "
                "the largest whose edge keys u * num_nodes + v fit int64"
            )

        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2).copy()
        if len(edges):
            if edges.min() < 0 or edges.max() >= self.num_nodes:
                bad = edges[(edges.min(axis=1) < 0) | (edges.max(axis=1) >= self.num_nodes)][0]
                raise GraphStructureError(
                    f"edge ({bad[0]}, {bad[1]}) out of range for {self.num_nodes} nodes"
                )
            loops = edges[:, 0] == edges[:, 1]
            if loops.any():
                u = int(edges[loops][0, 0])
                raise GraphStructureError(
                    f"edge ({u}, {u}) is a self-loop; pass it via self_loops instead"
                )
            edges.sort(axis=1)  # canonical u < v
            keys = edges[:, 0] * self.num_nodes + edges[:, 1]
            uniq, counts = np.unique(keys, return_counts=True)
            if (counts > 1).any():
                dup = int(uniq[counts > 1][0])
                u, v = divmod(dup, self.num_nodes)
                raise GraphStructureError(f"duplicate edge ({u}, {v})")
        object.__setattr__(self, "edges", _freeze(edges))

        node_attrs = self.node_attrs
        if node_attrs is not None:
            node_attrs = np.asarray(node_attrs, dtype=np.float64).copy()
            if node_attrs.ndim != 2 or node_attrs.shape[0] != self.num_nodes:
                raise GraphStructureError(
                    f"node_attrs shape {node_attrs.shape} does not match {self.num_nodes} nodes"
                )
            object.__setattr__(self, "node_attrs", _freeze(node_attrs))

        edge_attrs = self.edge_attrs
        if edge_attrs is not None:
            edge_attrs = np.asarray(edge_attrs, dtype=np.float64).copy()
            if edge_attrs.ndim != 2 or edge_attrs.shape[0] != len(edges):
                raise GraphStructureError(
                    f"edge_attrs shape {edge_attrs.shape} does not match {len(edges)} edges"
                )
            object.__setattr__(self, "edge_attrs", _freeze(edge_attrs))

        node_labels = self.node_labels
        if node_labels is not None:
            node_labels = np.asarray(node_labels, dtype=np.int64).copy()
            if node_labels.shape != (self.num_nodes,):
                raise GraphStructureError(
                    f"node_labels shape {node_labels.shape} does not match {self.num_nodes} nodes"
                )
            object.__setattr__(self, "node_labels", _freeze(node_labels))

        loops = frozenset(int(u) for u in self.self_loops)
        for u in loops:
            if not 0 <= u < self.num_nodes:
                raise GraphStructureError(f"self-loop node {u} out of range")
        object.__setattr__(self, "self_loops", loops)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def node_dim(self) -> int:
        return 0 if self.node_attrs is None else self.node_attrs.shape[1]

    def edge_dim(self) -> int:
        return 0 if self.edge_attrs is None else self.edge_attrs.shape[1]


@dataclass(frozen=True)
class AdjacencyView:
    """CSR-style adjacency over a graph's canonical edge list.

    ``neighbors[indptr[u]:indptr[u+1]]`` are the neighbors of ``u`` in
    ascending order, and ``edge_index`` holds the position of each incident
    edge in the graph's edge list.  Immutable; safe for concurrent reads.
    """

    num_nodes: int
    indptr: np.ndarray
    neighbors: np.ndarray
    edge_index: np.ndarray

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def build_adjacency(g: Graph) -> AdjacencyView:
    """Build the symmetric adjacency view of ``g``.

    Neighbor lists are sorted ascending, so downstream selection is
    independent of the edge-list order.
    """
    edges = g.edges
    n_edges = len(edges)
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    nbrs = np.concatenate([edges[:, 1], edges[:, 0]])

    # the keys are distinct (no duplicate edges, no loops) and fit int64 (MAX_NODES),
    # so one argsort of any kind gives the (end, neighbor) order
    order = np.argsort(ends * g.num_nodes + nbrs)
    counts = np.bincount(ends, minlength=g.num_nodes)
    indptr = np.zeros(g.num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    neighbors = nbrs[order]
    order[order >= n_edges] -= n_edges  # position in ends/nbrs -> row of g.edges
    return AdjacencyView(
        num_nodes=g.num_nodes,
        indptr=_freeze(indptr),
        neighbors=_freeze(neighbors),
        edge_index=_freeze(order),
    )
