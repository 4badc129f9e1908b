"""Construction of the per-edge attribute vectors fed to the hash functions.

Three regimes are supported, depending on which raw attributes the graph
carries:

* ``node_only``      -- vector of edge (u, v) is ``[x_u | x_v]``
* ``node_and_edge``  -- ``[x_u | e_uv | x_v]``
* ``raw_edge``       -- ``e_uv`` unchanged

Under the default ``canonical`` endpoint order the endpoint with the smaller
index is always placed first, so an undirected edge has a single well-defined
attribute vector.  ``center_first`` instead puts the querying endpoint's own
attribute first, which makes each edge carry two vectors (one per endpoint);
it exists for directed inputs and experimentation.

The vectors are kept as their blocks (the node matrix gathered by endpoint,
the edge matrix), not as an ``(|E|, d)`` row matrix: both hash variants hash
the blocks as they are.

Scalar (categorical) node or edge attributes are lifted to vectors through a
seeded random embedding table whose column ``r`` embeds the value ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Graph

NODE_ONLY = "node_only"
NODE_AND_EDGE = "node_and_edge"
RAW_EDGE = "raw_edge"
CONSTRUCTION_MODES = (NODE_ONLY, NODE_AND_EDGE, RAW_EDGE)

CANONICAL = "canonical"
CENTER_FIRST = "center_first"
ENDPOINT_ORDERS = (CANONICAL, CENTER_FIRST)


@dataclass(frozen=True)
class EdgeAttrTable:
    """Edge-attribute vectors of a graph, one per edge, kept as blocks.

    ``node_attrs`` (``None`` under ``raw_edge``) and ``edge_attrs`` (``None``
    under ``node_only``) are the graph's matrices after any z-scoring, and
    ``edges`` its endpoints, smaller first.  :meth:`blocks` lists the vector
    of every edge as ``(matrix, index)`` pairs.  ``swapped`` marks the view
    of each edge's larger endpoint, whose endpoint blocks are exchanged (see
    :meth:`oriented`).
    """

    mode: str
    endpoint_order: str
    node_attrs: np.ndarray | None
    edge_attrs: np.ndarray | None
    edges: np.ndarray
    swapped: bool = False

    def __post_init__(self) -> None:
        if self.endpoint_order not in ENDPOINT_ORDERS:
            raise ValueError(f"unknown endpoint order {self.endpoint_order!r}")

    @property
    def node_dim(self) -> int:
        """Width of each endpoint block (0 for ``raw_edge``)."""
        return 0 if self.node_attrs is None else self.node_attrs.shape[1]

    @property
    def dim(self) -> int:
        return 2 * self.node_dim + (0 if self.edge_attrs is None else self.edge_attrs.shape[1])

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __len__(self) -> int:
        return self.num_edges

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """The blocks of every edge's vector, in order, as ``(matrix, index)``.

        Row ``i`` of a block is ``matrix[index[i]]``, or ``matrix[i]`` when
        ``index`` is ``None``: the first endpoint's node block, the edge
        block, then the second endpoint's node block.
        """
        first, second = self.edges[:, 0], self.edges[:, 1]
        if self.swapped:
            first, second = second, first
        middle = [] if self.edge_attrs is None else [(self.edge_attrs, None)]
        if self.node_attrs is None:
            return middle
        return [(self.node_attrs, first)] + middle + [(self.node_attrs, second)]

    def oriented(self) -> tuple["EdgeAttrTable", "EdgeAttrTable"]:
        """The table as seen from each endpoint of an edge.

        Returns ``(from_smaller, from_larger)``: the vectors hashed when the
        smaller / larger endpoint of the edge is the querying node.  The
        larger endpoint sees the two endpoint blocks exchanged; under
        ``canonical`` order, or without endpoint blocks, both are this table.
        """
        if self.endpoint_order == CANONICAL or self.node_attrs is None:
            return self, self
        return self, replace(self, swapped=not self.swapped)


def _zscore_columns(mat: np.ndarray) -> np.ndarray:
    if not np.isfinite(mat).all():  # a column's mean and std would be nan or inf
        raise ValueError("attribute vectors contain non-finite entries")
    if not len(mat):  # no rows: no mean or std to take
        return mat
    # a power of two per column brings its largest magnitude into [0.5, 1), so the mean and
    # std neither overflow nor lose bits to underflow; the z-scores do not change under it
    mat = np.ldexp(mat, -np.frexp(np.abs(mat).max(axis=0))[1])
    mean = mat.mean(axis=0)
    std = mat.std(axis=0)
    std[std == 0.0] = 1.0  # constant dimensions are centered, not scaled
    return (mat - mean) / std


def build_edge_attrs(
    g: Graph,
    mode: str,
    endpoint_order: str = CANONICAL,
    zscore: bool = False,
) -> EdgeAttrTable:
    """The hash-input attribute vector of every edge of ``g``, as blocks.

    Args:
        g: Source graph.  ``node_attrs`` must be present unless
            ``mode == "raw_edge"``; ``edge_attrs`` must be present for
            ``node_and_edge`` and ``raw_edge``.
        mode: One of ``node_only``, ``node_and_edge``, ``raw_edge``.
        endpoint_order: ``canonical`` (endpoint-symmetric, default) or
            ``center_first``.
        zscore: Standardize each input attribute dimension across the graph.
            Off by default; the projection bin width is the usual scale knob.

    Returns:
        EdgeAttrTable with one vector per edge, in edge-list order.
    """
    if mode not in CONSTRUCTION_MODES:
        raise ValueError(f"unknown construction mode {mode!r}")

    edge_attr_dim(g, mode)  # rejects a mode whose attributes the graph lacks
    needs_nodes = mode in (NODE_ONLY, NODE_AND_EDGE)
    needs_edges = mode in (NODE_AND_EDGE, RAW_EDGE)

    node_attrs = g.node_attrs
    edge_attrs = g.edge_attrs
    if zscore:
        if needs_nodes:
            node_attrs = _zscore_columns(node_attrs)
        if needs_edges:
            edge_attrs = _zscore_columns(edge_attrs)

    return EdgeAttrTable(
        mode=mode,
        endpoint_order=endpoint_order,
        node_attrs=node_attrs if needs_nodes else None,
        edge_attrs=edge_attrs if needs_edges else None,
        edges=g.edges,
    )


def edge_attr_dim(g: Graph, mode: str) -> int:
    """Width of the vectors :func:`build_edge_attrs` builds for ``g`` under ``mode``.

    Raises ValueError when ``g`` lacks an attribute that ``mode`` needs.
    """
    if mode != RAW_EDGE and g.node_attrs is None:
        raise ValueError(f"mode {mode!r} requires node attributes")
    if mode != NODE_ONLY and g.edge_attrs is None:
        raise ValueError(f"mode {mode!r} requires edge attributes")
    q, d_e = g.node_dim(), g.edge_dim()
    return {NODE_ONLY: 2 * q, NODE_AND_EDGE: 2 * q + d_e, RAW_EDGE: d_e}[mode]


def embed_scalar_attrs(values, m: int, seed: int) -> np.ndarray:
    """Map scalar attribute codes to rows of a seeded ``m x m`` embedding table.

    The table's entries are i.i.d. standard normal, filled column-major, so
    column ``r`` consists of draws ``m*r .. m*r + m - 1`` of the stream of
    ``np.random.default_rng(seed)``.  Row ``i`` of the result is column
    ``values[i]``, so equal codes map to equal vectors.

    Args:
        values: Integer codes, each in ``[0, m)``.
        m: Number of distinct codes (table size).
        seed: Table seed.
    """
    if m < 1:
        raise ValueError(f"embedding table size must be >= 1, got {m}")
    vals = np.asarray(values, dtype=np.int64)
    if vals.size and (vals.min() < 0 or vals.max() >= m):
        bad = vals[(vals < 0) | (vals >= m)][0]
        raise ValueError(f"scalar attribute {bad} outside [0, {m})")
    # the stream in rows of m is the table transposed: its row r is column r of the table
    columns = np.random.default_rng(seed).standard_normal(m * m).reshape(m, m)
    return columns[vals]
