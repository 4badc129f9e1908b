"""Construction of the per-edge attribute vectors fed to the hash functions.

Three regimes are supported, depending on which raw attributes the graph
carries:

* ``node_only``      -- row for edge (u, v) is ``[x_u | x_v]``
* ``node_and_edge``  -- ``[x_u | e_uv | x_v]``
* ``raw_edge``       -- ``e_uv`` unchanged

Under the default ``canonical`` endpoint order the endpoint with the smaller
index is always placed first, so an undirected edge has a single well-defined
attribute vector.  ``center_first`` instead puts the querying endpoint's own
attribute first, which makes each edge carry two vectors (one per endpoint);
it exists for directed inputs and experimentation.

Scalar (categorical) node or edge attributes are lifted to vectors through a
seeded random embedding table whose column ``r`` embeds the value ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Constructed edge-attribute matrix, one row per edge.

    ``rows[i]`` is the attribute of edge ``i`` oriented with the smaller
    endpoint's block first.  ``node_dim`` is the width of each endpoint
    block (0 for ``raw_edge``), so the reversed orientation can be derived
    for ``center_first`` queries.
    """

    rows: np.ndarray
    endpoint_order: str
    node_dim: int

    def __post_init__(self) -> None:
        if self.endpoint_order not in ENDPOINT_ORDERS:
            raise ValueError(f"unknown endpoint order {self.endpoint_order!r}")
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @property
    def num_edges(self) -> int:
        return self.rows.shape[0]

    def oriented_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Attribute rows as seen from each endpoint.

        Returns ``(from_smaller, from_larger)``: the vector hashed when the
        smaller / larger endpoint of the edge is the querying node.  The
        larger endpoint sees the two endpoint blocks exchanged; under
        ``canonical`` order, or without endpoint blocks, both views are the
        same array.
        """
        q = self.node_dim
        if self.endpoint_order == CANONICAL or q == 0:
            return self.rows, self.rows
        return self.rows, np.concatenate(
            [self.rows[:, -q:], self.rows[:, q:-q], self.rows[:, :q]], axis=1
        )


def _zscore_columns(mat: np.ndarray) -> np.ndarray:
    if not np.isfinite(mat).all():  # a column's mean and std would be nan or inf
        raise ValueError("attribute vectors contain non-finite entries")
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
    """Assemble the hash-input attribute row for every edge of ``g``.

    Args:
        g: Source graph.  ``node_attrs`` must be present unless
            ``mode == "raw_edge"``; ``edge_attrs`` must be present for
            ``node_and_edge`` and ``raw_edge``.
        mode: One of ``node_only``, ``node_and_edge``, ``raw_edge``.
        endpoint_order: ``canonical`` (endpoint-symmetric, default) or
            ``center_first``.
        zscore: Standardize each input attribute dimension across the graph
            before assembling rows.  Off by default; the projection bin width
            is the usual scale knob.

    Returns:
        EdgeAttrTable with one row per edge, in edge-list order.
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

    u = g.edges[:, 0]
    v = g.edges[:, 1]
    if mode == NODE_ONLY:
        rows = np.concatenate([node_attrs[u], node_attrs[v]], axis=1)
    elif mode == NODE_AND_EDGE:
        rows = np.concatenate([node_attrs[u], edge_attrs, node_attrs[v]], axis=1)
    else:
        rows = np.array(edge_attrs, dtype=np.float64)
    q = 0 if mode == RAW_EDGE else node_attrs.shape[1]
    return EdgeAttrTable(rows=rows, endpoint_order=endpoint_order, node_dim=q)


def edge_attr_dim(g: Graph, mode: str) -> int:
    """Width of the rows :func:`build_edge_attrs` assembles for ``g`` under ``mode``.

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
