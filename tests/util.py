"""Shared test helpers: random graph construction and independent oracles.

The oracles here are deliberately naive re-implementations (triple loops,
Floyd-Warshall, line-by-line readers) kept separate from the library's
vectorized paths; tests compare the two.
"""

from __future__ import annotations

import hashlib
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from lsprune import Graph, embed_scalar_attrs, parse_container_detailed
from lsprune.container import (
    FAMILY_MAGIC,
    GRAPH_MAGIC,
    ContainerFormatError,
    ParsedContainer,
    _container_pieces,
    _one_thread,
    format_config,
)
from lsprune.graph import AdjacencyView
from lsprune.hashing import LSP_P, LshFamily, LshFamilyConfig


def read_graphs(path) -> list[Graph]:
    """Every graph of a container file, in block order."""
    return parse_container_detailed(path).graphs


def format_container(graphs, graph_ids=None) -> str:
    """The container text ``write_container`` writes for ``graphs``."""
    return "".join(_container_pieces(graphs, graph_ids))


def forked_workers(cpus: int, batch: int, graphs: int) -> int:
    """How many workers ``write_container`` forks for a list of ``graphs`` graphs; 0 if serial."""
    workers = min(cpus, -(-graphs // batch))
    if workers < 2 or (sys.version_info >= (3, 12) and not _one_thread()):
        return 0
    return workers


def config_text(values: dict) -> str:
    """The config file that sets each key of ``values`` to its value."""
    return format_config(values.items())


def kept_edges(result) -> set[tuple[int, int]]:
    """The kept edges of a ``PruneResult`` as a set of canonical ``(u, v)`` pairs."""
    return set(map(tuple, result.graph.edges.tolist()))


def embedding_table(m: int, seed: int) -> np.ndarray:
    """The ``m x m`` table ``embed_scalar_attrs`` draws from: column ``r`` embeds code ``r``."""
    return embed_scalar_attrs(np.arange(m), m, seed).T


def collision_rate(cfg: LshFamilyConfig, pairs, trials: int) -> np.ndarray:
    """Empirical collision rate of each ``(x, y)`` pair over ``trials`` fresh functions.

    The functions are those of a family of ``k = trials`` from ``cfg``'s
    master seed; the rate of a pair is the fraction of them under which both
    vectors land in the same bucket.
    """
    probe = LshFamily.from_config(replace(cfg, k=trials))
    hx = probe.bucket_matrix(np.array([x for x, _ in pairs], dtype=np.float64))
    hy = probe.bucket_matrix(np.array([y for _, y in pairs], dtype=np.float64))
    return (hx == hy).mean(axis=0)


def selection_lists(result) -> dict[int, list[tuple[int, int]]]:
    """Per-node list of ``(function, selected neighbor)`` pairs of a ``PruneResult``."""
    out: dict[int, list[tuple[int, int]]] = {}
    for node, func, nbr in result.selections.tolist():
        out.setdefault(node, []).append((func, nbr))
    return out


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


def assembled_rows(table) -> np.ndarray:
    """The ``(|E|, dim)`` row matrix of an ``EdgeAttrTable``: its blocks side by side."""
    return np.concatenate([mat if idx is None else mat[idx] for mat, idx in table.blocks()], axis=1)


def edge_vector_blocks(table, e: int) -> list[list[float]]:
    """The blocks of edge ``e``'s vector, built from the table's fields, not its ``blocks()``.

    Edge ``(a, b)`` gives ``[x_a], [e_ab], [x_b]`` (the blocks a mode lacks left
    out), with ``a`` and ``b`` exchanged in a swapped view.
    """
    a, b = table.edges[e].tolist()
    if table.swapped:
        a, b = b, a
    middle = [] if table.edge_attrs is None else [table.edge_attrs[e].tolist()]
    if table.node_attrs is None:
        return middle
    return [table.node_attrs[a].tolist()] + middle + [table.node_attrs[b].tolist()]


def projection(blocks, w) -> float:
    """``<x, w>`` of one vector given as blocks, summed one float at a time in the documented order.

    Each block's products are added column by column, then the block sums
    left to right.
    """
    w = list(map(float, w))
    total, lo = 0.0, 0
    for block in blocks:
        part = 0.0
        for x in block:
            part += x * w[lo]
            lo += 1
        total += part
    return total


def projection_bucket(blocks, w, b: float, l: float) -> int:
    """lsp-p bucket of one vector given as blocks: ``floor((projection + b) / l)``."""
    return math.floor((projection(blocks, w) + float(b)) / l)


def projection_buckets(table, family) -> np.ndarray:
    """``(k, |E|)`` lsp-p buckets of a table's vectors by :func:`projection_bucket`."""
    vectors = [edge_vector_blocks(table, e) for e in range(len(table))]
    return np.array(
        [[projection_bucket(v, w, b, family.config.l) for v in vectors]
         for w, b in zip(family.vectors, family.offsets)],
        dtype=np.int64,
    ).reshape(family.config.k, len(table))


def brute_force_minhash(g: Graph, table, family) -> tuple[set, dict]:
    """Enumerate every (node, function, neighbor) triple naively.

    Returns the kept edge set (canonical pairs) and the per-node selection
    lists.  Buckets come from one ``bucket_matrix`` call per view of the
    ``EdgeAttrTable`` (see ``oriented()``): a node hashes its edge to a smaller
    neighbor under the larger endpoint's view.  The argmin is a plain loop.
    """
    buckets = [family.bucket_matrix(view) for view in table.oriented()]
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
                bucket = buckets[u > v][i, e]
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


def neighbors_of(adj: AdjacencyView, u: int) -> np.ndarray:
    """The ascending neighbors of ``u`` in a CSR adjacency view."""
    return adj.neighbors[adj.indptr[u] : adj.indptr[u + 1]]


def incident_edges_of(adj: AdjacencyView, u: int) -> np.ndarray:
    """Edge-list positions of the edges at ``u``, aligned with :func:`neighbors_of`."""
    return adj.edge_index[adj.indptr[u] : adj.indptr[u + 1]]


def lexsort_adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, neighbors, edge_index)`` from a two-key ``np.lexsort``.

    The order of the library's single-key sort must equal this one: by end
    node, then by neighbor.
    """
    edges = g.edges
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    nbrs = np.concatenate([edges[:, 1], edges[:, 0]])
    eidx = np.concatenate([np.arange(len(edges)), np.arange(len(edges))])
    order = np.lexsort((nbrs, ends))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=g.num_nodes))])
    return indptr, nbrs[order], eidx[order]


def bucket_rows(family: LshFamily, i: int, rows) -> np.ndarray:
    """Buckets of a batch of row vectors under function ``i`` of ``family``."""
    return family.bucket_matrix(rows)[i]


def md5_bucket(bits, m: int) -> int:
    """lsp-t bucket of one boolean signature, hashed with ``hashlib`` on its own."""
    digest = hashlib.md5(np.packbits(bits).tobytes()).digest()
    return int.from_bytes(digest[:8], "big") % m


def row_signature_buckets(bits: np.ndarray, m: int) -> np.ndarray:
    """lsp-t buckets of boolean signatures, one per row, packed from assembled rows.

    The row-based hashing that lsprune used before it coded each block of an
    edge's vector on its own: rows packed with one flat ``packbits``, distinct
    packed rows deduplicated, MD5 of each, first 8 bytes big-endian, mod ``m``.
    """
    n, d = bits.shape
    width = -(-d // 8)
    padded = np.zeros((n, 8 * width), dtype=bool)
    padded[:, :d] = bits
    packed = np.packbits(padded.reshape(-1)).reshape(n, width)
    uniq, inverse = np.unique(packed.view((np.void, width)).ravel(), return_inverse=True)
    heads = [int.from_bytes(hashlib.md5(s.tobytes()).digest()[:8], "big") for s in uniq]
    return (np.array(heads, dtype=np.uint64) % np.uint64(m)).astype(np.int64)[inverse]


# ---------------------------------------------------------------- reference readers
# Line-by-line container, family and pair readers: each holds the whole text
# and its line list, and checks one line at a time.  The streaming readers of
# lsprune.container must accept, reject and report exactly as these do.


class _Lines:
    """Line cursor that skips comments and blanks and tracks line numbers."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self._pos = 0

    def next(self) -> tuple[int, list[str]] | None:
        while self._pos < len(self._lines):
            self._pos += 1
            raw = self._lines[self._pos - 1]
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            return self._pos, stripped.split()
        return None

    def peek(self) -> tuple[int, list[str]] | None:
        pos = self._pos
        out = self.next()
        self._pos = pos
        return out

    def expect_magic(self, magic: str) -> None:
        """Consume line 1, which must read ``magic``."""
        first = self._lines[0].strip() if self._lines else ""
        if first != magic:
            raise ContainerFormatError(f"magic mismatch: expected {magic!r}, got {first!r}", 1)
        self._pos = 1


def _want_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ContainerFormatError(f"{what} must be an integer, got {token!r}", line) from None


def _want_floats(tokens: list[str], want: int, what: str, line: int) -> list[float]:
    if len(tokens) != want:
        raise ContainerFormatError(
            f"count mismatch: expected {want} {what} values, got {len(tokens)}", line
        )
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ContainerFormatError(f"bad {what} value on this line", line) from None



def reference_parse_container(path) -> ParsedContainer:
    """Parse a container keeping graph ids and any node-id remappings."""
    cursor = _Lines(Path(path).read_text(encoding="utf-8"))
    cursor.expect_magic(GRAPH_MAGIC)

    graphs: list[Graph] = []
    graph_ids: list[str] = []
    id_maps: list[dict[int, int] | None] = []
    while True:
        item = cursor.next()
        if item is None:
            break
        line, tokens = item
        if tokens[0] != "G":
            raise ContainerFormatError(f"expected a 'G' block header, got {tokens[0]!r}", line)
        graph, gid, id_map = _parse_block(cursor, tokens, line)
        graphs.append(graph)
        graph_ids.append(gid)
        id_maps.append(id_map)
    if not graphs:
        raise ContainerFormatError("container holds no graph blocks")
    return ParsedContainer(graphs=graphs, graph_ids=graph_ids, id_maps=id_maps)


def _parse_block(cursor: _Lines, header: list[str], header_line: int):
    if len(header) not in (2, 3):
        raise ContainerFormatError("G line must be 'G <graph_id> [label=<int>]'", header_line)
    gid = header[1]
    graph_label = None
    if len(header) == 3:
        if not header[2].startswith("label="):
            raise ContainerFormatError(f"unexpected token {header[2]!r} on G line", header_line)
        graph_label = _want_int(header[2][len("label=") :], "graph label", header_line)

    item = cursor.next()
    if item is None or item[1][0] != "N" or len(item[1]) != 3:
        raise ContainerFormatError(
            "expected 'N <num_nodes> <node_dim>' after the G line",
            item[0] if item else header_line,
        )
    line, tokens = item
    num_nodes = _want_int(tokens[1], "num_nodes", line)
    node_dim = _want_int(tokens[2], "node_dim", line)
    if num_nodes < 0 or node_dim < 0:
        raise ContainerFormatError("counts must be non-negative", line)

    item = cursor.next()
    if item is None or item[1][0] != "M" or len(item[1]) != 3:
        raise ContainerFormatError(
            "expected 'M <num_edges> <edge_dim>' after the N line",
            item[0] if item else line,
        )
    line, tokens = item
    num_edges = _want_int(tokens[1], "num_edges", line)
    edge_dim = _want_int(tokens[2], "edge_dim", line)
    if num_edges < 0 or edge_dim < 0:
        raise ContainerFormatError("counts must be non-negative", line)

    # node lines; arbitrary distinct ids are remapped by order of appearance
    order: list[int] = []
    seen_ids: set[int] = set()
    node_rows: list[list[float]] = []
    for _ in range(num_nodes):
        item = cursor.next()
        if item is None or item[1][0] != "node":
            raise ContainerFormatError(
                f"count mismatch: expected {num_nodes} node lines",
                item[0] if item else line,
            )
        line, tokens = item
        if len(tokens) < 2:
            raise ContainerFormatError("node line needs an id", line)
        nid = _want_int(tokens[1], "node id", line)
        if nid < 0:
            raise ContainerFormatError(f"node id {nid} is negative", line)
        if nid in seen_ids:
            raise ContainerFormatError(f"duplicate node id {nid}", line)
        seen_ids.add(nid)
        order.append(nid)
        node_rows.append(_want_floats(tokens[2:], node_dim, "node attribute", line))

    dense = sorted(order) == list(range(num_nodes))
    if dense:
        id_map = None
        index = {nid: nid for nid in order}
    else:
        index = {nid: pos for pos, nid in enumerate(order)}
        id_map = dict(index)

    node_attrs = None
    if node_dim > 0:
        node_attrs = np.zeros((num_nodes, node_dim))
        for nid, row in zip(order, node_rows):
            node_attrs[index[nid]] = row

    def resolve(token: str, what: str, line: int) -> int:
        nid = _want_int(token, what, line)
        if nid not in index:
            raise ContainerFormatError(
                f"out-of-range index: {what} {nid} is not a declared node", line
            )
        return index[nid]

    edges = np.zeros((num_edges, 2), dtype=np.int64)
    edge_attrs = np.zeros((num_edges, edge_dim)) if edge_dim > 0 else None
    seen_edges: set[tuple[int, int]] = set()
    warned_direction = False
    for row in range(num_edges):
        item = cursor.next()
        if item is None or item[1][0] != "edge":
            raise ContainerFormatError(
                f"count mismatch: expected {num_edges} edge lines",
                item[0] if item else line,
            )
        line, tokens = item
        if len(tokens) < 3:
            raise ContainerFormatError("edge line needs two endpoints", line)
        u = resolve(tokens[1], "edge endpoint", line)
        v = resolve(tokens[2], "edge endpoint", line)
        if u == v:
            raise ContainerFormatError(
                f"edge ({tokens[1]}, {tokens[2]}) is a self-loop; use a 'loop' line", line
            )
        if int(tokens[1]) > int(tokens[2]) and not warned_direction:
            warnings.warn(
                f"line {line}: directed edge order treated as undirected", stacklevel=3
            )
            warned_direction = True
        if u > v:
            u, v = v, u
        if (u, v) in seen_edges:
            raise ContainerFormatError(f"duplicate edge ({tokens[1]}, {tokens[2]})", line)
        seen_edges.add((u, v))
        edges[row] = (u, v)
        if edge_attrs is not None:
            edge_attrs[row] = _want_floats(tokens[3:], edge_dim, "edge attribute", line)
        elif len(tokens) != 3:
            raise ContainerFormatError(
                f"count mismatch: expected 0 edge attribute values, got {len(tokens) - 3}", line
            )

    labels: dict[int, int] = {}
    while True:
        item = cursor.peek()
        if item is None or item[1][0] != "nodelabel":
            break
        line, tokens = cursor.next()
        if len(tokens) != 3:
            raise ContainerFormatError("nodelabel line must be 'nodelabel <id> <int>'", line)
        nid = resolve(tokens[1], "nodelabel id", line)
        if nid in labels:
            raise ContainerFormatError(f"duplicate nodelabel for node {tokens[1]}", line)
        labels[nid] = _want_int(tokens[2], "node label", line)
        if not -(2**63) <= labels[nid] < 2**63:
            raise ContainerFormatError(f"node label {labels[nid]} does not fit in 64 bits", line)
    if labels and len(labels) != num_nodes:
        raise ContainerFormatError(
            f"count mismatch: {len(labels)} nodelabel lines for {num_nodes} nodes "
            "(label all nodes or none)",
            line,
        )
    node_labels = None
    if labels:
        node_labels = np.array([labels[i] for i in range(num_nodes)], dtype=np.int64)

    loops: set[int] = set()
    while True:
        item = cursor.peek()
        if item is None or item[1][0] != "loop":
            break
        line, tokens = cursor.next()
        if len(tokens) != 2:
            raise ContainerFormatError("loop line must be 'loop <id>'", line)
        nid = resolve(tokens[1], "loop id", line)
        if nid in loops:
            raise ContainerFormatError(f"duplicate loop for node {tokens[1]}", line)
        loops.add(nid)

    graph = Graph(
        num_nodes=num_nodes,
        edges=edges,
        node_attrs=node_attrs,
        edge_attrs=edge_attrs,
        node_labels=node_labels,
        graph_label=graph_label,
        self_loops=frozenset(loops),
    )
    return graph, gid, id_map


def _function_line(cursor: _Lines, tag: str, i: int, k: int, line: int):
    """The next family line, which must read ``<tag> <i> ...``."""
    item = cursor.next()
    if item is None or item[1][0] != tag:
        raise ContainerFormatError(f"count mismatch: expected {k} '{tag}' lines", line)
    line, tokens = item
    if len(tokens) < 2:
        raise ContainerFormatError(f"{tag} line needs a function index", line)
    if _want_int(tokens[1], "function index", line) != i:
        raise ContainerFormatError(f"expected '{tag} {i}', got '{tag} {tokens[1]}'", line)
    return line, tokens


def reference_parse_family(path) -> LshFamily:
    """Load hash-family parameters from a sidecar file."""
    cursor = _Lines(Path(path).read_text(encoding="utf-8"))
    cursor.expect_magic(FAMILY_MAGIC)

    item = cursor.next()
    if item is None or item[1][0] != "family" or len(item[1]) != 7:
        raise ContainerFormatError(
            "expected 'family <variant> <k> <d> <m> <l> <master_seed>'",
            item[0] if item else 1,
        )
    line, tokens = item
    variant = tokens[1]
    k = _want_int(tokens[2], "k", line)
    d = _want_int(tokens[3], "d", line)
    m = _want_int(tokens[4], "m", line)
    try:
        l = float(tokens[5])
    except ValueError:
        raise ContainerFormatError("bad bin width", line) from None
    master_seed = _want_int(tokens[6], "master_seed", line)
    try:
        cfg = LshFamilyConfig(variant=variant, d=d, k=k, m=m, l=l, master_seed=master_seed)
    except ValueError as exc:
        raise ContainerFormatError(str(exc), line) from None

    vectors = np.zeros((k, d))
    for i in range(k):
        line, tokens = _function_line(cursor, "w", i, k, line)
        vectors[i] = _want_floats(tokens[2:], d, "parameter", line)

    if variant != LSP_P:
        return LshFamily(config=cfg, vectors=vectors)

    offsets = np.zeros(k)
    for i in range(k):
        line, tokens = _function_line(cursor, "b", i, k, line)
        offsets[i] = _want_floats(tokens[2:], 1, "offset", line)[0]
    return LshFamily(config=cfg, vectors=vectors, offsets=offsets)


def reference_parse_pairs(path) -> list[tuple[int, int]]:
    """Read a node-pair file: one ``<u> <v>`` line per pair; ``#`` lines are comments."""
    cursor = _Lines(Path(path).read_text(encoding="utf-8"))
    pairs = []
    while (item := cursor.next()) is not None:
        line, tokens = item
        if len(tokens) != 2:
            raise ContainerFormatError("pair line must be '<u> <v>'", line)
        u, v = (_want_int(t, "pair node", line) for t in tokens)
        # pairs are read into an int64 array, so an id beyond int64 is a data error
        if not (-(2**63) <= u < 2**63 and -(2**63) <= v < 2**63):
            raise ContainerFormatError(f"pair ({u}, {v}) out of range", line)
        pairs.append((u, v))
    return pairs
