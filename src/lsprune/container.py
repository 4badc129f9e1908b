"""Line-oriented text formats: graph containers, family sidecars, configs.

The graph container is UTF-8 text holding one or more graph blocks::

    lspg 1
    G <graph_id> [label=<int>]
    N <num_nodes> <node_dim>
    M <num_edges> <edge_dim>
    node <id> <f1> ... <f_node_dim>      (num_nodes lines)
    edge <u> <v> <f1> ... <f_edge_dim>   (num_edges lines)
    nodelabel <id> <int>                 (optional; all nodes or none)
    loop <id>                            (optional)

A dimension of 0 means the attribute columns are absent.  Floats are written
with ``repr``, which round-trips 64-bit values exactly; ``#`` begins a
comment line.  Node ids are normally the dense range ``0 .. num_nodes - 1``;
files with other distinct ids are accepted and remapped by order of
appearance, with the mapping reported so it can be emitted alongside output.

Hash-family parameters use the same line-oriented style under an ``lsph 1``
magic so a pruning run can be replayed bit-exactly from its sidecar.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph
from .hashing import LSP_P, LSP_T, LshFamily, LshFamilyConfig

GRAPH_MAGIC = "lspg 1"
FAMILY_MAGIC = "lsph 1"


class ContainerFormatError(ValueError):
    """Malformed container file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _fmt(value: float) -> str:
    return repr(float(value))


_ROW_CHUNK = 1024  # rows turned into Python objects at once; bounds the writer's extra memory


def _rows(arr: np.ndarray):
    """Rows of ``arr`` as Python lists (or scalars), converted a chunk at a time."""
    for start in range(0, len(arr), _ROW_CHUNK):
        yield from arr[start : start + _ROW_CHUNK].tolist()


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


@dataclass(frozen=True)
class ParsedContainer:
    graphs: list[Graph]
    graph_ids: list[str]
    id_maps: list[dict[int, int] | None]  # original id -> dense index; None when already dense


def parse_container_detailed(path) -> ParsedContainer:
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


def parse_container(path) -> list[Graph]:
    """Parse every graph block of a container file."""
    return parse_container_detailed(path).graphs


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


def format_container(graphs, graph_ids=None) -> str:
    """Serialize graphs into container text (deterministic, round-trips)."""
    graphs = list(graphs)
    if graph_ids is None:
        graph_ids = [str(i) for i in range(len(graphs))]
    out: list[str] = [GRAPH_MAGIC]
    for gid, g in zip(graph_ids, graphs):
        header = f"G {gid}"
        if g.graph_label is not None:
            header += f" label={int(g.graph_label)}"
        out.append(header)
        out.append(f"N {g.num_nodes} {g.node_dim()}")
        out.append(f"M {g.num_edges} {g.edge_dim()}")
        # Python floats and ints, not numpy scalars; repr of a float round-trips it
        if g.node_attrs is None:
            out.extend(f"node {nid}" for nid in range(g.num_nodes))
        else:
            for nid, row in enumerate(_rows(g.node_attrs)):
                out.append(f"node {nid} {' '.join(map(repr, row))}")
        if g.edge_attrs is None:
            out.extend(f"edge {u} {v}" for u, v in _rows(g.edges))
        else:
            for (u, v), row in zip(_rows(g.edges), _rows(g.edge_attrs)):
                out.append(f"edge {u} {v} {' '.join(map(repr, row))}")
        if g.node_labels is not None:
            out.extend(f"nodelabel {nid} {y}" for nid, y in enumerate(_rows(g.node_labels)))
        for nid in sorted(g.self_loops):
            out.append(f"loop {nid}")
    out.append("")
    return "\n".join(out)


def write_container(graphs, path, graph_ids=None) -> None:
    Path(path).write_text(format_container(graphs, graph_ids), encoding="utf-8")


def format_family(family: LshFamily) -> str:
    """Serialize family parameters so a run can be replayed bit-exactly."""
    cfg = family.config
    out = [
        FAMILY_MAGIC,
        f"family {cfg.variant} {cfg.k} {cfg.d} {cfg.m} {_fmt(cfg.l)} {cfg.master_seed}",
    ]
    vectors = family.thresholds if cfg.variant == LSP_T else family.directions
    for i in range(cfg.k):
        vals = " ".join(_fmt(x) for x in vectors[i])
        out.append(f"w {i} {vals}")
    if cfg.variant == LSP_P:
        for i in range(cfg.k):
            out.append(f"b {i} {_fmt(family.offsets[i])}")
    out.append("")
    return "\n".join(out)


def write_family(family: LshFamily, path) -> None:
    Path(path).write_text(format_family(family), encoding="utf-8")


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


def parse_family(path) -> LshFamily:
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

    if variant == LSP_T:
        return LshFamily(config=cfg, thresholds=vectors)

    offsets = np.zeros(k)
    for i in range(k):
        line, tokens = _function_line(cursor, "b", i, k, line)
        offsets[i] = _want_floats(tokens[2:], 1, "offset", line)[0]
    return LshFamily(config=cfg, directions=vectors, offsets=offsets)


def parse_pairs(path) -> list[tuple[int, int]]:
    """Read a node-pair file: one ``<u> <v>`` line per pair; ``#`` lines are comments."""
    cursor = _Lines(Path(path).read_text(encoding="utf-8"))
    pairs = []
    while (item := cursor.next()) is not None:
        line, tokens = item
        if len(tokens) != 2:
            raise ContainerFormatError("pair line must be '<u> <v>'", line)
        u, v = (_want_int(t, "pair node", line) for t in tokens)
        pairs.append((u, v))
    return pairs


def parse_config_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` config file; ``#`` lines are comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ContainerFormatError("config line is not 'key = value'", lineno)
        key, _, value = stripped.partition("=")
        out[key.strip()] = value.strip()
    return out


def format_config(pairs) -> str:
    """Render key/value pairs as a config file (the resolved-config echo)."""
    items = pairs.items() if isinstance(pairs, dict) else pairs
    return "\n".join(f"{k} = {v}" for k, v in items) + "\n"


def format_tsv(header, rows) -> str:
    """Tab-separated table with a header row."""
    lines = ["\t".join(str(h) for h in header)]
    for row in rows:
        lines.append("\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def variance_curve_rows(curve) -> list[list]:
    """Long-format rows (kept_fraction, depth, variance) for a variance curve."""
    rows = []
    for fi, fraction in enumerate(curve.fractions):
        for di, depth in enumerate(curve.depths):
            rows.append([_fmt(fraction), depth, _fmt(curve.variances[fi, di])])
    return rows
