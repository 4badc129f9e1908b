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

Readers and the writer stream: every reader takes its file in whole-line
pieces of about ``_READ_CHUNK`` bytes, and rows are converted or formatted a
chunk at a time, so memory beyond the parsed graphs stays bounded by one
block.  Lines break and are numbered where ``str.splitlines`` breaks the whole
text, and a byte that is not UTF-8 is an error at its line; integer and float
tokens take the syntax of Python's ``int()`` and ``float()``.
``iter_container`` yields one block at a time and the writer takes any
iterable of graphs, so a pipeline need hold only the graph at hand.  A
sequence of graphs is formatted by forked workers, one per usable CPU and a
batch of graphs at a time, into the bytes one process writes; each worker
sends its text as pieces over a ``multiprocessing`` pipe connection.  Every
output is written atomically.

Hash-family parameters use the same line-oriented style under an ``lsph 1``
magic so a pruning run can be replayed bit-exactly from its sidecar.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .hashing import LSP_P, LshFamily, LshFamilyConfig

GRAPH_MAGIC = "lspg 1"
FAMILY_MAGIC = "lsph 1"


class ContainerFormatError(ValueError):
    """Malformed container file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


_READ_CHUNK = 1 << 18  # bytes read at once, then on to the end of their line
_TOKEN_CHUNK = 4096  # tokens converted to numbers at once; bounds the token lists held
_ROW_CHUNK = 1024  # rows the writer turns into Python objects and text at once
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)
_MAX_DIM = 2**60  # numpy cannot shape a float64 array this wide, even with no rows
_INT64 = range(-(2**63), 2**63)


def _pieces(fh):
    """The lines of the binary file ``fh``, a list per whole-line piece.

    A piece is ``_READ_CHUNK`` bytes read on to a ``\\n``, where ``str.splitlines``
    breaks too, so splitting each piece numbers lines as splitting the whole
    text does.  At a byte that is not UTF-8 the lines before its line come
    last, then ContainerFormatError names its line.
    """
    done = 0  # lines in the pieces before
    while piece := fh.read(_READ_CHUNK) + fh.readline():
        try:
            lines = piece.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            head = (piece[: exc.start].decode("utf-8") + "?").splitlines()  # "?": the bad byte
            yield head[:-1]
            raise ContainerFormatError(
                f"not UTF-8 text: {exc.reason} {piece[exc.start]:#04x}", done + len(head)
            ) from None
        del piece  # only its lines are held while they are taken
        done += len(lines)
        yield lines


class _Scanner:
    """Significant lines of an open binary file, from ``_pieces``.

    Blank lines and lines whose first token starts with ``#`` are skipped;
    every line comes with its 1-based number and its tokens.  Line 1 must
    read ``magic``, when given.  A decoding error is raised once the lines
    before it are taken, so an error on an earlier line comes first.
    """

    def __init__(self, fh, magic: str | None = None):
        self._error = None  # the decoding error that ends the lines
        self._lines = itertools.chain.from_iterable(self._read(fh))
        self._lineno = 0 if magic is None else 1  # lines taken so far
        if magic is not None and (first := next(self._lines, "").strip()) != magic:
            raise self._error or ContainerFormatError(
                f"magic mismatch: expected {magic!r}, got {first!r}", 1
            )

    def _read(self, fh):
        """The pieces of ``fh``; a decoding error ends them and is kept for ``take`` to raise."""
        try:
            yield from _pieces(fh)
        except ContainerFormatError as exc:
            self._error = exc

    def take(self, n: int):
        """Up to ``n`` significant lines as (line numbers, token lists); empty at end of file."""
        while seg := list(itertools.islice(self._lines, n)):
            first = self._lineno + 1
            self._lineno += len(seg)
            rows = [t for t in map(str.split, seg) if t and t[0][0] != "#"]
            if len(rows) == len(seg):
                return range(first, first + len(seg)), rows
            if rows:
                keep = [i for i, raw in enumerate(seg) if (s := raw.lstrip()) and s[0] != "#"]
                return [first + i for i in keep], rows
        if self._error is not None:
            raise self._error
        return [], []

    def next(self) -> tuple[int, list[str]] | None:
        lines, rows = self.take(1)
        return (lines[0], rows[0]) if rows else None


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


def _ints(values: list[int]) -> np.ndarray:
    """``values`` as int64, or as Python ints when one lies beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _plain_ints(tokens: np.ndarray, values: np.ndarray) -> bool:
    """Whether each token spells its non-negative value as ``str`` does.

    Any other spelling ``int`` accepts (sign, leading zeros, underscores,
    non-ASCII digits) is longer than the plain one or not ASCII.
    """
    text = "".join(tokens.ravel().tolist())
    digits = values.size + int(np.searchsorted(_POW10, values.ravel(), side="right").sum())
    return text.isascii() and len(text) == digits


def _first_repeat(keys: np.ndarray) -> int | None:
    """Position of the first key equal to an earlier one, or None."""
    order = np.argsort(keys, kind="stable")  # equal keys keep their file order
    ranked = keys[order]
    repeats = order[1:][ranked[1:] == ranked[:-1]]
    return int(repeats.min()) if repeats.size else None


class _NodeIds:
    """The node ids a block declares, in file order, and the dense index of each."""

    def __init__(self, ids: np.ndarray):
        self.ids = ids
        self.count = len(ids)
        # distinct non-negative ids are exactly 0 .. count - 1 when all lie below count
        self.dense = self.count == 0 or ids.max() < self.count
        if not self.dense:  # remapped by order of appearance
            self._order = np.argsort(ids, kind="stable")
            self._sorted = ids[self._order]

    def find(self, ids: np.ndarray) -> np.ndarray | None:
        """Dense indices of ``ids``, or None if one of them is not declared."""
        if self.dense:
            return ids if ((ids >= 0) & (ids < self.count)).all() else None
        pos = np.minimum(np.searchsorted(self._sorted, ids), self.count - 1)
        return self._order[pos] if (self._sorted[pos] == ids).all() else None

    def lookup(self, nid: int) -> int | None:
        if self.dense:
            return nid if 0 <= nid < self.count else None
        found = self.find(np.array([nid]))
        return None if found is None else int(found[0])

    def original(self, index: np.ndarray) -> list[int]:
        return (index if self.dense else self.ids[index]).tolist()


def _resolve(token: str, what: str, line: int, nodes: _NodeIds) -> tuple[int, int]:
    """The id ``token`` spells and its dense index; it must be a declared node."""
    nid = _want_int(token, what, line)
    index = nodes.lookup(nid)
    if index is None:
        raise ContainerFormatError(f"out-of-range index: {what} {nid} is not a declared node", line)
    return nid, index


@dataclass(frozen=True)
class ParsedContainer:
    graphs: list[Graph]
    graph_ids: list[str]
    id_maps: list[dict[int, int] | None]  # original id -> dense index; None when already dense


def iter_container(path):
    """The blocks of a container as ``(graph, graph_id, id_map)``, parsed one at a time.

    ``id_map`` maps original node ids to dense indices and is None when the
    ids are already dense.  Each block is checked as it is reached, so no
    block after the last one taken is read.  A caller that stops early
    closes the iterator (``contextlib.closing``), which closes the file.
    """
    blocks = 0
    with open(path, "rb") as fh:
        scan = _Scanner(fh, GRAPH_MAGIC)
        item = scan.next()
        while item is not None:
            line, tokens = item
            if tokens[0] != "G":
                raise ContainerFormatError(f"expected a 'G' block header, got {tokens[0]!r}", line)
            block, item = _parse_block(scan, tokens, line)
            yield block
            blocks += 1
    if not blocks:
        raise ContainerFormatError("container holds no graph blocks")


def parse_container_detailed(path) -> ParsedContainer:
    """Parse every block of a container keeping graph ids and any node-id remappings.

    The file is read in bounded pieces and each block's rows are converted a
    chunk at a time, so memory beyond the result stays bounded by one block.
    """
    graphs, graph_ids, id_maps = map(list, zip(*iter_container(path)))
    return ParsedContainer(graphs=graphs, graph_ids=graph_ids, id_maps=id_maps)


def _parse_block(scan: _Scanner, header: list[str], header_line: int):
    """The block after its ``G`` line as ``(graph, graph_id, id_map)``, and the next line read."""
    if len(header) not in (2, 3):
        raise ContainerFormatError("G line must be 'G <graph_id> [label=<int>]'", header_line)
    gid = header[1]
    graph_label = None
    if len(header) == 3:
        if not header[2].startswith("label="):
            raise ContainerFormatError(f"unexpected token {header[2]!r} on G line", header_line)
        graph_label = _want_int(header[2][len("label=") :], "graph label", header_line)

    line, num_nodes, node_dim = _count_line(scan, "N", ("num_nodes", "node_dim"), "G", header_line)
    line, num_edges, edge_dim = _count_line(scan, "M", ("num_edges", "edge_dim"), "N", line)

    ids, node_values, line = _node_rows(scan, num_nodes, node_dim, line)
    nodes = _NodeIds(ids)
    edges, edge_values = _edge_rows(scan, num_edges, edge_dim, line, nodes)

    node_attrs = None
    if node_dim > 0:
        node_attrs = node_values
        if nodes.dense:  # row i holds node i
            node_attrs = np.empty_like(node_values)
            node_attrs[ids] = node_values
    id_map = None if nodes.dense else dict(zip(ids.tolist(), range(num_nodes)))

    labels: dict[int, int] = {}  # dense index -> label
    loops: dict[int, None] = {}
    item = scan.next()  # the line after the edges
    for tag, usage, seen in (("nodelabel", "<id> <int>", labels), ("loop", "<id>", loops)):
        while item is not None and item[1][0] == tag:
            line, tokens = item
            if len(tokens) != 1 + len(usage.split()):
                raise ContainerFormatError(f"{tag} line must be '{tag} {usage}'", line)
            _, nid = _resolve(tokens[1], f"{tag} id", line, nodes)
            if nid in seen:
                raise ContainerFormatError(f"duplicate {tag} for node {tokens[1]}", line)
            seen[nid] = None if tag == "loop" else _want_int(tokens[2], "node label", line)
            if tag == "nodelabel" and seen[nid] not in _INT64:
                raise ContainerFormatError(f"node label {seen[nid]} does not fit in 64 bits", line)
            item = scan.next()
        if len(labels) not in (0, num_nodes):
            raise ContainerFormatError(
                f"count mismatch: {len(labels)} nodelabel lines for {num_nodes} nodes "
                "(label all nodes or none)",
                line,
            )

    graph = Graph(
        num_nodes=num_nodes,
        edges=edges,
        node_attrs=node_attrs,
        edge_attrs=edge_values if edge_dim > 0 else None,
        node_labels=[labels[i] for i in range(num_nodes)] if labels else None,
        graph_label=graph_label,
        self_loops=frozenset(loops),
    )
    return (graph, gid, id_map), item


def _count_line(scan: _Scanner, tag: str, names: tuple[str, str], after: str, line: int):
    """The ``N`` or ``M`` line of a block: its line number, row count and attribute width."""
    item = scan.next()
    if item is None or item[1][0] != tag or len(item[1]) != 3:
        raise ContainerFormatError(
            f"expected '{tag} <{names[0]}> <{names[1]}>' after the {after} line",
            item[0] if item else line,
        )
    line, tokens = item
    count, dim = (_want_int(token, name, line) for token, name in zip(tokens[1:], names))
    if count < 0 or dim < 0:
        raise ContainerFormatError("counts must be non-negative", line)
    return line, count, dim


def _rows(scan: _Scanner, tag: str, count: int, keys: int, dim: int, line: int,
          cast, check, repeats):
    """A block's ``count`` lines ``<tag> <key>... <value>...``: keys, values, last line number.

    Rows are converted ``_TOKEN_CHUNK`` tokens at a time with one cast per
    column block: ``cast(table, first_row)`` turns a chunk's token table into
    its ``(rows, keys)`` integer keys, raising ValueError where a key fails a
    check.  A chunk that does not convert cleanly is read line by line:
    ``check(line, tokens, row)`` returns a line's key or raises the error a
    line-by-line reader raises there.  ``repeats(keys, line_of)`` checks the
    keys of every row read, before any error after them is raised.
    """
    width = 1 + keys + dim
    mismatch = f"count mismatch: expected {count} {tag} lines"
    key_chunks = [np.empty((0, keys), np.int64)]
    value_chunks = []  # a huge dim fails on the first row, as a line-by-line reader does
    lines: list = []  # the line numbers of each chunk
    pending: list = []  # keys of the rows read so far in a line-by-line chunk

    def line_of(row: int) -> int:
        return next(itertools.islice(itertools.chain.from_iterable(lines), row, None))

    got = 0
    try:
        while got < count:
            chunk_lines, rows = scan.take(min(count - got, max(1, _TOKEN_CHUNK // width)))
            if not rows:
                raise ContainerFormatError(mismatch, line)
            lines.append(chunk_lines)
            try:
                table = np.array(rows, dtype=object)  # rows of unequal length raise ValueError
                if table.ndim != 2 or table.shape[1] != width or not (table[:, 0] == tag).all():
                    raise ValueError(f"not a clean block of {tag!r} rows")
                values = table[:, 1 + keys :].astype(np.float64)
                found = cast(table, got)
            except (ValueError, OverflowError):
                values = []
                for row, (ln, tokens) in enumerate(zip(chunk_lines, rows), got):
                    if tokens[0] != tag:
                        raise ContainerFormatError(mismatch, ln)
                    pending.append(check(ln, tokens, row))  # a repeated key is reported first
                    values.append(_want_floats(tokens[1 + keys :], dim, f"{tag} attribute", ln))
                found, pending = _ints(pending).reshape(-1, keys), []
                values = np.array(values, dtype=np.float64)
            key_chunks.append(found)
            value_chunks.append(values)
            got += len(rows)
            line = chunk_lines[-1]
    except ContainerFormatError:
        repeats(np.concatenate(key_chunks + [_ints(pending).reshape(-1, keys)]), line_of)
        raise
    every = np.concatenate(key_chunks)
    repeats(every, line_of)
    if not count:
        if dim >= _MAX_DIM:
            raise ContainerFormatError(f"{tag}_dim {dim} is too large", line)
        value_chunks.append(np.empty((0, dim)))
    return every, np.concatenate(value_chunks), line


def _node_rows(scan: _Scanner, count: int, dim: int, line: int):
    """A block's ``count`` node lines: ids in file order, attribute rows, last line number.

    Duplicate ids are checked over the whole block before any error after them.
    """

    def cast(table, _first):
        ids = table[:, 1:2].astype(np.int64)
        if (ids < 0).any():
            raise ValueError("negative node id")
        return ids

    def check(line, tokens, _row):
        if len(tokens) < 2:
            raise ContainerFormatError("node line needs an id", line)
        nid = _want_int(tokens[1], "node id", line)
        if nid < 0:
            raise ContainerFormatError(f"node id {nid} is negative", line)
        return nid

    def repeats(ids, line_of):
        row = _first_repeat(ids[:, 0])
        if row is not None:
            raise ContainerFormatError(f"duplicate node id {ids[row, 0]}", line_of(row))

    ids, values, line = _rows(scan, "node", count, 1, dim, line, cast, check, repeats)
    return ids[:, 0], values, line


def _edge_rows(scan: _Scanner, count: int, dim: int, line: int, nodes: _NodeIds):
    """A block's ``count`` edge lines: dense endpoint pairs and attribute rows.

    Undeclared endpoints and self-loops fail their line; duplicate edges and
    the first reversed edge (a warning) are checked over the whole block
    before any error after them.
    """
    spelled: dict[int, tuple[str, str]] = {}  # row -> endpoint tokens that str() would not give
    flipped: list[int] = []  # the first row that lists the larger id first

    def cast(table, first):
        ends = table[:, 1:3].astype(np.int64)
        uv = nodes.find(ends)
        if uv is None or (uv[:, 0] == uv[:, 1]).any() or not _plain_ints(table[:, 1:3], ends):
            raise ValueError("undeclared, self-loop or unusually spelled endpoint")
        if not flipped and (ends[:, 0] > ends[:, 1]).any():
            flipped.append(first + int(np.argmax(ends[:, 0] > ends[:, 1])))
        return uv

    def check(line, tokens, row):
        if len(tokens) < 3:
            raise ContainerFormatError("edge line needs two endpoints", line)
        a, u = _resolve(tokens[1], "edge endpoint", line, nodes)
        b, v = _resolve(tokens[2], "edge endpoint", line, nodes)
        if u == v:
            raise ContainerFormatError(
                f"edge ({tokens[1]}, {tokens[2]}) is a self-loop; use a 'loop' line", line
            )
        if a > b and not flipped:
            flipped.append(row)
        if (str(a), str(b)) != (tokens[1], tokens[2]):
            spelled[row] = (tokens[1], tokens[2])
        return u, v

    def repeats(pairs, line_of):
        row = _first_repeat(pairs.min(axis=1) * max(nodes.count, 1) + pairs.max(axis=1))
        if flipped and (row is None or flipped[0] <= row):
            warnings.warn(
                f"line {line_of(flipped[0])}: directed edge order treated as undirected",
                stacklevel=5,
            )
        if row is not None:
            u, v = spelled.get(row) or nodes.original(pairs[row])
            raise ContainerFormatError(f"duplicate edge ({u}, {v})", line_of(row))

    pairs, values, _ = _rows(scan, "edge", count, 2, dim, line, cast, check, repeats)
    return pairs, values


def _container_pieces(graphs, graph_ids):
    """Container text in pieces of at most ``_ROW_CHUNK`` rows."""
    if graph_ids is None:
        graph_ids = map(str, itertools.count())
    yield GRAPH_MAGIC + "\n"
    for gid, g in zip(graph_ids, graphs):
        yield from _block_pieces(gid, g)


def _block_pieces(gid, g: Graph):
    """The text of one graph block in pieces of at most ``_ROW_CHUNK`` rows."""
    if str(gid).split() != [str(gid)]:  # every line break str.splitlines knows is whitespace
        raise ValueError(f"graph id {gid!r} is empty or holds whitespace")
    header = f"G {gid}"
    if g.graph_label is not None:
        header += f" label={int(g.graph_label)}"
    yield f"{header}\nN {g.num_nodes} {g.node_dim()}\nM {g.num_edges} {g.edge_dim()}\n"
    # Python floats and ints, not numpy scalars; repr of a float round-trips it
    for start in range(0, g.num_nodes, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, g.num_nodes)
        if g.node_attrs is None:
            yield "".join(f"node {nid}\n" for nid in range(start, stop))
        else:
            rows = enumerate(g.node_attrs[start:stop].tolist(), start)
            yield "".join(f"node {nid} {' '.join(map(repr, row))}\n" for nid, row in rows)
    for start in range(0, g.num_edges, _ROW_CHUNK):
        ends = g.edges[start : start + _ROW_CHUNK].tolist()
        if g.edge_attrs is None:
            yield "".join(f"edge {u} {v}\n" for u, v in ends)
        else:
            rows = zip(ends, g.edge_attrs[start : start + _ROW_CHUNK].tolist())
            yield "".join(f"edge {u} {v} {' '.join(map(repr, row))}\n" for (u, v), row in rows)
    if g.node_labels is not None:
        for start in range(0, g.num_nodes, _ROW_CHUNK):
            labels = enumerate(g.node_labels[start : start + _ROW_CHUNK].tolist(), start)
            yield "".join(f"nodelabel {nid} {y}\n" for nid, y in labels)
    yield "".join(f"loop {nid}\n" for nid in sorted(g.self_loops))


def write_atomically(path, pieces) -> None:
    """Write the text ``pieces`` to ``path``, which changes only once every piece is written.

    The text goes to a temporary sibling, created as a plain ``open`` creates
    a file (mode ``0o666`` less the umask); it replaces ``path`` on success
    and is removed on any failure.  A symlinked ``path`` is written through.
    An existing ``path`` that is not a regular file (a device, a FIFO) is
    written directly, never renamed over.  OS errors name ``path``.
    """
    target = os.path.realpath(path)
    direct = os.path.exists(target) and not os.path.isfile(target)
    tmp = f"{target}.tmp{os.getpid()}"
    made = False
    try:
        with open(path if direct else tmp, "w" if direct else "x", encoding="utf-8") as fh:
            made = not direct
            fh.writelines(pieces)
        if made:
            os.replace(tmp, target)
    except BaseException as exc:
        if made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.errno and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def write_container(graphs, path, graph_ids=None) -> None:
    """Write the container text of ``graphs``, any iterable, ``_ROW_CHUNK`` rows at a time.

    Graph ids default to ``0, 1, ...``; the file is written atomically.  A
    sequence of at least two batches of ``_BATCH`` graphs is formatted by
    forked workers, one per usable CPU, into the same bytes.
    """
    count, workers = _worker_plan(graphs, graph_ids)
    if workers < 2:
        write_atomically(path, _container_pieces(graphs, graph_ids))
        return
    with _forked_formatters(graphs, graph_ids, count, workers) as pieces:
        write_atomically(path, pieces)


_BATCH = 4  # graphs a worker formats whole before it hands their text over


def _worker_plan(graphs, graph_ids) -> tuple[int, int]:
    """The number of graphs to write and of workers to format them; under 2 means serial.

    Only a sequence (``len`` and indexing) is split, one worker per usable
    CPU and at most one per batch.  Python 3.12+ warns when a process running
    more than one thread forks, so such a process writes serially there.
    """
    if not isinstance(graphs, Sequence) or not hasattr(os, "sched_getaffinity"):
        return 0, 0
    count = len(graphs)
    if graph_ids is not None:  # zip stops at the shorter, as the serial path does
        if not isinstance(graph_ids, Sequence):
            return 0, 0
        count = min(count, len(graph_ids))
    workers = min(len(os.sched_getaffinity(0)), -(-count // _BATCH))
    if sys.version_info >= (3, 12) and not _one_thread():
        workers = 0
    return count, workers


def _one_thread() -> bool:
    """Whether this process runs a single OS thread (numpy's BLAS may have started more)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


@contextlib.contextmanager
def _forked_formatters(graphs, graph_ids, count: int, workers: int):
    """The container text of ``graphs[:count]`` in pieces, formatted by ``workers`` forked workers.

    Worker ``w`` formats batches ``w, w + workers, ...`` and sends their
    pieces over its own pipe connection; the pieces of batch ``b`` are read
    from worker ``b % workers`` in order.  Every worker is killed and reaped
    on leaving.
    """
    from multiprocessing.connection import Pipe  # here only: its import would slow every command

    sys.stdout.flush()  # text written before the fork is written once, by this process
    batches = -(-count // _BATCH)
    pids, pipes = [], []
    try:
        for first in range(workers):
            reader, sink = Pipe(duplex=False)
            pipes.append(reader)
            with sink:
                if (pid := os.fork()) == 0:
                    mine = range(first, batches, workers)
                    _format_batches(graphs, graph_ids, count, mine, sink, pipes)
                pids.append(pid)
        yield _read_batches(pipes, batches)
    finally:
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _format_batches(graphs, graph_ids, count: int, batches: range, sink, readers) -> None:
    """A worker's life: format each of ``batches`` whole, then send its pieces to ``sink``.

    Each piece goes as a ``str`` and ``None`` ends a batch.  A batch that
    fails is replaced by its exception, and the worker stops.  The worker
    leaves only through ``os._exit``, so nothing it inherited (``finally``
    blocks, buffered output, open files) runs or is flushed.
    """
    code = 1
    try:
        for reader in readers:  # were they open here, a send to a dead parent would block
            reader.close()
        for b in batches:
            try:
                pieces = []
                for i in range(b * _BATCH, min(b * _BATCH + _BATCH, count)):
                    gid = i if graph_ids is None else graph_ids[i]
                    pieces.extend(_block_pieces(gid, graphs[i]))
            except Exception as exc:
                try:  # the parent raises what it unpickles; this must survive that
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                sink.send(exc)
                break
            for piece in pieces + [None]:
                sink.send(piece)
        code = 0
    finally:
        os._exit(code)


def _read_batches(pipes, batches: int):
    """The pieces of every batch in order, batch ``b`` read from ``pipes[b % len(pipes)]``."""
    yield GRAPH_MAGIC + "\n"
    for b in range(batches):
        pipe = pipes[b % len(pipes)]
        while (piece := _received(pipe)) is not None:
            yield piece


def _received(pipe):
    """A worker's next piece, or None at a batch's end; an exception it sent is raised here."""
    try:
        piece = pipe.recv()
    except EOFError:
        raise RuntimeError("a container formatting worker ended before sending its batch") from None
    if isinstance(piece, Exception):
        raise piece
    return piece


def format_family(family: LshFamily) -> str:
    """Serialize family parameters so a run can be replayed bit-exactly."""
    cfg = family.config
    out = [
        FAMILY_MAGIC,
        f"family {cfg.variant} {cfg.k} {cfg.d} {cfg.m} {float(cfg.l)!r} {cfg.master_seed}",
    ]
    # Python floats, not numpy scalars; repr of a float round-trips it
    out += [f"w {i} {' '.join(map(repr, row))}" for i, row in enumerate(family.vectors.tolist())]
    if family.offsets is not None:
        out += [f"b {i} {b!r}" for i, b in enumerate(family.offsets.tolist())]
    out.append("")
    return "\n".join(out)


def write_family(family: LshFamily, path) -> None:
    write_atomically(path, [format_family(family)])


def _function_lines(scan: _Scanner, tag: str, k: int, width: int, what: str, line: int):
    """The ``k`` family lines ``<tag> <i> <value>...``: a ``(k, width)`` array, the last line."""
    rows = []
    for i in range(k):
        item = scan.next()
        if item is None or item[1][0] != tag:
            raise ContainerFormatError(f"count mismatch: expected {k} '{tag}' lines", line)
        line, tokens = item
        if len(tokens) < 2:
            raise ContainerFormatError(f"{tag} line needs a function index", line)
        if _want_int(tokens[1], "function index", line) != i:
            raise ContainerFormatError(f"expected '{tag} {i}', got '{tag} {tokens[1]}'", line)
        rows.append(_want_floats(tokens[2:], width, what, line))
    return np.array(rows), line


def parse_family(path) -> LshFamily:
    """Load hash-family parameters from a sidecar file."""
    with open(path, "rb") as fh:
        scan = _Scanner(fh, FAMILY_MAGIC)
        item = scan.next()
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

        vectors, line = _function_lines(scan, "w", k, d, "parameter", line)
        offsets = None
        if variant == LSP_P:
            offsets = _function_lines(scan, "b", k, 1, "offset", line)[0][:, 0]
        return LshFamily(config=cfg, vectors=vectors, offsets=offsets)


def parse_pairs(path) -> np.ndarray:
    """Read a node-pair file: one ``<u> <v>`` line per pair; ``#`` lines are comments.

    Returns a ``(P, 2)`` int64 array, converted a chunk of lines at a time.
    """
    chunks = [np.empty((0, 2), np.int64)]
    with open(path, "rb") as fh:
        scan = _Scanner(fh)
        while True:
            lines, rows = scan.take(max(1, _TOKEN_CHUNK // 2))
            if not rows:
                break
            try:
                table = np.array(rows, dtype=object)  # rows of unequal length raise ValueError
                if table.ndim != 2 or table.shape[1] != 2:
                    raise ValueError("not a clean block of pairs")
                chunks.append(table.astype(np.int64))
            except (ValueError, OverflowError):
                pairs = []
                for line, tokens in zip(lines, rows):
                    if len(tokens) != 2:
                        raise ContainerFormatError("pair line must be '<u> <v>'", line)
                    u, v = (_want_int(t, "pair node", line) for t in tokens)
                    if u not in _INT64 or v not in _INT64:
                        raise ContainerFormatError(f"pair ({u}, {v}) out of range", line)
                    pairs.append((u, v))
                chunks.append(np.array(pairs, dtype=np.int64))
    return np.concatenate(chunks)


def parse_config_file(path) -> dict[str, str]:
    """Read a flat ``key = value`` config file; ``#`` lines are comments.

    A key given twice is an error naming its second line.
    """
    out: dict[str, str] = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(itertools.chain.from_iterable(_pieces(fh)), 1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ContainerFormatError("config line is not 'key = value'", lineno)
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in out:
                raise ContainerFormatError(f"config key {key!r} given twice", lineno)
            out[key] = value.strip()
    return out


def format_config(pairs) -> str:
    """Render ``(key, value)`` pairs as a config file (the resolved-config echo)."""
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def format_tsv(header, rows) -> str:
    """Tab-separated table with a header row."""
    lines = ["\t".join(map(str, header))]
    lines.extend("\t".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def variance_curve_rows(curve) -> list[list]:
    """Long-format rows (kept_fraction, depth, variance) for a variance curve."""
    variances = curve.variances.tolist()  # Python floats: str of a float is its repr
    return [
        [fraction, depth, variances[fi][di]]
        for fi, fraction in enumerate(curve.fractions)
        for di, depth in enumerate(curve.depths)
    ]
