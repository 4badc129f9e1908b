"""Independent readers and output checks for the benchmark.

Everything here is written from the lsprune file formats and the hashing
spec, not imported from ``lsprune``, so a change inside the package cannot
also change the yardstick it is checked against:

* lsp-t: bit ``j`` is ``x_j > t_j`` (strict), bits packed MSB-first, MD5 of
  the packed bytes, first 8 digest bytes read big-endian, modulo ``m``;
* per node and function the neighbour with the smallest bucket is picked,
  the smallest neighbour index winning ties; the kept edges are the union of
  all picks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class G:
    """One graph block of a container, as written (canonical ``u < v`` edges)."""

    n: int
    edges: np.ndarray  # (m, 2) int64
    node_attrs: np.ndarray | None
    edge_attrs: np.ndarray | None
    _adj: tuple | None = None

    def adjacency(self):
        """(indptr, neighbours ascending, edge index) per node."""
        if self._adj is None:
            m = len(self.edges)
            ends = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            nbrs = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
            eidx = np.concatenate([np.arange(m), np.arange(m)])
            order = np.lexsort((nbrs, ends))
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(ends, minlength=self.n), out=indptr[1:])
            self._adj = (indptr, nbrs[order], eidx[order])
        return self._adj

    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency()[0])

    def edge_keys(self) -> np.ndarray:
        return self.edges[:, 0] * self.n + self.edges[:, 1]

    def hash_rows(self) -> np.ndarray:
        """Hash input per edge under the CLI's automatic attribute mode."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        if self.node_attrs is not None and self.edge_attrs is not None:
            return np.concatenate([self.node_attrs[u], self.edge_attrs, self.node_attrs[v]], axis=1)
        if self.node_attrs is not None:
            return np.concatenate([self.node_attrs[u], self.node_attrs[v]], axis=1)
        return self.edge_attrs


def _floats(lines: list[str], cols: int) -> np.ndarray:
    """Numbers after the 5-character ``node ``/``edge `` tag, ``cols`` per line."""
    if not lines:
        return np.zeros((0, cols))
    flat = " ".join(line[5:] for line in lines).split()
    return np.array(flat, dtype=np.float64).reshape(len(lines), cols)


def read_container(path) -> list[G]:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0] != "lspg 1":
        raise ValueError(f"{path}: not an lspg 1 container")
    graphs, pos = [], 1
    while pos < len(lines) and lines[pos].startswith("G "):
        _, n, q = lines[pos + 1].split()
        _, m, e = lines[pos + 2].split()
        n, q, m, e = int(n), int(q), int(m), int(e)
        pos += 3
        nodes = _floats(lines[pos : pos + n], 1 + q)
        pos += n
        edges = _floats(lines[pos : pos + m], 2 + e)
        pos += m
        while pos < len(lines) and lines[pos].startswith(("nodelabel ", "loop ")):
            pos += 1
        graphs.append(
            G(
                n=n,
                edges=edges[:, :2].astype(np.int64),
                node_attrs=nodes[:, 1:] if q else None,
                edge_attrs=edges[:, 2:] if e else None,
            )
        )
    if not graphs:
        raise ValueError(f"{path}: no graph blocks")
    return graphs


@dataclass(frozen=True)
class Family:
    """An lsp-t hash family: ``k`` functions of ``d`` thresholds, ``m`` buckets."""

    variant: str
    k: int
    d: int
    m: int
    thresholds: np.ndarray  # (k, d)

    def signatures(self, i: int, rows: np.ndarray) -> np.ndarray:
        return np.packbits(rows > self.thresholds[i], axis=1)

    def buckets(self, i: int, rows: np.ndarray) -> list[int]:
        """Bucket of each row under function ``i``."""
        return [
            int.from_bytes(hashlib.md5(r.tobytes()).digest()[:8], "big") % self.m
            for r in self.signatures(i, rows)
        ]

    def distinct_signatures(self, rows: np.ndarray) -> int:
        """Sum over functions of the number of distinct signatures among ``rows``."""
        if not len(rows):
            return 0
        return sum(len(np.unique(self.signatures(i, rows), axis=0)) for i in range(self.k))


def read_family(path) -> Family:
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0] != "lsph 1":
        raise ValueError(f"{path}: not an lsph 1 sidecar")
    _, variant, k, d, m, _l, _seed = lines[1].split()
    if variant != "lsp_t":
        raise ValueError(f"{path}: the checks cover lsp_t families, not {variant}")
    k, d = int(k), int(d)
    thresholds = np.array([line.split()[2:] for line in lines[2 : 2 + k]], dtype=np.float64)
    return Family(variant, k, d, int(m), thresholds)


def read_tsv(path) -> list[list[str]]:
    return [line.split("\t") for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]]


def digest(path, drop_last_column: bool = False) -> str:
    """SHA-256 of a file; optionally of a TSV without its last (timing) column."""
    data = Path(path).read_bytes()
    if drop_last_column:
        data = b"\n".join(line.rsplit(b"\t", 1)[0] for line in data.split(b"\n"))
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- checks


def _picks(g: G, rows: np.ndarray, fam: Family, u: int) -> set:
    """Set of neighbours ``u`` picks over all functions."""
    indptr, nbrs, eidx = g.adjacency()
    lo, hi = indptr[u], indptr[u + 1]
    nb = nbrs[lo:hi].tolist()
    node_rows = rows[eidx[lo:hi]]
    out = set()
    for i in range(fam.k):
        b = fam.buckets(i, node_rows)
        best = min(range(len(nb)), key=lambda j: (b[j], j))  # nb is ascending
        out.add(nb[best])
    return out


def check_prune(inputs: list[G], outputs: list[G], fam: Family, rng, sample: int) -> list[str]:
    """Edge budget, coverage, subset and argmin picks of a seeded node sample."""
    errors: list[str] = []
    if len(inputs) != len(outputs):
        return [f"pruned container has {len(outputs)} graphs, input {len(inputs)}"]
    kept_sets = []
    for gi, (g, gp) in enumerate(zip(inputs, outputs)):
        m_in, m_out = len(g.edges), len(gp.edges)
        if gp.n != g.n:
            errors.append(f"graph {gi}: {gp.n} nodes after pruning, {g.n} before")
            kept_sets.append(set())
            continue
        if m_out > min(m_in, fam.k * g.n):
            errors.append(f"graph {gi}: {m_out} kept edges > min(|E|={m_in}, k|V|={fam.k * g.n})")
        keys_in = g.edge_keys()
        keys_out = gp.edge_keys()
        if not np.isin(keys_out, keys_in).all():
            errors.append(f"graph {gi}: kept edges are not a subset of the input edges")
        if ((g.degrees() > 0) & (gp.degrees() == 0)).any():
            errors.append(f"graph {gi}: a non-isolated node kept no edge")
        kept_sets.append(set(keys_out.tolist()))
    if errors:
        return errors

    candidates = [(gi, u) for gi, g in enumerate(inputs) for u in np.flatnonzero(g.degrees() > 0)]
    chosen = rng.choice(len(candidates), size=min(sample, len(candidates)), replace=False)
    rows_of: dict[int, np.ndarray] = {}
    picks_of: dict[tuple[int, int], set] = {}

    def picks(gi: int, u: int):
        if (gi, u) not in picks_of:
            if gi not in rows_of:
                rows_of[gi] = inputs[gi].hash_rows()
            picks_of[gi, u] = _picks(inputs[gi], rows_of[gi], fam, u)
        return picks_of[gi, u]

    for c in sorted(chosen.tolist()):
        gi, u = candidates[c]
        g, kept = inputs[gi], kept_sets[gi]
        mine = picks(gi, int(u))
        for v in mine:
            if min(u, v) * g.n + max(u, v) not in kept:
                errors.append(f"graph {gi}: node {u} picks {v} but edge ({u}, {v}) was dropped")
        indptr, nbrs, _ = g.adjacency()
        for v in nbrs[indptr[u] : indptr[u + 1]].tolist():
            if min(u, v) * g.n + max(u, v) in kept and v not in mine:
                if u not in picks(gi, v):
                    errors.append(f"graph {gi}: edge ({u}, {v}) kept but picked by neither end")
    return errors[:10]


def check_stats(g: G, stats_tsv) -> list[str]:
    """Depth-1 variance at kept fraction 1.0 equals the variance of the degrees."""
    rows = [r for r in read_tsv(stats_tsv) if float(r[0]) == 1.0 and r[1] == "1"]
    if len(rows) != 1:
        return [f"stats: expected one row for fraction 1.0 depth 1, found {len(rows)}"]
    want = float(np.var(g.degrees()))
    got = float(rows[0][2])
    if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
        return [f"stats: depth-1 variance {got!r} != degree variance {want!r}"]
    return []


def _jaccard(nu: set, nv: set) -> float:
    union = nu | nv
    return len(nu & nv) / len(union) if union else 1.0


def check_compare(g: G, gp: G, pairs, compare_tsv, rng, sample: int) -> list[str]:
    """Row count, pair order and the Jaccard of sampled pairs, with Python sets."""
    rows = read_tsv(compare_tsv)
    if len(rows) != len(pairs):
        return [f"compare: {len(rows)} rows for {len(pairs)} pairs"]

    def nsets(h: G):
        indptr, nbrs, _ = h.adjacency()
        return lambda u: set(nbrs[indptr[u] : indptr[u + 1]].tolist())

    before, after = nsets(g), nsets(gp)
    errors = []
    for i in sorted(rng.choice(len(rows), size=min(sample, len(rows)), replace=False).tolist()):
        u, v = pairs[i]
        row = rows[i]
        want = [str(u), str(v), repr(_jaccard(before(u), before(v))), repr(_jaccard(after(u), after(v)))]
        if row != want:
            errors.append(f"compare row {i}: {row} != {want}")
    return errors[:10]
