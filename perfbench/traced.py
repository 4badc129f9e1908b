"""Run one lsprune CLI command with a span around each layer's public calls.

Usage: python3 perfbench/traced.py SPANS.json -- <lsprune arguments>

The wrappers replace names where lsprune looks them up at call time, so the
package itself is unchanged.  Spans ``[name, start, end, parent, counts]``,
with counts keyed by metric name, are kept in memory and written to
SPANS.json once the command has returned; times are ``time.perf_counter``
seconds, the same clock the parent reads.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span; ``count(args, result)`` adds counts to it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, perf_counter(), None, self._open[-1] if self._open else None, {}]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._open.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced


def _size(key, path):
    return {key: os.path.getsize(path)}


def install(rec: Recorder) -> None:
    import lsprune.analysis as analysis
    import lsprune.cli as cli
    import lsprune.prune as prune
    from lsprune.graph import Graph
    from lsprune.hashing import LshFamily

    def patch(module, attr, name, count=None):
        setattr(module, attr, rec.wrap(name, getattr(module, attr), count))

    patch(cli, "main", "cli.main")
    patch(cli, "parse_container_detailed", "container.parse",
          lambda a, r: _size("container.bytes_in", a[0]))
    patch(cli, "write_container", "container.write",
          lambda a, r: _size("container.bytes_out", a[1]))
    patch(cli, "write_family", "container.write",
          lambda a, r: _size("container.bytes_out", a[1]))
    patch(cli, "format_tsv", "container.tsv")
    patch(cli, "generate_dataset", "generator.build", lambda a, r: {"generator.samples": len(r)})
    patch(cli, "prune_dataset", "prune.dataset", lambda a, r: {
        "prune.edges_in": sum(x.stats.edges_in for x in r),
        "prune.edges_out": sum(x.stats.edges_out for x in r),
    })
    patch(cli, "neighborhood_variance_curve", "analysis.curve")
    patch(cli, "jaccard_locality", "analysis.jaccard", lambda a, r: {"analysis.pairs": len(a[2])})
    patch(prune, "lsp_prune", "prune.select", lambda a, r: {"prune.picks": len(r.selections)})
    patch(prune, "build_edge_attrs", "attrs.build", lambda a, r: {"attrs.rows": r.num_edges})
    patch(prune, "build_adjacency", "graph.adjacency")
    patch(analysis, "neighborhood_stats", "analysis.khop", lambda a, r: {"analysis.khop_sweeps": 1})
    patch(analysis, "build_adjacency", "graph.adjacency")
    patch(analysis, "random_prune", "prune.random")
    patch(LshFamily, "bucket_matrix", "hashing.bucket",
          lambda a, r: {"hashing.evals": len(a[1]) * a[0].config.k})
    LshFamily.from_config = classmethod(
        rec.wrap("hashing.family", LshFamily.from_config.__func__)
    )
    patch(Graph, "__post_init__", "graph.validate", lambda a, r: {"graph.graphs": 1})


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    rec = Recorder()
    install(rec)
    import lsprune.cli as cli

    rc = cli.main(sys.argv[3:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
