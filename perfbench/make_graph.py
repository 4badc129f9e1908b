"""Write one seeded uniform random graph as an lsprune container.

Usage: python3 perfbench/make_graph.py NODES EDGES DIM SEED OUTPUT [PAIRS PAIRS_OUTPUT]

The graph has EDGES distinct undirected edges drawn uniformly and DIM
standard-normal attributes per node, and is written with lsprune's own
writer.  With PAIRS, a pairs file for ``lsprune compare --pairs-file`` is
written too: half of the pairs are edges, half are uniform node pairs.
"""

from __future__ import annotations

import sys

import numpy as np


def random_edges(rng, n: int, m: int) -> np.ndarray:
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        u = rng.integers(0, n, 2 * m)
        v = rng.integers(0, n, 2 * m)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.unique(np.concatenate([keys, (lo * n + hi)[lo != hi]]))
    keys = rng.permutation(keys)[:m]
    return np.stack([keys // n, keys % n], axis=1)


def main() -> int:
    if len(sys.argv) not in (6, 8):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    from lsprune import Graph, write_container

    n, m, dim, seed = (int(a) for a in sys.argv[1:5])
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, m)
    g = Graph(num_nodes=n, edges=edges, node_attrs=rng.standard_normal((n, dim)))
    write_container([g], sys.argv[5])
    if len(sys.argv) == 8:
        count = int(sys.argv[6])
        near = edges[rng.choice(m, size=count // 2, replace=False)]
        far = rng.integers(0, n, size=(count - count // 2, 2))
        pairs = np.concatenate([near, far])
        with open(sys.argv[7], "w", encoding="utf-8") as fh:
            fh.writelines(f"{u} {v}\n" for u, v in pairs.tolist())
    return 0


if __name__ == "__main__":
    sys.exit(main())
