"""Command-line surface: prune, generate, stats, compare.

Every subcommand resolves its configuration from defaults, then an optional
``key = value`` config file, then explicit flags, and echoes the fully
resolved configuration to stdout in config-file form so any run can be
replayed exactly.  All randomness flows from the single ``--seed`` value;
nothing reads ambient entropy.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error, each
with a single-line ``category: detail`` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing

import numpy as np

from .analysis import (
    bernoulli_edge_pruner,
    check_curve_args,
    jaccard_locality,
    neighborhood_variance_curve,
)
from .attrs import CANONICAL, CONSTRUCTION_MODES, ENDPOINT_ORDERS, edge_attr_dim
from .container import (
    ContainerFormatError,
    format_config,
    format_tsv,
    iter_container,
    parse_config_file,
    parse_container_detailed,
    parse_family,
    parse_pairs,
    variance_curve_rows,
    write_atomically,
    write_container,
    write_family,
)
from .generator import GeneratorConfig, generate_dataset
from .graph import GraphStructureError
from .hashing import DEFAULT_K, DEFAULT_L, DEFAULT_M, LshFamily, LshFamilyConfig
from .prune import RandomPruneConfig, prune_dataset, resolve_attr_mode

METHODS = ("lsp-t", "lsp-p", "random")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the exit codes
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _resolve(schema, args) -> dict:
    """Merge defaults < config file < explicit flags; mark explicit keys."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = parse_config_file(args.config)
    resolved = {}
    explicit = set()
    casts = {int: int, float: float, bool: _parse_bool, str: str}
    for key, typ, default in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
            explicit.add(key)
        elif key in file_cfg:
            try:
                resolved[key] = casts[typ](file_cfg[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
            explicit.add(key)
        else:
            resolved[key] = default
    resolved["_explicit"] = explicit
    return resolved


def _echo(schema, resolved) -> None:
    pairs = []
    for key, typ, _default in schema:
        value = resolved[key]
        if value is None or value == "":
            continue
        if typ is bool:
            value = "true" if value else "false"
        pairs.append((key, value))
    sys.stdout.write(format_config(pairs))


# ---------------------------------------------------------------- prune

def _graph_error(parsed, idx: int, detail) -> ValueError:
    """A data error about graph ``idx`` of a parsed container, naming it by id and index."""
    return ValueError(f"graph {parsed.graph_ids[idx]!r} (index {idx}): {detail}")


_PRUNE_SCHEMA = [
    ("input", str, None),
    ("output", str, None),
    ("method", str, "lsp-p"),
    ("k", int, DEFAULT_K),
    ("m", int, DEFAULT_M),
    ("l", float, DEFAULT_L),
    ("p", float, 0.5),
    ("seed", int, 0),
    ("attr_mode", str, "auto"),
    ("endpoint_order", str, CANONICAL),
    ("zscore", bool, False),
    ("family", str, ""),
]


def _cmd_prune(args) -> int:
    cfg = _resolve(_PRUNE_SCHEMA, args)
    explicit = cfg["_explicit"]
    method = cfg["method"]
    if method not in METHODS:
        raise UsageError(f"method must be one of {', '.join(METHODS)}")
    if cfg["input"] is None or cfg["output"] is None:
        raise UsageError("prune requires --input and --output")
    if cfg["attr_mode"] != "auto" and cfg["attr_mode"] not in CONSTRUCTION_MODES:
        raise UsageError(f"attr_mode must be auto or one of {', '.join(CONSTRUCTION_MODES)}")
    if cfg["endpoint_order"] not in ENDPOINT_ORDERS:
        raise UsageError(f"endpoint_order must be one of {', '.join(ENDPOINT_ORDERS)}")

    # method-specific parameters must not leak across methods
    if method == "random":
        for key in ("k", "m", "l", "family", "attr_mode", "endpoint_order", "zscore"):
            if key in explicit:
                raise UsageError(f"--{key.replace('_', '-')} only applies to lsp-t/lsp-p")
    else:
        if "p" in explicit:
            raise UsageError("--p only applies to method random")
        if method == "lsp-p" and "m" in explicit:
            raise UsageError("--m only applies to lsp-t")
        if method == "lsp-t" and "l" in explicit:
            raise UsageError("--l only applies to lsp-p")
        if cfg["family"]:
            for key in ("k", "m", "l", "seed"):
                if key in explicit:
                    raise UsageError(f"--{key} cannot be combined with --family, which fixes it")

    parsed = parse_container_detailed(cfg["input"])
    graphs = parsed.graphs

    if method == "random":
        try:
            random_cfg = RandomPruneConfig(keep_probability=cfg["p"], seed=cfg["seed"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        _echo([s for s in _PRUNE_SCHEMA if s[0] in ("input", "output", "method", "p", "seed")], cfg)
        results = prune_dataset(graphs, random_cfg=random_cfg)
        family = None
    else:
        attr_mode = cfg["attr_mode"]
        if attr_mode == "auto":
            try:
                attr_mode = resolve_attr_mode(graphs[0])
            except ValueError as exc:
                raise _graph_error(parsed, 0, exc) from None
            cfg["attr_mode"] = attr_mode
        dims = []
        for idx, g in enumerate(graphs):
            try:
                dims.append(edge_attr_dim(g, attr_mode))
            except ValueError as exc:
                raise _graph_error(parsed, idx, exc) from None
        if cfg["family"]:
            family = parse_family(cfg["family"])
            variant = family.config.variant.replace("_", "-")
            if variant != method:
                raise UsageError(f"--family holds an {variant} family but method is {method}")
        else:
            try:
                family = LshFamily.from_config(
                    LshFamilyConfig(
                        variant=method.replace("-", "_"),
                        d=dims[0],
                        k=cfg["k"],
                        m=cfg["m"],
                        l=cfg["l"],
                        master_seed=cfg["seed"],
                    )
                )
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        d = family.config.d
        for idx, dim in enumerate(dims):  # every graph, before any is hashed
            if dim != d:
                detail = f"family dimension {d} does not match attributes of dimension {dim}"
                raise _graph_error(parsed, idx, detail)
        echo_keys = ("input", "output", "method", "attr_mode", "endpoint_order", "zscore",
                     "family")
        if not cfg["family"]:  # a loaded family fixes k, m/l and the seed
            echo_keys += ("k", "seed", "m" if method == "lsp-t" else "l")
        _echo([s for s in _PRUNE_SCHEMA if s[0] in echo_keys], cfg)
        results = prune_dataset(
            graphs,
            family=family,
            attr_mode=attr_mode,
            endpoint_order=cfg["endpoint_order"],
            zscore=cfg["zscore"],
        )

    out = cfg["output"]
    write_container([r.graph for r in results], out, graph_ids=parsed.graph_ids)

    report_rows = []
    total_in = total_out = 0
    for gid, r in zip(parsed.graph_ids, results):
        s = r.stats
        report_rows.append(
            [gid, s.edges_in, s.edges_out, repr(s.kept_fraction), repr(s.wall_time_s)]
        )
        total_in += s.edges_in
        total_out += s.edges_out
    total_frac = total_out / total_in if total_in else 1.0
    total_time = sum(r.stats.wall_time_s for r in results)
    report_rows.append(["TOTAL", total_in, total_out, repr(total_frac), repr(total_time)])
    report = format_tsv(
        ["graph", "edges_in", "edges_out", "kept_fraction", "wall_time_s"], report_rows
    )
    write_atomically(out + ".report.tsv", [report])

    if family is not None:
        write_family(family, out + ".family")

    if any(m is not None for m in parsed.id_maps):
        lines = []
        for gid, id_map in zip(parsed.graph_ids, parsed.id_maps):
            if id_map is None:
                continue
            for orig in sorted(id_map):
                lines.append([gid, orig, id_map[orig]])
        write_atomically(out + ".idmap", [format_tsv(["graph", "original_id", "dense_id"], lines)])
    return 0


# ---------------------------------------------------------------- generate

_GENERATE_SCHEMA = [
    ("output", str, None),
    ("num_samples", int, GeneratorConfig.num_samples),
    ("num_classes", int, GeneratorConfig.num_classes),
    ("min_nodes", int, GeneratorConfig.min_nodes),
    ("max_nodes", int, GeneratorConfig.max_nodes),
    ("node_dim", int, GeneratorConfig.node_dim),
    ("edge_dim", int, GeneratorConfig.edge_dim),
    ("connectivity_rate", float, GeneratorConfig.connectivity_rate),
    ("node_centers_std", float, GeneratorConfig.node_centers_std),
    ("edge_centers_std", float, GeneratorConfig.edge_centers_std),
    ("node_noise_std", float, GeneratorConfig.node_noise_std),
    ("edge_noise_std", float, GeneratorConfig.edge_noise_std),
    ("is_symmetric", bool, GeneratorConfig.is_symmetric),
    ("node_removal_probability", float, GeneratorConfig.node_removal_probability),
    ("seed", int, 0),
]


def _cmd_generate(args) -> int:
    cfg = _resolve(_GENERATE_SCHEMA, args)
    if cfg["output"] is None:
        raise UsageError("generate requires --output")
    _echo(_GENERATE_SCHEMA, cfg)
    try:
        gen_cfg = GeneratorConfig(
            **{k: cfg[k] for k, _t, _d in _GENERATE_SCHEMA if k != "output"}
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    samples = generate_dataset(gen_cfg)  # generated one at a time as they are written
    write_container((g for g, _label in samples), cfg["output"])
    return 0


# ---------------------------------------------------------------- stats

def _graph_at(path, index: int):
    """Graph ``index`` of a container and the number of blocks read; no later block is read.

    The graph is None when the container holds no more than ``index``
    blocks, all of which are then read.  A negative index is a usage error
    before the file is opened.
    """
    if index < 0:
        raise UsageError(f"graph_index must be non-negative, got {index}")
    read = 0
    with closing(iter_container(path)) as blocks:
        for graph, _gid, _id_map in blocks:
            read += 1
            if read > index:
                return graph, read
    return None, read


_STATS_SCHEMA = [
    ("input", str, None),
    ("output", str, None),
    ("graph_index", int, 0),
    ("depths", str, "1,3,5"),
    ("fractions", str, "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"),
    ("trials", int, 1),
    ("seed", int, 0),
]


def _cmd_stats(args) -> int:
    cfg = _resolve(_STATS_SCHEMA, args)
    if cfg["input"] is None or cfg["output"] is None:
        raise UsageError("stats requires --input and --output")
    _echo(_STATS_SCHEMA, cfg)
    try:
        depths = _parse_int_list(cfg["depths"])
        fractions = _parse_float_list(cfg["fractions"])
    except ValueError as exc:
        raise UsageError(f"bad depths/fractions list: {exc}") from None
    try:
        pruner = bernoulli_edge_pruner(cfg["seed"])
        depths, fractions = check_curve_args(depths, fractions, cfg["trials"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    graph, read = _graph_at(cfg["input"], cfg["graph_index"])
    if graph is None:
        raise UsageError(f"graph_index {cfg['graph_index']} outside container of {read}")
    curve = neighborhood_variance_curve(
        graph,
        depths,
        fractions,
        pruner,
        trials=cfg["trials"],
    )
    table = format_tsv(["kept_fraction", "depth", "variance"], variance_curve_rows(curve))
    write_atomically(cfg["output"], [table])
    return 0


# ---------------------------------------------------------------- compare

_COMPARE_SCHEMA = [
    ("input", str, None),
    ("pruned", str, None),
    ("output", str, None),
    ("graph_index", int, 0),
    ("pairs_file", str, ""),
    ("all_pairs", bool, False),
]


def _cmd_compare(args) -> int:
    cfg = _resolve(_COMPARE_SCHEMA, args)
    for key in ("input", "pruned", "output"):
        if cfg[key] is None:
            raise UsageError(f"compare requires --{key.replace('_', '-')}")
    if not cfg["pairs_file"] and not cfg["all_pairs"]:
        raise UsageError("compare needs --pairs-file or --all-pairs")
    _echo(_COMPARE_SCHEMA, cfg)

    idx = cfg["graph_index"]
    g = _graph_at(cfg["input"], idx)[0]
    gp = None if g is None else _graph_at(cfg["pruned"], idx)[0]
    if g is None or gp is None:
        raise UsageError(f"graph_index {idx} outside the containers")

    if cfg["pairs_file"]:
        pairs = parse_pairs(cfg["pairs_file"])
    else:
        pairs = np.column_stack(np.triu_indices(g.num_nodes, 1))

    values = jaccard_locality(g, gp, pairs)
    # Python ints and floats: str of a float is its repr
    rows = [uv + jj for uv, jj in zip(pairs.tolist(), values.tolist())]
    table = format_tsv(["u", "v", "jaccard_before", "jaccard_after"], rows)
    write_atomically(cfg["output"], [table])
    return 0


# ---------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="lsprune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("prune", help="sparsify every graph in a container")
    pr.add_argument("--config", help="key = value config file; flags override it")
    pr.add_argument("--input")
    pr.add_argument("--output")
    pr.add_argument("--method", choices=METHODS)
    pr.add_argument("--k", type=int, help="hash functions per node")
    pr.add_argument("--m", type=int, help="bucket count (lsp-t)")
    pr.add_argument("--l", type=float, help="projection bin width (lsp-p)")
    pr.add_argument("--p", type=float, help="keep probability (random)")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--attr-mode", dest="attr_mode",
                    choices=("auto",) + CONSTRUCTION_MODES)
    pr.add_argument("--endpoint-order", dest="endpoint_order", choices=ENDPOINT_ORDERS)
    pr.add_argument("--zscore", action="store_const", const=True, default=None)
    pr.add_argument("--family", help="load hash parameters from a sidecar file")
    pr.set_defaults(func=_cmd_prune)

    ge = sub.add_parser("generate", help="write a synthetic classification dataset")
    ge.add_argument("--config")
    ge.add_argument("--output")
    for key, typ, _default in _GENERATE_SCHEMA[1:]:
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            ge.add_argument(flag, dest=key, action="store_const", const=True, default=None)
        else:
            ge.add_argument(flag, dest=key, type=typ)
    ge.set_defaults(func=_cmd_generate)

    st = sub.add_parser("stats", help="neighborhood-size variance vs kept fraction")
    st.add_argument("--config")
    st.add_argument("--input")
    st.add_argument("--output")
    st.add_argument("--graph-index", dest="graph_index", type=int)
    st.add_argument("--depths", help="comma-separated hop depths")
    st.add_argument("--fractions", help="comma-separated kept fractions in (0, 1]")
    st.add_argument("--trials", type=int)
    st.add_argument("--seed", type=int)
    st.set_defaults(func=_cmd_stats)

    co = sub.add_parser("compare", help="per-pair neighborhood Jaccard before/after")
    co.add_argument("--config")
    co.add_argument("--input")
    co.add_argument("--pruned")
    co.add_argument("--output")
    co.add_argument("--graph-index", dest="graph_index", type=int)
    co.add_argument("--pairs-file", dest="pairs_file")
    co.add_argument("--all-pairs", dest="all_pairs", action="store_const",
                    const=True, default=None)
    co.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage-error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # an OS error naming a file (missing, a directory, not permitted) is bad input too
        if isinstance(exc, (ContainerFormatError, GraphStructureError, ValueError)) or (
            isinstance(exc, OSError) and exc.filename is not None
        ):
            print(f"data-error: {exc}", file=sys.stderr)
            return 2
        print(f"internal-error: {type(exc).__name__}: {exc}", file=sys.stderr)  # a bug
        return 3


if __name__ == "__main__":
    sys.exit(main())
