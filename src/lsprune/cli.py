"""Command-line surface: prune, generate, stats, compare.

Every subcommand resolves its configuration from defaults, then an optional
``key = value`` config file, then explicit flags, and echoes the fully
resolved configuration to stdout in config-file form so any run can be
replayed exactly.  All randomness flows from the single ``--seed`` value;
nothing reads ambient entropy.

Each subcommand's options are one schema of ``(key, type, default)`` rows; its
flags, config keys, value checks and echo all come from it.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error, each
with a single-line ``category: detail`` diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from dataclasses import fields

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
from .prune import GraphError, RandomPruneConfig, prune_dataset, resolve_attr_mode

METHODS = ("lsp-t", "lsp-p", "random")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the exit codes
        raise UsageError(message)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


_KINDS = {int: ("an integer", "integers"), float: ("a number", "numbers")}
_INTS, _FLOATS = list[int], list[float]  # comma-separated lists
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _value(key: str, typ, text: str):
    """The text of a flag or config key as a value of schema type ``typ``.

    This is the one check of an option's value, so a flag and its config key
    fail with the same usage error.
    """
    if isinstance(typ, tuple):  # the allowed strings
        if text not in typ:
            raise UsageError(f"{key} must be one of {', '.join(typ)}")
        return text
    if typ is bool:  # a boolean flag takes no value: only a config key can be bad
        if text.lower() in _BOOLS:
            return _BOOLS[text.lower()]
        raise UsageError(f"{key} must be a boolean, got {text!r}")
    if typ is str:  # a config file strips its values and splits lines: the echo could not replay
        if text != text.strip():
            raise UsageError(f"{key} must not begin or end with whitespace, got {text!r}")
        if len(text.splitlines()) > 1:
            raise UsageError(f"{key} must not contain a line break, got {text!r}")
        return text
    if typ in (_INTS, _FLOATS):  # empty items are skipped
        (item,) = typ.__args__
        try:
            return [item(t) for t in text.split(",") if t.strip()]
        except ValueError:
            kinds = _KINDS[item][1]
            raise UsageError(
                f"{key} must be a comma-separated list of {kinds}, got {text!r}"
            ) from None
    try:
        return typ(text)
    except ValueError:
        raise UsageError(f"{key} must be {_KINDS[typ][0]}, got {text!r}") from None


def _resolve(command: str, schema, args) -> dict:
    """Each option from its flag, else its config key, else its default; mark explicit keys.

    A schema type may be a tuple of allowed strings.  A config key outside
    ``schema`` is a usage error, and so is a required option (default None)
    given neither way.
    """
    file_cfg = parse_config_file(args.config) if args.config else {}
    known = {key for key, _typ, _default in schema}
    for key in file_cfg:
        if key not in known:
            raise UsageError(f"config key {key!r} is not a {command} option")
    resolved, explicit = {}, set()
    for key, typ, default in schema:
        text = getattr(args, key)
        if text is None:
            text = file_cfg.get(key)
        if text is not None:
            resolved[key] = _value(key, typ, text)
            explicit.add(key)
        else:
            resolved[key] = default
    missing = [_flag(key) for key, _t, default in schema if default is None and key not in explicit]
    if missing:
        raise UsageError(f"{command} requires {' and '.join(missing)}")
    resolved["_explicit"] = explicit
    return resolved


def _echo(schema, resolved) -> None:
    pairs = []
    for key, typ, _default in schema:
        value = resolved[key]
        if value == "":
            continue
        if typ is bool:
            value = "true" if value else "false"
        elif typ in (_INTS, _FLOATS):
            value = ",".join(map(str, value))  # str of a float is its repr
        pairs.append((key, value))
    sys.stdout.write(format_config(pairs))


# ---------------------------------------------------------------- prune

def _graph_error(parsed, idx: int, detail) -> ValueError:
    """A data error about graph ``idx`` of a parsed container, naming it by id and index."""
    return ValueError(f"graph {parsed.graph_ids[idx]!r} (index {idx}): {detail}")


_PRUNE_SCHEMA = [
    ("input", str, None),
    ("output", str, None),
    ("method", METHODS, "lsp-p"),
    ("k", int, DEFAULT_K),
    ("m", int, DEFAULT_M),
    ("l", float, DEFAULT_L),
    ("p", float, 0.5),
    ("seed", int, 0),
    ("attr_mode", ("auto",) + CONSTRUCTION_MODES, "auto"),
    ("endpoint_order", ENDPOINT_ORDERS, CANONICAL),
    ("zscore", bool, False),
    ("family", str, ""),
]

# The prune options that only some methods take, with those methods as a usage
# error names them, and the options a loaded --family fixes.  The check that no
# option leaks across methods and the echo both read these.
_LSP = (("lsp-t", "lsp-p"), "lsp-t/lsp-p")
_METHOD_ONLY = {
    "k": _LSP,
    "m": (("lsp-t",), "lsp-t"),
    "l": (("lsp-p",), "lsp-p"),
    "p": (("random",), "method random"),
    "attr_mode": _LSP,
    "endpoint_order": _LSP,
    "zscore": _LSP,
    "family": _LSP,
}
_FAMILY_FIXES = ("k", "m", "l", "seed")


def _prune_rows(cfg) -> list:
    """The schema rows a prune run takes; an explicit option outside them is a usage error."""
    method, explicit = cfg["method"], cfg["_explicit"]
    rows = []
    for row in _PRUNE_SCHEMA:
        methods, name = _METHOD_ONLY.get(row[0], (METHODS, ""))
        if method in methods:
            rows.append(row)
        elif row[0] in explicit:
            raise UsageError(f"{_flag(row[0])} only applies to {name}")
    fixed = _FAMILY_FIXES if cfg["family"] else ()
    for key in fixed:
        if key in explicit:
            raise UsageError(f"{_flag(key)} cannot be combined with --family, which fixes it")
    return [row for row in rows if row[0] not in fixed]


def _cmd_prune(cfg) -> int:
    rows = _prune_rows(cfg)
    method = cfg["method"]
    parsed = parse_container_detailed(cfg["input"])
    graphs = parsed.graphs

    if method == "random":
        try:
            random_cfg = RandomPruneConfig(keep_probability=cfg["p"], seed=cfg["seed"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        family, method_args = None, {"random_cfg": random_cfg}
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
                family = LshFamily.from_config(LshFamilyConfig(
                    variant=method.replace("-", "_"), d=dims[0], k=cfg["k"], m=cfg["m"],
                    l=cfg["l"], master_seed=cfg["seed"]))
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        d = family.config.d
        for idx, dim in enumerate(dims):  # every graph, before any is hashed
            if dim != d:
                detail = f"family dimension {d} does not match attributes of dimension {dim}"
                raise _graph_error(parsed, idx, detail)
        method_args = {"family": family, "attr_mode": attr_mode,
                       "endpoint_order": cfg["endpoint_order"], "zscore": cfg["zscore"]}
    _echo(rows, cfg)
    try:
        results = prune_dataset(graphs, **method_args)
    except GraphError as exc:
        raise _graph_error(parsed, exc.index, exc.detail) from None

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

_GENERATE_SCHEMA = [("output", str, None)] + [
    (f.name, type(f.default), f.default) for f in fields(GeneratorConfig)
]


def _cmd_generate(cfg) -> int:
    _echo(_GENERATE_SCHEMA, cfg)
    try:
        gen_cfg = GeneratorConfig(**{k: cfg[k] for k, _t, _d in _GENERATE_SCHEMA[1:]})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    samples = generate_dataset(gen_cfg)  # generated as they are written, by the writer's workers
    write_container(samples, cfg["output"])
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
    ("depths", _INTS, [1, 3, 5]),
    ("fractions", _FLOATS, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    ("trials", int, 1),
    ("seed", int, 0),
]


def _cmd_stats(cfg) -> int:
    try:
        pruner = bernoulli_edge_pruner(cfg["seed"])
        depths, fractions = check_curve_args(cfg["depths"], cfg["fractions"], cfg["trials"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _echo(_STATS_SCHEMA, cfg)
    graph, read = _graph_at(cfg["input"], cfg["graph_index"])
    if graph is None:
        raise UsageError(f"graph_index {cfg['graph_index']} outside container of {read}")
    curve = neighborhood_variance_curve(graph, depths, fractions, pruner, trials=cfg["trials"])
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


def _cmd_compare(cfg) -> int:
    if cfg["pairs_file"] and cfg["all_pairs"]:
        raise UsageError("compare takes --pairs-file or --all-pairs, not both")
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

_COMMANDS = {  # name: (schema, run, help)
    "prune": (_PRUNE_SCHEMA, _cmd_prune, "sparsify every graph in a container"),
    "generate": (_GENERATE_SCHEMA, _cmd_generate, "write a synthetic classification dataset"),
    "stats": (_STATS_SCHEMA, _cmd_stats, "neighborhood-size variance vs kept fraction"),
    "compare": (_COMPARE_SCHEMA, _cmd_compare, "per-pair neighborhood Jaccard before/after"),
}


def build_parser() -> _Parser:
    """One flag per schema row; its value stays text until ``_resolve`` checks it."""
    parser = _Parser(prog="lsprune", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (schema, _run, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config", help="key = value config file; flags override it")
        for key, typ, default in schema:
            note = "required" if default is None else f"default {default!r}"
            if typ is bool:
                cmd.add_argument(_flag(key), dest=key, action="store_const", const="true",
                                 help=note)
            else:
                choices = "{" + ",".join(typ) + "}" if isinstance(typ, tuple) else None
                cmd.add_argument(_flag(key), dest=key, metavar=choices, help=note)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        schema, run, _help = _COMMANDS[args.command]
        return run(_resolve(args.command, schema, args))
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
