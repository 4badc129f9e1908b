"""Config files and text flag values, fuzzed through all four subcommands.

Every option of a subcommand is left out, set by a config line or set by its
flag, to a plausible value or to junk; config lines come with comments, junk
lines and any line break ``str.splitlines`` knows, and are read in pieces of
a few bytes.  Two properties hold for every input:

* the run ends in exit 0, 1 or 2, never in 3 (an internal error);
* the echo of a run that succeeds, fed back alone through ``--config``,
  replays it: the same echo and byte-identical outputs.

Numbers stay small (junk text has no digits), so every run is quick.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsprune.container as container
from lsprune import write_container
from lsprune.cli import _COMMANDS, _flag, main
from lsprune.container import ContainerFormatError, parse_config_file

from util import random_graph

_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
# junk without decimal digits, so no junk spells a large number
_JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
_NAME_CHARS = st.one_of(st.sampled_from("ab.# \t=\n\r\x0b\x85\u2028"),
                        st.characters(blacklist_characters="/", blacklist_categories=("Cs",)))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A two-graph input container, a pairs file and an lsp-t and an lsp-p family sidecar."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, n, 0.5, node_dim=2, edge_dim=1, with_loops=True,
                           with_labels=True) for n in (6, 5)]
    write_container(graphs, root / "in.lspg", graph_ids=["a", "b"])
    (root / "pairs.txt").write_text("# u v\n0 1\n2 4\n")
    for method in ("lsp-t", "lsp-p"):
        code, _, err = _main(["prune", "--input", str(root / "in.lspg"), "--method", method,
                              "--output", str(root / f"{method}.lspg"), "--k", "3"])
        assert code == 0, err
    return root


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _plausible(key, typ, files: Path):
    """Text for option ``key`` of schema type ``typ`` that is often, not always, valid."""
    if key in ("input", "pruned"):
        plausible = st.sampled_from([str(files / "in.lspg"), str(files / "lsp-t.lspg")])
    elif key == "pairs_file":
        plausible = st.sampled_from(["", str(files / "pairs.txt")])
    elif key == "family":
        plausible = st.sampled_from(["", str(files / "lsp-t.lspg.family"),
                                     str(files / "lsp-p.lspg.family")])
    elif isinstance(typ, tuple):
        plausible = st.sampled_from(typ)
    elif typ is bool:
        plausible = st.sampled_from(["true", "false", "Yes", "no", "1", "0"])
    elif typ is int:
        plausible = st.integers(-1, 4).map(str)
    elif typ is float:
        plausible = st.sampled_from(["0", "0.5", "1", "1e0", "2.5", "-1", "nan", "inf", "1e309"])
    elif key == "depths":
        plausible = st.sampled_from(["1", "1,2", " 2,,3", "0", ""])
    else:  # fractions
        plausible = st.sampled_from(["1", "0.5,1.0", "0.25, 1e0", "1.5", "nan", ""])
    return plausible


def _valid(files: Path) -> list[tuple[str, dict[str, str]]]:
    """One valid run of each subcommand and prune method, as option texts by key."""
    data, pairs = str(files / "in.lspg"), str(files / "pairs.txt")
    return [
        ("generate", {"num_samples": "3", "num_classes": "2", "min_nodes": "3", "max_nodes": "5",
                      "node_dim": "2", "edge_dim": "1", "is_symmetric": "true", "seed": "1"}),
        ("stats", {"input": data, "graph_index": "1", "depths": "1,2", "fractions": "0.5,1",
                   "trials": "2", "seed": "3"}),
        ("compare", {"input": data, "pruned": str(files / "lsp-t.lspg"), "pairs_file": pairs}),
        ("compare", {"input": data, "pruned": data, "graph_index": "1", "all_pairs": "true"}),
        ("prune", {"input": data, "method": "lsp-t", "k": "3", "m": "16", "seed": "2",
                   "attr_mode": "node_and_edge", "zscore": "true"}),
        ("prune", {"input": data, "method": "lsp-p", "k": "2", "l": "0.5",
                   "endpoint_order": "center_first"}),
        ("prune", {"input": data, "method": "lsp-p", "family": str(files / "lsp-p.lspg.family")}),
        ("prune", {"input": data, "method": "random", "p": "0.5", "seed": "4"}),
    ]


@st.composite
def _runs(draw, files: Path, outdir: Path):
    """A subcommand, its flags and the text of its config file.

    A valid run has up to two of its options changed, or added, to other
    text, and each option is then given by its flag or by a config line.
    """
    command, values = draw(st.sampled_from(_valid(files)))
    schema = {key: typ for key, typ, _default in _COMMANDS[command][0]}
    values = dict(values, output=str(outdir / draw(st.text(_NAME_CHARS, min_size=1, max_size=8))))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(schema.keys() - {"output"})))
        junk = draw(st.booleans())  # junk for the output would be a path outside the scratch
        values[key] = draw(_JUNK if junk else _plausible(key, schema[key], files))
    argv, lines = [command], []
    for key, value in values.items():
        if draw(st.booleans()):
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{pad}{key}{pad}={pad}{value}")
        elif schema[key] is bool:
            argv += [_flag(key)] if value == "true" else []
        else:
            argv += [_flag(key), value]
    extra = st.one_of(_JUNK, st.just("# a comment"), st.just(""), _JUNK.map(lambda j: j + " = 1"))
    for _ in range(draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    return argv, draw(st.sampled_from(_BREAKS)).join(lines)


def _outputs(outdir: Path) -> dict[str, bytes]:
    """Every output file's bytes; a prune report without its timing column."""
    out = {}
    for path in outdir.iterdir():
        data = path.read_bytes()
        if path.name.endswith(".report.tsv"):
            data = b"\n".join(row.rsplit(b"\t", 1)[0] for row in data.split(b"\n"))
        out[path.name] = data
    return out


@settings(max_examples=400)
@given(data=st.data())
def test_configs_and_text_flags_never_fail_internally_and_echoes_replay(files, data):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        outdir = scratch / "out"
        outdir.mkdir()
        argv, text = data.draw(_runs(files, outdir))
        config = scratch / "run.cfg"
        config.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(container, "_READ_CHUNK", data.draw(st.integers(1, 64))):
            code, echo, err = _main(argv + ["--config", str(config)])
            assert code in (0, 1, 2), err
            if code != 0:
                return
            first = _outputs(outdir)
            config.write_text(echo, encoding="utf-8", newline="")
            assert _main([argv[0], "--config", str(config)])[:2] == (0, echo)
        assert _outputs(outdir) == first


@settings(max_examples=200)
@example(lines=["a = 1", "", "# k = 0"], at=3,  # "\r" + "" + "\n" is one break: "k = 2" is line 4
         breaks=["\r", "\n", "\x85", "\u2028", "\r\n", "\n"], chunk=1)
@given(lines=st.lists(st.sampled_from(["a = 1", "# k = 0", "", " \t", "b=x y"]), max_size=5,
                     unique=True),
       at=st.integers(0, 6), breaks=st.lists(st.sampled_from(_BREAKS), min_size=8, max_size=8),
       chunk=st.integers(1, 16))
def test_repeated_config_key_names_the_line_str_splitlines_gives(lines, at, breaks, chunk):
    lines = lines[:at] + ["k = 1"] + lines[at:] + ["k = 2", "c = 3"]
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    with tempfile.TemporaryDirectory() as scratch:
        config = Path(scratch) / "run.cfg"
        config.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(container, "_READ_CHUNK", chunk):
            with pytest.raises(ContainerFormatError) as info:
                parse_config_file(config)
    line = text.splitlines().index("k = 2") + 1
    assert str(info.value) == f"line {line}: config key 'k' given twice"
