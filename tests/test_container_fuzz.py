"""Differential fuzzing of the streaming readers against the line-by-line reference.

Valid containers, family sidecars and pair files are drawn with every
layout the format allows (comments and blank lines anywhere, tabs and runs
of spaces, each ``str.splitlines`` separator, a missing final newline,
non-dense and beyond-int64 node ids, unusual but valid number spellings),
then up to two lines are faulted (dropped, duplicated, swapped, given a bad
or undeclared token, reversed or repeated as an edge).  The read and chunk sizes are patched
small so rows straddle both boundaries.  The streaming reader must return
what the reference returns, or raise a ``ContainerFormatError`` with the
same text and the same warnings; where the reference crashes with another
exception type, it must raise a ``ContainerFormatError``.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lsprune.container as container
from lsprune import LshFamily, LshFamilyConfig
from lsprune.container import ContainerFormatError, format_family

from util import reference_parse_container, reference_parse_family, reference_parse_pairs

SEPARATORS = ["\n", "\n", "\n", "\r\n", "\r", "\x0c", "\u2028", "\x1c", "\x85"]
GAPS = [" ", " ", "\t", "  ", " \t "]
FILLERS = ["", "   ", "# comment", "  # indented comment", "\t"]
ODD_TOKENS = ["x", "", "1.5", "-1", "nan", "1e3", "0", "3", "+2", "1_0", "٣",
              str(2**63), str(2**64 + 5), str(-(2**63) - 1), "node", "edge"]
FAULTS = ["drop", "duplicate", "swap", "token", "reverse", "repeat"]
_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

floats = st.one_of(
    st.floats(width=64).map(repr),
    st.sampled_from(["1e500", "-inf", "nan", "-0.0", "1_0.5", "+2", "٣.5", "7"]),
)


def spell(draw, x: int, odd: bool) -> str:
    if odd and x >= 0:
        return draw(st.sampled_from([str(x), f"+{x}", f"0{x}", "".join(
            "٠١٢٣٤٥٦٧٨٩"[int(c)] for c in str(x))]))
    return str(x)


@st.composite
def container_lines(draw) -> list[list[str]]:
    """Token lists of a valid container, one per line."""
    lines = [["lspg", "1"]]
    for b in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 7))
        node_dim, edge_dim = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["dense", "shuffled", "sparse", "huge"]))
        if kind == "dense":
            ids = list(range(n))
        elif kind == "shuffled":
            ids = draw(st.permutations(range(n)))
        else:
            top = 10**6 if kind == "sparse" else 2**66
            ids = draw(st.lists(st.integers(0, top), min_size=n, max_size=n, unique=True))
        odd = draw(st.booleans())
        flip = draw(st.sampled_from(["never", "sometimes", "always"]))
        header = ["G", f"g{b}"]
        if draw(st.booleans()):
            header.append(f"label={draw(st.integers(-3, 2**65))}")
        pairs = [(a, c) for a in range(n) for c in range(a + 1, n)]
        chosen = []
        if pairs:
            chosen = draw(st.lists(st.sampled_from(pairs), min_size=min(3, len(pairs)),
                                   unique=True))
        lines += [header, ["N", str(n), str(node_dim)], ["M", str(len(chosen)), str(edge_dim)]]
        for nid in ids:
            lines.append(["node", spell(draw, nid, odd)]
                         + draw(st.lists(floats, min_size=node_dim, max_size=node_dim)))
        for a, c in chosen:
            if flip == "always" or flip == "sometimes" and draw(st.booleans()):
                a, c = c, a
            lines.append(["edge", spell(draw, ids[a], odd), spell(draw, ids[c], odd)]
                         + draw(st.lists(floats, min_size=edge_dim, max_size=edge_dim)))
        if n and draw(st.booleans()):
            lines += [["nodelabel", str(nid), str(draw(st.integers(-5, 5)))] for nid in ids]
        for nid in draw(st.lists(st.sampled_from(ids), unique=True, max_size=2)) if n else []:
            lines.append(["loop", str(nid)])
    return lines


def mutate(draw, lines: list[list[str]]) -> list[list[str]]:
    """``lines`` with up to two faults, each confined to one line."""
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        lines = fault_one_line(draw, lines)
    return lines


def fault_one_line(draw, lines: list[list[str]]) -> list[list[str]]:
    fault = draw(st.sampled_from(FAULTS))
    lines = [list(t) for t in lines]
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    if fault == "drop":
        del lines[i]
    elif fault == "duplicate":
        lines.insert(i, list(lines[i]))
    elif fault == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif fault == "token":
        tokens = lines[i]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    else:
        edges = [j for j, t in enumerate(lines) if t[0] == "edge" and len(t) >= 3]
        if edges:
            j = draw(st.sampled_from(edges))
            edge = list(lines[j])
            edge[1], edge[2] = edge[2], edge[1]
            if fault == "reverse":
                lines[j] = edge
            else:
                at = draw(st.sampled_from([j + 1, draw(st.integers(j + 1, len(lines)))]))
                lines.insert(at, draw(st.sampled_from([edge, lines[j]])))
    return lines


def render(draw, lines: list[list[str]]) -> str:
    """The text of ``lines``; line 1 keeps single spaces, which a magic line needs."""
    parts = []
    for i, tokens in enumerate(lines):
        for _ in range(draw(st.integers(0, 1)) * draw(st.integers(0, 2)) if i else 0):
            parts.append(draw(st.sampled_from(FILLERS)) + draw(st.sampled_from(SEPARATORS)))
        gaps = st.sampled_from(GAPS) if i else st.just(" ")
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        body = lead + "".join(t + draw(gaps) for t in tokens[:-1]) + tokens[-1]
        parts.append(body + draw(st.sampled_from(SEPARATORS)))
    text = "".join(parts)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


def outcome(read, path):
    """What ``read(path)`` returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", read(path))
        except ContainerFormatError as exc:
            result = ("error", str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def check_same(reference, streaming, path, equal):
    """``streaming`` reads ``path`` as ``reference`` does (see the module docstring)."""
    try:
        want = outcome(reference, path)
    except Exception as exc:  # the reference crashes: the streaming reader reports a data error
        (kind, _), _ = outcome(streaming, path)
        assert kind == "error", (repr(exc), path.read_text(encoding="utf-8"))
        return
    got = outcome(streaming, path)
    assert got[1] == want[1]
    assert got[0][0] == want[0][0], (got[0], want[0])
    if want[0][0] == "error":
        assert got[0][1] == want[0][1]
    else:
        equal(got[0][1], want[0][1])


def same_optional(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)


def same_containers(got, want):
    assert got.graph_ids == want.graph_ids
    assert got.id_maps == want.id_maps
    for g, h in zip(got.graphs, want.graphs, strict=True):
        assert g.num_nodes == h.num_nodes
        assert g.graph_label == h.graph_label
        assert g.self_loops == h.self_loops
        assert np.array_equal(g.edges, h.edges)
        same_optional(g.node_attrs, h.node_attrs)
        same_optional(g.edge_attrs, h.edge_attrs)
        same_optional(g.node_labels, h.node_labels)


def small_chunks(draw):
    return mock.patch.multiple(container, _READ_CHUNK=draw(st.integers(1, 64)),
                               _TOKEN_CHUNK=draw(st.integers(1, 24)))


@_FUZZ
@given(data=st.data())
def test_container_reader_matches_reference(tmp_path, data):
    draw = data.draw
    path = tmp_path / "c.lspg"
    path.write_text(render(draw, mutate(draw, draw(container_lines()))), encoding="utf-8",
                    newline="")
    with small_chunks(draw):
        check_same(reference_parse_container, container.parse_container_detailed, path,
                   same_containers)


@st.composite
def family_lines(draw) -> list[list[str]]:
    variant = draw(st.sampled_from(["lsp_t", "lsp_p"]))
    cfg = LshFamilyConfig(variant, d=draw(st.integers(1, 3)), k=draw(st.integers(1, 3)),
                          m=2 ** draw(st.integers(1, 63)), l=draw(st.floats(0.1, 4.0)),
                          master_seed=draw(st.integers(0, 2**64)))
    return [line.split() for line in format_family(LshFamily.from_config(cfg)).splitlines()]


def same_families(got, want):
    assert got.config == want.config
    for name in ("vectors", "offsets"):
        same_optional(getattr(got, name), getattr(want, name))


@_FUZZ
@given(data=st.data())
def test_family_reader_matches_reference(tmp_path, data):
    draw = data.draw
    path = tmp_path / "f.lsph"
    path.write_text(render(draw, mutate(draw, draw(family_lines()))), encoding="utf-8",
                    newline="")
    with small_chunks(draw):
        check_same(reference_parse_family, container.parse_family, path, same_families)


def same_pairs(got, want):
    assert got.dtype == np.int64 and got.shape == (len(want), 2)
    assert got.tolist() == [list(p) for p in want]


@_FUZZ
@given(data=st.data())
def test_pair_reader_matches_reference(tmp_path, data):
    draw = data.draw
    ids = st.one_of(st.integers(-3, 50), st.integers(-(2**63), 2**63 - 1))
    lines = [[str(u), str(v)] for u, v in draw(st.lists(st.tuples(ids, ids), max_size=30))]
    if lines:
        lines = mutate(draw, lines)
    path = tmp_path / "p.txt"
    path.write_text(render(draw, lines), encoding="utf-8", newline="")
    with small_chunks(draw):
        check_same(reference_parse_pairs, container.parse_pairs, path, same_pairs)


# Orders of failure a single faulted line rarely produces: the first bad line
# wins, the reversed-edge warning comes before a later error only, and a
# duplicate edge is reported in the spelling of its line.
ORDERINGS = [
    "N 3 1\nM 0 0\nnode 0 1.0\nnode 0 2.0\nnode 1 x\n",
    "N 3 1\nM 0 0\nnode 0 1.0\nnode 0 x\nnode 1 2.0\n",
    "N 3 1\nM 0 0\nnode 0 1.0\nnode 1 2.0\nnode 1\n",
    "N 3 0\nM 3 0\nnode 0\nnode 1\nnode 2\nedge 0 1\nedge 0 1\nedge 2 1\n",
    "N 3 0\nM 3 0\nnode 0\nnode 1\nnode 2\nedge 0 1\nedge 1 0\nedge 2 9\n",
    "N 3 0\nM 3 0\nnode 0\nnode 1\nnode 2\nedge 1 2\nedge 0 1\nedge 0 1\n",
    "N 3 0\nM 3 0\nnode 0\nnode 1\nnode 2\nedge 2 1\nedge 0 1\nedge 0 x\n",
    "N 3 0\nM 3 1\nnode 0\nnode 1\nnode 2\nedge 0 1 1\nedge +1 0 1\nedge 2 2 1\n",
    "N 3 0\nM 2 0\nnode 7\nnode 8\nnode 9\nedge 07 8\nedge 8 +7\n",
    "N 2 0\nM 2 0\nnode 0\nnode 1\nedge 0 1\nedge ١ ٠\n",
]


@pytest.mark.parametrize("token_chunk", [1, 3, 4096])
@pytest.mark.parametrize("block", ORDERINGS)
def test_first_failure_and_warning_order_match_reference(tmp_path, block, token_chunk):
    path = tmp_path / "c.lspg"
    path.write_text("lspg 1\nG 0\n" + block, encoding="utf-8")
    with mock.patch.object(container, "_TOKEN_CHUNK", token_chunk):
        check_same(reference_parse_container, container.parse_container_detailed, path,
                   same_containers)
