import tracemalloc
from contextlib import closing
from itertools import islice
from unittest import mock

import numpy as np
import pytest

import lsprune.container as container
from lsprune import (
    Graph,
    LshFamily,
    LshFamilyConfig,
    iter_container,
    parse_container_detailed,
    write_container,
)
from lsprune.container import (
    ContainerFormatError,
    format_tsv,
    parse_config_file,
    parse_family,
    write_family,
)
from lsprune.generator import GeneratorConfig, generate_dataset

from util import (
    config_text,
    format_container,
    random_graph,
    read_graphs,
    reference_parse_container,
)


def roundtrip(graphs, tmp_path, name="g.lspg"):
    path = tmp_path / name
    write_container(graphs, path)
    return read_graphs(path), path


def test_minimal_singleton_graph(tmp_path):
    path = tmp_path / "min.lspg"
    path.write_text("lspg 1\nG 0\nN 1 0\nM 0 0\nnode 0\n")
    (g,) = read_graphs(path)
    assert g.num_nodes == 1
    assert g.num_edges == 0
    assert g.node_attrs is None and g.edge_attrs is None


def test_out_of_range_edge_names_line(tmp_path):
    path = tmp_path / "bad.lspg"
    path.write_text("lspg 1\nG 0\nN 3 0\nM 1 0\nnode 0\nnode 1\nnode 2\nedge 0 5\n")
    with pytest.raises(ContainerFormatError, match="line 8.*out-of-range"):
        read_graphs(path)


def test_magic_mismatch(tmp_path):
    path = tmp_path / "bad.lspg"
    path.write_text("lspg 2\n")
    with pytest.raises(ContainerFormatError, match="magic"):
        read_graphs(path)


def test_duplicate_edge_diagnostic(tmp_path):
    path = tmp_path / "dup.lspg"
    path.write_text(
        "lspg 1\nG 0\nN 2 0\nM 2 0\nnode 0\nnode 1\nedge 0 1\nedge 1 0\n"
    )
    with pytest.warns(UserWarning, match="undirected"):
        with pytest.raises(ContainerFormatError, match="line 8.*duplicate edge"):
            read_graphs(path)


def test_count_mismatch_diagnostics(tmp_path):
    path = tmp_path / "short.lspg"
    path.write_text("lspg 1\nG 0\nN 2 0\nM 1 0\nnode 0\nedge 0 1\n")
    with pytest.raises(ContainerFormatError, match="node lines"):
        read_graphs(path)

    path.write_text("lspg 1\nG 0\nN 2 1\nM 0 0\nnode 0 1.0 2.0\nnode 1 3.0\n")
    with pytest.raises(ContainerFormatError, match="line 5.*count mismatch"):
        read_graphs(path)

    # a line of another kind is no row even when it is exactly as wide as one
    path.write_text("lspg 1\nG 0\nN 3 2\nM 1 1\nnode 0 1.0 2.0\nnode 1 3.0 4.0\nedge 2 1 5.0\n")
    with pytest.raises(ContainerFormatError, match="^line 7: count mismatch: expected 3 node"):
        read_graphs(path)
    path.write_text("lspg 1\nG 0\nN 2 0\nM 2 0\nnode 0\nnode 1\nedge 0 1\nnodelabel 0 1\n")
    with pytest.raises(ContainerFormatError, match="^line 8: count mismatch: expected 2 edge"):
        read_graphs(path)

    # a width no line can hold fails on the first row, after the M line and the row's key
    wide = 2**63
    path.write_text(f"lspg 1\nG 0\nN 2 {wide}\nM 0 0\nnode 0\nnode 1\n")
    with pytest.raises(ContainerFormatError,
                       match=f"^line 5: count mismatch: expected {wide} node attribute values"):
        read_graphs(path)
    path.write_text(f"lspg 1\nG 0\nN 2 {wide}\nM 0 0\nnode x\n")
    with pytest.raises(ContainerFormatError, match="^line 5: node id must be an integer"):
        read_graphs(path)
    path.write_text(f"lspg 1\nG 0\nN 0 {wide}\nM 1\n")
    with pytest.raises(ContainerFormatError, match="^line 4: expected 'M <num_edges>"):
        read_graphs(path)
    path.write_text(f"lspg 1\nG 0\nN 1 0\nM 0 {wide}\nnode -1\n")
    with pytest.raises(ContainerFormatError, match="^line 5: node id -1 is negative"):
        read_graphs(path)
    # with no rows there is no line to fail on: numpy cannot shape the empty block
    path.write_text(f"lspg 1\nG 0\nN 0 {wide}\nM 0 0\n")
    with pytest.raises(ContainerFormatError, match=f"^line 4: node_dim {wide} is too large"):
        read_graphs(path)


def test_self_loop_edge_line_rejected(tmp_path):
    path = tmp_path / "loop.lspg"
    path.write_text("lspg 1\nG 0\nN 2 0\nM 1 0\nnode 0\nnode 1\nedge 1 1\n")
    with pytest.raises(ContainerFormatError, match="loop"):
        read_graphs(path)


def test_nodelabels_all_or_none(tmp_path):
    path = tmp_path / "lab.lspg"
    path.write_text(
        "lspg 1\nG 0\nN 2 0\nM 0 0\nnode 0\nnode 1\nnodelabel 0 3\n"
    )
    with pytest.raises(ContainerFormatError, match="all nodes or none"):
        read_graphs(path)


@pytest.mark.parametrize("label", [2**63, -(2**63) - 1, 99999999999999999999])
@pytest.mark.parametrize("reader", [read_graphs, reference_parse_container])
def test_node_label_beyond_64_bits_names_its_line(tmp_path, reader, label):
    path = tmp_path / "lab.lspg"
    path.write_text(f"lspg 1\nG 0\nN 2 0\nM 1 0\nnode 0\nnode 1\nedge 0 1\nnodelabel 0 1\n"
                    f"nodelabel 1 {label}\n")
    with pytest.raises(ContainerFormatError) as info:
        reader(path)
    assert str(info.value) == f"line 9: node label {label} does not fit in 64 bits"


def test_node_labels_at_the_64_bit_ends_are_read(tmp_path):
    path = tmp_path / "lab.lspg"
    path.write_text(f"lspg 1\nG 0\nN 2 0\nM 0 0\nnode 0\nnode 1\nnodelabel 0 {2**63 - 1}\n"
                    f"nodelabel 1 {-(2**63)}\n")
    (g,) = read_graphs(path)
    assert g.node_labels.tolist() == [2**63 - 1, -(2**63)]


def test_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "c.lspg"
    path.write_text(
        "lspg 1\n# a comment\n\nG 7 label=2\nN 2 0\nM 1 0\n"
        "node 0\n# inner\nnode 1\nedge 0 1\nloop 1\n"
    )
    (g,) = read_graphs(path)
    assert g.graph_label == 2
    assert g.self_loops == frozenset({1})


def test_roundtrip_on_generated_corpus(tmp_path):
    cfg = GeneratorConfig(
        num_samples=6, num_classes=3, min_nodes=4, max_nodes=7,
        node_dim=3, edge_dim=2, connectivity_rate=0.5, seed=1,
    )
    graphs = list(generate_dataset(cfg))
    rng = np.random.default_rng(0)
    graphs.append(random_graph(rng, 9, 0.4, node_dim=2, with_loops=True, with_labels=True))
    graphs.append(Graph(1, []))  # attribute-free singleton

    parsed, path = roundtrip(graphs, tmp_path)
    # write(parse(f)) reproduces f byte for byte
    rewritten = format_container(parsed)
    assert rewritten == path.read_text()
    for g, p in zip(graphs, parsed):
        assert g.num_nodes == p.num_nodes
        assert np.array_equal(g.edges, p.edges)
        if g.node_attrs is None:
            assert p.node_attrs is None
        else:
            assert np.array_equal(g.node_attrs, p.node_attrs)
        if g.edge_attrs is None:
            assert p.edge_attrs is None
        else:
            assert np.array_equal(g.edge_attrs, p.edge_attrs)
        assert g.self_loops == p.self_loops
        assert g.graph_label == p.graph_label


def test_writer_rows_match_per_value_repr_across_chunks():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 10, 0.5, node_dim=2, edge_dim=3, with_loops=True, with_labels=True)
    plain = random_graph(rng, 8, 0.5)
    want = ["lspg 1"]
    for gid, h in enumerate((g, plain)):
        want += [f"G {gid}" + ("" if h.graph_label is None else f" label={h.graph_label}"),
                 f"N {h.num_nodes} {h.node_dim()}", f"M {h.num_edges} {h.edge_dim()}"]
        for nid in range(h.num_nodes):
            vals = [] if h.node_attrs is None else [repr(float(x)) for x in h.node_attrs[nid]]
            want.append(" ".join(["node", str(nid)] + vals))
        for row in range(h.num_edges):
            vals = [] if h.edge_attrs is None else [repr(float(x)) for x in h.edge_attrs[row]]
            want.append(" ".join(["edge", str(h.edges[row, 0]), str(h.edges[row, 1])] + vals))
        if h.node_labels is not None:
            want += [f"nodelabel {nid} {int(y)}" for nid, y in enumerate(h.node_labels)]
        want += [f"loop {nid}" for nid in sorted(h.self_loops)]
    with mock.patch.object(container, "_ROW_CHUNK", 3):  # several chunks per block
        assert format_container([g, plain]) == "\n".join(want + [""])


def test_floats_roundtrip_exactly(tmp_path):
    tricky = np.array([[0.1, 1 / 3, 1e-300, -1.5e300, 123456789.123456789]])
    g = Graph(2, [(0, 1)], edge_attrs=tricky)
    (parsed,), _path = roundtrip([g], tmp_path)
    assert np.array_equal(parsed.edge_attrs, tricky)


def test_arbitrary_node_ids_remapped_with_mapping(tmp_path):
    path = tmp_path / "ids.lspg"
    path.write_text(
        "lspg 1\nG 0\nN 3 0\nM 2 0\nnode 10\nnode 30\nnode 20\n"
        "edge 10 30\nedge 20 30\n"
    )
    parsed = parse_container_detailed(path)
    (g,) = parsed.graphs
    assert parsed.id_maps[0] == {10: 0, 30: 1, 20: 2}
    assert sorted(map(tuple, g.edges.tolist())) == [(0, 1), (1, 2)]


def test_parse_memory_is_bounded_by_one_block(tmp_path):
    # peak minus what the result retains: the same for 1 and 40 copies of a graph
    g = random_graph(np.random.default_rng(8), 200, 0.05, node_dim=4, edge_dim=2)
    one, many = tmp_path / "one.lspg", tmp_path / "many.lspg"
    write_container([g], one)
    write_container([g] * 40, many)

    def transient(path):
        tracemalloc.start()
        try:
            parsed = parse_container_detailed(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parsed.graphs) in (1, 40)
        return peak - retained

    with mock.patch.object(container, "_READ_CHUNK", 4096):  # both files span several reads
        extra = transient(many) - transient(one)
    assert extra < one.stat().st_size / 4


def test_dense_out_of_order_ids_need_no_mapping(tmp_path):
    path = tmp_path / "ooo.lspg"
    path.write_text(
        "lspg 1\nG 0\nN 2 1\nM 0 0\nnode 1 5.0\nnode 0 7.0\n"
    )
    parsed = parse_container_detailed(path)
    assert parsed.id_maps == [None]
    assert parsed.graphs[0].node_attrs.ravel().tolist() == [7.0, 5.0]


def test_duplicate_node_id_rejected(tmp_path):
    path = tmp_path / "dupn.lspg"
    path.write_text("lspg 1\nG 0\nN 2 0\nM 0 0\nnode 0\nnode 0\n")
    with pytest.raises(ContainerFormatError, match="duplicate node"):
        read_graphs(path)


def test_multi_graph_container(tmp_path):
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, 5, 0.5) for _ in range(3)]
    parsed, _path = roundtrip(graphs, tmp_path)
    assert len(parsed) == 3


def test_empty_container_rejected(tmp_path):
    path = tmp_path / "empty.lspg"
    path.write_text("lspg 1\n")
    with pytest.raises(ContainerFormatError, match="no graph"):
        read_graphs(path)


@pytest.mark.parametrize("variant", ["lsp_t", "lsp_p"])
def test_family_sidecar_roundtrip(tmp_path, variant):
    fam = LshFamily.from_config(
        LshFamilyConfig(variant, d=5, k=3, m=1024, l=0.75, master_seed=99)
    )
    path = tmp_path / "fam.lsph"
    write_family(fam, path)
    loaded = parse_family(path)
    assert loaded.config == fam.config
    assert np.array_equal(loaded.vectors, fam.vectors)
    if variant == "lsp_t":
        assert loaded.offsets is None and fam.offsets is None
    else:
        assert np.array_equal(loaded.offsets, fam.offsets)
    # loaded parameters hash identically
    rows = np.random.default_rng(1).standard_normal((4, 5))
    assert np.array_equal(loaded.bucket_matrix(rows), fam.bucket_matrix(rows))


def test_family_magic_mismatch(tmp_path):
    path = tmp_path / "f.lsph"
    path.write_text("lspg 1\n")
    with pytest.raises(ContainerFormatError, match="magic"):
        parse_family(path)


def test_config_file_roundtrip(tmp_path):
    text = config_text({"method": "lsp-p", "k": 4, "seed": 7})
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert parse_config_file(path) == {"method": "lsp-p", "k": "4", "seed": "7"}


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# fine\nnot a kv line\n")
    with pytest.raises(ContainerFormatError, match="line 2"):
        parse_config_file(path)


def test_tsv_has_header_and_tabs():
    text = "".join(format_tsv(["a", "b"], [[1, 2], [3, 4]]))
    lines = text.splitlines()
    assert lines[0] == "a\tb"
    assert lines[1] == "1\t2"


def test_iter_container_parses_one_block_per_step(tmp_path):
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, 6, 0.5, node_dim=1) for _ in range(3)]
    path = tmp_path / "three.lspg"
    write_container(graphs, path, graph_ids=["a", "b", "c"])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("G d\nnot a block\n")  # reached only by a caller that goes on
    calls = []
    real = container._parse_block

    def counting(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(container, "_parse_block", counting):
        with closing(iter_container(path)) as blocks:
            first, gid, id_map = next(blocks)
            assert (gid, id_map, len(calls)) == ("a", None, 1)
            assert np.array_equal(first.edges, graphs[0].edges)
            assert [gid for _g, gid, _m in islice(blocks, 2)] == ["b", "c"]
            assert len(calls) == 3
            with pytest.raises(ContainerFormatError, match="line 49: expected 'N"):
                next(blocks)


def test_write_atomically_keeps_the_old_file_on_failure(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def pieces():
        yield "new\n"
        raise RuntimeError("half way")

    with pytest.raises(RuntimeError, match="half way"):
        container.write_atomically(path, pieces())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    container.write_atomically(path, ["new\n"])
    assert path.read_text() == "new\n"
    with pytest.raises(FileNotFoundError) as info:
        container.write_atomically(tmp_path / "missing" / "out.txt", ["x"])
    assert info.value.filename == str(tmp_path / "missing" / "out.txt")


_BREAKS = ["\r\n", "\x85", "\u2028", "\r", "\n"]


def _text_with_bad_byte(lines, bad_line):
    """UTF-8 ``lines`` joined by every kind of break; line ``bad_line`` (1-based) ends in 0xff."""
    out = b""
    for i, line in enumerate(lines, 1):
        out += line.encode("utf-8") + (b"\xff" if i == bad_line else b"")
        out += _BREAKS[i % len(_BREAKS)].encode("utf-8")
    return out


_BAD_BYTE_CASES = {
    "container": (container.parse_container_detailed,
                  ["lspg 1", "G a", "N 2 0", "M 1 0", "# note", "node 0", "node 1", "edge 0 1"]),
    "family": (parse_family, ["lsph 1", "", "family lsp_t 1 2 16 1.0 0", "w 0 1.0 2.0"]),
    "pairs": (container.parse_pairs, ["# u v", "0 1", "", "2 3", "4 5"]),
    "config": (parse_config_file, ["k = 1", "# a comment", "", "seed = 2", "method = lsp-t"]),
}


@pytest.mark.parametrize("chunk", [1, 7, container._READ_CHUNK])
@pytest.mark.parametrize("kind", sorted(_BAD_BYTE_CASES))
def test_non_utf8_byte_names_its_line(tmp_path, kind, chunk):
    read, lines = _BAD_BYTE_CASES[kind]
    path = tmp_path / "bad"
    for bad_line in range(1, len(lines) + 1):
        path.write_bytes(_text_with_bad_byte(lines, bad_line))
        with mock.patch.object(container, "_READ_CHUNK", chunk):
            with pytest.raises(ContainerFormatError) as info:
                read(path)
        assert str(info.value) == f"line {bad_line}: not UTF-8 text: invalid start byte 0xff"


@pytest.mark.parametrize("chunk", [1, 7, container._READ_CHUNK])
def test_error_on_a_line_before_a_non_utf8_byte_comes_first(tmp_path, chunk):
    path = tmp_path / "bad.lspg"
    lines = ["lspg 1", "G a", "N 3 0", "M 0 0", "node 0", "node x", "node 2"]
    path.write_bytes(_text_with_bad_byte(lines, 7))
    with mock.patch.object(container, "_READ_CHUNK", chunk):
        with pytest.raises(ContainerFormatError, match="line 6: node id must be an integer"):
            parse_container_detailed(path)
    path.write_bytes(_text_with_bad_byte(["lspg 2", "G a"], 2))
    with pytest.raises(ContainerFormatError, match="line 1: magic mismatch"):
        parse_container_detailed(path)
