import numpy as np
import pytest

from lsprune import (
    ContainerFormatError,
    GeneratorConfig,
    Graph,
    LshFamily,
    LshFamilyConfig,
    generate_dataset,
    parse_config_file,
    parse_container,
    parse_container_detailed,
    parse_family,
    write_container,
    write_family,
)
from lsprune.container import format_config, format_container, format_tsv

from util import random_graph


def roundtrip(graphs, tmp_path, name="g.lspg"):
    path = tmp_path / name
    write_container(graphs, path)
    return parse_container(path), path


def test_minimal_singleton_graph(tmp_path):
    path = tmp_path / "min.lspg"
    path.write_text("lspg 1\nG 0\nN 1 0\nM 0 0\nnode 0\n")
    (g,) = parse_container(path)
    assert g.num_nodes == 1
    assert g.num_edges == 0
    assert g.node_attrs is None and g.edge_attrs is None


def test_out_of_range_edge_names_line(tmp_path):
    path = tmp_path / "bad.lspg"
    path.write_text("lspg 1\nG 0\nN 3 0\nM 1 0\nnode 0\nnode 1\nnode 2\nedge 0 5\n")
    with pytest.raises(ContainerFormatError, match="line 8.*out-of-range"):
        parse_container(path)


def test_magic_mismatch(tmp_path):
    path = tmp_path / "bad.lspg"
    path.write_text("lspg 2\n")
    with pytest.raises(ContainerFormatError, match="magic"):
        parse_container(path)


def test_duplicate_edge_diagnostic(tmp_path):
    path = tmp_path / "dup.lspg"
    path.write_text(
        "lspg 1\nG 0\nN 2 0\nM 2 0\nnode 0\nnode 1\nedge 0 1\nedge 1 0\n"
    )
    with pytest.warns(UserWarning, match="undirected"):
        with pytest.raises(ContainerFormatError, match="line 8.*duplicate edge"):
            parse_container(path)


def test_count_mismatch_diagnostics(tmp_path):
    path = tmp_path / "short.lspg"
    path.write_text("lspg 1\nG 0\nN 2 0\nM 1 0\nnode 0\nedge 0 1\n")
    with pytest.raises(ContainerFormatError, match="node lines"):
        parse_container(path)

    path.write_text("lspg 1\nG 0\nN 2 1\nM 0 0\nnode 0 1.0 2.0\nnode 1 3.0\n")
    with pytest.raises(ContainerFormatError, match="line 5.*count mismatch"):
        parse_container(path)


def test_self_loop_edge_line_rejected(tmp_path):
    path = tmp_path / "loop.lspg"
    path.write_text("lspg 1\nG 0\nN 2 0\nM 1 0\nnode 0\nnode 1\nedge 1 1\n")
    with pytest.raises(ContainerFormatError, match="loop"):
        parse_container(path)


def test_nodelabels_all_or_none(tmp_path):
    path = tmp_path / "lab.lspg"
    path.write_text(
        "lspg 1\nG 0\nN 2 0\nM 0 0\nnode 0\nnode 1\nnodelabel 0 3\n"
    )
    with pytest.raises(ContainerFormatError, match="all nodes or none"):
        parse_container(path)


def test_comments_and_blanks_skipped(tmp_path):
    path = tmp_path / "c.lspg"
    path.write_text(
        "lspg 1\n# a comment\n\nG 7 label=2\nN 2 0\nM 1 0\n"
        "node 0\n# inner\nnode 1\nedge 0 1\nloop 1\n"
    )
    (g,) = parse_container(path)
    assert g.graph_label == 2
    assert g.self_loops == frozenset({1})


def test_roundtrip_on_generated_corpus(tmp_path):
    cfg = GeneratorConfig(
        num_samples=6, num_classes=3, min_nodes=4, max_nodes=7,
        node_dim=3, edge_dim=2, connectivity_rate=0.5, seed=1,
    )
    graphs = [g for g, _l in generate_dataset(cfg)]
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
        parse_container(path)


def test_multi_graph_container(tmp_path):
    rng = np.random.default_rng(5)
    graphs = [random_graph(rng, 5, 0.5) for _ in range(3)]
    parsed, _path = roundtrip(graphs, tmp_path)
    assert len(parsed) == 3


def test_empty_container_rejected(tmp_path):
    path = tmp_path / "empty.lspg"
    path.write_text("lspg 1\n")
    with pytest.raises(ContainerFormatError, match="no graph"):
        parse_container(path)


@pytest.mark.parametrize("variant", ["lsp_t", "lsp_p"])
def test_family_sidecar_roundtrip(tmp_path, variant):
    fam = LshFamily.from_config(
        LshFamilyConfig(variant, d=5, k=3, m=1024, l=0.75, master_seed=99)
    )
    path = tmp_path / "fam.lsph"
    write_family(fam, path)
    loaded = parse_family(path)
    assert loaded.config == fam.config
    if variant == "lsp_t":
        assert np.array_equal(loaded.thresholds, fam.thresholds)
    else:
        assert np.array_equal(loaded.directions, fam.directions)
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
    text = format_config({"method": "lsp-p", "k": 4, "seed": 7})
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert parse_config_file(path) == {"method": "lsp-p", "k": "4", "seed": "7"}


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# fine\nnot a kv line\n")
    with pytest.raises(ContainerFormatError, match="line 2"):
        parse_config_file(path)


def test_tsv_has_header_and_tabs():
    text = format_tsv(["a", "b"], [[1, 2], [3, 4]])
    lines = text.splitlines()
    assert lines[0] == "a\tb"
    assert lines[1] == "1\t2"
