import numpy as np
import pytest

from lsprune import parse_container, write_container
from lsprune.cli import main

from util import random_graph


@pytest.fixture()
def sample_container(tmp_path):
    rng = np.random.default_rng(0)
    graphs = [
        random_graph(rng, 12, 0.4, node_dim=3, edge_dim=2, with_loops=True),
        random_graph(rng, 8, 0.5, node_dim=3, edge_dim=2),
    ]
    path = tmp_path / "in.lspg"
    write_container(graphs, path)
    return path


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prune_lsp_p_is_byte_deterministic(tmp_path, sample_container, capsys):
    outputs = []
    for name in ("a.lspg", "b.lspg"):
        out = tmp_path / name
        code, stdout, _ = run(
            ["prune", "--input", str(sample_container), "--output", str(out),
             "--method", "lsp-p", "--k", "4", "--l", "1.0", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert "method = lsp-p" in stdout
        outputs.append((out.read_bytes(), (tmp_path / (name + ".family")).read_bytes()))
    assert outputs[0] == outputs[1]


def test_prune_random_p1_keeps_everything(tmp_path, sample_container, capsys):
    out = tmp_path / "out.lspg"
    code, _, _ = run(
        ["prune", "--input", str(sample_container), "--output", str(out),
         "--method", "random", "--p", "1.0", "--seed", "0"],
        capsys,
    )
    assert code == 0
    before = parse_container(sample_container)
    after = parse_container(out)
    for b, a in zip(before, after):
        assert np.array_equal(b.edges, a.edges)
        assert np.array_equal(b.edge_attrs, a.edge_attrs)


def test_prune_writes_report_and_family(tmp_path, sample_container, capsys):
    out = tmp_path / "out.lspg"
    code, _, _ = run(
        ["prune", "--input", str(sample_container), "--output", str(out),
         "--method", "lsp-t", "--k", "2", "--m", "1024", "--seed", "3"],
        capsys,
    )
    assert code == 0
    report = (tmp_path / "out.lspg.report.tsv").read_text().splitlines()
    assert report[0] == "graph\tedges_in\tedges_out\tkept_fraction\twall_time_s"
    assert len(report) == 4  # 2 graphs + TOTAL
    assert report[-1].startswith("TOTAL\t")
    assert (tmp_path / "out.lspg.family").exists()


def test_echo_is_replayable_config(tmp_path, sample_container, capsys):
    out1 = tmp_path / "o1.lspg"
    code, stdout, _ = run(
        ["prune", "--input", str(sample_container), "--output", str(out1),
         "--method", "lsp-p", "--k", "2", "--seed", "5"],
        capsys,
    )
    assert code == 0
    cfg_path = tmp_path / "echo.cfg"
    out2 = tmp_path / "o2.lspg"
    cfg_path.write_text(stdout.replace(str(out1), str(out2)))
    code, _, _ = run(["prune", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_family_sidecar_reload_reproduces_run(tmp_path, sample_container, capsys):
    out1 = tmp_path / "o1.lspg"
    code, _, _ = run(
        ["prune", "--input", str(sample_container), "--output", str(out1),
         "--method", "lsp-p", "--k", "3", "--seed", "11"],
        capsys,
    )
    assert code == 0
    out2 = tmp_path / "o2.lspg"
    code, _, _ = run(
        ["prune", "--input", str(sample_container), "--output", str(out2),
         "--method", "lsp-p", "--family", str(tmp_path / "o1.lspg.family"),
         "--seed", "11"],
        capsys,
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_method_specific_flag_validation(tmp_path, sample_container, capsys):
    out = str(tmp_path / "x.lspg")
    base = ["prune", "--input", str(sample_container), "--output", out]
    code, _, err = run(base + ["--method", "lsp-p", "--p", "0.5"], capsys)
    assert code == 1 and "usage-error" in err
    code, _, err = run(base + ["--method", "random", "--l", "2.0"], capsys)
    assert code == 1 and "usage-error" in err
    code, _, err = run(base + ["--method", "lsp-t", "--l", "2.0"], capsys)
    assert code == 1 and "usage-error" in err
    code, _, err = run(base + ["--method", "lsp-p", "--m", "64"], capsys)
    assert code == 1 and "usage-error" in err


def test_missing_input_is_data_error(tmp_path, capsys):
    code, _, err = run(
        ["prune", "--input", str(tmp_path / "absent.lspg"),
         "--output", str(tmp_path / "o.lspg")],
        capsys,
    )
    assert code == 2
    assert err.startswith("data-error:")


def test_malformed_container_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.lspg"
    bad.write_text("lspg 1\nG 0\nN 2 0\nM 1 0\nnode 0\nnode 1\nedge 0 9\n")
    code, _, err = run(
        ["prune", "--input", str(bad), "--output", str(tmp_path / "o.lspg")],
        capsys,
    )
    assert code == 2
    assert "out-of-range" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 1
    assert err.startswith("usage-error:")


def test_unexpected_failure_is_internal_error(tmp_path, sample_container, capsys, monkeypatch):
    import lsprune.cli as cli_mod

    def boom(*_args, **_kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "prune_dataset", boom)
    code, _, err = run(
        ["prune", "--input", str(sample_container),
         "--output", str(tmp_path / "o.lspg"), "--method", "random", "--p", "0.5"],
        capsys,
    )
    assert code == 3
    assert err.startswith("internal-error:")


def test_generate_round_robin_blocks(tmp_path, capsys):
    out = tmp_path / "data.lspg"
    code, stdout, _ = run(
        ["generate", "--output", str(out), "--num-samples", "10",
         "--num-classes", "5", "--min-nodes", "4", "--max-nodes", "6",
         "--node-dim", "2", "--edge-dim", "2", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert "num_samples = 10" in stdout
    graphs = parse_container(out)
    assert len(graphs) == 10
    assert [g.graph_label for g in graphs] == [0, 1, 2, 3, 4] * 2


def test_generate_deterministic_bytes(tmp_path, capsys):
    args = ["--num-samples", "6", "--num-classes", "3", "--min-nodes", "4",
            "--max-nodes", "5", "--node-dim", "2", "--edge-dim", "1", "--seed", "9"]
    paths = []
    for name in ("d1.lspg", "d2.lspg"):
        out = tmp_path / name
        code, _, _ = run(["generate", "--output", str(out)] + args, capsys)
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_generate_rejects_bad_config(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--output", str(tmp_path / "d.lspg"),
         "--min-nodes", "0"],
        capsys,
    )
    assert code == 1
    assert "usage-error" in err


def test_stats_writes_curve_table(tmp_path, sample_container, capsys):
    out = tmp_path / "curve.tsv"
    code, _, _ = run(
        ["stats", "--input", str(sample_container), "--output", str(out),
         "--depths", "1,2", "--fractions", "0.5,1.0", "--trials", "2",
         "--seed", "4"],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kept_fraction\tdepth\tvariance"
    assert len(lines) == 1 + 2 * 2


def test_compare_all_pairs(tmp_path, capsys):
    g = random_graph(np.random.default_rng(1), 6, 0.6)
    a = tmp_path / "a.lspg"
    write_container([g], a)
    out = tmp_path / "pairs.tsv"
    code, _, _ = run(
        ["compare", "--input", str(a), "--pruned", str(a),
         "--output", str(out), "--all-pairs"],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u\tv\tjaccard_before\tjaccard_after"
    assert len(lines) == 1 + 6 * 5 // 2
    # unpruned comparison: before equals after on every row
    for row in lines[1:]:
        _u, _v, jb, ja = row.split("\t")
        assert jb == ja


def test_compare_pairs_file(tmp_path, capsys):
    g = random_graph(np.random.default_rng(2), 6, 0.5)
    a = tmp_path / "a.lspg"
    write_container([g], a)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n2 3\n")
    out = tmp_path / "out.tsv"
    code, _, _ = run(
        ["compare", "--input", str(a), "--pruned", str(a),
         "--output", str(out), "--pairs-file", str(pairs)],
        capsys,
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_compare_requires_pair_source(tmp_path, capsys):
    g = random_graph(np.random.default_rng(3), 4, 0.5)
    a = tmp_path / "a.lspg"
    write_container([g], a)
    code, _, err = run(
        ["compare", "--input", str(a), "--pruned", str(a),
         "--output", str(tmp_path / "o.tsv")],
        capsys,
    )
    assert code == 1
    assert "pairs" in err


def test_prune_emits_idmap_for_remapped_ids(tmp_path, capsys):
    src = tmp_path / "ids.lspg"
    src.write_text(
        "lspg 1\nG 0\nN 3 0\nM 2 0\nnode 10\nnode 30\nnode 20\n"
        "edge 10 30\nedge 20 30\n"
    )
    out = tmp_path / "out.lspg"
    code, _, _ = run(
        ["prune", "--input", str(src), "--output", str(out),
         "--method", "random", "--p", "1.0"],
        capsys,
    )
    assert code == 0
    idmap = (tmp_path / "out.lspg.idmap").read_text().splitlines()
    assert idmap[0] == "graph\toriginal_id\tdense_id"
    assert "10\t0" in idmap[1]


def test_bucket_count_beyond_2_pow_63_is_usage_error(tmp_path, sample_container, capsys):
    for m in (2**64, 2**65):
        code, _, err = run(
            ["prune", "--input", str(sample_container), "--output", str(tmp_path / "o.lspg"),
             "--method", "lsp-t", "--m", str(m)],
            capsys,
        )
        assert code == 1
        assert err.startswith("usage-error: m must be")


def test_projection_overflow_is_data_error(tmp_path, capsys):
    src = tmp_path / "huge.lspg"
    src.write_text("lspg 1\nG 0\nN 2 1\nM 1 0\nnode 0 1e25\nnode 1 1e25\nedge 0 1\n")
    code, _, err = run(
        ["prune", "--input", str(src), "--output", str(tmp_path / "o.lspg"),
         "--method", "lsp-p"],
        capsys,
    )
    assert code == 2
    assert err.startswith("data-error: graph 0: lsp_p projection bucket outside int64")


def test_random_negative_seed_is_usage_error(tmp_path, sample_container, capsys):
    code, _, err = run(
        ["prune", "--input", str(sample_container), "--output", str(tmp_path / "o.lspg"),
         "--method", "random", "--seed", "-1"],
        capsys,
    )
    assert code == 1
    assert err.startswith("usage-error: seed must be >= 0")


def test_compare_bad_pair_line_names_line(tmp_path, capsys):
    g = random_graph(np.random.default_rng(2), 6, 0.5)
    a = tmp_path / "a.lspg"
    write_container([g], a)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n# comment\n2 x\n")
    code, _, err = run(
        ["compare", "--input", str(a), "--pruned", str(a),
         "--output", str(tmp_path / "out.tsv"), "--pairs-file", str(pairs)],
        capsys,
    )
    assert code == 2
    assert err.startswith("data-error: line 3: pair node must be an integer")
