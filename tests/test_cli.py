import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lsprune
import lsprune.cli as cli
from lsprune import Graph, write_container
from lsprune.cli import main

from util import forked_workers, random_graph, read_graphs


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
    before = read_graphs(sample_container)
    after = read_graphs(out)
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
         "--method", "lsp-p", "--family", str(tmp_path / "o1.lspg.family")],
        capsys,
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_family_run_rejects_overrides_and_echoes_a_replayable_config(
    tmp_path, sample_container, capsys
):
    base = ["prune", "--input", str(sample_container)]
    out1 = tmp_path / "o1.lspg"
    code, _, _ = run(base + ["--output", str(out1), "--method", "lsp-t", "--k", "3"], capsys)
    assert code == 0
    family = str(tmp_path / "o1.lspg.family")
    out2 = str(tmp_path / "o2.lspg")
    for flag, value in (("--k", "2"), ("--m", "16"), ("--seed", "0"), ("--seed", "-1")):
        code, _, err = run(base + ["--output", out2, "--method", "lsp-t", "--family", family,
                                   flag, value], capsys)
        assert code == 1
        assert err.startswith(f"usage-error: {flag} cannot be combined with --family")
    code, _, err = run(base + ["--output", out2, "--method", "lsp-p", "--family", family,
                               "--l", "2.0"], capsys)
    assert code == 1 and "--l cannot be combined with --family" in err
    # a family of the other variant is a usage error, not a silent lsp-t run
    code, _, err = run(base + ["--output", out2, "--method", "lsp-p", "--family", family],
                       capsys)
    assert code == 1
    assert err.startswith("usage-error: --family holds an lsp-t family but method is lsp-p")
    assert not Path(out2).exists()

    code, stdout, _ = run(base + ["--output", out2, "--method", "lsp-t", "--family", family],
                          capsys)
    assert code == 0
    keys = [line.split(" = ")[0] for line in stdout.splitlines()]
    assert "family" in keys and not {"k", "m", "l", "seed"} & set(keys)
    assert Path(out2).read_bytes() == out1.read_bytes()
    cfg_path = tmp_path / "echo.cfg"
    out3 = tmp_path / "o3.lspg"
    cfg_path.write_text(stdout.replace(out2, str(out3)))
    code, _, _ = run(["prune", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert out3.read_bytes() == out1.read_bytes()


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


@pytest.mark.parametrize("flag", [["--attr-mode", "raw_edge"],
                                  ["--endpoint-order", "center_first"], ["--zscore"]])
def test_random_rejects_lsp_only_flags(tmp_path, sample_container, capsys, flag):
    out = tmp_path / "x.lspg"
    code, stdout, err = run(["prune", "--input", str(sample_container), "--output", str(out),
                             "--method", "random"] + flag, capsys)
    assert (code, stdout) == (1, "")
    assert err == f"usage-error: {flag[0]} only applies to lsp-t/lsp-p\n"
    assert not out.exists()


def test_random_rejects_lsp_only_config_key(tmp_path, sample_container, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {sample_container}\noutput = {tmp_path / 'x.lspg'}\n"
                   "method = random\nattr_mode = node_only\n")
    code, stdout, err = run(["prune", "--config", str(cfg)], capsys)
    assert (code, stdout) == (1, "")
    assert err == "usage-error: --attr-mode only applies to lsp-t/lsp-p\n"


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
    graphs = read_graphs(out)
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


def test_node_ids_beyond_int64_are_remapped_not_an_error(tmp_path, capsys):
    big = 2**64 + 30
    src = tmp_path / "ids.lspg"
    src.write_text(f"lspg 1\nG 0\nN 3 0\nM 2 0\nnode 10\nnode {big}\nnode 20\n"
                   f"edge 10 {big}\nedge 20 {big}\n")
    out = tmp_path / "out.lspg"
    code, _, _ = run(["prune", "--input", str(src), "--output", str(out),
                      "--method", "random", "--p", "1.0"], capsys)
    assert code == 0
    idmap = (tmp_path / "out.lspg.idmap").read_text().splitlines()
    assert idmap[1:] == ["0\t10\t0", "0\t20\t2", f"0\t{big}\t1"]
    assert out.read_text().endswith("edge 0 1\nedge 1 2\n")


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
    assert err.startswith("data-error: graph '0' (index 0): lsp_p projection bucket outside int64")


@pytest.mark.parametrize("options", [["--method", "lsp-t"], ["--method", "lsp-p"],
                                     ["--method", "lsp-p", "--zscore"]])
def test_infinite_attributes_of_both_signs_are_data_error(tmp_path, capsys, options):
    # inf + -inf is nan: a numpy "invalid value" warning, an error under this suite's filters
    src = tmp_path / "inf.lspg"
    src.write_text("lspg 1\nG a\nN 2 1\nM 1 0\nnode 0 inf\nnode 1 -inf\nedge 0 1\n")
    code, _, err = run(["prune", "--input", str(src), "--output", str(tmp_path / "o.lspg")]
                       + options, capsys)
    assert code == 2
    assert err == "data-error: graph 'a' (index 0): attribute vectors contain non-finite entries\n"


@pytest.mark.parametrize("exponent", [520, -520])
@pytest.mark.parametrize("attr_mode", ["node_only", "node_and_edge", "raw_edge"])
def test_zscore_output_does_not_depend_on_attribute_scale(tmp_path, capsys, exponent, attr_mode):
    # a z-score is scale-invariant; at 2**520 the squares of the values overflow float64
    rng = np.random.default_rng(6)
    graphs = [random_graph(rng, 14, 0.4, node_dim=3, edge_dim=2) for _ in range(3)]
    scaled = [Graph(g.num_nodes, g.edges, node_attrs=np.ldexp(g.node_attrs, exponent),
                    edge_attrs=np.ldexp(g.edge_attrs, exponent)) for g in graphs]
    kept, families = [], []
    for name, dataset in (("plain", graphs), ("scaled", scaled)):
        write_container(dataset, tmp_path / f"{name}.lspg")
        out = tmp_path / f"{name}-out.lspg"
        code, _, _ = run(["prune", "--input", str(tmp_path / f"{name}.lspg"), "--output",
                          str(out), "--method", "lsp-p", "--zscore", "--attr-mode", attr_mode,
                          "--k", "2", "--l", "0.5", "--seed", "3"], capsys)
        assert code == 0
        kept.append([g.edges.tolist() for g in read_graphs(out)])
        families.append((tmp_path / f"{name}-out.lspg.family").read_bytes())
    assert kept[0] == kept[1]
    assert families[0] == families[1]
    assert 0 < sum(map(len, kept[0])) < sum(g.num_edges for g in graphs)


@pytest.mark.parametrize("text", ["N 2 1\nM 0 2\nnode 0 0.5\nnode 1 1.5\n", "N 0 1\nM 0 2\n"])
@pytest.mark.parametrize("attr_mode", ["node_only", "node_and_edge", "raw_edge"])
def test_zscore_on_a_graph_without_edges_or_nodes(tmp_path, capsys, text, attr_mode):
    # an attribute column with no rows has no mean: it is left as it is, with no warning
    src = tmp_path / "empty.lspg"
    src.write_text("lspg 1\nG a\n" + text)
    out = tmp_path / "o.lspg"
    argv = ["prune", "--input", str(src), "--output", str(out), "--method", "lsp-p", "--zscore",
            "--attr-mode", attr_mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.read_text() == src.read_text()


def test_random_negative_seed_is_usage_error(tmp_path, sample_container, capsys):
    code, _, err = run(
        ["prune", "--input", str(sample_container), "--output", str(tmp_path / "o.lspg"),
         "--method", "random", "--seed", "-1"],
        capsys,
    )
    assert code == 1
    assert err.startswith("usage-error: seed must be >= 0")


@pytest.mark.parametrize("method", ["lsp-t", "lsp-p"])
def test_lsp_negative_seed_is_usage_error(tmp_path, sample_container, capsys, method):
    code, _, err = run(
        ["prune", "--input", str(sample_container), "--output", str(tmp_path / "o.lspg"),
         "--method", method, "--seed", "-1"],
        capsys,
    )
    assert code == 1
    assert err.startswith("usage-error: seed must be >= 0")
    assert not (tmp_path / "o.lspg").exists()


def test_family_negative_seed_is_data_error(tmp_path, sample_container, capsys):
    out = tmp_path / "o.lspg"
    base = ["prune", "--input", str(sample_container), "--method", "lsp-t"]
    code, _, _ = run(base + ["--output", str(out)], capsys)
    assert code == 0
    family = tmp_path / "o.lspg.family"
    lines = family.read_text().split("\n")
    lines[1] = lines[1].rsplit(" ", 1)[0] + " -1"  # the master seed closes line 2
    family.write_text("\n".join(lines))
    code, _, err = run(
        base + ["--output", str(tmp_path / "o2.lspg"), "--family", str(family)], capsys
    )
    assert code == 2
    assert err.startswith("data-error: line 2: seed must be >= 0")


def test_generate_negative_seed_is_usage_error(tmp_path, capsys):
    code, _, err = run(
        ["generate", "--output", str(tmp_path / "d.lspg"), "--num-samples", "2",
         "--seed", "-1"],
        capsys,
    )
    assert code == 1
    assert err.startswith("usage-error: seed must be >= 0")
    assert not (tmp_path / "d.lspg").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--node-centers-std", "--edge-centers-std",
                                  "--node-noise-std", "--edge-noise-std"])
def test_generate_non_finite_std_is_usage_error(tmp_path, capsys, flag, value):
    code, out, err = run(
        ["generate", "--output", str(tmp_path / "d.lspg"), "--num-samples", "2", flag, value],
        capsys,
    )
    assert code == 1
    name = flag[2:].replace("-", "_")
    assert err.startswith(f"usage-error: {name} must be finite and >= 0, got {value}")
    assert out == "" and not (tmp_path / "d.lspg").exists()


def test_stats_negative_seed_is_usage_error(tmp_path, sample_container, capsys):
    code, _, err = run(
        ["stats", "--input", str(sample_container), "--output", str(tmp_path / "c.tsv"),
         "--depths", "1", "--fractions", "0.5", "--seed", "-1"],
        capsys,
    )
    assert code == 1
    assert err.startswith("usage-error: seed must be >= 0")


def test_import_loads_no_scipy(tmp_path, sample_container):
    # numpy is the only runtime dependency: no import and no subcommand loads scipy
    src = str(Path(lsprune.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n2 5\n")
    commands = [
        [],
        ["stats", "--input", str(sample_container), "--output", str(tmp_path / "c.tsv"),
         "--depths", "1,3", "--fractions", "0.5,1.0"],
        ["compare", "--input", str(sample_container), "--pruned", str(sample_container),
         "--output", str(tmp_path / "j.tsv"), "--pairs-file", str(pairs)],
    ]
    for argv in commands:
        code = (
            "import sys, lsprune, lsprune.cli; "
            f"rc = lsprune.cli.main({argv!r}) if {argv!r} else 0; "
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "0 []", argv
    assert (tmp_path / "c.tsv").exists() and (tmp_path / "j.tsv").exists()


@pytest.mark.parametrize("kind", ["lspg", "G", "N", "M", "node", "edge", "nodelabel", "loop"])
def test_container_line_cut_to_its_tag_is_data_error(tmp_path, capsys, kind):
    g = random_graph(np.random.default_rng(4), 5, 0.6, node_dim=2, edge_dim=1,
                     with_loops=True, with_labels=True)
    path = tmp_path / "in.lspg"
    write_container([g], path)
    lines = path.read_text().split("\n")
    lineno = next(i for i, text in enumerate(lines, 1) if text.split()[0] == kind)
    lines[lineno - 1] = kind
    path.write_text("\n".join(lines))
    code, _, err = run(["prune", "--input", str(path), "--output", str(tmp_path / "o.lspg"),
                        "--method", "random"], capsys)
    assert code == 2
    assert err.startswith(f"data-error: line {lineno}:")


@pytest.mark.parametrize("method,kind", [("lsp-p", "lsph"), ("lsp-p", "family"),
                                         ("lsp-t", "w"), ("lsp-p", "w"), ("lsp-p", "b")])
def test_family_line_cut_to_its_tag_is_data_error(tmp_path, sample_container, capsys,
                                                  method, kind):
    base = ["prune", "--input", str(sample_container), "--method", method]
    code, _, _ = run(base + ["--output", str(tmp_path / "o.lspg")], capsys)
    assert code == 0
    family = tmp_path / "o.lspg.family"
    lines = family.read_text().split("\n")
    lineno = next(i for i, text in enumerate(lines, 1) if text.split()[0] == kind)
    lines[lineno - 1] = kind
    family.write_text("\n".join(lines))
    code, _, err = run(base + ["--output", str(tmp_path / "o2.lspg"), "--family", str(family)],
                       capsys)
    assert code == 2
    assert err.startswith(f"data-error: line {lineno}:")


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


@pytest.mark.parametrize("flag,value,message", [
    ("--trials", "0", "trials must be >= 1, got 0"),
    ("--depths", "0,-1", "depths must be >= 1, got (0, -1)"),
    ("--depths", "", "depths must be >= 1, got ()"),
    ("--fractions", "0,1.5", "fractions must lie in (0, 1], got (0.0, 1.5)"),
    ("--fractions", "nan", "fractions must lie in (0, 1], got (nan,)"),
])
def test_stats_bad_curve_flag_is_usage_error_before_parsing(tmp_path, capsys, flag, value,
                                                            message):
    # the input does not exist: the flags are checked before it would be read
    code, _, err = run(
        ["stats", "--input", str(tmp_path / "absent.lspg"), "--output", str(tmp_path / "c.tsv"),
         flag, value],
        capsys,
    )
    assert code == 1
    assert err == f"usage-error: {message}\n"


def _mixed_container(path, first: dict, second: dict) -> None:
    rng = np.random.default_rng(9)
    graphs = [random_graph(rng, 6, 0.6, **first), random_graph(rng, 5, 0.6, **second)]
    write_container(graphs, path, graph_ids=["a", "b"])


@pytest.mark.parametrize("method", ["lsp-t", "lsp-p"])
@pytest.mark.parametrize("first,second,message", [
    ({"node_dim": 2}, {"node_dim": 3},
     "graph 'b' (index 1): family dimension 4 does not match attributes of dimension 6"),
    ({"node_dim": 2}, {"edge_dim": 1},
     "graph 'b' (index 1): mode 'node_only' requires node attributes"),
    ({"node_dim": 2, "edge_dim": 1}, {"node_dim": 2},
     "graph 'b' (index 1): mode 'node_and_edge' requires edge attributes"),
    ({}, {"node_dim": 2},
     "graph 'a' (index 0): graph carries no attributes; cannot construct hash inputs"),
])
def test_heterogeneous_container_is_rejected_before_hashing(tmp_path, capsys, monkeypatch,
                                                            method, first, second, message):
    src = tmp_path / "mixed.lspg"
    _mixed_container(src, first, second)
    monkeypatch.setattr("lsprune.cli.prune_dataset", None)  # nothing may be hashed
    out = tmp_path / "o.lspg"
    code, _, err = run(["prune", "--input", str(src), "--output", str(out), "--method", method],
                       capsys)
    assert code == 2
    assert err == f"data-error: {message}\n"
    assert not out.exists()


def test_family_dimension_is_checked_against_every_graph(tmp_path, sample_container, capsys):
    code, _, _ = run(["prune", "--input", str(sample_container), "--output",
                      str(tmp_path / "o.lspg"), "--method", "lsp-t"], capsys)
    assert code == 0
    src = tmp_path / "mixed.lspg"
    _mixed_container(src, {"node_dim": 3, "edge_dim": 2}, {"node_dim": 2, "edge_dim": 2})
    code, _, err = run(["prune", "--input", str(src), "--output", str(tmp_path / "o2.lspg"),
                        "--method", "lsp-t", "--family", str(tmp_path / "o.lspg.family")],
                       capsys)
    assert code == 2
    assert err == ("data-error: graph 'b' (index 1): family dimension 8 does not match "
                   "attributes of dimension 6\n")


@pytest.mark.parametrize("pair,message", [
    ("0 99999999999999999999", "line 2: pair (0, 99999999999999999999) out of range"),
    ("-1 2", "pair (-1, 2) out of range"),
])
def test_compare_pair_outside_the_graph_is_data_error(tmp_path, capsys, pair, message):
    g = random_graph(np.random.default_rng(2), 6, 0.5)
    a = tmp_path / "a.lspg"
    write_container([g], a)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"0 1\n{pair}\n")
    code, _, err = run(
        ["compare", "--input", str(a), "--pruned", str(a),
         "--output", str(tmp_path / "out.tsv"), "--pairs-file", str(pairs)],
        capsys,
    )
    assert code == 2
    assert err == f"data-error: {message}\n"


# ------------------------------------------------ read rule: stats and compare stop at their block

@pytest.fixture()
def five_blocks(tmp_path):
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, 9, 0.5, node_dim=2, edge_dim=1) for _ in range(5)]
    path = tmp_path / "five.lspg"
    write_container(graphs, path)
    return path


def _block_starts(text: str) -> list[int]:
    """Character offsets of the 'G' header lines of a container text."""
    starts, pos = [], 0
    for line in text.splitlines(keepends=True):
        if line.startswith("G "):
            starts.append(pos)
        pos += len(line)
    return starts


def _stats(path, out, index):
    return ["stats", "--input", str(path), "--output", str(out), "--graph-index", str(index),
            "--depths", "1,2", "--fractions", "0.5,1.0"]


def _compare(path, out, index, pruned=None):
    return ["compare", "--input", str(path), "--pruned", str(pruned or path), "--output",
            str(out), "--graph-index", str(index), "--all-pairs"]


@pytest.mark.parametrize("command", [_stats, _compare])
@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_block_after_the_chosen_one_is_not_read(tmp_path, five_blocks, capsys, command, damage):
    text = five_blocks.read_text()
    starts = _block_starts(text)
    if damage == "garbage":
        text = text[: starts[2]] + "G 2\nthis is not a block\n" + text[starts[3]:]
    else:  # cut in the middle of block 2's edge lines
        text = text[: (starts[2] + starts[3]) // 2]
    damaged = tmp_path / "damaged.lspg"
    damaged.write_text(text)
    outs = []
    for path in (five_blocks, damaged):
        out = tmp_path / f"{path.stem}.tsv"
        code, _, err = run(command(path, out, 1), capsys)
        assert code == 0, err
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    code, _, err = run(command(damaged, tmp_path / "x.tsv", 2), capsys)  # the damaged block
    assert code == 2 and err.startswith("data-error: line ")


@pytest.mark.parametrize("command", [_stats, _compare])
def test_malformed_block_before_the_chosen_one_is_data_error(tmp_path, five_blocks, capsys,
                                                             command):
    lines = five_blocks.read_text().split("\n")
    lineno = [i for i, text in enumerate(lines, 1) if text.startswith("edge ")][1]
    lines[lineno - 1] = "edge 0 99 1.0"  # in block 0
    five_blocks.write_text("\n".join(lines))
    code, _, err = run(command(five_blocks, tmp_path / "x.tsv", 3), capsys)
    assert code == 2
    assert err == (f"data-error: line {lineno}: out-of-range index: edge endpoint 99 is not a "
                   "declared node\n")


@pytest.mark.parametrize("command,reads", [(_stats, 1), (_compare, 2)])
@pytest.mark.parametrize("index", [0, 2, 4])
def test_blocks_parsed_are_index_plus_one(tmp_path, five_blocks, capsys, monkeypatch, command,
                                          reads, index):
    import lsprune.container as container

    calls = []
    real = container._parse_block

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(container, "_parse_block", counting)
    code, _, err = run(command(five_blocks, tmp_path / "x.tsv", index), capsys)
    assert code == 0, err
    assert len(calls) == reads * (index + 1)


def test_graph_index_past_the_end_keeps_its_messages(tmp_path, five_blocks, capsys):
    code, _, err = run(_stats(five_blocks, tmp_path / "x.tsv", 5), capsys)
    assert code == 1
    assert err == "usage-error: graph_index 5 outside container of 5\n"
    code, _, err = run(_compare(five_blocks, tmp_path / "x.tsv", 7), capsys)
    assert code == 1
    assert err == "usage-error: graph_index 7 outside the containers\n"
    shorter = tmp_path / "shorter.lspg"  # the pruned container ends first
    write_container(read_graphs(five_blocks)[:2], shorter)
    code, _, err = run(_compare(five_blocks, tmp_path / "x.tsv", 3, pruned=shorter), capsys)
    assert code == 1
    assert err == "usage-error: graph_index 3 outside the containers\n"
    assert not (tmp_path / "x.tsv").exists()


@pytest.mark.parametrize("command", [_stats, _compare])
def test_negative_graph_index_is_usage_error_before_reading(tmp_path, capsys, command):
    absent = tmp_path / "absent.lspg"  # a read would be a data error
    code, _, err = run(command(absent, tmp_path / "x.tsv", -1), capsys)
    assert code == 1
    assert err == "usage-error: graph_index must be non-negative, got -1\n"


# ------------------------------------------------ streaming generate and atomic outputs

_FIXED_SIZE = ["--num-classes", "1", "--min-nodes", "20", "--max-nodes", "20",
               "--node-removal-probability", "0.0", "--seed", "5"]


def test_generate_memory_is_bounded_by_one_sample(tmp_path, capsys):
    # peak minus what is retained: the same for 1 and 40 samples of one size
    def transient(samples, out):
        tracemalloc.start()
        try:
            code = main(["generate", "--output", str(out), "--num-samples", str(samples)]
                        + _FIXED_SIZE)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        return peak - retained

    one, many = tmp_path / "one.lspg", tmp_path / "many.lspg"
    extra = transient(40, many) - transient(1, one)
    assert len(read_graphs(many)) == 40
    assert extra < one.stat().st_size / 4  # one sample's text


def _failing_at_sample(monkeypatch, at):
    import lsprune.generator as generator

    real = generator.generate_sample

    def faulty(cfg, templates, index):
        if index == at:
            raise RuntimeError(f"sample {index} failed")
        return real(cfg, templates, index)

    monkeypatch.setattr(generator, "generate_sample", faulty)


def test_generate_failure_leaves_no_output(tmp_path, capsys, monkeypatch, writer):
    _failing_at_sample(monkeypatch, 3)
    forks = writer(2)  # five samples make two batches: formatted by forked workers
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(["generate", "--output", str(out_dir / "d.lspg"), "--num-samples", "5"]
                       + _FIXED_SIZE, capsys)
    assert code == 3 and "sample 3 failed" in err
    assert list(out_dir.iterdir()) == []  # no container and no temporary file
    assert len(forks) == forked_workers(2, 4, 5)


def test_generate_failure_leaves_an_existing_output_as_it_was(tmp_path, capsys, monkeypatch,
                                                              writer):
    out = tmp_path / "d.lspg"
    code, _, _ = run(["generate", "--output", str(out), "--num-samples", "2"] + _FIXED_SIZE,
                     capsys)
    assert code == 0
    before = out.read_bytes()
    _failing_at_sample(monkeypatch, 3)
    forks = writer(2)
    code, _, _ = run(["generate", "--output", str(out), "--num-samples", "5"] + _FIXED_SIZE,
                     capsys)
    assert code == 3
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.lspg"]
    assert len(forks) == forked_workers(2, 4, 5)


def test_outputs_to_dev_null(tmp_path, sample_container, capsys):
    for argv in (["generate", "--num-samples", "3"] + _FIXED_SIZE,
                 ["stats", "--input", str(sample_container), "--depths", "1",
                  "--fractions", "1.0"]):
        code, _, err = run(argv + ["--output", os.devnull], capsys)
        assert code == 0, err
    assert Path(os.devnull).is_char_device()


def test_outputs_get_the_mode_a_plain_open_gives(tmp_path, sample_container, capsys):
    old = os.umask(0o037)
    try:
        out = tmp_path / "o.lspg"
        code, _, _ = run(["prune", "--input", str(sample_container), "--output", str(out),
                          "--method", "lsp-t"], capsys)
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, Path(f"{out}.report.tsv"), Path(f"{out}.family")):
        assert path.stat().st_mode & 0o777 == 0o666 & ~0o037


def test_symlinked_output_is_written_through(tmp_path, sample_container, capsys):
    real = tmp_path / "real.tsv"
    real.write_text("stale\n")
    link = tmp_path / "link.tsv"
    link.symlink_to(real)
    code, _, _ = run(["stats", "--input", str(sample_container), "--output", str(link),
                      "--depths", "1", "--fractions", "1.0"], capsys)
    assert code == 0
    assert link.is_symlink()
    assert real.read_text().startswith("kept_fraction\tdepth\tvariance\n")


# ------------------------------------------------ OS errors are data errors

def test_input_that_is_a_directory_is_data_error(tmp_path, capsys):
    code, _, err = run(["stats", "--input", str(tmp_path), "--output",
                        str(tmp_path / "x.tsv")], capsys)
    assert code == 2
    assert err.startswith("data-error: [Errno 21] Is a directory")


def test_config_that_is_a_directory_is_data_error(tmp_path, sample_container, capsys):
    code, _, err = run(["stats", "--config", str(tmp_path), "--input", str(sample_container),
                        "--output", str(tmp_path / "x.tsv")], capsys)
    assert code == 2
    assert err.startswith("data-error: [Errno 21] Is a directory")


@pytest.mark.parametrize("parent,reason", [("missing", "No such file or directory"),
                                           ("a-file", "Not a directory")])
def test_output_under_a_bad_parent_is_data_error_naming_it(tmp_path, sample_container, capsys,
                                                           parent, reason):
    (tmp_path / "a-file").write_text("")
    out = tmp_path / parent / "x.tsv"
    code, _, err = run(["stats", "--input", str(sample_container), "--output", str(out),
                        "--depths", "1", "--fractions", "1.0"], capsys)
    assert code == 2
    assert err == f"data-error: [Errno {2 if parent == 'missing' else 20}] {reason}: '{out}'\n"


# ------------------------------------------------ one option table: flags and config keys alike

def _flag(key):
    return "--" + key.replace("_", "-")


def _rows(keep=lambda typ, default: True):
    """(command, schema row) for every row of every subcommand that ``keep`` accepts."""
    return [pytest.param(command, row, id=f"{command}-{row[0]}")
            for command, (schema, _run, _help) in cli._COMMANDS.items()
            for row in schema if keep(row[1], row[2])]


def _required(command, tmp_path, skip=None):
    """Each required option of ``command`` but ``skip``, with a placeholder path."""
    schema = cli._COMMANDS[command][0]
    return [(key, str(tmp_path / key)) for key, _t, default in schema
            if default is None and key != skip]


def _as_flags(pairs):
    return [text for key, value in pairs for text in (_flag(key), value)]


def _config(tmp_path, pairs):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in pairs))
    return str(path)


@pytest.mark.parametrize("command,row", _rows(lambda typ, default: typ not in (str, bool)))
def test_bad_value_fails_alike_by_flag_and_by_config_key(tmp_path, capsys, command, row):
    key = row[0]
    base = [command] + _as_flags(_required(command, tmp_path))
    by_flag = run(base + [_flag(key), "bogus"], capsys)
    by_key = run(base + ["--config", _config(tmp_path, [(key, "bogus")])], capsys)
    assert by_flag == by_key
    code, stdout, err = by_flag
    assert (code, stdout) == (1, "")
    assert err.startswith(f"usage-error: {key} must be ")


@pytest.mark.parametrize("command,row", _rows())
def test_good_value_resolves_alike_by_flag_and_by_config_key(tmp_path, command, row):
    key, typ, _default = row
    value = {int: "3", float: "0.5", str: "some text", bool: "true", list[int]: "1,2",
             list[float]: "0.5,1.0"}.get(typ) or typ[-1]
    schema = cli._COMMANDS[command][0]
    required = _as_flags(_required(command, tmp_path, skip=key))
    flag = [_flag(key)] if typ is bool else [_flag(key), value]
    argvs = ([command] + required + flag,
             [command] + required + ["--config", _config(tmp_path, [(key, value)])])
    by_flag, by_key = (cli._resolve(command, schema, cli.build_parser().parse_args(argv))
                       for argv in argvs)
    assert by_flag == by_key
    assert key in by_flag["_explicit"]


@pytest.mark.parametrize("command,row", _rows(lambda typ, default: default is None))
def test_missing_required_option_fails_alike_by_flags_and_by_config(tmp_path, capsys, command,
                                                                     row):
    others = _required(command, tmp_path, skip=row[0])
    by_flags = run([command] + _as_flags(others), capsys)
    by_config = run([command, "--config", _config(tmp_path, others)], capsys)
    assert by_flags == by_config
    assert by_flags == (1, "", f"usage-error: {command} requires {_flag(row[0])}\n")


@pytest.mark.parametrize("command,row", _rows())
def test_help_lists_each_flag_with_its_choices(capsys, command, row):
    key, typ, _default = row
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    shown = f"{_flag(key)} {{{','.join(typ)}}}" if isinstance(typ, tuple) else _flag(key)
    assert re.search(rf"^ +{re.escape(shown)}( |$)", text, re.M), text


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_unknown_config_key_is_usage_error_naming_it(tmp_path, capsys, command):
    out = tmp_path / "missing" / "o.out"  # were the key ignored, no command would run long
    path = _config(tmp_path, [("output", out), ("methd", "random")])
    code, stdout, err = run([command, "--config", path], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"usage-error: config key 'methd' is not a {command} option\n"
    assert not out.exists()


def test_config_key_given_twice_is_data_error_naming_its_line(tmp_path, sample_container,
                                                              capsys):
    out = tmp_path / "o.lspg"
    path = tmp_path / "run.cfg"
    path.write_text(f"input = {sample_container}\noutput = {out}\n# lsp-t\nmethod = lsp-t\n"
                    "k = 2\nk = 3\n")
    code, stdout, err = run(["prune", "--config", str(path)], capsys)
    assert (code, stdout) == (2, "")
    assert err == "data-error: line 6: config key 'k' given twice\n"
    assert not out.exists()


def test_compare_rejects_both_pair_sources(tmp_path, capsys):
    g = random_graph(np.random.default_rng(3), 6, 0.5)
    a = tmp_path / "a.lspg"
    write_container([g], a)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n")
    out = tmp_path / "o.tsv"
    code, stdout, err = run(["compare", "--input", str(a), "--pruned", str(a), "--output",
                             str(out), "--pairs-file", str(pairs), "--all-pairs"], capsys)
    assert (code, stdout) == (1, "")
    assert err == "usage-error: compare takes --pairs-file or --all-pairs, not both\n"
    assert not out.exists()


@pytest.mark.parametrize("command,argv", [
    ("generate", ["--num-samples", "4", "--min-nodes", "5", "--max-nodes", "7", "--node-dim",
                  "2", "--edge-dim", "1", "--is-symmetric", "--seed", "3"]),
    ("stats", ["--input", "{input}", "--graph-index", "1", "--depths", "1,2", "--fractions",
               "0.5,1.0", "--trials", "2", "--seed", "5"]),
    ("compare", ["--input", "{input}", "--pruned", "{input}", "--graph-index", "1",
                 "--all-pairs"]),
    ("compare", ["--input", "{input}", "--pruned", "{input}", "--pairs-file", "{pairs}"]),
])
def test_echo_replays_through_config(tmp_path, sample_container, capsys, command, argv):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n2 5\n")
    argv = [a.format(input=sample_container, pairs=pairs) for a in argv]
    first, replay = tmp_path / "first.out", tmp_path / "replay.out"
    code, echo, _ = run([command, "--output", str(first)] + argv, capsys)
    assert code == 0
    path = tmp_path / "echo.cfg"
    path.write_text(echo)
    code, echo_again, _ = run([command, "--config", str(path), "--output", str(replay)], capsys)
    assert code == 0
    assert echo_again == echo.replace(str(first), str(replay))
    assert replay.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("key,text,kinds", [("depths", "1,a", "integers"),
                                            ("fractions", "0.5,x", "numbers")])
def test_bad_stats_list_is_named_before_the_echo(tmp_path, sample_container, capsys, key, text,
                                                 kinds):
    out = tmp_path / "c.tsv"
    code, stdout, err = run(["stats", "--input", str(sample_container), "--output", str(out),
                             _flag(key), text], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"usage-error: {key} must be a comma-separated list of {kinds}, got {text!r}\n"
    assert not out.exists()


def test_stats_echo_of_a_list_replays(tmp_path, sample_container, capsys):
    first, replay = tmp_path / "first.tsv", tmp_path / "replay.tsv"
    code, echo, _ = run(["stats", "--input", str(sample_container), "--output", str(first),
                         "--depths", " 1,,2", "--fractions", "0.50, 1e0"], capsys)
    assert code == 0
    assert "depths = 1,2\nfractions = 0.5,1.0\n" in echo
    (tmp_path / "echo.cfg").write_text(echo)
    code, _, _ = run(["stats", "--config", str(tmp_path / "echo.cfg"), "--output", str(replay)],
                     capsys)
    assert code == 0
    assert replay.read_bytes() == first.read_bytes()


def test_bad_boolean_config_value_names_its_key(tmp_path, sample_container, capsys):
    path = _config(tmp_path, [("input", sample_container), ("output", tmp_path / "o.lspg"),
                              ("method", "lsp-t"), ("zscore", "maybe")])
    code, stdout, err = run(["prune", "--config", path], capsys)
    assert (code, stdout) == (1, "")
    assert err == "usage-error: zscore must be a boolean, got 'maybe'\n"


@pytest.mark.parametrize("text", [" d.lspg", "d.lspg ", "\td.lspg"])
def test_string_option_with_outer_whitespace_is_usage_error(tmp_path, capsys, monkeypatch,
                                                            text):
    # a config file strips its values, so the echo of such a value would not replay
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["generate", "--output", text, "--num-samples", "1"], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"usage-error: output must not begin or end with whitespace, got {text!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text", ["d\nx.lspg", "d\rx.lspg", "d\x0bx.lspg", "d\x1cx.lspg",
                                  "d\x85x.lspg", "d\u2028x.lspg", "d\u2029x.lspg"])
def test_string_option_with_a_line_break_is_usage_error(tmp_path, capsys, monkeypatch, text):
    # the echo would break such a value across two config lines
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["generate", "--output", text, "--num-samples", "1"], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"usage-error: output must not contain a line break, got {text!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["lsp-t", "lsp-p"])
def test_graph_failing_while_hashed_is_named_by_id_and_index(tmp_path, capsys, method):
    src = tmp_path / "nan.lspg"
    src.write_text("lspg 1\nG a\nN 2 1\nM 1 0\nnode 0 0.5\nnode 1 1.5\nedge 0 1\n"
                   "G b\nN 2 1\nM 1 0\nnode 0 nan\nnode 1 1.0\nedge 0 1\n")
    out = tmp_path / "o.lspg"
    code, _, err = run(["prune", "--input", str(src), "--output", str(out), "--method", method],
                       capsys)
    assert code == 2
    assert err == ("data-error: graph 'b' (index 1): attribute vectors contain non-finite "
                   "entries\n")
    assert not out.exists()
