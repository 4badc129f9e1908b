"""Frozen SHA-256 digests of every deterministic CLI output.

The input is a tiny hand-written container: graph ``a`` has dense node ids, a
label, node labels and a loop; graph ``b`` has arbitrary ids, so ``prune``
also writes an ``.idmap``.  Both LSH variants are pruned; ``stats`` and
``compare`` (all pairs and a pairs file) run on the results.  The timing
column of ``.report.tsv`` is dropped before hashing.  Any change to an output
byte fails here and must be made on purpose.
"""

from __future__ import annotations

import hashlib

from lsprune.cli import main

CONTAINER = """\
lspg 1
G a label=1
N 6 2
M 8 1
node 0 0.5 -1.25
node 1 1.5 0.25
node 2 -0.75 2.0
node 3 0.0 -0.5
node 4 2.25 1.0
node 5 -1.5 -2.0
edge 0 1 0.5
edge 0 2 -1.0
edge 1 2 2.5
edge 1 3 0.75
edge 2 4 -0.25
edge 3 4 1.25
edge 3 5 -2.0
edge 4 5 0.125
nodelabel 0 1
nodelabel 1 0
nodelabel 2 1
nodelabel 3 2
nodelabel 4 0
nodelabel 5 1
loop 5
G b
N 6 2
M 5 1
node 10 1.0 0.5
node 30 -0.5 1.5
node 20 0.25 -1.0
node 40 2.0 2.0
node 7 -1.0 0.0
node 50 0.75 0.75
edge 10 30 1.5
edge 10 20 -0.5
edge 20 30 0.25
edge 20 40 -1.75
edge 7 40 1.0
"""

PAIRS = "# u v\n0 0\n0 1\n5 5\n2 3\n\n3 4\n5 0\n"

GOLDEN = {
    "lsp-t.container": "8aa1c1cff4824cce95ef77a0305cd38cd4dc391636523a8ecac3a77e8114ec84",
    "lsp-t.family": "9e1dbae63b65c42f01f4dc61b5cb6552b5d5ddf1fbe8753839b38cf94b69a8e8",
    "lsp-t.idmap": "800e475e96341bb281fe9f61ef7d579ba64af64b4e01cd683a84981f4a062660",
    "lsp-t.report": "74f42b9030949b4924bb1cc9700c357b8108e0340a1b5dd00c532df5b5a65fd5",
    "lsp-p.container": "18ae20f6c56f9ad3f1a6bb7598f184dc31674022796a4dfb7d415169fd47f522",
    "lsp-p.family": "6fcd10b5a743d1c640cb861734883005e7bd956c398e05555ecbf9384bf53686",
    "lsp-p.idmap": "800e475e96341bb281fe9f61ef7d579ba64af64b4e01cd683a84981f4a062660",
    "lsp-p.report": "54efa51d549712e061efb31ec6a1e605069b8130932caebc5cee8e0c1b957075",
    "stats": "2db4e18ad9493c9449903394a26f647914848439db930e8f2148cbb9c5cd9ef8",
    "compare.all_pairs": "a3eaee36e012fd4e7563b2b8eff92083b83525bebac22675e4d9cd3984105992",
    "compare.pairs_file": "84c8311f85d5c010b3b0deab17989912de07f30d5f8d13dd507f3b9a6f52b42a",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _drop_last_column(text: str) -> bytes:
    return "\n".join(line.rsplit("\t", 1)[0] for line in text.splitlines()).encode()


def cli_output_digests(tmp_path) -> dict[str, str]:
    src = tmp_path / "in.lspg"
    src.write_text(CONTAINER)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(PAIRS)
    digests = {}
    for method, flags in (("lsp-t", ["--k", "1", "--m", "1024"]),
                          ("lsp-p", ["--k", "2", "--l", "0.5"])):
        out = tmp_path / f"{method}.lspg"
        assert main(["prune", "--input", str(src), "--output", str(out),
                     "--method", method, "--seed", "5"] + flags) == 0
        digests[f"{method}.container"] = _sha(out.read_bytes())
        for sidecar in (".family", ".idmap"):
            digests[f"{method}{sidecar}"] = _sha((tmp_path / (out.name + sidecar)).read_bytes())
        report = (tmp_path / (out.name + ".report.tsv")).read_text()
        digests[f"{method}.report"] = _sha(_drop_last_column(report))

    table = tmp_path / "stats.tsv"
    assert main(["stats", "--input", str(src), "--output", str(table),
                 "--depths", "1,2", "--fractions", "0.5,1.0", "--trials", "2",
                 "--seed", "3"]) == 0
    digests["stats"] = _sha(table.read_bytes())

    for name, pruned, index, source in (
        ("compare.all_pairs", "lsp-t.lspg", "1", ["--all-pairs"]),
        ("compare.pairs_file", "lsp-p.lspg", "0", ["--pairs-file", str(pairs)]),
    ):
        table = tmp_path / f"{name}.tsv"
        assert main(["compare", "--input", str(src), "--pruned", str(tmp_path / pruned),
                     "--output", str(table), "--graph-index", index] + source) == 0
        digests[name] = _sha(table.read_bytes())
    return digests


def test_cli_outputs_match_frozen_digests(tmp_path, capsys):
    assert cli_output_digests(tmp_path) == GOLDEN
