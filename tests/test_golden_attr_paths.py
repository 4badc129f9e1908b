"""Frozen SHA-256 digests of lsp-t ``prune`` under every attribute path.

``tests/test_golden.py`` freezes the default mode only.  Here the same
container is pruned with lsp-t under each construction mode, endpoint order
and ``--zscore`` setting, once per seed 0-3 with one function, so each node
keeps the edge of its own argmin.  A digest covers the output containers and
``.report.tsv`` files of the four runs, without the timing column.  With one
edge attribute, ``raw_edge`` has one bit per edge, so its paths agree.
"""

from __future__ import annotations

import pytest

from lsprune.cli import main

from test_golden import CONTAINER, _drop_last_column, _sha

GOLDEN = {
    ("node_only", "canonical", False):
        "3093a8edc03fb1adeee73f2bb5b63d1add1a7e9a908c112b68a4bdd38a36407e",
    ("node_only", "canonical", True):
        "276c335b2b15629b82001f78d31470bd2b9d3131f99eb2fa6c064d9f1b941246",
    ("node_only", "center_first", False):
        "434c38897d7763eb85573c87b6f62c79757d5b847e7a35ea5dbbeb6fd2b1c1fb",
    ("node_only", "center_first", True):
        "708e521166a987875a59db0e2a53d3969fcf1a41a4f35da8c0b7529d061430a9",
    ("node_and_edge", "canonical", False):
        "52aaac2a853d8b7a51d9fdd359320ee217858ed1548c36b1772c0c5ebdfacff8",
    ("node_and_edge", "canonical", True):
        "beaef5026da96b71ae7e6253b5ac3f787ae3960601f787e5028c7208df2a7e92",
    ("node_and_edge", "center_first", False):
        "2105cfd1f786013968bfcff3cedf26539b3b95fac38d8ef1d957592647d5efac",
    ("node_and_edge", "center_first", True):
        "53c984a7c51e38724e5349a41ac48c9a90a686a149e43ef2881ad6c2e3cb4b8b",
    ("raw_edge", "canonical", False):
        "cc6885ee81a7ce4d93c6d2f61eca40f37205ab9531881af72791ad3270e31e7f",
    ("raw_edge", "canonical", True):
        "cc6885ee81a7ce4d93c6d2f61eca40f37205ab9531881af72791ad3270e31e7f",
    ("raw_edge", "center_first", False):
        "cc6885ee81a7ce4d93c6d2f61eca40f37205ab9531881af72791ad3270e31e7f",
    ("raw_edge", "center_first", True):
        "cc6885ee81a7ce4d93c6d2f61eca40f37205ab9531881af72791ad3270e31e7f",
}


def lsp_t_digest(tmp_path, mode: str, order: str, zscore: bool) -> str:
    src = tmp_path / "in.lspg"
    src.write_text(CONTAINER)
    out = tmp_path / "out.lspg"
    data = b""
    for seed in range(4):  # one function per run: each node keeps one edge of its argmin
        argv = ["prune", "--input", str(src), "--output", str(out), "--method", "lsp-t",
                "--k", "1", "--m", "1024", "--seed", str(seed), "--attr-mode", mode,
                "--endpoint-order", order] + (["--zscore"] if zscore else [])
        assert main(argv) == 0
        report = (tmp_path / (out.name + ".report.tsv")).read_text()
        data += out.read_bytes() + _drop_last_column(report)
    return _sha(data)


@pytest.mark.parametrize("mode, order, zscore", list(GOLDEN))
def test_lsp_t_attribute_paths_match_frozen_digests(tmp_path, capsys, mode, order, zscore):
    assert lsp_t_digest(tmp_path, mode, order, zscore) == GOLDEN[mode, order, zscore]
