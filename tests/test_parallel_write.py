"""The container writer's forked workers write the bytes of the serial path.

The ``writer`` fixture (conftest.py) sets the CPUs and the batch size the
writer sees, counts its forks and checks that no child process outlives a
test.
"""

import errno
import os
import re
import signal
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import lsprune
import lsprune.container as container
from lsprune import Graph, write_container
from lsprune.cli import main

from util import forked_workers, format_container, random_graph

_GENERATE = ["--num-samples", "7", "--num-classes", "3", "--min-nodes", "3", "--max-nodes", "6",
             "--node-dim", "2", "--edge-dim", "1", "--seed", "4"]
_SIZES = [(cpus, batch) for cpus in (1, 2, 3) for batch in range(1, 9)]  # 7 graphs: 1 .. n + 1


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _attributed(rng, count):
    """Graphs with node and edge attributes, node labels, graph labels and self-loops."""
    graphs = [random_graph(rng, int(rng.integers(2, 9)), 0.5, node_dim=2, edge_dim=3,
                           with_loops=True, with_labels=True) for _ in range(count)]
    graphs.append(random_graph(rng, 3, 0.0, node_dim=2, edge_dim=3))  # no edges
    return graphs


@pytest.mark.parametrize("cpus,batch", _SIZES)
def test_write_container_bytes_do_not_depend_on_workers(tmp_path, writer, cpus, batch):
    rng = np.random.default_rng(11)
    graphs = _attributed(rng, 3) + [
        Graph(1, []),  # attribute-free singleton
        random_graph(rng, 6, 0.5, with_loops=True, with_labels=True),  # no attributes
        random_graph(rng, 5, 0.5, edge_dim=1),  # edge attributes only
    ]
    ids = ["a", "7", "gé", "x-1", "0", "b", "z"]
    for graph_ids in (None, ids):
        forks = writer(cpus, batch)
        out = tmp_path / "out.lspg"
        write_container(graphs, out, graph_ids=graph_ids)
        assert out.read_text(encoding="utf-8") == format_container(graphs, graph_ids)
        assert len(forks) == forked_workers(cpus, batch, len(graphs))


def test_write_container_stops_at_the_shorter_of_graphs_and_ids(tmp_path, writer):
    graphs = _attributed(np.random.default_rng(2), 9)
    forks = writer(2, 2)
    out = tmp_path / "out.lspg"
    write_container(graphs, out, graph_ids=["a", "b", "c", "d", "e"])
    assert out.read_text() == format_container(graphs[:5], ["a", "b", "c", "d", "e"])
    assert len(forks) == forked_workers(2, 2, 5)


@pytest.mark.parametrize("bad", ["a b", "", "x\ny", "a\u2028b", "t\tab", "\x85"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_graph_id_the_reader_would_reject_is_refused(tmp_path, writer, cpus, bad):
    graphs = _attributed(np.random.default_rng(4), 3)
    forks = writer(cpus, 1)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    with pytest.raises(ValueError, match=f"graph id {re.escape(repr(bad))} is empty or holds"):
        write_container(graphs, out_dir / "out.lspg", graph_ids=["a", "b", bad, "d"])
    assert list(out_dir.iterdir()) == []  # no container and no temporary file
    assert len(forks) == forked_workers(cpus, 1, 4)


def test_generator_input_stays_serial(tmp_path, writer):
    graphs = _attributed(np.random.default_rng(3), 9)
    forks = writer(2, 1)
    write_container((g for g in graphs), tmp_path / "out.lspg")
    assert (tmp_path / "out.lspg").read_text() == format_container(graphs)
    assert forks == []


@pytest.mark.parametrize("cpus,batch", _SIZES)
def test_generate_bytes_do_not_depend_on_workers(tmp_path, capsys, writer, cpus, batch):
    writer(1)
    assert _run(["generate", "--output", str(tmp_path / "serial.lspg")] + _GENERATE, capsys)[0] == 0
    forks = writer(cpus, batch)
    code, _, _ = _run(["generate", "--output", str(tmp_path / "out.lspg")] + _GENERATE, capsys)
    assert code == 0
    assert (tmp_path / "out.lspg").read_bytes() == (tmp_path / "serial.lspg").read_bytes()
    assert len(forks) == forked_workers(cpus, batch, 7)


@pytest.fixture()
def prune_inputs(tmp_path):
    """An attributed container with graph ids, and one that mixes in attribute-less graphs."""
    rng = np.random.default_rng(5)
    attributed = _attributed(rng, 6)
    ids = [f"g{i}" for i in range(len(attributed))]
    write_container(attributed, tmp_path / "attributed.lspg", graph_ids=ids)
    mixed = attributed[:4] + [Graph(1, []), random_graph(rng, 7, 0.5, with_loops=True),
                              Graph(4, [(0, 1), (2, 3)])]
    write_container(mixed, tmp_path / "mixed.lspg", graph_ids=["m", "0", "a", "b"] + ids[4:])
    return tmp_path


@pytest.mark.parametrize("method,source", [("lsp-t", "attributed"), ("lsp-p", "attributed"),
                                           ("random", "attributed"), ("random", "mixed")])
@pytest.mark.parametrize("cpus,batch", _SIZES)
def test_prune_bytes_do_not_depend_on_workers(prune_inputs, capsys, writer, method, source,
                                              cpus, batch):
    argv = ["prune", "--input", str(prune_inputs / f"{source}.lspg"), "--method", method]
    writer(1)
    assert _run(argv + ["--output", str(prune_inputs / "serial.lspg")], capsys)[0] == 0
    forks = writer(cpus, batch)
    assert _run(argv + ["--output", str(prune_inputs / "out.lspg")], capsys)[0] == 0
    for suffix in ("", ".family"):
        out, serial = prune_inputs / f"out.lspg{suffix}", prune_inputs / f"serial.lspg{suffix}"
        assert out.exists() == serial.exists()
        if out.exists():
            assert out.read_bytes() == serial.read_bytes()
    assert len(forks) == forked_workers(cpus, batch, 7)


def _failing_at_sample(monkeypatch, at):
    import lsprune.generator as generator

    real = generator.generate_sample

    def faulty(cfg, templates, index):
        if index == at:
            raise RuntimeError(f"sample {index} failed")
        return real(cfg, templates, index)

    monkeypatch.setattr(generator, "generate_sample", faulty)


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("cpus,batch", _SIZES)
def test_worker_failure_fails_as_the_serial_path(tmp_path, capsys, monkeypatch, writer, at,
                                                 cpus, batch):
    _failing_at_sample(monkeypatch, at)
    forks = writer(cpus, batch)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = _run(["generate", "--output", str(out_dir / "d.lspg")] + _GENERATE, capsys)
    assert (code, err) == (3, f"internal-error: RuntimeError: sample {at} failed\n")
    assert list(out_dir.iterdir()) == []  # no container and no temporary file
    assert len(forks) == forked_workers(cpus, batch, 7)


def test_parent_os_error_mid_stream_leaves_no_output(tmp_path, capsys, monkeypatch, writer):
    real = container._read_batches

    def failing(pipes, batches):
        pieces = real(pipes, batches)
        yield next(pieces)
        yield next(pieces)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(container, "_read_batches", failing)
    forks = writer(2, 1)  # the workers are blocked on full pipes when the error comes
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "d.lspg"
    code, _, err = _run(["generate", "--output", str(out), "--num-samples", "40", "--min-nodes",
                         "30", "--max-nodes", "30"], capsys)
    assert (code, err) == (2, f"data-error: [Errno 28] {os.strerror(errno.ENOSPC)}: '{out}'\n")
    assert list(out_dir.iterdir()) == []
    assert len(forks) == forked_workers(2, 1, 40)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_on_a_device_fails_as_the_serial_path(capsys, writer):
    argv = ["generate", "--output", "/dev/full", "--num-samples", "40"]
    writer(1)
    serial = _run(argv, capsys)
    forks = writer(2, 1)
    assert _run(argv, capsys) == serial
    assert serial[0] == 2
    full = errno.ENOSPC
    assert serial[2] == f"data-error: [Errno {full}] {os.strerror(full)}: '/dev/full'\n"
    assert len(forks) == forked_workers(2, 1, 40)


_VersionInfo = namedtuple("version_info", "major minor micro releaselevel serial")


@pytest.mark.parametrize("one_thread", [False, True])
def test_python_3_12_forks_only_from_a_single_thread(tmp_path, monkeypatch, writer, one_thread):
    # os.fork() warns there when the process runs more than one thread
    monkeypatch.setattr(sys, "version_info", _VersionInfo(3, 12, 0, "final", 0))
    monkeypatch.setattr(container, "_one_thread", lambda: one_thread)
    graphs = _attributed(np.random.default_rng(8), 4)
    forks = writer(2, 1)
    out = tmp_path / "out.lspg"
    write_container(graphs, out)
    assert out.read_text(encoding="utf-8") == format_container(graphs)
    assert len(forks) == (2 if one_thread else 0)


_FORK_COUNTING_MAIN = """
import os, sys
import lsprune.cli as cli
forks, real_fork = [], os.fork
def fork():
    pid = real_fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = fork
os.sched_getaffinity = lambda _pid: set(range(int(sys.argv[1])))
code = cli.main(sys.argv[2:])
sys.stderr.write(f"forks {len(forks)}")
sys.exit(code)
"""


def test_stdout_written_before_the_fork_appears_once(tmp_path):
    # the echo is still in the buffer of a piped stdout when the writer forks
    src = str(Path(lsprune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = []
    for cpus in (1, 2):
        argv = ["generate", "--output", str(tmp_path / f"{cpus}.lspg")] + _GENERATE
        runs.append(subprocess.run([sys.executable, "-c", _FORK_COUNTING_MAIN, str(cpus)] + argv,
                                   env=env, capture_output=True, text=True, check=True))
    serial, forked = runs
    assert forked.stdout.replace("2.lspg", "1.lspg") == serial.stdout
    assert serial.stdout.count("num_samples = 7\n") == 1
    workers = forked_workers(2, container._BATCH, 7)
    assert (serial.stderr, forked.stderr) == ("forks 0", f"forks {workers}")
    assert (tmp_path / "2.lspg").read_bytes() == (tmp_path / "1.lspg").read_bytes()


_KILLED_MID_WRITE = """
import os, signal, sys
import numpy as np
import lsprune.container as container
from lsprune import Graph, write_container
real_fork = os.fork
def fork():
    pid = real_fork()
    if pid:
        print(pid, file=sys.stderr, flush=True)
    return pid
os.fork = fork
os.sched_getaffinity = lambda _pid: {0, 1}
container._BATCH = 1
real = container._read_batches
def dying(pipes, batches):
    pieces = real(pipes, batches)
    yield next(pieces)
    os.kill(os.getpid(), signal.SIGKILL)
container._read_batches = dying
graph = Graph(2000, [], node_attrs=np.full((2000, 8), 0.1))  # more text than a pipe holds
write_container([graph] * 8, sys.argv[1])
"""


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_workers_end_when_the_writer_is_killed(tmp_path):
    # the workers hold the child's stderr, so the run returns only once they have ended
    src = str(Path(lsprune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _KILLED_MID_WRITE, str(tmp_path / "out.lspg")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    pids = [int(pid) for pid in proc.stderr.split()]
    assert len(pids) == forked_workers(2, 1, 8)
    assert not any(map(_running, pids))
