"""lsprune benchmark: seeded workloads driven through the real CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload prepares its inputs
from ``--seed`` (the set-up), runs one untimed warm-up session, then runs
user sessions of ``lsprune prune``, ``lsprune stats`` and ``lsprune
compare`` one after another from this single process (a closed loop with one
client) for ``--seconds`` seconds; at least four more set-ups are spread
between the sessions.  Every operation is a child ``python3 -m lsprune``
that receives only the generated files; its wall time, CPU time and peak RSS
come from ``os.wait4``, and its outputs are flushed to disk before the next
child starts.  Outputs are checked against the independent re-implementation
in ``oracle.py`` and must be byte-identical across repetitions.

With ``--trace 0`` the last line holds the end-to-end metrics (medians over
the repetitions).  With ``--trace 1`` untraced sessions alternate with
sessions run through ``traced.py``, and the last line holds the per-layer
metrics: self time and counts of each ``src/lsprune`` module summed over one
session, medians over the traced sessions.  The full record (workload and
machine description, per-operation breakdowns, output digests) is printed
above the last line and written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle  # perfbench/ is on sys.path as the script's directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PY = sys.executable
# set-ups per run (setup_s is their median): at least SETUPS, more while they
# take under SETUP_SECONDS in all, at most SETUPS_MAX
SETUPS, SETUP_SECONDS, SETUPS_MAX = 5, 8.0, 15
MIN_SESSIONS = 2
DEADLINE_S = 170.0  # stop starting work after this, to exit within 180 s
CHECK_SAMPLE = 150  # nodes whose argmin picks are recomputed
PAIR_SAMPLE = 500  # compare rows recomputed with Python sets


@dataclass(frozen=True)
class Workload:
    why: str
    setup: list[str]  # set-up child argv; {dir} and {seed} are substituted
    prune: list[str]
    stats: list[str]
    compare: list[str]
    pairs_file: bool = False


WORKLOADS = {
    "dataset": Workload(
        why="50-sample generator dataset of 50-node graphs, lsp-t k=4: container text I/O "
        "dominates prune; stats and compare on graph 0 still parse the whole container",
        # a fixed node count keeps the input size, and so peak RSS, the same across seeds
        setup=["-m", "lsprune", "generate", "--num-samples", "50", "--min-nodes", "50",
               "--max-nodes", "50", "--seed", "{seed}", "--output", "{dir}/input.lspg"],
        prune=["--method", "lsp-t"],
        stats=[],
        compare=["--all-pairs"],
    ),
    "randgraph": Workload(
        why="one 4k-node 40k-edge random graph, lsp-t k=8 on node_only rows (d=16): "
        "shared-signature hashing dominates prune, k-hop sweeps stats and Jaccard compare",
        setup=[str(HERE / "make_graph.py"), "4000", "40000", "8", "{seed}",
               "{dir}/input.lspg", "20000", "{dir}/pairs.txt"],
        prune=["--method", "lsp-t", "--k", "8"],
        stats=["--depths", "1,2", "--fractions", "0.5,1.0"],
        compare=[],
        pairs_file=True,
    ),
}

OPS = ("prune", "stats", "compare")
END_TO_END = [
    (f"{op}_{kind}", unit) for op in OPS for kind, unit in (("s", "s"), ("rss_mb", "MB"))
] + [("setup_s", "s"), ("setup_rss_mb", "MB")]

# span name -> self-time metric; every other span is "<name>_s"
SELF_METRIC = {"cli.main": "cli.self_s"}
PER_LAYER = [
    ("container.parse_s", "s"), ("container.parse_mb_per_s", "MB/s"),
    ("container.write_s", "s"), ("container.write_mb_per_s", "MB/s"),
    ("container.tsv_s", "s"), ("container.bytes_in", "bytes"), ("container.bytes_out", "bytes"),
    ("hashing.bucket_s", "s"), ("hashing.family_s", "s"), ("hashing.evals", "count"),
    ("hashing.ns_per_eval", "ns"), ("hashing.distinct_sig_frac", "ratio"),
    ("graph.validate_s", "s"), ("graph.graphs", "count"), ("graph.adjacency_s", "s"),
    ("attrs.build_s", "s"), ("attrs.rows", "count"),
    ("prune.dataset_s", "s"), ("prune.select_s", "s"), ("prune.random_s", "s"),
    ("prune.picks", "count"), ("prune.kept_per_pick", "ratio"), ("prune.kept_frac", "ratio"),
    ("analysis.curve_s", "s"), ("analysis.khop_s", "s"), ("analysis.khop_sweeps", "count"),
    ("analysis.jaccard_s", "s"), ("analysis.pairs", "count"),
    ("cli.self_s", "s"), ("cli.startup_s", "s"), ("cli.exit_s", "s"),
    ("cli.cpu_s", "s"), ("cli.offcpu_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


class BenchError(Exception):
    pass


@dataclass
class Child:
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    t0: float
    t1: float


@dataclass
class OpRun:
    op: str
    child: Child
    traced: bool
    digest: str = ""
    layers: dict = field(default_factory=dict)
    failed: bool = False


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # lsprune is single-threaded numpy; one BLAS thread keeps CPU time honest
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns children one at a time and measures each with ``os.wait4``."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def _alarm(self, signum, frame):
        raise TimeoutError("child ran past the benchmark deadline")

    def spawn(self, argv: list[str]) -> Child:
        self.count += 1
        log = self.work / f"child{self.count}.stderr"
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("deadline reached before starting " + " ".join(argv[:4]))
        old = signal.signal(signal.SIGALRM, self._alarm)
        with open(log, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            t1 = perf_counter()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        if rc != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            print(f"# child exited {rc}: {' '.join(argv)}\n#   {tail[0]}")
        return Child(argv, t1 - t0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, rc, t0, t1)


# ---------------------------------------------------------------- set-up


class Setup:
    """Repeated preparations of the workload's inputs.

    The first one makes the inputs the sessions use; the repetitions are
    spread between the timed sessions, so ``setup_s`` samples the whole run
    rather than its first seconds.  Every repetition must give the same bytes.
    """

    def __init__(self, runner: Runner, wl: Workload, seed: int):
        self.runner, self.wl, self.seed = runner, wl, seed
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.digest = None
        self.run()
        self.inputs = runner.work / "setup0"

    def needed(self) -> bool:
        n = len(self.walls)
        return n < SETUPS or (sum(self.walls) < SETUP_SECONDS and n < SETUPS_MAX)

    def run(self) -> None:
        j = len(self.walls)
        d = self.runner.work / f"setup{j}"
        d.mkdir()
        child = self.runner.spawn([PY] + [a.format(dir=d, seed=self.seed) for a in self.wl.setup])
        if child.rc != 0:
            raise BenchError(f"set-up failed with exit {child.rc}")
        self.walls.append(child.wall)
        self.rss.append(child.rss_mb)
        digest = sorted((p.name, oracle.digest(p)) for p in d.iterdir())
        if j:
            shutil.rmtree(d)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise BenchError("set-up is not deterministic: inputs differ between set-ups")


# ---------------------------------------------------------------- sessions


def op_argv(op: str, wl: Workload, inp: Path, out: Path) -> list[str]:
    if op == "prune":
        return ["prune", "--input", str(inp / "input.lspg"),
                "--output", str(out / "pruned.lspg"), *wl.prune]
    if op == "stats":
        return ["stats", "--input", str(inp / "input.lspg"),
                "--output", str(out / "stats.tsv"), *wl.stats]
    extra = ["--pairs-file", str(inp / "pairs.txt")] if wl.pairs_file else []
    return ["compare", "--input", str(inp / "input.lspg"), "--pruned", str(out / "pruned.lspg"),
            "--output", str(out / "compare.tsv"), *wl.compare, *extra]


def op_outputs(op: str, out: Path) -> list[Path]:
    if op == "prune":
        p = out / "pruned.lspg"
        return [p, Path(f"{p}.family"), Path(f"{p}.report.tsv")]
    return [out / f"{op}.tsv"]


def op_digest(op: str, out: Path) -> str:
    """SHA-256 of the outputs (the report without its timing column)."""
    paths = op_outputs(op, out)
    return "+".join(oracle.digest(p, drop_last_column=p.name.endswith(".report.tsv"))
                    for p in paths)


def settle(paths: list[Path]) -> None:
    """Flush written outputs to disk, so their writeback does not land in the next timing."""
    for p in paths:
        fd = os.open(p, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def layer_breakdown(child: Child, spans_path: Path) -> dict[str, float]:
    """Self time and counts per metric for one traced child.

    Self times of all spans plus ``cli.startup_s`` (spawn to ``main``) and
    ``cli.exit_s`` (``main`` returning to reaped) add up to the wall time.
    """
    doc = json.loads(spans_path.read_text())
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        key = SELF_METRIC.get(name, name + "_s")
        out[key] = out.get(key, 0.0) + (end - start) - covered[i]
        for ckey, value in counts.items():
            out[ckey] = out.get(ckey, 0.0) + value
    main = next(s for s in spans if s[0] == "cli.main")
    out["cli.startup_s"] = main[1] - child.t0
    out["cli.exit_s"] = child.t1 - main[2]
    out["trace.wall_s"] = child.wall
    return out


def derive(layers: dict[str, float]) -> dict[str, float]:
    """Add rate and ratio metrics to summed self times and counts."""
    out = dict(layers)
    g = out.get
    if g("container.parse_s"):
        out["container.parse_mb_per_s"] = g("container.bytes_in", 0) / 1e6 / g("container.parse_s")
    if g("container.write_s"):
        out["container.write_mb_per_s"] = g("container.bytes_out", 0) / 1e6 / g("container.write_s")
    if g("hashing.evals"):
        out["hashing.ns_per_eval"] = g("hashing.bucket_s", 0) / g("hashing.evals") * 1e9
    if g("prune.edges_in"):
        out["prune.kept_frac"] = g("prune.edges_out", 0) / g("prune.edges_in")
    if g("prune.picks"):
        out["prune.kept_per_pick"] = g("prune.edges_out", 0) / g("prune.picks")
    return out


def run_session(runner: Runner, wl: Workload, inp: Path, tag: str, traced: bool) -> list[OpRun]:
    out = runner.work / tag
    out.mkdir()
    runs = []
    for op in OPS:
        args = op_argv(op, wl, inp, out)
        if traced:
            spans = out / f"{op}.spans.json"
            child = runner.spawn([PY, str(HERE / "traced.py"), str(spans), "--", *args])
        else:
            child = runner.spawn([PY, "-m", "lsprune", *args])
        run = OpRun(op, child, traced, failed=child.rc != 0)
        if not run.failed:
            settle(op_outputs(op, out))
            run.digest = op_digest(op, out)
            if traced:
                run.layers = layer_breakdown(child, spans)
        runs.append(run)
    return runs


# ---------------------------------------------------------------- checks


@dataclass
class Parsed:
    """Inputs and first-session outputs, read with the benchmark's own readers."""

    inputs: list
    outputs: list
    family: oracle.Family
    pairs: list

    @classmethod
    def read(cls, wl: Workload, inp: Path, out: Path) -> "Parsed":
        inputs = oracle.read_container(inp / "input.lspg")
        if wl.pairs_file:
            pairs = [tuple(int(t) for t in line.split())
                     for line in (inp / "pairs.txt").read_text().splitlines()]
        else:
            n = inputs[0].n
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return cls(inputs, oracle.read_container(out / "pruned.lspg"),
                   oracle.read_family(out / "pruned.lspg.family"), pairs)


def check_outputs(p: Parsed, out: Path, seed: int) -> dict[str, list[str]]:
    """Semantic checks of one session's outputs, per operation."""
    rng = np.random.default_rng([seed, 7])
    g, gp = p.inputs[0], p.outputs[0]
    return {
        "prune": oracle.check_prune(p.inputs, p.outputs, p.family, rng, CHECK_SAMPLE),
        "stats": oracle.check_stats(g, out / "stats.tsv"),
        "compare": oracle.check_compare(g, gp, p.pairs, out / "compare.tsv", rng, PAIR_SAMPLE),
    }


def workload_record(p: Parsed, inp: Path) -> dict:
    nodes = sum(g.n for g in p.inputs)
    edges = sum(len(g.edges) for g in p.inputs)
    distinct = sum(p.family.distinct_signatures(g.hash_rows()) for g in p.inputs)
    return {
        "input_bytes": (inp / "input.lspg").stat().st_size,
        "graphs": len(p.inputs),
        "nodes": nodes,
        "edges": edges,
        "mean_degree": 2 * edges / nodes,
        "max_degree": int(max(g.degrees().max(initial=0) for g in p.inputs)),
        "hash_variant": p.family.variant,
        "k": p.family.k,
        "d": p.family.d,
        "pairs_compared": len(p.pairs),
        "hashing.distinct_sig_frac": distinct / (p.family.k * edges),
    }


def machine_record() -> dict:
    def first_line(path, prefix=""):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "l3": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
    }


# ---------------------------------------------------------------- reporting


def tail_note(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.4f}"
    return "no percentile has 10 samples beyond it"


def summarize_e2e(setup: Setup, runs: list[OpRun]) -> tuple[dict, list[str]]:
    metrics, lines = {}, []
    samples = {"setup_s": setup.walls, "setup_rss_mb": setup.rss}
    for op in OPS:
        ok = [r.child for r in runs if r.op == op and not r.traced and r.child.rc == 0]
        samples[f"{op}_s"] = [c.wall for c in ok]
        samples[f"{op}_rss_mb"] = [c.rss_mb for c in ok]
    for name, unit in END_TO_END:
        vals = samples[name]
        if not vals:
            continue
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
        lines.append(f"{name:<16} {statistics.median(vals):12.4f} {unit:<3} "
                     f"median of n={len(vals)}; max {max(vals):.4f}; {tail_note(vals)}")
    return metrics, lines


def summarize_layers(runs: list[OpRun], distinct_frac: float) -> tuple[dict, list[str]]:
    """Per-layer medians over traced sessions, plus per-operation breakdowns."""
    sessions: dict[int, dict[str, float]] = {}
    per_op: dict[str, list[dict]] = {op: [] for op in OPS}
    untraced: dict[int, list[float]] = {}  # session -> [wall, cpu] summed over its ops
    for idx, r in enumerate(runs):
        sid = idx // len(OPS)
        if r.traced and r.layers:
            acc = sessions.setdefault(sid, {})
            for k, v in r.layers.items():
                acc[k] = acc.get(k, 0.0) + v
            per_op[r.op].append(r.layers)
        elif not r.traced and r.child.rc == 0:
            acc = untraced.setdefault(sid, [0.0, 0.0])
            acc[0] += r.child.wall
            acc[1] += r.child.cpu
    derived = [derive(s) for s in sessions.values()]
    measured = {
        "hashing.distinct_sig_frac": [distinct_frac],
        "cli.cpu_s": [cpu for _, cpu in untraced.values()],
        "cli.offcpu_s": [wall - cpu for wall, cpu in untraced.values()],
    }
    if derived and untraced:
        traced = statistics.median(d["trace.wall_s"] for d in derived)
        measured["trace.overhead_frac"] = [
            traced / statistics.median(w for w, _ in untraced.values()) - 1.0]
    metrics = {}
    for name, unit in PER_LAYER:
        vals = measured.get(name) or [d[name] for d in derived if name in d]
        if vals:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}

    lines = []
    for op in OPS:
        if not per_op[op]:
            continue
        med = derive({k: statistics.median(d.get(k, 0.0) for d in per_op[op])
                      for k in per_op[op][0]})
        lines.append(breakdown_line(op, med, len(per_op[op])))
    return metrics, lines


def is_time(metric: str) -> bool:
    return metric.endswith("_s") and not metric.endswith("_per_s")


def breakdown_line(op: str, layers: dict[str, float], n: int) -> str:
    wall = layers["trace.wall_s"]
    times = {k: v for k, v in layers.items() if is_time(k) and k != "trace.wall_s"}
    main = sum(v for k, v in times.items() if k not in ("cli.startup_s", "cli.exit_s"))
    parts = ", ".join(f"{k} {v:.4f} s ({v / wall:.1%})"
                      for k, v in sorted(times.items(), key=lambda kv: -kv[1]))
    counts = ", ".join(f"{k} {v:.6g}" for k, v in sorted(layers.items())
                       if not is_time(k))
    return (f"traced {op} (median of n={n}): wall {wall:.4f} s; layer self times + cli.self_s "
            f"= {main:.4f} s = {main / wall:.1%} of wall, rest is interpreter start/exit\n"
            f"  {parts}\n  {counts}")


# ---------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    if not (ROOT / "src" / "lsprune" / "cli.py").is_file():
        print(f"error: no lsprune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # turn SIGTERM into SystemExit, so the running child is killed and work removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work, start + DEADLINE_S)
    try:
        return bench(args, wl, runner, start)
    except (BenchError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, wl: Workload, runner: Runner, start: float) -> int:
    warm = runner.spawn([PY, "-c", "import lsprune.cli"])  # byte-compile, warm the page cache
    if warm.rc != 0:
        raise BenchError("lsprune does not import")
    setup = Setup(runner, wl, args.seed)
    inp = setup.inputs
    setup_layers = None
    if args.trace and wl.setup[:2] == ["-m", "lsprune"]:
        d = runner.work / "setup-traced"
        d.mkdir()
        spans = d / "spans.json"
        child = runner.spawn([PY, str(HERE / "traced.py"), str(spans), "--",
                              *[a.format(dir=d, seed=args.seed) for a in wl.setup[2:]]])
        if child.rc == 0:
            setup_layers = derive(layer_breakdown(child, spans))

    # an untimed warm-up session; its outputs are the reference for the checks
    warmup = run_session(runner, wl, inp, "warmup", traced=False)
    first = runner.work / "warmup"
    runs: list[OpRun] = []
    durations: list[float] = []  # --seconds bounds the sessions; set-ups come on top
    deadline = start + DEADLINE_S
    while True:
        sessions = len(durations)
        if sessions >= MIN_SESSIONS and sum(durations) + statistics.median(durations) > args.seconds:
            break
        if sessions and perf_counter() + statistics.median(durations) > deadline:
            break
        traced = bool(args.trace) and sessions % 2 == 1
        t0 = perf_counter()
        runs += run_session(runner, wl, inp, f"s{sessions}", traced)
        durations.append(perf_counter() - t0)
        shutil.rmtree(runner.work / f"s{sessions}")
        if setup.needed():
            setup.run()
    while setup.needed():
        setup.run()

    # correctness: semantic checks on the warm-up session, byte identity on all
    failures = {op: [] for op in OPS}
    parsed = None
    if all(not r.failed for r in warmup):
        parsed = Parsed.read(wl, inp, first)
        failures = check_outputs(parsed, first, args.seed)
    reference = {r.op: r.digest for r in warmup}
    for r in warmup + runs:
        if r.failed or failures[r.op] or r.digest != reference[r.op]:
            r.failed = True
    for op, errs in failures.items():
        for e in errs:
            print(f"# check failed ({op}): {e}")
    for r in runs:
        if r.digest != reference[r.op] and not r.child.rc:
            print(f"# {r.op}: output differs from the warm-up session")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": wl.why,
        "input": workload_record(parsed, inp) if parsed else {},
        "machine": machine_record(),
        "argv": {r.op: " ".join(r.child.argv[1:]) for r in warmup},
        "digests": reference,
        "sessions": len(durations),
        "samples": {f"{r.op}{'_traced' if r.traced else ''}": [] for r in runs},
    }
    for r in runs:
        key = f"{r.op}{'_traced' if r.traced else ''}"
        record["samples"][key].append({"wall": r.child.wall, "cpu": r.child.cpu,
                                      "rss_mb": r.child.rss_mb, "rc": r.child.rc})
    attempted = len(warmup) + len(runs)
    failed = sum(r.failed for r in warmup + runs)
    e2e, e2e_lines = summarize_e2e(setup, runs)
    record["end_to_end"] = e2e
    print(f"workload {args.workload} seed {args.seed}: {wl.why}")
    print(f"input: {json.dumps(record['input'])}")
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"digests: {json.dumps(reference)}")
    for line in e2e_lines:
        print(line)
    print(f"{'fail_frac':<16} {failed / attempted:12.4f} ratio {failed} of {attempted} operations")

    metrics = e2e
    if args.trace:
        distinct = record["input"].get("hashing.distinct_sig_frac", 0.0)
        metrics, layer_lines = summarize_layers(runs, distinct)
        if setup_layers:
            layer_lines.append(breakdown_line("setup", setup_layers, 1))
        record["per_layer"] = metrics
        record["breakdowns"] = layer_lines
        for line in layer_lines:
            print(line)
        for name, m in metrics.items():
            print(f"{name:<28} {m['value']:.6g} {m['unit']}")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
