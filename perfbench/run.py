#!/usr/bin/env python3
"""Benchmark for schedgame: seeded CLI workloads, checked outputs, layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload sim-narrow --seed 7 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each op pushes one instance JSON file through `schedgame.cli.main(argv)`
in-process, with `-i`/`-o` files in a scratch directory under
`.perfbench-work/`, as a user types the commands. Load is a closed loop: one
client, one thread, each op starting when the previous one returns. The run
makes whole passes over the corpus until the ops have taken `--seconds`
seconds. Every instance's first output goes through
the naive checker in `oracle.py`; every repeat must reproduce its bytes.

The last line of standard output is one JSON object: `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
run (spans go to `.perfbench-out/`). See NOTES.md for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import oracle
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORK_DIR = ".perfbench-work"
SPANS_DIR = ".perfbench-out"
DEFAULT_SEED = 1
SETUP_PROBES = 3
ALLOC_INSTANCES = 5
REF_EVERY_S = 0.5  # seconds of ops between two timings of the reference work
REF_WINDOW = 4  # an op is scaled by its latest reference timing and up to this many on either side
SETUP_REFS = 5  # timings of the reference work before, and again after, each set-up probe
NOMINAL_REF_MS = 13.0  # the reference work's time on a quiet host (see NOTES.md)


def import_package():
    """Import schedgame from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import schedgame
    import schedgame.cli

    if Path(schedgame.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"schedgame imported from {schedgame.__file__}, not from {src}")
    return schedgame


def ref_loop_ms() -> float:
    """Fixed pure-Python work that never touches schedgame. It mixes three
    kinds of work the ops do: exact fractions with dicts, sorting and JSON;
    plain integer arithmetic; building and running an argparse parser. In
    slow phases of the host the mix slows down about as much as the ops do
    (NOTES.md, "Host scaling"), so its time tracks how fast the host runs
    them right now."""
    start = time.perf_counter()
    total = Fraction(0)
    rows = []
    for i in range(1, 1500):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        rows.append({"i": i, "total": str(total), "key": i * 7919 % 1009})
    rows.sort(key=lambda row: row["key"])
    json.dumps(rows)
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    for _ in range(3):
        parser = argparse.ArgumentParser()
        commands = parser.add_subparsers(dest="command")
        for n in range(8):
            command = commands.add_parser(f"c{n}")
            command.add_argument("-i")
            command.add_argument("-o")
            command.add_argument("--x", type=int, default=1)
        parser.parse_args(["c3", "-i", "a", "-o", "b"])
    return 1000 * (time.perf_counter() - start)


def host_scale(ref_ms: list[float]) -> float:
    """Factor that turns a time measured now into a time on a quiet host."""
    return NOMINAL_REF_MS / statistics.median(ref_ms)


def scaled_latency(latency: list[list[tuple[float, int]]], ref_ms: list[float]) -> list[list[float]]:
    """Each instance's op times in seconds on a quiet host.

    `latency` holds (seconds, index into `ref_ms` of the latest reference
    timing) per op; each op is scaled by the reference timings nearest to it,
    about four seconds' worth.
    """
    scale = [host_scale(ref_ms[max(0, at - REF_WINDOW):at + REF_WINDOW + 1]) for at in range(len(ref_ms))]
    return [[seconds * scale[at] for seconds, at in samples] for samples in latency]


class Corpus:
    """The workload's instance files and the argv lists of one op each."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.items = workload.corpus(seed)
        self.workdir = workdir
        self.paths = [f"{workdir}/inst-{i:04d}.json" for i in range(len(self.items))]
        self.data: list[bytes] = []

    def generate(self, cli) -> None:
        for item, path in zip(self.items, self.paths):
            if cli.main(["generate", *item, "-o", path]) != 0:
                raise RuntimeError(f"generate {' '.join(item)} failed")
        self.load()

    def load(self) -> None:
        self.data = [Path(path).read_bytes() for path in self.paths]

    def argvs(self, index: int) -> list[list[str]]:
        return [[command, "-i", self.paths[index], "-o", self.output(command)] for command in self.workload.commands]

    def output(self, command: str) -> str:
        return f"{self.workdir}/{command}.json"

    def warm_up_index(self) -> int:
        """The median-sized instance: a fixed choice per seed."""
        return sorted(range(len(self.data)), key=lambda i: (len(self.data[i]), i))[len(self.data) // 2]

    def largest(self, count: int) -> list[int]:
        """The instances with the most jobs x machines, for the allocation pass."""

        def size(i: int) -> int:
            inst = json.loads(self.data[i])
            return len(inst["jobs"]) * sum(stage["machines"] for stage in inst["stages"])

        return sorted(range(len(self.data)), key=lambda i: (-size(i), i))[:count]


def run_op(cli, corpus: Corpus, index: int):
    """One timed op; returns (seconds, [(command, exit code, output bytes)], stderr)."""
    for command in corpus.workload.commands:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(corpus.output(command))
    argvs = corpus.argvs(index)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        codes = [cli.main(argv) for argv in argvs]
        seconds = time.perf_counter() - start
    outputs = []
    for command, code in zip(corpus.workload.commands, codes):
        path = Path(corpus.output(command))
        outputs.append((command, code, path.read_bytes() if path.exists() else b""))
    return seconds, outputs, err.getvalue()


def op_digest(instance: bytes, outputs) -> str:
    h = hashlib.sha256(instance)
    for command, code, data in outputs:
        h.update(f"\0{command}\0{code}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def load_reference(workload: str) -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text())["workloads"].get(workload)


class Run:
    """The timed closed loop over one corpus, with output checking."""

    def __init__(self, package, corpus: Corpus, seed: int, traced: bool, record_digests: bool):
        self.cli = package.cli
        self.corpus = corpus
        self.tracer = spans.Tracer(package) if traced else None
        self.check_reference = seed == DEFAULT_SEED and not record_digests
        self.reference = load_reference(corpus.workload.name) if self.check_reference else None
        size = len(corpus.items)
        # (seconds, index of the latest reference timing) of each untraced op
        self.latency: list[list[tuple[float, int]]] = [[] for _ in range(size)]
        self.traced_seconds = 0.0
        self.untraced_paired_seconds = 0.0
        self.digests: list[str | None] = [None] * size
        self.output_bytes = 0
        self.ref_ms: list[float] = []  # each timing of the reference work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _record(self, index: int, outputs, stderr: str) -> None:
        self.attempted += 1
        digest = op_digest(self.corpus.data[index], outputs)
        if self.digests[index] is None:
            problems = oracle.check_op(self.corpus.data[index], outputs)
            if self.check_reference and self.reference is None:
                problems.append("no recorded default-seed digest for this workload")
            elif self.check_reference and self.reference["ops"][index] != digest[:16]:
                problems.append("output digest differs from the recorded default-seed digest")
            self.digests[index] = digest
            self.output_bytes += sum(len(data) for _, _, data in outputs)
        elif digest != self.digests[index]:
            problems = ["output bytes differ from the instance's first run"]
        else:
            problems = []
        if problems:
            self.failed += 1
            detail = f" (stderr: {stderr.strip()})" if stderr.strip() else ""
            self.problems.append(f"op {index}: {'; '.join(problems)}{detail}")

    def _untraced(self, index: int) -> float:
        gc.collect()
        seconds, outputs, stderr = run_op(self.cli, self.corpus, index)
        self.latency[index].append((seconds, len(self.ref_ms) - 1))
        self._record(index, outputs, stderr)
        return seconds

    def _traced(self, step: int, index: int) -> float:
        gc.collect()
        self.tracer.op = step
        with self.tracer.installed():
            seconds, outputs, stderr = run_op(self.cli, self.corpus, index)
        self.tracer.op = None
        self._record(index, outputs, stderr)
        return seconds

    def loop(self, seconds: float) -> None:
        """Whole passes over the corpus until the ops have taken `seconds`.

        Whole passes keep every instance equally weighted in the samples.
        The reference work is timed after every REF_EVERY_S seconds of ops.
        """
        size = len(self.corpus.items)
        busy = 0.0
        step = 0
        while step == 0 or step % size or busy < seconds:
            index = step % size
            if busy >= REF_EVERY_S * len(self.ref_ms):
                self.ref_ms.append(ref_loop_ms())
            if self.tracer is None:
                busy += self._untraced(index)
            else:
                # alternate which side runs first, so drift cancels out
                if step % 2:
                    traced = self._traced(step, index)
                    untraced = self._untraced(index)
                else:
                    untraced = self._untraced(index)
                    traced = self._traced(step, index)
                self.traced_seconds += traced
                self.untraced_paired_seconds += untraced
                busy += traced + untraced
            step += 1


def setup_probe(workload, seed: int, workdir: str | None) -> None:
    """The set-up a user pays: fresh process, import, corpus files, one warm-up op.

    The corpus goes to `workdir` when given, else to a directory removed after.
    """
    package = import_package()
    Path(WORK_DIR).mkdir(exist_ok=True)
    scratch = workdir or tempfile.mkdtemp(prefix="setup-", dir=WORK_DIR)
    try:
        corpus = Corpus(workload, seed, scratch)
        corpus.generate(package.cli)
        run_op(package.cli, corpus, corpus.warm_up_index())
    finally:
        if workdir is None:
            shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload, seed: int, workdir: str) -> tuple[list[float], list[float]]:
    """Seconds per set-up, each in a fresh process; the first leaves its corpus in `workdir`.

    Returns the times as measured and the times on a quiet host, each scaled
    by the reference work timed just before and just after its probe.
    """
    raw, scaled = [], []
    for probe in range(SETUP_PROBES):
        ref_ms = [ref_loop_ms() for _ in range(SETUP_REFS)]
        argv = [sys.executable, __file__, "--setup-probe", "--workload", workload.name, "--seed", str(seed)]
        start = time.perf_counter()
        subprocess.run(argv + (["--workdir", workdir] if probe == 0 else []), check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        ref_ms += [ref_loop_ms() for _ in range(SETUP_REFS)]
        scaled.append(raw[-1] * host_scale(ref_ms))
    return raw, scaled


def alloc_probe(workload, seed: int, workdir: str, indices: list[int]) -> None:
    """Peak traced allocation of each listed op, after one warm-up of it."""
    package = import_package()
    corpus = Corpus(workload, seed, workdir)
    peaks = []
    for index in indices:
        run_op(package.cli, corpus, index)
        gc.collect()
        tracemalloc.start()
        run_op(package.cli, corpus, index)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    print(json.dumps(peaks))


def measure_peak_alloc(workload, seed: int, corpus: Corpus) -> float:
    """Mean op peak in MB over the largest instances, measured in a fresh process.

    The mean, not the largest: the largest of a few peaks follows the one
    heaviest instance and swings with the seed.

    Hash and address randomization reorder sets and dicts and move the peak
    by a few hundred bytes; with PYTHONHASHSEED fixed and `setarch -R` (when
    the host has it) the figure repeats exactly.
    """
    argv = [sys.executable, __file__, "--alloc-probe", "--workload", workload.name, "--seed", str(seed),
            "--workdir", corpus.workdir,
            "--indices", ",".join(str(i) for i in corpus.largest(ALLOC_INSTANCES))]
    for command in workload.commands:  # every probe starts from the same files
        with contextlib.suppress(FileNotFoundError):
            os.unlink(corpus.output(command))
    env = dict(os.environ, PYTHONHASHSEED="0")
    prefix = ["setarch", "-R"] if shutil.which("setarch") else []
    proc = subprocess.run(prefix + argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0 and prefix:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"allocation probe failed: {proc.stderr.strip()}")
    return statistics.mean(json.loads(proc.stdout.strip().splitlines()[-1])) / 1e6


def timing_metrics(latency: list[list[float]]) -> dict[str, float]:
    """Throughput from each instance's median op time; percentiles over every op time."""
    all_ms = [1000 * seconds for samples in latency for seconds in samples]
    return {
        "ops_per_s": len(latency) / sum(statistics.median(samples) for samples in latency),
        "op_p50_ms": statistics.median(all_ms),
        "op_p90_ms": statistics.quantiles(all_ms, n=10)[-1],
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of `kind` ("end_to_end" or "per_layer") as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def bench(package, args) -> int:
    workload = WORKLOADS[args.workload]
    Path(WORK_DIR).mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        corpus = Corpus(workload, args.seed, workdir)
        run = Run(package, corpus, args.seed, bool(args.trace), args.write_digests)
        if run.tracer is not None:
            run.tracer.op = -1
            with run.tracer.installed():
                corpus.generate(package.cli)
            run.tracer.op = None
        else:
            setup_raw, setup_scaled = measure_setup(workload, args.seed, workdir)
            corpus.load()
        run_op(package.cli, corpus, corpus.warm_up_index())
        gc.collect()
        gc.freeze()
        run.loop(args.seconds)
        gc.unfreeze()
        peak_mb = None if args.trace else measure_peak_alloc(workload, args.seed, corpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    workload_digest = hashlib.sha256("".join(run.digests).encode()).hexdigest()
    if args.write_digests:
        record = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"seed": DEFAULT_SEED, "workloads": {}}
        record["workloads"][workload.name] = {"sha256": workload_digest, "ops": [d[:16] for d in run.digests]}
        DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    elif run.check_reference and run.reference is not None and run.reference["sha256"] != workload_digest:
        run.failed = max(run.failed, 1)
        run.problems.append("workload output digest differs from the recorded default-seed digest")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    size = len(corpus.items)
    if args.trace:
        metrics = spans.layer_metrics(run.tracer, set(range(size)), run.attempted // 2, {-1})
        metrics["cli.output_bytes"] = run.output_bytes
        metrics["host.ref_loop_ms"] = statistics.median(run.ref_ms)
        metrics["trace.overhead_pct"] = 100 * (run.traced_seconds / run.untraced_paired_seconds - 1)
        Path(SPANS_DIR).mkdir(exist_ok=True)
        spans_path = f"{SPANS_DIR}/spans-{workload.name}-seed{args.seed}.jsonl"
        run.tracer.write(spans_path)
        print(f"{workload.name} seed={args.seed}: traced {run.attempted // 2} ops in pairs; spans in {spans_path}")
    else:
        scaled = scaled_latency(run.latency, run.ref_ms)
        raw = [[seconds for seconds, _ in samples] for samples in run.latency]
        timing = {name: timing_metrics(latency) for name, latency in (("scaled", scaled), ("raw", raw))}
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            **timing["scaled"],
            "peak_alloc_mb": peak_mb,
            "ok_ratio": 1 - run.failed / run.attempted,
        }
        samples = sum(len(latency) for latency in raw)
        print(
            f"{workload.name} seed={args.seed}: {run.attempted} ops in {run.attempted // size} passes over {size} instances "
            f"(p50 and p90 over all {samples} op latencies, {samples - int(0.9 * samples)} beyond p90); "
            f"ops_per_s from each instance's median latency; {SETUP_PROBES} set-ups; "
            f"peak_alloc_mb the mean peak of the {ALLOC_INSTANCES} largest instances"
        )
        print(
            f"  times below are scaled to a quiet host ({NOMINAL_REF_MS} ms reference work); host.ref_loop_ms median "
            f"{statistics.median(run.ref_ms):.2f} (min {min(run.ref_ms):.2f}, max {max(run.ref_ms):.2f}); as measured: "
            f"setup_s {statistics.median(setup_raw):.4g}, "
            + ", ".join(f"{name} {value:.6g}" for name, value in timing["raw"].items())
        )
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def bench_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv).returncode)
    return status


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per process. The salt moves dict and set
        # layout, and with it the time of a short op, by several percent from
        # one run to the next; every run uses the same salt instead.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's output digests as the reference (default seed only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--alloc-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--indices", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.workload == "all":
        return bench_all(args)
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests records the default seed ({DEFAULT_SEED}) only")
    if args.setup_probe:
        setup_probe(WORKLOADS[args.workload], args.seed, args.workdir)
        return 0
    if args.alloc_probe:
        alloc_probe(WORKLOADS[args.workload], args.seed, args.workdir, [int(i) for i in args.indices.split(",")])
        return 0
    try:
        package = import_package()
    except ImportError as exc:
        print(f"error: cannot import schedgame from this checkout: {exc}", file=sys.stderr)
        return 2
    return bench(package, args)


if __name__ == "__main__":
    sys.exit(main())
