"""The benchmark's own checks.

Exact counts and the allocation peak must repeat bit-for-bit between runs
with the same seed, so they can anchor comparisons that timings cannot; the
naive checker must reject a wrong output; and host scaling must use the
reference timings nearest each op. Slow (a few minutes):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import oracle
import run
from workloads import WORKLOADS

EXACT_COUNTS = (
    "greedy.decisions",
    "greedy.snapshot_entries",
    "exact.nodes",
    "analysis.chain_rows",
    "cli.output_bytes",
)


def _traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: result["metrics"][name]["value"] for name in EXACT_COUNTS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    assert _traced_counts(workload) == _traced_counts(workload)


@pytest.fixture
def package(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    return run.import_package()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_peak_alloc_repeats(package, workload):
    Path(run.WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="test-", dir=run.WORK_DIR) as workdir:
        corpus = run.Corpus(WORKLOADS[workload], 3, workdir)
        corpus.generate(package.cli)
        first = run.measure_peak_alloc(WORKLOADS[workload], 3, corpus)
        assert first > 0
        assert run.measure_peak_alloc(WORKLOADS[workload], 3, corpus) == first


def test_oracle_accepts_and_rejects(package):
    Path(run.WORK_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="test-", dir=run.WORK_DIR) as workdir:
        corpus = run.Corpus(WORKLOADS["spne-game"], 3, workdir)
        corpus.generate(package.cli)
        appendix = next(i for i, item in enumerate(corpus.items) if "appendix" in item)
        _, outputs, _ = run.run_op(package.cli, corpus, appendix)
        assert oracle.check_op(corpus.data[appendix], outputs) == []
        (command, code, data), = outputs
        tampered = json.loads(data)
        tampered["comparison"][0]["equilibrium_final"] = "114"
        assert oracle.check_op(corpus.data[appendix], [(command, code, json.dumps(tampered).encode())])
        tampered = json.loads(data)
        tampered["greedy_trace"]["records"][0]["machine"] = 1
        assert oracle.check_op(corpus.data[appendix], [(command, code, json.dumps(tampered).encode())])
        assert oracle.check_op(corpus.data[appendix], [(command, 1, data)])


def test_host_scaling_uses_nearby_reference_timings():
    nominal = run.NOMINAL_REF_MS
    ref_ms = [nominal] * 5 + [2 * nominal] * 20  # the host halves its speed after the fifth timing
    latency = [[(0.1, 0), (0.1, 24)], [(0.3, 12)]]
    assert run.scaled_latency(latency, ref_ms) == [[pytest.approx(0.1), pytest.approx(0.05)], [pytest.approx(0.15)]]
