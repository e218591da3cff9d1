"""Naive output checker, independent of the code under test.

It reads the instance JSON and the CLI's output JSON and re-derives what it
can with plain `Fraction` arithmetic: greedy least-loaded/FCFS play, the
path and bottleneck lower bounds, and the timing rules every trace obeys.
Nothing here imports `schedgame`. Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

PRECISION = 6  # the CLI's default --precision


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dec(x: Fraction) -> str:
    """Decimal rounded half away from zero to PRECISION digits, trailing zeros cut."""
    sign = "-" if x < 0 else ""
    whole, frac = divmod(math.floor(abs(x) * 10**PRECISION + Fraction(1, 2)), 10**PRECISION)
    digits = str(frac).zfill(PRECISION).rstrip("0")
    return f"{sign}{whole}.{digits}" if digits else f"{sign}{whole}"


class Instance:
    def __init__(self, data: dict):
        self.sizes = [Fraction(job["size"]) for job in data["jobs"]]
        self.stages = [(stage["machines"], Fraction(stage["speed"])) for stage in data["stages"]]
        self.family = data.get("family")
        self.n, self.k = len(self.sizes), len(self.stages)


def greedy(inst: Instance):
    """Replay greedy play: each job, in (release, id) order, joins the machine
    that frees up first (lowest index on ties) and is served FCFS.

    Within a stage every machine has the same speed, so "least loaded"
    (speed x available-at) orders machines exactly as available-at does.
    Returns records[j][i] = (machine, release, start, completion) and the
    decisions as (job, stage, time, machine) in decision order.
    """
    releases = [Fraction(0)] * inst.n
    records: list[list[tuple]] = [[] for _ in range(inst.n)]
    decisions = []
    for i, (m, speed) in enumerate(inst.stages):
        free_at = [Fraction(0)] * m
        for j in sorted(range(inst.n), key=lambda j: (releases[j], j)):
            a = min(range(m), key=lambda a: (free_at[a], a))
            start = max(releases[j], free_at[a])
            free_at[a] = start + inst.sizes[j] / speed
            records[j].append((a, releases[j], start, free_at[a]))
            decisions.append((j, i, releases[j], a))
        releases = [records[j][i][3] for j in range(inst.n)]
    return records, decisions


def trace_json(records) -> dict:
    makespan = max(row[-1][3] for row in records)
    rows = []
    for j, row in enumerate(records):
        for i, (machine, release, start, completion) in enumerate(row):
            rows.append({
                "job": j, "stage": i, "machine": machine,
                "release": fmt(release), "start": fmt(start), "completion": fmt(completion),
                "release_decimal": dec(release), "start_decimal": dec(start),
                "completion_decimal": dec(completion),
            })
    return {"makespan": fmt(makespan), "makespan_decimal": dec(makespan), "records": rows}


def trace_problems(inst: Instance, trace: dict, what: str) -> list[str]:
    """Timing rules any trace obeys: release chaining, exact service times,
    and FCFS queues that never idle while a released job waits."""
    recs = trace["records"]
    if [(r["job"], r["stage"]) for r in recs] != [(j, i) for j in range(inst.n) for i in range(inst.k)]:
        return [f"{what}: records are not one per (job, stage) in order"]
    problems = []
    queues: dict[tuple[int, int], list[tuple[Fraction, Fraction, Fraction]]] = {}
    finals = []
    for r in recs:
        j, i = r["job"], r["stage"]
        release, start, completion = (Fraction(r[key]) for key in ("release", "start", "completion"))
        m, speed = inst.stages[i]
        expected_release = Fraction(0) if i == 0 else finals[-1]
        if release != expected_release:
            problems.append(f"{what}: job {j} stage {i} release {release} != {expected_release}")
        if completion - start != inst.sizes[j] / speed:
            problems.append(f"{what}: job {j} stage {i} service time is not size/speed")
        if not 0 <= r["machine"] < m:
            problems.append(f"{what}: job {j} stage {i} machine {r['machine']} out of range")
        for key in ("release", "start", "completion"):
            if r[f"{key}_decimal"] != dec(Fraction(r[key])):
                problems.append(f"{what}: job {j} stage {i} {key}_decimal is misrounded")
        queues.setdefault((i, r["machine"]), []).append((start, release, completion))
        finals.append(completion)
    for (i, machine), queue in queues.items():
        free_at, last_release = Fraction(0), Fraction(0)
        for start, release, completion in sorted(queue):
            if release < last_release:
                problems.append(f"{what}: stage {i} machine {machine} serves a later arrival first")
            if start != max(release, free_at):
                problems.append(f"{what}: stage {i} machine {machine} start {start} is not FCFS")
            free_at, last_release = completion, release
    makespan = max(finals[inst.k - 1 :: inst.k])
    if Fraction(trace["makespan"]) != makespan or trace["makespan_decimal"] != dec(makespan):
        problems.append(f"{what}: makespan {trace['makespan']} != {fmt(makespan)}")
    return problems


def check_simulate(inst: Instance, out: dict) -> list[str]:
    records, decisions = greedy(inst)
    problems = []
    if out.get("policy") != "greedy":
        problems.append(f"simulate: policy {out.get('policy')!r}")
    if out["trace"] != trace_json(records):
        problems.append("simulate: trace differs from the greedy replay")
    picks = [(e["job"], e["stage"], e["time"], e["time_decimal"], e["machine"], len(e["loads"])) for e in out["events"]]
    expected = [(j, i, fmt(t), dec(t), a, inst.stages[i][0]) for j, i, t, a in decisions]
    if picks != expected:
        problems.append("simulate: decision log differs from the greedy replay")
    return problems


def check_verify_bounds(inst: Instance, out: dict) -> list[str]:
    records, _ = greedy(inst)
    makespan = max(row[-1][3] for row in records)
    problems = []
    if out.get("holds") is not True:
        problems.append("verify-bounds: a stage-chain bound fails")
    if out["params"].get("makespan") != fmt(makespan):
        problems.append(f"verify-bounds: makespan {out['params'].get('makespan')} != {fmt(makespan)}")
    return problems


def check_poa(inst: Instance, out: dict) -> list[str]:
    if out.get("opt_status") != "exact":
        return [f"poa: opt_status {out.get('opt_status')!r}"]
    records, _ = greedy(inst)
    t_equ = max(row[-1][3] for row in records)
    p_max = max(inst.sizes)
    path = sum((p_max / speed for _, speed in inst.stages), Fraction(0))
    bottleneck = sum(inst.sizes, Fraction(0)) / min(m * speed for m, speed in inst.stages)
    m_max = max(m for m, _ in inst.stages)
    ceiling = 2 - Fraction(1, m_max) if inst.k == 1 else 3 - Fraction(1, m_max)
    t_opt, ratio = Fraction(out["t_opt"]), Fraction(out["ratio"])
    problems = []
    for key, value in (("t_equ", t_equ), ("path_bound", path), ("bottleneck_bound", bottleneck), ("ceiling", ceiling)):
        if out.get(key) != fmt(value) or out.get(f"{key}_decimal") != dec(value):
            problems.append(f"poa: {key} {out.get(key)} != {fmt(value)}")
    if not max(path, bottleneck) <= t_opt <= t_equ:
        problems.append(f"poa: t_opt {t_opt} outside [lower bounds, greedy makespan]")
    if ratio != t_equ / t_opt or not out.get("ratio_is_exact"):
        problems.append(f"poa: ratio {ratio} != t_equ / t_opt")
    if ratio > ceiling:
        problems.append(f"poa: ratio {ratio} above the ceiling {ceiling}")
    return problems


def check_spne(inst: Instance, out: dict) -> list[str]:
    records, _ = greedy(inst)
    problems = []
    if out["greedy_trace"] != trace_json(records):
        problems.append("spne: greedy trace differs from the greedy replay")
    problems += trace_problems(inst, out["equilibrium_trace"], "spne equilibrium")
    if problems:
        return problems
    equilibrium = {r["job"]: Fraction(r["completion"]) for r in out["equilibrium_trace"]["records"] if r["stage"] == inst.k - 1}
    comparison = [(c["job"], c["equilibrium_final"], c["greedy_final"], c["delta"], c["delta_decimal"]) for c in out["comparison"]]
    expected = [
        (j, fmt(equilibrium[j]), fmt(records[j][-1][3]), fmt(equilibrium[j] - records[j][-1][3]), dec(equilibrium[j] - records[j][-1][3]))
        for j in range(inst.n)
    ]
    if comparison != expected:
        problems.append("spne: comparison rows disagree with the traces")
    if out["greedy_is_spne_outcome"] != (out["equilibrium_trace"] == out["greedy_trace"]):
        problems.append("spne: greedy_is_spne_outcome disagrees with the traces")
    if out["action_model"].get("allow_defer") is not True:
        problems.append("spne: defer is off")
    if inst.family == "appendix" and comparison[0][1:3] != ("113", "606/5"):
        problems.append(f"spne: appendix big job {comparison[0][2]} -> {comparison[0][1]}, expected 606/5 -> 113")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "verify-bounds": check_verify_bounds,
    "poa": check_poa,
    "spne": check_spne,
}


def check_op(instance_bytes: bytes, outputs: list[tuple[str, int, bytes]]) -> list[str]:
    """Check one op: its (command, exit code, output bytes) per command."""
    inst = Instance(json.loads(instance_bytes))
    problems = []
    for command, code, data in outputs:
        if code != 0:
            problems.append(f"{command}: exit code {code}")
            continue
        try:
            problems += CHECKS[command](inst, json.loads(data))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems.append(f"{command}: malformed output ({exc!r})")
    return problems
