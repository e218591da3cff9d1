"""Domain types, the exact time grid, plan forms, and the schedule kernel.

Every size, speed, and time is an exact rational (`fractions.Fraction`) at the
API boundary. Ties between machine loads are semantically load-bearing, so
nothing ever rounds: the kernels run on the instance's integer time grid
(`time_grid`), which represents every reachable time exactly, and build
fractions only for the results they return. Decimal strings are parsed to
exact fractions on the way in and rendered back to decimals only at the
output boundary.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction

ZERO = Fraction(0)

# Most digits a parsed scalar may spell out or imply: the length of its text
# plus the magnitude of its exponent. It keeps every input far below Python's
# 4300-digit int/str conversion limit, and refuses "1e999999999" before the
# huge integer is built.
MAX_SCALAR_DIGITS = 100
_INT_LIMIT = 10**MAX_SCALAR_DIGITS
# Most machines per stage, jobs and stages an instance may declare. Kernels
# allocate per machine and per job-stage record, so the caps refuse a tiny
# input such as `"machines": 10**9` before anything that size is built.
MAX_MACHINES = 10**6
MAX_JOBS = 10**6
MAX_STAGES = 10**3
# Most bits the time grid's lcm L may have (about 2466 digits). L multiplies
# the denominators of every size/speed (50 distinct 98-digit ones give 4809
# digits); the cap leaves over 1800 digits below the 4300-digit limit for the
# few scalar-sized factors that rendered times and bounds add to L.
MAX_GRID_BITS = 8192


class ModelError(ValueError):
    """Base class for structured validation failures."""


class InstanceError(ModelError):
    """The instance description is malformed."""


def check_instance_size(jobs: int, stages: int) -> None:
    """Refuse more than MAX_JOBS jobs or MAX_STAGES stages with an InstanceError.

    `Instance` runs it on every instance; generators run it on the counts they
    are asked for before building the jobs.
    """
    if jobs > MAX_JOBS:
        raise InstanceError(f"instance has {jobs} jobs (cap {MAX_JOBS})")
    if stages > MAX_STAGES:
        raise InstanceError(f"instance has {stages} stages (cap {MAX_STAGES})")


class PlanError(ModelError):
    """A schedule plan does not cover the instance correctly."""

    def __init__(self, problems: Iterable[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def parse_scalar(value: str | int) -> Scalar:
    """Parse an exact rational from "a/b", a decimal string, or an int.

    Scientific notation ("1e6", "2.5e-3") is accepted. Floats are rejected:
    they carry binary rounding, which would silently break exactness. Values
    longer than MAX_SCALAR_DIGITS digits are refused.
    """
    if isinstance(value, bool):
        raise ModelError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        if abs(value) >= _INT_LIMIT:
            raise ModelError(f"integer has more than {MAX_SCALAR_DIGITS} digits")
        return Fraction(value)
    if not isinstance(value, str):
        raise ModelError(
            f"numeric fields must be strings or ints, got {type(value).__name__}: "
            f"{value!r} (floats lose exactness)"
        )
    text = value.strip()
    exponent = text.lower().partition("e")[2].lstrip("+-")
    if len(text) > MAX_SCALAR_DIGITS or (
        exponent.isdecimal() and len(text) + int(exponent) > MAX_SCALAR_DIGITS
    ):
        raise ModelError(f"number has more than {MAX_SCALAR_DIGITS} digits: {text[:40]!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelError(f"not a rational number: {value!r}") from exc


def format_scalar(value: Scalar) -> str:
    """Render an exact rational as "a/b", or just "a" for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_ticks(ticks: int, scale: int) -> str:
    """Render ticks/scale (scale > 0) exactly as format_scalar(Fraction(ticks, scale)).

    One gcd reduces the pair, which is all the rendering needs.
    """
    g = math.gcd(ticks, scale)
    if g == scale:
        return str(ticks // scale)
    return f"{ticks // g}/{scale // g}"


def format_decimal(value: Scalar, precision: int = 6) -> str:
    """Correctly rounded decimal rendering of an exact rational.

    Rounds to `precision` fractional digits (ties away from zero) and trims
    trailing zeros, so 606/5 renders as "121.2" rather than "121.200000".
    """
    if precision < 0:
        raise ModelError("precision must be >= 0")
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    quot, rem = divmod(num * 10**precision, den)
    if 2 * rem >= den:
        quot += 1
    digits = str(quot).rjust(precision + 1, "0")
    split = len(digits) - precision
    whole, frac = digits[:split], digits[split:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


@dataclass(frozen=True)
class Job:
    """One job: `id` is its position in the instance priority order."""

    id: int
    size: Scalar

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise InstanceError(f"job id must be a non-negative int, got {self.id!r}")
        if not isinstance(self.size, Fraction) or self.size <= 0:
            raise InstanceError(f"job {self.id}: size must be a positive rational")


@dataclass(frozen=True)
class StageSpec:
    """One stage: `machines` identical machines, all running at `speed`."""

    machines: int
    speed: Scalar

    def __post_init__(self) -> None:
        if not isinstance(self.machines, int) or isinstance(self.machines, bool) or self.machines < 1:
            raise InstanceError(f"stage machine count must be an int >= 1, got {self.machines!r}")
        if self.machines > MAX_MACHINES:
            raise InstanceError(f"stage has {self.machines} machines (cap {MAX_MACHINES})")
        if not isinstance(self.speed, Fraction) or self.speed <= 0:
            raise InstanceError("stage speed must be a positive rational")


@dataclass(frozen=True)
class Instance:
    """An ordered job list plus the stage pipeline they all traverse.

    Job order doubles as the time-zero priority order: when several jobs are
    tied for a decision, lower position goes first.
    """

    jobs: tuple[Job, ...]
    stages: tuple[StageSpec, ...]
    family: str | None = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise InstanceError("instance needs at least one job")
        if not self.stages:
            raise InstanceError("instance needs at least one stage")
        check_instance_size(len(self.jobs), len(self.stages))
        ids = [job.id for job in self.jobs]
        if ids != list(range(len(self.jobs))):
            raise InstanceError(f"job ids must be 0..n-1 in order, got {ids}")

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def k(self) -> int:
        return len(self.stages)

    def sizes(self) -> tuple[Scalar, ...]:
        return tuple(job.size for job in self.jobs)

    @staticmethod
    def from_sizes(
        sizes: Sequence[Scalar | str | int],
        stages: Sequence[tuple[int, Scalar | str | int]],
        family: str | None = None,
    ) -> "Instance":
        jobs = tuple(Job(i, parse_scalar(s) if not isinstance(s, Fraction) else s) for i, s in enumerate(sizes))
        specs = tuple(
            StageSpec(m, parse_scalar(s) if not isinstance(s, Fraction) else s) for m, s in stages
        )
        return Instance(jobs, specs, family)

    def to_json(self) -> dict:
        data: dict = {
            "stages": [{"machines": s.machines, "speed": format_scalar(s.speed)} for s in self.stages],
            "jobs": [{"size": format_scalar(j.size)} for j in self.jobs],
        }
        if self.family is not None:
            data["family"] = self.family
        return data

    @staticmethod
    def from_json(data: object) -> "Instance":
        if not isinstance(data, dict):
            raise InstanceError("instance JSON must be an object")
        stages_raw = data.get("stages")
        jobs_raw = data.get("jobs")
        if not isinstance(stages_raw, list) or not isinstance(jobs_raw, list):
            raise InstanceError('instance JSON needs "stages" and "jobs" arrays')
        stages = []
        for idx, entry in enumerate(stages_raw):
            if not isinstance(entry, dict) or "machines" not in entry or "speed" not in entry:
                raise InstanceError(f'stage {idx}: expected {{"machines": int, "speed": str}}')
            machines = entry["machines"]
            if not isinstance(machines, int) or isinstance(machines, bool):
                raise InstanceError(f"stage {idx}: machine count must be an integer")
            stages.append(StageSpec(machines, parse_scalar(entry["speed"])))
        jobs = []
        for idx, entry in enumerate(jobs_raw):
            if not isinstance(entry, dict) or "size" not in entry:
                raise InstanceError(f'job {idx}: expected {{"size": str}}')
            jobs.append(Job(idx, parse_scalar(entry["size"])))
        family = data.get("family")
        if family is not None and not isinstance(family, str):
            raise InstanceError("family must be a string when present")
        return Instance(tuple(jobs), tuple(stages), family)


def time_grid(sizes: Sequence[Scalar], speeds: Sequence[Scalar]) -> tuple[int, list[list[int]]]:
    """The exact integer time grid of jobs with `sizes` on stages with `speeds`.

    Returns (L, ticks): L is the lcm of the denominators of every size/speed,
    and ticks[j][i] = L * size_j / speed_i is job j's execution time at stage
    i in units of 1/L. Every time a schedule can reach is a sum of execution
    times, so it is an exact integer number of ticks: kernels compare and add
    plain ints and divide by L only for the results they return. An L of
    more than MAX_GRID_BITS bits is refused with a ModelError.
    """
    times = [[size / speed for speed in speeds] for size in sizes]
    scale = math.lcm(*(t.denominator for row in times for t in row))
    if scale.bit_length() > MAX_GRID_BITS:
        raise ModelError(f"time grid needs a {scale.bit_length()}-bit denominator (cap {MAX_GRID_BITS})")
    return scale, [[t.numerator * (scale // t.denominator) for t in row] for row in times]


@dataclass(frozen=True)
class StageRecord:
    """Timing of one job at one stage: where it ran and when."""

    stage: int
    machine: int
    release: Scalar
    start: Scalar
    completion: Scalar


@dataclass(frozen=True)
class ScheduleTrace:
    """Full timing of an instance: `records[job][stage]` plus the makespan."""

    records: tuple[tuple[StageRecord, ...], ...]
    makespan: Scalar

    @property
    def n(self) -> int:
        return len(self.records)

    @property
    def k(self) -> int:
        return len(self.records[0])

    def releases(self, stage: int) -> tuple[Scalar, ...]:
        return tuple(self.records[j][stage].release for j in range(self.n))

    def completions(self, stage: int) -> tuple[Scalar, ...]:
        return tuple(self.records[j][stage].completion for j in range(self.n))

    def final_completions(self) -> tuple[Scalar, ...]:
        return self.completions(self.k - 1)

    @staticmethod
    def from_grid(
        scale: int,
        ticks: Sequence[Sequence[int]],
        machines: Sequence[Sequence[int]],
        completions: Sequence[Sequence[int]],
    ) -> "ScheduleTrace":
        """Build the exact trace from integer-grid timings.

        `machines[j][i]` and `completions[j][i]` give where job j ran at stage
        i and when it finished there, in ticks of 1/`scale`; releases chain
        from the previous stage's completion, starts are completion minus
        `ticks[j][i]`.
        """
        fractions: dict[int, Scalar] = {}

        def time(tick: int) -> Scalar:
            value = fractions.get(tick)
            if value is None:
                value = fractions[tick] = Fraction(tick, scale)
            return value

        rows = []
        for j, (row_machines, row_completions) in enumerate(zip(machines, completions)):
            release = 0
            row = []
            for i, (machine, completion) in enumerate(zip(row_machines, row_completions)):
                start = completion - ticks[j][i]
                row.append(StageRecord(i, machine, time(release), time(start), time(completion)))
                release = completion
            rows.append(tuple(row))
        return ScheduleTrace(tuple(rows), time(max(row[-1] for row in completions)))


# A plan fixes, for every stage, each job's machine and queue position:
# plan[stage][job] = (machine, position). Queue order is authoritative. It is
# the public form, read and written as JSON.
Plan = tuple[tuple[tuple[int, int], ...], ...]

# The solvers' form of the same plan: queues[stage][machine] lists job ids in
# service order. Machines after the last busy one may be left out.
Queues = Sequence[Sequence[Sequence[int]]]


def as_plan(obj: Sequence[Sequence[Sequence[int]]]) -> Plan:
    """Normalize nested sequences into the canonical tuple-of-tuples plan."""
    try:
        plan = tuple(tuple((int(e[0]), int(e[1])) for e in stage) for stage in obj)
    except (TypeError, ValueError, IndexError) as exc:
        raise PlanError([f"plan entries must be (machine, position) pairs: {exc}"]) from exc
    return plan


def plan_to_json(plan: Plan) -> list:
    return [[[m, p] for m, p in stage] for stage in plan]


def plan_from_json(data: object) -> Plan:
    if not isinstance(data, list):
        raise PlanError(["plan JSON must be a list of stages"])
    return as_plan(data)


def plan_to_queues(instance: Instance, plan: Plan | Sequence) -> Queues:
    """Check that `plan` covers `instance` and return its queue sequences.

    Raises PlanError listing every problem: a wrong stage or job count, a
    machine out of range, or positions on a machine that are not 0..q-1.
    """
    plan = as_plan(plan)
    if len(plan) != instance.k:
        raise PlanError([f"plan has {len(plan)} stages, instance has {instance.k}"])
    problems: list[str] = []
    queues = []
    for i, stage_plan in enumerate(plan):
        spec = instance.stages[i]
        if len(stage_plan) != instance.n:
            problems.append(f"stage {i}: plan covers {len(stage_plan)} jobs, instance has {instance.n}")
            continue
        slots: dict[int, list[tuple[int, int]]] = {}
        for j, (machine, position) in enumerate(stage_plan):
            if not 0 <= machine < spec.machines:
                problems.append(f"stage {i}, job {j}: machine {machine} out of range [0, {spec.machines})")
                continue
            slots.setdefault(machine, []).append((position, j))
        for machine, queue in sorted(slots.items()):
            positions = sorted(position for position, _ in queue)
            if positions != list(range(len(positions))):
                problems.append(
                    f"stage {i}, machine {machine}: positions {positions} are not 0..{len(positions) - 1}"
                )
        busy = max(slots, default=-1) + 1
        queues.append(tuple(tuple(j for _, j in sorted(slots.get(a, ()))) for a in range(busy)))
    if problems:
        raise PlanError(problems)
    return tuple(queues)


def queues_to_plan(queues: Queues) -> Plan:
    """The (machine, position) plan that serves `queues`."""
    plan = []
    for stage in queues:
        entry: dict[int, tuple[int, int]] = {}
        for machine, queue in enumerate(stage):
            for position, j in enumerate(queue):
                entry[j] = (machine, position)
        plan.append(tuple(entry[j] for j in range(len(entry))))
    return tuple(plan)


def trace_queues(trace: ScheduleTrace) -> Queues:
    """The queue sequences a trace realizes: each machine's jobs by start time."""
    queues = []
    for i in range(trace.k):
        starts: dict[int, list[tuple[Scalar, int]]] = {}
        for j in range(trace.n):
            rec = trace.records[j][i]
            starts.setdefault(rec.machine, []).append((rec.start, j))
        busy = max(starts) + 1
        queues.append(tuple(tuple(j for _, j in sorted(starts.get(a, ()))) for a in range(busy)))
    return tuple(queues)


def evaluate_schedule(instance: Instance, plan: Plan | Sequence) -> ScheduleTrace:
    """Realize a fully specified plan into a timed trace.

    Machines serve their queues strictly in plan position order, idling for a
    job's release if needed, even when a later position holds an
    earlier-released job. Releases chain: a job enters stage i+1 the moment it
    completes stage i.
    """
    queues = plan_to_queues(instance, plan)
    scale, ticks = time_grid(instance.sizes(), [s.speed for s in instance.stages])
    machines = [[0] * instance.k for _ in range(instance.n)]
    completions = [[0] * instance.k for _ in range(instance.n)]
    for i, stage in enumerate(queues):
        for machine, queue in enumerate(stage):
            available = 0
            for j in queue:
                release = completions[j][i - 1] if i else 0
                available = (release if release > available else available) + ticks[j][i]
                machines[j][i] = machine
                completions[j][i] = available
    return ScheduleTrace.from_grid(scale, ticks, machines, completions)


def validate_trace(instance: Instance, trace: ScheduleTrace) -> list[str]:
    """Check every trace invariant; returns violations as data, never raises.

    Verified per record: completion = start + size/speed, start >= release,
    stage-0 release = 0, and release chaining between stages. Verified per
    machine: service intervals are disjoint in start order and each start
    equals max(release, previous completion) — no unexplained idle time.
    """
    violations: list[str] = []
    if len(trace.records) != instance.n:
        return [f"trace covers {len(trace.records)} jobs, instance has {instance.n}"]
    for j, row in enumerate(trace.records):
        if len(row) != instance.k:
            return [f"job {j}: trace covers {len(row)} stages, instance has {instance.k}"]
    busy: dict[tuple[int, int], list[StageRecord]] = {}
    for j, row in enumerate(trace.records):
        prev_completion: Scalar | None = None
        for i, rec in enumerate(row):
            spec = instance.stages[i]
            if rec.stage != i:
                violations.append(f"job {j}, stage {i}: record tagged stage {rec.stage}")
            if not 0 <= rec.machine < spec.machines:
                violations.append(f"job {j}, stage {i}: machine {rec.machine} out of range")
                continue
            if i == 0 and rec.release != 0:
                violations.append(f"job {j}: stage-0 release is {rec.release}, expected 0")
            if i > 0 and rec.release != prev_completion:
                violations.append(
                    f"job {j}, stage {i}: release {rec.release} != previous completion {prev_completion}"
                )
            if rec.start < rec.release:
                violations.append(f"job {j}, stage {i}: start {rec.start} before release {rec.release}")
            if rec.completion - rec.start != instance.jobs[j].size / spec.speed:
                violations.append(
                    f"job {j}, stage {i}: completion - start != size/speed "
                    f"({rec.completion} - {rec.start} != {instance.jobs[j].size / spec.speed})"
                )
            busy.setdefault((i, rec.machine), []).append(rec)
            prev_completion = rec.completion
    for (i, machine), recs in sorted(busy.items()):
        recs.sort(key=lambda r: (r.start, r.completion))
        prev: Scalar = ZERO
        for rec in recs:
            if rec.start < prev:
                violations.append(
                    f"stage {i}, machine {machine}: interval [{rec.start}, {rec.completion}) "
                    f"overlaps previous job ending {prev}"
                )
            expected = rec.release if rec.release > prev else prev
            if rec.start != expected:
                violations.append(
                    f"stage {i}, machine {machine}: start {rec.start} != max(release {rec.release}, "
                    f"previous completion {prev})"
                )
            prev = rec.completion
    final = max(row[-1].completion for row in trace.records)
    if trace.makespan != final:
        violations.append(f"makespan {trace.makespan} != max final completion {final}")
    return violations


TRACE_CSV_FIELDS = (
    "job",
    "stage",
    "machine",
    "release",
    "start",
    "completion",
    "release_decimal",
    "start_decimal",
    "completion_decimal",
)


def trace_rows(trace: ScheduleTrace, precision: int = 6) -> list[dict[str, str | int]]:
    rows: list[dict[str, str | int]] = []
    for j in range(trace.n):
        for rec in trace.records[j]:
            rows.append(
                {
                    "job": j,
                    "stage": rec.stage,
                    "machine": rec.machine,
                    "release": format_scalar(rec.release),
                    "start": format_scalar(rec.start),
                    "completion": format_scalar(rec.completion),
                    "release_decimal": format_decimal(rec.release, precision),
                    "start_decimal": format_decimal(rec.start, precision),
                    "completion_decimal": format_decimal(rec.completion, precision),
                }
            )
    return rows


def trace_to_csv(trace: ScheduleTrace, precision: int = 6) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TRACE_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(trace_rows(trace, precision))
    return buf.getvalue()


def trace_to_json(trace: ScheduleTrace, precision: int = 6) -> dict:
    return {
        "makespan": format_scalar(trace.makespan),
        "makespan_decimal": format_decimal(trace.makespan, precision),
        "records": trace_rows(trace, precision),
    }
