"""Domain types, the exact time grid, plan forms, the schedule kernel, and the JSON writer.

Every size, speed, and time is an exact rational (`fractions.Fraction`) at the
API boundary. Ties between machine loads are semantically load-bearing, so
nothing ever rounds: the kernels run on the instance's integer time grid
(`Instance.time_grid`), which represents every reachable time exactly, and
build fractions only for the results they return. Decimal strings are parsed to
exact fractions on the way in and rendered back to decimals only at the
output boundary, where `_dumps` writes every JSON output and the big row
tables write their own text straight from their ticks (`JSONText`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

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
    return format_decimal_ticks(value.numerator, value.denominator, precision)


def format_decimal_ticks(ticks: int, scale: int, precision: int = 6) -> str:
    """format_decimal(Fraction(ticks, scale), precision) for scale > 0, without building the Fraction."""
    if precision < 0:
        raise ModelError("precision must be >= 0")
    sign = "-" if ticks < 0 else ""
    quot, rem = divmod(abs(ticks) * 10**precision, scale)
    if 2 * rem >= scale:
        quot += 1
    digits = str(quot).rjust(precision + 1, "0")
    split = len(digits) - precision
    whole, frac = digits[:split], digits[split:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


class JSONText(str):
    """JSON text at depth 0, as `_dumps` writes it; `_dumps` splices it in at any depth.

    The big row tables (`trace_to_json`, `greedy.events_to_json`,
    `analysis.BoundReport.to_json`) render themselves to it straight from
    their ticks; `json.loads` of one gives the value it stands for.
    """

    __slots__ = ()


class _Memo(dict):
    """`fn(key)` for each key, computed on its first lookup.

    The table renderers build one per call and per column kind: the same
    ticks are another time on another scale, and a decimal differs from the
    exact form of the same time.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


_encode_str = json.encoder.encode_basestring_ascii


def _dumps(payload: object) -> str:
    """What `json.dumps` writes with a two-space indent, byte for byte.

    With an indent the json module falls back to its pure-Python encoder. This
    writer renders dict (str keys), list, tuple, str, int, bool and None with
    C-level string and int encoders, and raises TypeError for anything else.
    A `JSONText` is spliced in as the value it stands for.
    """
    return _encode(payload, 0)


def _encode(value: object, depth: int) -> str:
    if isinstance(value, str):
        if isinstance(value, JSONText):
            # JSON text has no raw newline inside a string, so every newline starts a line to indent
            return value.replace("\n", "\n" + "  " * depth)
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return _block([_encode(v, depth + 1) for v in value], depth)
    if isinstance(value, dict):
        return _block([_encode_key(k) + ": " + _encode(v, depth + 1) for k, v in value.items()], depth, "{}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _block(items: Sequence[str], depth: int, brackets: str = "[]") -> str:
    """A list (or with brackets "{}", a dict) at `depth` whose entries, at depth + 1, read `items`."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _encode_key(key: object) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _row_template(keys: Sequence[str], depth: int) -> str:
    """A %-template for a dict at `depth` with these keys, one %s per value's JSON text."""
    return _block([_encode_key(k).replace("%", "%%") + ": %s" for k in keys], depth, "{}")


def _csv(header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV text of `header` and then `rows`, each line ending in a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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

    @functools.cached_property
    def time_grid(self) -> tuple[int, list[list[int]]]:
        """`time_grid` of the sizes and speeds, built on first read; every kernel reads it, none mutates it."""
        return time_grid(self.sizes(), [s.speed for s in self.stages])

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


def to_ticks(value: Scalar, scale: int) -> int:
    """`value` in ticks of 1/scale; scale is a multiple of its denominator."""
    return value.numerator * (scale // value.denominator)


def time_grid(sizes: Sequence[Scalar], speeds: Sequence[Scalar]) -> tuple[int, list[list[int]]]:
    """The exact integer time grid of jobs with `sizes` on stages with `speeds`.

    Returns (L, ticks): L is the lcm of the denominators of every size/speed,
    and ticks[j][i] = L * size_j / speed_i is job j's execution time at stage
    i in units of 1/L. Every time a schedule can reach is a sum of execution
    times, so it is an exact integer number of ticks: kernels compare and add
    plain ints and divide by L only for the results they return. An L of
    more than MAX_GRID_BITS bits is refused with a ModelError.
    """
    # size a/b over speed c/d is (a*d)/(b*c): one gcd reduces it, no Fraction is built
    speed_terms = [(speed.denominator, speed.numerator) for speed in speeds]
    times = []
    for size in sizes:
        a, b = size.numerator, size.denominator
        row = []
        for d, c in speed_terms:
            num, den = a * d, b * c
            g = math.gcd(num, den)
            row.append((num // g, den // g))
        times.append(row)
    scale = math.lcm(*(den for row in times for _, den in row))
    if scale.bit_length() > MAX_GRID_BITS:
        raise ModelError(f"time grid needs a {scale.bit_length()}-bit denominator (cap {MAX_GRID_BITS})")
    return scale, [[num * (scale // den) for num, den in row] for row in times]


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
    """Full timing of an instance on its integer time grid.

    `grid[job][stage]` is (machine, release, start, completion) and
    `makespan_ticks` the makespan, all in ticks of 1/`scale`: the lcm of the
    denominators of the trace's times, so equality compares ints. (A kernel's
    `time_grid` L is that lcm, as every execution time is a completion minus a
    start.) `records` and `makespan` are `Fraction` views, built when first read.
    """

    scale: int
    grid: tuple[tuple[tuple[int, int, int, int], ...], ...]
    makespan_ticks: int

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def k(self) -> int:
        return len(self.grid[0])

    @functools.cached_property
    def records(self) -> tuple[tuple[StageRecord, ...], ...]:
        scale = self.scale
        return tuple(
            tuple(
                StageRecord(i, machine, Fraction(release, scale), Fraction(start, scale), Fraction(completion, scale))
                for i, (machine, release, start, completion) in enumerate(row)
            )
            for row in self.grid
        )

    @functools.cached_property
    def makespan(self) -> Scalar:
        return Fraction(self.makespan_ticks, self.scale)

    def completions(self, stage: int) -> tuple[Scalar, ...]:
        return tuple(row[stage].completion for row in self.records)

    def final_completions(self) -> tuple[Scalar, ...]:
        return self.completions(self.k - 1)

    @staticmethod
    def from_records(records: Sequence[Sequence[StageRecord]], makespan: Scalar) -> "ScheduleTrace":
        """The trace of hand-built `records[job][stage]` and `makespan`, on the lcm of their denominators.

        A record's stage is its position in its row.
        """
        times = [makespan, *(t for row in records for rec in row for t in (rec.release, rec.start, rec.completion))]
        scale = math.lcm(*(t.denominator for t in times))
        tick = functools.partial(to_ticks, scale=scale)
        grid = tuple(
            tuple((rec.machine, tick(rec.release), tick(rec.start), tick(rec.completion)) for rec in row)
            for row in records
        )
        return ScheduleTrace(scale, grid, tick(makespan))


# A plan fixes, for every stage, each job's machine and queue position:
# plan[stage][job] = (machine, position). Queue order is authoritative. It is
# the public form, read and written as JSON.
Plan = tuple[tuple[tuple[int, int], ...], ...]

# The solvers' form of the same plan: queues[stage][machine] lists job ids in
# service order. Machines after the last busy one may be left out.
Queues = Sequence[Sequence[Sequence[int]]]


def as_plan(obj: Sequence[Sequence[Sequence[int]]]) -> Plan:
    """Normalize nested sequences into the canonical tuple-of-tuples plan.

    The plan and each of its stages must be a list or tuple, and each entry a
    list or tuple of exactly two ints. Nothing is converted: a float, string or bool entry is
    a PlanError naming its stage and job.
    """
    if not isinstance(obj, (list, tuple)):
        raise PlanError(["a plan must be a list of stages"])
    plan = []
    for i, stage in enumerate(obj):
        if not isinstance(stage, (list, tuple)):
            raise PlanError([f"stage {i}: expected a list of (machine, position) pairs, got {reprlib.repr(stage)}"])
        for j, entry in enumerate(stage):
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and all(type(x) is int for x in entry)):
                raise PlanError(
                    [f"stage {i}, job {j}: plan entry {reprlib.repr(entry)} is not a (machine, position) pair of ints"]
                )
        plan.append(tuple(map(tuple, stage)))
    return tuple(plan)


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
        starts: dict[int, list[tuple[int, int]]] = {}
        for j, row in enumerate(trace.grid):
            machine, _, start, _ = row[i]
            starts.setdefault(machine, []).append((start, j))
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
    scale, ticks = instance.time_grid
    grid: list[list[tuple[int, int, int, int]]] = [[] for _ in range(instance.n)]
    for i, stage in enumerate(queues):
        for machine, queue in enumerate(stage):
            available = 0
            for j in queue:
                release = grid[j][i - 1][3] if i else 0
                start = release if release > available else available
                available = start + ticks[j][i]
                grid[j].append((machine, release, start, available))
    return ScheduleTrace(scale, tuple(map(tuple, grid)), max(row[-1][3] for row in grid))


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
_RECORD = _row_template(TRACE_CSV_FIELDS, 2)
_TRACE = _row_template(("makespan", "makespan_decimal", "records"), 0)


def _trace_cells(trace: ScheduleTrace, precision: int, form: str) -> list[tuple]:
    """Each record's cells in TRACE_CSV_FIELDS order, a time's text as `form % text`.

    Each distinct tick is rendered once per column kind.
    """
    scale = trace.scale
    exact = _Memo(lambda ticks: form % format_ticks(ticks, scale))
    decimal = _Memo(lambda ticks: form % format_decimal_ticks(ticks, scale, precision))
    return [
        (j, i, machine, exact[release], exact[start], exact[completion],
         decimal[release], decimal[start], decimal[completion])
        for j, row in enumerate(trace.grid)
        for i, (machine, release, start, completion) in enumerate(row)
    ]


def trace_to_csv(trace: ScheduleTrace, precision: int = 6) -> str:
    return _csv(TRACE_CSV_FIELDS, _trace_cells(trace, precision, "%s"))


def trace_to_json(trace: ScheduleTrace, precision: int = 6) -> JSONText:
    """The trace as JSON text: its makespan and one record per job and stage.

    `json.loads` of it gives {"makespan", "makespan_decimal", "records"}, each
    record a dict of the TRACE_CSV_FIELDS, exact times as "a/b" strings and
    decimals rounded to `precision` digits. It is written straight from the
    ticks, each distinct time rendered once.
    """
    records = [_RECORD % cells for cells in _trace_cells(trace, precision, '"%s"')]
    ticks, scale = trace.makespan_ticks, trace.scale
    makespan = (f'"{format_ticks(ticks, scale)}"', f'"{format_decimal_ticks(ticks, scale, precision)}"')
    return JSONText(_TRACE % (*makespan, _block(records, 1)))
