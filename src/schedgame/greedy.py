"""Greedy least-loaded machine choice with first-come-first-serve queues."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .model import (
    Instance,
    JSONText,
    Scalar,
    ScheduleTrace,
    StageSpec,
    _block,
    _Memo,
    _row_template,
    format_decimal_ticks,
    format_ticks,
)


@dataclass(frozen=True)
class GreedyEvent:
    """One machine-choice decision: the load snapshot and the pick made."""

    time: Scalar
    job: int
    stage: int
    loads: tuple[Scalar, ...]
    machine: int


@dataclass(frozen=True)
class GreedyLog:
    """Greedy's decision log as a view of its trace: each stage's GreedyEvents in `release_order`."""

    trace: ScheduleTrace
    stages: tuple[StageSpec, ...]

    def __len__(self) -> int:
        return self.trace.n * self.trace.k

    def __iter__(self) -> Iterator[GreedyEvent]:
        scale = self.trace.scale
        for i, spec in enumerate(self.stages):
            loads = [Fraction(0)] * spec.machines
            for j in release_order(self.trace, i):
                machine, release, _, completion = self.trace.grid[j][i]
                yield GreedyEvent(Fraction(release, scale), j, i, tuple(loads), machine)
                loads[machine] = spec.speed * completion / scale


def greedy_schedule(instance: Instance) -> tuple[ScheduleTrace, GreedyLog]:
    """Simulate every job joining the least-loaded machine as it is released.

    Stage-0 decisions happen at t = 0 in instance order. At later stages jobs
    decide in ascending release order, ties by job id; within a batch of equal
    releases an earlier decider's enqueue is visible to later deciders. Machine
    ties go to the lowest index. Returns the trace plus the decision log.
    """
    n = instance.n
    scale, ticks = instance.time_grid
    grid: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    releases = [0] * n
    for i, spec in enumerate(instance.stages):
        # a machine's load is speed times the time its queue drains; with one
        # speed per stage the least load is the earliest drain time
        available = [0] * spec.machines
        for j in sorted(range(n), key=releases.__getitem__):
            chosen = available.index(min(available))
            release = releases[j]
            start = release if release > available[chosen] else available[chosen]
            completion = available[chosen] = start + ticks[j][i]
            grid[j].append((chosen, release, start, completion))
        releases = [row[i][3] for row in grid]
    trace = ScheduleTrace(scale, tuple(map(tuple, grid)), max(row[-1][3] for row in grid))
    return trace, GreedyLog(trace, instance.stages)


def release_order(trace: ScheduleTrace, stage: int) -> list[int]:
    """Job ids sorted by (release time at `stage`, job id).

    This is the order in which the stage saw its arrivals; at stage 0 it is
    simply the priority order since all releases are zero.
    """
    if not 0 <= stage < trace.k:
        raise ValueError(f"stage {stage} out of range [0, {trace.k})")
    return sorted(range(trace.n), key=lambda j: (trace.grid[j][stage][1], j))


EVENT_FIELDS = ("time", "time_decimal", "job", "stage", "loads", "machine")
_EVENT = _row_template(EVENT_FIELDS, 1)


def events_to_json(log: GreedyLog, precision: int = 6) -> JSONText:
    """The decision log as JSON text, written straight from the trace's ticks.

    `json.loads` of it gives one dict of the EVENT_FIELDS per decision: the
    release time ("a/b" and its decimal), the job, the stage, each machine's
    load as the job saw it ("a/b") and the machine it chose. Each distinct
    time is rendered once; each stage keeps one list of load texts, updated
    after each decision.
    """
    trace, scale = log.trace, log.trace.scale
    time = _Memo(lambda ticks: f'"{format_ticks(ticks, scale)}"')
    time_decimal = _Memo(lambda ticks: f'"{format_decimal_ticks(ticks, scale, precision)}"')
    out = []
    for i, spec in enumerate(log.stages):
        num, den = spec.speed.numerator, spec.speed.denominator * scale
        loads = ['"0"'] * spec.machines
        for j in release_order(trace, i):
            machine, release, _, completion = trace.grid[j][i]
            out.append(_EVENT % (time[release], time_decimal[release], j, i, _block(loads, 2), machine))
            loads[machine] = f'"{format_ticks(num * completion, den)}"'
    return JSONText(_block(out, 0))
