"""Greedy least-loaded machine choice with first-come-first-serve queues."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .model import (
    Instance,
    Scalar,
    ScheduleTrace,
    StageSpec,
    format_decimal_ticks,
    format_ticks,
    time_grid,
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
    scale, ticks = time_grid(instance.sizes(), [s.speed for s in instance.stages])
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


def events_to_json(log: GreedyLog, precision: int = 6) -> list[dict]:
    """The decision log's JSON rows, rendered from the trace's ticks."""
    trace, scale = log.trace, log.trace.scale
    out = []
    for i, spec in enumerate(log.stages):
        loads = ["0"] * spec.machines
        for j in release_order(trace, i):
            machine, release, _, completion = trace.grid[j][i]
            out.append(
                {
                    "time": format_ticks(release, scale),
                    "time_decimal": format_decimal_ticks(release, scale, precision),
                    "job": j,
                    "stage": i,
                    "loads": loads.copy(),
                    "machine": machine,
                }
            )
            loads[machine] = format_ticks(spec.speed.numerator * completion, spec.speed.denominator * scale)
    return out
