"""Greedy least-loaded machine choice with first-come-first-serve queues."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .model import (
    ZERO,
    Instance,
    Scalar,
    ScheduleTrace,
    format_decimal,
    format_scalar,
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


def greedy_schedule(instance: Instance) -> tuple[ScheduleTrace, list[GreedyEvent]]:
    """Simulate every job joining the least-loaded machine as it is released.

    Stage-0 decisions happen at t = 0 in instance order. At later stages jobs
    decide in ascending release order, ties by job id; within a batch of equal
    releases an earlier decider's enqueue is visible to later deciders. Machine
    ties go to the lowest index. Returns the trace plus the decision log.
    """
    n = instance.n
    scale, ticks = time_grid(instance.sizes(), [s.speed for s in instance.stages])
    grid: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    events: list[GreedyEvent] = []
    releases = [0] * n
    for i, spec in enumerate(instance.stages):
        # a machine's load is speed times the time its queue drains; with one
        # speed per stage the least load is the earliest drain time
        available = [0] * spec.machines
        loads = [ZERO] * spec.machines
        load_per_tick = spec.speed / scale
        for j in sorted(range(n), key=releases.__getitem__):
            chosen = available.index(min(available))
            release = releases[j]
            events.append(GreedyEvent(Fraction(release, scale), j, i, tuple(loads), chosen))
            start = release if release > available[chosen] else available[chosen]
            completion = available[chosen] = start + ticks[j][i]
            loads[chosen] = load_per_tick * completion
            grid[j].append((chosen, release, start, completion))
        releases = [row[i][3] for row in grid]
    trace = ScheduleTrace(scale, tuple(map(tuple, grid)), max(row[-1][3] for row in grid))
    return trace, events


def release_order(trace: ScheduleTrace, stage: int) -> list[int]:
    """Job ids sorted by (release time at `stage`, job id).

    This is the order in which the stage saw its arrivals; at stage 0 it is
    simply the priority order since all releases are zero.
    """
    if not 0 <= stage < trace.k:
        raise ValueError(f"stage {stage} out of range [0, {trace.k})")
    return sorted(range(trace.n), key=lambda j: (trace.grid[j][stage][1], j))


def events_to_json(events: Iterable[GreedyEvent], precision: int = 6) -> list[dict]:
    # A load stays the same object from one snapshot to the next until its
    # machine is picked, so each distinct load object is formatted once.
    text: dict[int, str] = {}
    held = []  # every formatted load stays alive, so no id in `text` is reused
    lookup = text.get
    out = []
    for e in events:
        loads = list(map(lookup, map(id, e.loads)))
        while None in loads:
            i = loads.index(None)
            x = e.loads[i]
            held.append(x)
            loads[i] = text[id(x)] = format_scalar(x)
        out.append(
            {
                "time": format_scalar(e.time),
                "time_decimal": format_decimal(e.time, precision),
                "job": e.job,
                "stage": e.stage,
                "loads": loads,
                "machine": e.machine,
            }
        )
    return out
