"""Exact optimal makespan via exhaustive search, plus certified lower bounds.

The solver explores every list schedule of the non-final stages (each job
order, each job appended to the least available machine) and every machine
assignment of the last stage, whose machines serve in order of release: there
only the makespan matters, and one machine with release dates finishes soonest
that way (Jackson's rule). List schedules complete every job no later than any
plan of their stage does (proof in `_PlanSearch._enumerate`), so no optimum is
lost. Branch-and-bound pruning, machine-symmetry breaking, and dominance
filtering on stage completion vectors cut the search. It either certifies the
exact optimum or refuses; it never silently approximates.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import le

from .greedy import greedy_schedule
from .model import Instance, Job, Plan, Queues, Scalar, ScheduleTrace, StageSpec, queues_to_plan, trace_queues

__all__ = [
    "SearchLimits",
    "DEFAULT_LIMITS",
    "LimitsExceeded",
    "OptResult",
    "opt_lower_bounds",
    "optimal_makespan",
    "single_stage_optimal",
]


@dataclass(frozen=True)
class SearchLimits:
    """Hard caps for the exhaustive solver.

    An instance beyond the caps is refused rather than approximated, except
    when a heuristic plan already matches the certified lower bound, in which
    case the optimum is known without searching. Multi-stage instances face
    the tighter `max_jobs_multistage` cap because the search also enumerates
    the job orders (list schedules) of every stage but the last. `max_machines` caps the
    machines per stage of pipelines only: one stage is a partition of the
    sizes. `node_budget` caps the search nodes; a node is one attempt to place
    a job on a machine, pruned or not.
    """

    max_jobs: int = 8
    max_jobs_multistage: int = 6
    max_stages: int = 3
    max_machines: int = 3
    node_budget: int = 5_000_000


DEFAULT_LIMITS = SearchLimits()


class LimitsExceeded(Exception):
    """The instance is outside the solver's configured limits."""


class _Budget(Exception):
    pass


class _Done(Exception):
    pass


@dataclass(frozen=True)
class OptResult:
    """Outcome of an exact search.

    status "exact" certifies that no plan beats `makespan`; the witness plan
    reproduces it through `evaluate_schedule`. status "budget-exhausted"
    reports the best plan found (`makespan` is an upper bound) together with
    the best certified `lower_bound`.
    """

    makespan: Scalar
    plan: Plan | None
    status: str
    lower_bound: Scalar
    nodes: int = 0


def opt_lower_bounds(instance: Instance) -> tuple[Scalar, Scalar]:
    """Two certified lower bounds on the optimal makespan, read off the time grid.

    path bound: the largest job must still traverse every stage, so no plan
    beats its row of `ticks` (sum_i p_max/s_i). bottleneck bound: each stage
    must serve all the work on its m_i machines, so no plan beats the largest
    stage total over m_i (total size over the smallest rate m_i*s_i).
    """
    scale, ticks = instance.time_grid
    path = Fraction(max(map(sum, ticks)), scale)
    bottleneck = max(Fraction(sum(column), s.machines * scale) for s, column in zip(instance.stages, zip(*ticks)))
    return path, bottleneck


def _heuristic_plan(instance: Instance) -> tuple[ScheduleTrace, Queues]:
    """Best of a few greedy passes (priority order, sizes descending/ascending).

    Queues are order-free: relabelling a reordered instance's greedy queues
    back through `order` gives a plan that evaluates identically on the
    original instance. The first column of the time grid orders the jobs by
    size. Returns the best trace (all share one time grid) and its queues.
    """
    n = instance.n
    ticks = instance.time_grid[1]
    best: tuple[ScheduleTrace, Queues] | None = None
    orders = [
        list(range(n)),
        sorted(range(n), key=lambda j: (-ticks[j][0], j)),
        sorted(range(n), key=lambda j: (ticks[j][0], j)),
    ]
    for order in orders:
        jobs = tuple(Job(pos, instance.jobs[j].size) for pos, j in enumerate(order))
        trace, _ = greedy_schedule(Instance(jobs, instance.stages))
        if best is None or trace.makespan_ticks < best[0].makespan_ticks:
            queues = tuple(
                tuple(tuple(order[pos] for pos in queue) for queue in stage) for stage in trace_queues(trace)
            )
            best = (trace, queues)
    assert best is not None
    return best


def optimal_makespan(instance: Instance, limits: SearchLimits | None = None) -> OptResult:
    """Exact minimum makespan over every machine assignment and queue order.

    Certifies immediately when a heuristic plan meets the analytic lower
    bound; otherwise refuses instances beyond `limits` (the machine cap only
    for pipelines) and runs the full branch-and-bound search. The central plan
    is not bound by arrival order, so queues may place a later-released job
    first.
    """
    limits = limits or DEFAULT_LIMITS
    n, k = instance.n, instance.k
    ub, ub_queues = _heuristic_plan(instance)
    lower = max(opt_lower_bounds(instance))
    if ub.makespan <= lower:
        return OptResult(ub.makespan, queues_to_plan(ub_queues), "exact", ub.makespan, 0)
    job_cap = limits.max_jobs if k == 1 else min(limits.max_jobs, limits.max_jobs_multistage)
    if n > job_cap:
        raise LimitsExceeded(f"{n} jobs exceeds the solver cap of {job_cap} for k={k}")
    if k > limits.max_stages:
        raise LimitsExceeded(f"{k} stages exceeds the solver cap of {limits.max_stages}")
    widest = max(s.machines for s in instance.stages)
    if k > 1 and widest > limits.max_machines:
        raise LimitsExceeded(f"{widest} machines in a stage exceeds the cap of {limits.max_machines}")
    return _PlanSearch(instance, limits, ub, ub_queues, lower).run()


def single_stage_optimal(
    jobs: list[Job] | tuple[Job, ...],
    m: int,
    s: Scalar,
    limits: SearchLimits | None = None,
) -> OptResult:
    """Exact single-stage optimum: `optimal_makespan` on one stage of `m` machines at speed `s`.

    With one stage and all releases at zero, queue order is irrelevant and the
    search is an m-way partition of the sizes. Jobs are numbered by position.
    A bad `m` or `s` raises an `InstanceError` (a ValueError).
    """
    if not jobs:
        raise LimitsExceeded("no jobs")
    stage = StageSpec(m, Fraction(s))
    return optimal_makespan(Instance(tuple(Job(j, job.size) for j, job in enumerate(jobs)), (stage,)), limits)


def _dominated(vec: tuple[int, ...], candidates: Iterable[tuple[int, ...]]) -> bool:
    """Whether some candidate is componentwise at most `vec`."""
    for prev in candidates:
        if all(map(le, prev, vec)):
            return True
    return False


class _Archive:
    """The release vectors already expanded into one stage, sorted by sum.

    A vector that dominates another has a sum no larger, so a dominance test
    scans only the prefix of sums up to the tested vector's.
    """

    __slots__ = ("vecs", "sums")

    def __init__(self) -> None:
        self.vecs: list[tuple[int, ...]] = []
        self.sums: list[int] = []

    def admit(self, vec: tuple[int, ...]) -> bool:
        """Record `vec` unless an archived vector dominates it; return whether it was recorded."""
        total = sum(vec)
        end = bisect_right(self.sums, total)
        if _dominated(vec, islice(self.vecs, end)):
            return False
        self.vecs.insert(end, vec)
        self.sums.insert(end, total)
        return True


class _PlanSearch:
    """Depth-first search over stage plans on the instance's integer time grid."""

    def __init__(
        self,
        instance: Instance,
        limits: SearchLimits,
        ub: ScheduleTrace,
        ub_queues: Queues,
        lower: Fraction,
    ) -> None:
        """`lower` is the analytic lower bound on the makespan (`opt_lower_bounds`)."""
        self.n = instance.n
        self.k = instance.k
        self.machines = tuple(s.machines for s in instance.stages)
        self.scale, self.exec_int = instance.time_grid
        # rempath[j][i] = total execution still ahead of job j from stage i on
        self.rempath = [[sum(row[i:]) for i in range(self.k + 1)] for row in self.exec_int]
        self.stage_total = [sum(self.exec_int[j][i] for j in range(self.n)) for i in range(self.k)]
        assert ub.scale == self.scale, "heuristic plan off the exact time grid"
        self.best = ub.makespan_ticks
        self.best_seqs = ub_queues
        self.analytic_lb = lower
        self.target = math.ceil(lower * self.scale)
        # equal-size jobs are interchangeable; canonicalize their stage-0 slots
        self.equal_pred_mask = [0] * self.n
        for j in range(self.n):
            for j2 in range(j):
                if self.exec_int[j2][0] == self.exec_int[j][0]:
                    self.equal_pred_mask[j] |= 1 << j2
        self.archives = [_Archive() for _ in range(self.k - 1)]
        self.nodes = 0
        self.node_budget = limits.node_budget

    def run(self) -> OptResult:
        status = "exact"
        if self.best > self.target:
            try:
                self._expand(0, (0,) * self.n, [])
            except _Done:
                pass
            except _Budget:
                status = "budget-exhausted"
        makespan = Fraction(self.best, self.scale)
        lower = makespan if status == "exact" else self.analytic_lb
        return OptResult(makespan, queues_to_plan(self.best_seqs), status, lower, self.nodes)

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise _Budget

    def _vector_lb(self, boundary: int, comps: tuple[int, ...]) -> int:
        """Lower bound on the final makespan given releases into `boundary`."""
        best = 0
        for j in range(self.n):
            v = comps[j] + self.rempath[j][boundary]
            if v > best:
                best = v
        for stage in range(boundary, self.k):
            arrive = min(
                comps[j] + self.rempath[j][boundary] - self.rempath[j][stage] for j in range(self.n)
            )
            need = arrive + -(-self.stage_total[stage] // self.machines[stage])
            if need > best:
                best = need
        return best

    def _expand(self, stage_i: int, releases: tuple[int, ...], prefix: list) -> None:
        if stage_i == self.k - 1:
            return self._last_stage(releases, prefix)
        archive = self.archives[stage_i]
        for comps, seqs in self._stage_plans(stage_i, releases):
            if self._vector_lb(stage_i + 1, comps) >= self.best or not archive.admit(comps):
                continue
            self._expand(stage_i + 1, comps, prefix + [seqs])

    def _last_stage(self, releases: tuple[int, ...], prefix: list) -> None:
        """Try every machine assignment of the last stage, each queue in order of release.

        Only the makespan matters here, and one machine with release dates
        finishes its jobs soonest by serving them in order of release (1|r_j|C_max,
        Jackson's rule), so queue orders need no search. Two rules cut the
        assignments:
        - Jobs are placed in (release, -exec, id) order. Jackson's rule allows
          any order among equal releases, so the largest go first, as in a
          partition search, and every queue stays in release order: the
          witness replays through `evaluate_schedule` to the same makespan.
        - A job skips a machine whose availability equals one it already
          tried. The machines are identical and the last stage has no queue
          orders left to choose, so the two subtrees mirror each other. A
          skipped machine costs no node. Machines not yet used are all free at
          0, so this also breaks the symmetry among them.
        A placement that brings the stage's makespan up to the incumbent is
        pruned, so a full assignment becomes the new incumbent.
        """
        stage_i = self.k - 1
        m = self.machines[stage_i]
        execs = [self.exec_int[j][stage_i] for j in range(self.n)]
        order = sorted(range(self.n), key=lambda j: (releases[j], -execs[j], j))
        avail = [0] * m
        seqs: list[list[int]] = [[] for _ in range(m)]

        def place(pos: int, span: int) -> None:
            if pos == self.n:
                self.best = span
                self.best_seqs = tuple(prefix) + (tuple(map(tuple, seqs)),)
                if span <= self.target:
                    raise _Done
                return
            j = order[pos]
            r, e = releases[j], execs[j]
            tried = set()
            for a in range(m):
                free = avail[a]
                if free in tried:
                    continue
                tried.add(free)
                self._tick()
                c = (r if r > free else free) + e
                reach = c if c > span else span
                if reach >= self.best:
                    continue
                avail[a] = c
                seqs[a].append(j)
                place(pos + 1, reach)
                seqs[a].pop()
                avail[a] = free

        place(0, 0)

    def _stage_plans(self, stage_i: int, releases: tuple[int, ...]):
        """A non-final stage's plans as (completion vector, machine sequences).

        Deduplicated, dominance-filtered (same parent state, so a componentwise-
        smaller completion vector always continues at least as well) and sorted
        most promising first.
        """
        items = sorted(self._enumerate(stage_i, releases).items(), key=lambda kv: (sum(kv[0]), kv[0]))
        kept: list[tuple[tuple[int, ...], tuple]] = []
        kept_vecs: list[tuple[int, ...]] = []
        for vec, plan_seqs in items:
            if not _dominated(vec, kept_vecs):
                kept.append((vec, plan_seqs))
                kept_vecs.append(vec)
        kept.sort(key=lambda kv: (max(kv[0]), kv[0]))
        return kept

    def _enumerate(self, stage_i: int, releases: tuple[int, ...]) -> dict[tuple[int, ...], tuple]:
        """Every list schedule of a non-final stage, keyed by completion vector.

        The search runs depth-first over the order of the stage's jobs. Each
        job in turn goes to the least available machine with the lowest index
        (greedy's own pick) and starts at max(release, availability). These
        list schedules dominate every FIFO plan of the stage:
        - Take any plan and list its jobs by start time. Suppose job j is the
          first whose list start exceeds its plan start S_j. As j's release is
          at most S_j, all m machines of the list schedule are busy past S_j.
        - The last job on each of those machines comes before j in the list,
          so it starts no later in the list schedule than in the plan
          (induction), and in the plan no later than S_j. In the plan it runs
          just as long, so it ends no earlier: after S_j.
        - Execution times are positive, so in the plan those m jobs and j all
          run just after S_j, on only m machines. That is a contradiction.
        So every job completes no later in the list schedule than in the plan,
        and a plan of the later stages serves earlier releases no later. Each
        machine serves its list-scheduled jobs in list order, so the witness
        is a FIFO plan and replays through `evaluate_schedule`.

        At stage 0, where all releases are 0, equal-size jobs are
        interchangeable at every stage, so they are listed in id order. A job
        whose completion plus its remaining path cannot beat the incumbent is
        not placed. Each completion vector keeps the machine sequences of the
        first list schedule that reached it.
        """
        m = self.machines[stage_i]
        execs = [self.exec_int[j][stage_i] for j in range(self.n)]
        rempath_next = [self.rempath[j][stage_i + 1] for j in range(self.n)]
        equal_pred_mask = self.equal_pred_mask if stage_i == 0 else [0] * self.n
        full_mask = (1 << self.n) - 1
        comps = [0] * self.n
        avail = [0] * m
        seqs: list[list[int]] = [[] for _ in range(m)]
        out: dict[tuple[int, ...], tuple] = {}

        def extend(used: int) -> None:
            free = min(avail)
            a = avail.index(free)
            queue = seqs[a]
            for j in range(self.n):
                bit = 1 << j
                if used & bit or (used & equal_pred_mask[j]) != equal_pred_mask[j]:
                    continue
                self._tick()
                r = releases[j]
                c = (r if r > free else free) + execs[j]
                if c + rempath_next[j] >= self.best:
                    continue
                comps[j] = c
                new_used = used | bit
                queue.append(j)
                if new_used == full_mask:
                    key = tuple(comps)
                    if key not in out:
                        out[key] = tuple(map(tuple, seqs))
                else:
                    avail[a] = c
                    extend(new_used)
                    avail[a] = free
                queue.pop()

        extend(0)
        return out
