"""Trace-level verification of completion-time bounds and price-of-anarchy reports.

The core inequality: in a stage with m machines at speed s, if every arrival
satisfies r_j <= T + (1/R)*sum_{l<j} p_l for a rate R <= m*s (arrivals sorted
by release time), then under greedy/FCFS service every completion satisfies
c_j <= T + ((2m-1)/(m*s))*p_max + (1/R)*sum_{l<j} p_l, and the same bound
survives re-sorting the completions into ascending order with re-sorted prefix
sums. Chaining this through every stage with R = min_i m_i*s_i bounds the
greedy makespan against the optimal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (
    DEFAULT_LIMITS,
    LimitsExceeded,
    SearchLimits,
    opt_lower_bounds,
    optimal_makespan,
    # unused here: perfbench/spans.py wraps analysis.single_stage_optimal (tests/test_bench_tracer.py checks it)
    single_stage_optimal,  # noqa: F401
)
from .greedy import greedy_schedule
from .model import (
    Instance,
    JSONText,
    Scalar,
    ScheduleTrace,
    StageSpec,
    _block,
    _encode,
    _encode_str,
    _Memo,
    _row_template,
    format_decimal,
    format_scalar,
    format_ticks,
    to_ticks,
)

__all__ = [
    "AnalysisError",
    "SigmaPermutation",
    "BoundRow",
    "BoundReport",
    "PoAReport",
    "sigma_permutation",
    "check_release_premise",
    "check_completion_bound",
    "check_multistage_chain",
    "price_of_anarchy",
]


class AnalysisError(ValueError):
    """A checker was invoked with parameters that make the check meaningless."""


@dataclass(frozen=True)
class SigmaPermutation:
    """Completion-sorted ordering of one stage: order[rank] = job id.

    Ranks ascend by (completion time, job id); the tie rule matches the
    release ordering of the next stage, so rank r here is arrival r there.
    """

    stage: int
    order: tuple[int, ...]


def sigma_permutation(completions: Sequence[Scalar | int], stage: int = 0) -> SigmaPermutation:
    """Sort job ids by (completion, id) for one stage's completion vector."""
    # sorted() is stable and range() ascends, so equal completions keep id order
    return SigmaPermutation(stage, tuple(sorted(range(len(completions)), key=completions.__getitem__)))


@dataclass(frozen=True)
class BoundRow:
    """One checked inequality: holds iff slack = rhs - lhs is non-negative."""

    label: str
    lhs: Scalar
    rhs: Scalar

    @property
    def slack(self) -> Scalar:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


# A row on the report's grid: (label, lhs, rhs), both sides in ticks of 1/scale.
GridRow = tuple[str, int, int]

REPORT_FIELDS = ("inequality", "stage", "holds", "min_slack", "min_slack_decimal", "minimal_t", "params", "rows")
ROW_FIELDS = ("label", "lhs", "rhs", "slack", "holds")
_REPORT = _row_template(REPORT_FIELDS, 0)
_ROW = _row_template(ROW_FIELDS, 2)


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of an inequality family on a trace; failures are data.

    Every value the report compares is a multiple of 1/`scale`, so its rows are
    kept on that grid as `grid` and compared as ints; `rows` builds the
    `BoundRow`s with `Fraction` sides on demand.
    """

    inequality: str
    stage: int | None
    grid: tuple[GridRow, ...]
    scale: int
    params: dict
    minimal_t: Scalar | None = None

    def _row(self, label: str, lhs: int, rhs: int) -> BoundRow:
        return BoundRow(label, Fraction(lhs, self.scale), Fraction(rhs, self.scale))

    @property
    def rows(self) -> tuple[BoundRow, ...]:
        return tuple(self._row(*row) for row in self.grid)

    @property
    def holds(self) -> bool:
        return all(lhs <= rhs for _, lhs, rhs in self.grid)

    @property
    def min_slack(self) -> Scalar:
        return Fraction(min(rhs - lhs for _, lhs, rhs in self.grid), self.scale)

    def failures(self) -> list[BoundRow]:
        return [self._row(*row) for row in self.grid if row[1] > row[2]]

    def to_json(self, precision: int = 6) -> JSONText:
        """The report as JSON text, its rows written straight from the grid's ticks.

        `json.loads` of it gives a dict of the REPORT_FIELDS: the verdict,
        the least slack, the parameters and one dict of the ROW_FIELDS per
        row, each side "a/b". Each distinct tick is rendered once.
        """
        scale = self.scale
        exact = _Memo(lambda ticks: f'"{format_ticks(ticks, scale)}"')
        rows = [
            _ROW % (_encode_str(label), exact[lhs], exact[rhs], exact[rhs - lhs], "true" if lhs <= rhs else "false")
            for label, lhs, rhs in self.grid
        ]
        min_slack = self.min_slack
        head = (
            self.inequality,
            self.stage,
            self.holds,
            format_scalar(min_slack),
            format_decimal(min_slack, precision),
            None if self.minimal_t is None else format_scalar(self.minimal_t),
            {k: format_scalar(v) if isinstance(v, Fraction) else v for k, v in self.params.items()},
        )
        return JSONText(_REPORT % (*(_encode(value, 1) for value in head), _block(rows, 1)))


def _check_ms_star(instance: Instance, stage: int, ms_star: Scalar) -> None:
    if not 0 <= stage < instance.k:
        raise AnalysisError(f"stage {stage} out of range [0, {instance.k})")
    spec = instance.stages[stage]
    if ms_star <= 0:
        raise AnalysisError(f"rate parameter must be positive, got {ms_star}")
    if ms_star > spec.machines * spec.speed:
        raise AnalysisError(
            f"rate parameter {ms_star} exceeds stage {stage} processing rate "
            f"{spec.machines * spec.speed}"
        )


def _head(spec: StageSpec, t_offset: Scalar, p_max: Scalar) -> Scalar:
    """T + ((2m-1)/(m*s))*p_max: the completion bound's constant term on a stage."""
    return t_offset + Fraction(2 * spec.machines - 1, 1) / (spec.machines * spec.speed) * p_max


class _Grid:
    """One report's common denominator `scale` and the trace's times on it.

    `scale` is the lcm of the trace's own `scale`, of the denominators of
    every job's size/rate (so every prefix share is a sum of ints) and of
    `extra` (offsets, heads, final bounds). The trace's ticks reach it by one
    int `factor`.
    """

    def __init__(self, instance: Instance, trace: ScheduleTrace, rate: Scalar, extra: Iterable[Scalar]):
        shares = [job.size / rate for job in instance.jobs]
        self.trace = trace
        self.scale = math.lcm(trace.scale, *{value.denominator for value in (*extra, *shares)})
        self.factor = self.scale // trace.scale
        self.shares = [to_ticks(share, self.scale) for share in shares]

    def stage_rows(
        self, stage: int, t_offset: Scalar, head: Scalar, label: str = ""
    ) -> tuple[list[GridRow], list[GridRow], int]:
        """One stage's premise rows, completion rows (release, then sorted order) and minimal_t.

        Premise: r_j <= T + share_j; completion: c_j <= head + share_j, where
        share_j is (1/rate) times the sizes ranked ahead of j in the row's order.
        """
        shares, factor = self.shares, self.factor
        releases = [row[stage][1] * factor for row in self.trace.grid]
        completions = [row[stage][3] * factor for row in self.trace.grid]
        t, h = to_ticks(t_offset, self.scale), to_ticks(head, self.scale)
        premise: list[GridRow] = []
        completion: list[GridRow] = []
        prefix = minimal_t = 0
        for rank, j in enumerate(sigma_permutation(releases, stage).order, 1):
            release = releases[j]
            tag = f"j={rank} (job {j})"
            premise.append((f"{label}release {tag}", release, t + prefix))
            completion.append((f"{label}completion {tag}", completions[j], h + prefix))
            if release - prefix > minimal_t:
                minimal_t = release - prefix
            prefix += shares[j]
        prefix = 0
        for rank, j in enumerate(sigma_permutation(completions, stage).order, 1):
            completion.append((f"{label}sorted completion j={rank} (job {j})", completions[j], h + prefix))
            prefix += shares[j]
        return premise, completion, minimal_t


def _stage_report(
    instance: Instance, trace: ScheduleTrace, stage: int, t_offset: Scalar, ms_star: Scalar
) -> tuple[_Grid, list[GridRow], list[GridRow], int]:
    _check_ms_star(instance, stage, ms_star)
    head = _head(instance.stages[stage], t_offset, max(job.size for job in instance.jobs))
    grid = _Grid(instance, trace, ms_star, (t_offset, head))
    return (grid, *grid.stage_rows(stage, t_offset, head))


def check_release_premise(
    instance: Instance,
    trace: ScheduleTrace,
    stage: int,
    t_offset: Scalar,
    ms_star: Scalar,
) -> BoundReport:
    """Check r_j <= T + (1/rate)*sum_{l<j} p_l at every arrival rank of a stage.

    Also reports the minimal T that would make the premise hold, which is what
    stage-to-stage chaining needs.
    """
    grid, rows, _, minimal_t = _stage_report(instance, trace, stage, t_offset, ms_star)
    spec = instance.stages[stage]
    params = {"T": t_offset, "ms_star": ms_star, "m": spec.machines, "s": spec.speed}
    return BoundReport(
        "release-premise", stage, tuple(rows), grid.scale, params, Fraction(minimal_t, grid.scale)
    )


def check_completion_bound(
    instance: Instance,
    trace: ScheduleTrace,
    stage: int,
    t_offset: Scalar,
    ms_star: Scalar,
) -> BoundReport:
    """Check the stage completion bound, in release order and sorted order.

    Refuses (raises) when the release premise does not hold for the given
    offset: the conclusion would be vacuous, not verified.
    """
    grid, premise_rows, rows, _ = _stage_report(instance, trace, stage, t_offset, ms_star)
    bad = next((row for row in premise_rows if row[1] > row[2]), None)
    if bad is not None:
        label, lhs, rhs = bad
        raise AnalysisError(
            f"release premise fails at stage {stage} ({label}: "
            f"{Fraction(lhs, grid.scale)} > {Fraction(rhs, grid.scale)}); completion bound not applicable"
        )
    spec = instance.stages[stage]
    params = {
        "T": t_offset,
        "ms_star": ms_star,
        "p_max": max(job.size for job in instance.jobs),
        "m": spec.machines,
        "s": spec.speed,
    }
    return BoundReport("completion-bound", stage, tuple(rows), grid.scale, params)


def check_multistage_chain(
    instance: Instance,
    trace: ScheduleTrace,
    opt_makespan: Scalar | None = None,
    ms_star: Scalar | None = None,
) -> BoundReport:
    """Verify the stage-by-stage induction on a trace, start to finish.

    Starting from offset T=0 at stage 0 (all arrivals at time zero), each
    stage is checked against the premise and completion bounds for the running
    offset, then the offset grows by (2m_i-1)/(m_i*s_i)*p_max. The final rows
    check the resulting makespan bound and its consequences against the
    optimal-makespan lower bounds (and the exact optimum when provided).
    Failures are reported as rows, never raised.

    ms_star overrides the rate; it must stay within every stage's processing
    rate, and defaults to the bottleneck rate min_i m_i*s_i.
    """
    bottleneck_rate = min(s.machines * s.speed for s in instance.stages)
    rate = bottleneck_rate if ms_star is None else ms_star
    if rate <= 0 or rate > bottleneck_rate:
        raise AnalysisError(
            f"rate parameter must lie in (0, {bottleneck_rate}] to be valid at every stage, got {rate}"
        )
    p_max = max(job.size for job in instance.jobs)
    m_max = max(s.machines for s in instance.stages)
    # offsets[i] is stage i's T; the next stage's T is this stage's head
    offsets = [Fraction(0)]
    for spec in instance.stages:
        offsets.append(_head(spec, offsets[-1], p_max))
    path, bottleneck = opt_lower_bounds(instance)
    factor = 2 - Fraction(1, m_max)
    finals = [
        ("makespan vs scaled opt lower bounds", factor * path + bottleneck),
        ("makespan vs ratio ceiling * best opt lower bound", (factor + 1) * max(path, bottleneck)),
    ]
    if opt_makespan is not None:
        finals.append(("makespan vs ratio ceiling * optimum", (factor + 1) * opt_makespan))
    grid = _Grid(instance, trace, rate, [*offsets, *(rhs for _, rhs in finals)])
    rows: list[GridRow] = []
    for stage in range(instance.k):
        premise_rows, completion_rows, _ = grid.stage_rows(
            stage, offsets[stage], offsets[stage + 1], f"stage {stage}: "
        )
        rows += premise_rows
        rows += completion_rows
    makespan = trace.makespan_ticks * grid.factor
    # the final stage's last sorted-completion row bounds its latest completion
    # by T_k plus (1/rate) times the sizes of every job sorted ahead of it
    rows.append(("makespan vs accumulated bound", makespan, rows[-1][2]))
    rows += [(label, makespan, to_ticks(bound, grid.scale)) for label, bound in finals]
    params = {
        "ms_star": rate,
        "p_max": p_max,
        "m_max": m_max,
        "path_bound": path,
        "bottleneck_bound": bottleneck,
        "offsets": tuple(format_scalar(x) for x in offsets),
        "makespan": trace.makespan,
    }
    return BoundReport("stage-chain", None, tuple(rows), grid.scale, params)


@dataclass(frozen=True)
class PoAReport:
    """Greedy makespan against the optimal one, with the applicable ceiling.

    When the exact solver refuses or exhausts its budget, `ratio` is computed
    against the best certified lower bound on the optimum and is therefore an
    upper estimate of the true ratio (`ratio_is_exact` is False).
    """

    t_equ: Scalar
    opt_status: str
    t_opt: Scalar | None
    opt_lower_bound: Scalar
    path_bound: Scalar
    bottleneck_bound: Scalar
    ratio: Scalar
    ratio_is_exact: bool
    ceiling: Scalar
    family: str | None = None

    def to_json(self, precision: int = 6) -> dict:
        def pair(name: str, value: Scalar | None) -> dict:
            if value is None:
                return {name: None}
            return {name: format_scalar(value), f"{name}_decimal": format_decimal(value, precision)}

        data: dict = {}
        data.update(pair("t_equ", self.t_equ))
        data["opt_status"] = self.opt_status
        data.update(pair("t_opt", self.t_opt))
        data.update(pair("opt_lower_bound", self.opt_lower_bound))
        data.update(pair("path_bound", self.path_bound))
        data.update(pair("bottleneck_bound", self.bottleneck_bound))
        data.update(pair("ratio", self.ratio))
        data["ratio_is_exact"] = self.ratio_is_exact
        data.update(pair("ceiling", self.ceiling))
        data["family"] = self.family
        return data


def price_of_anarchy(
    instance: Instance, limits: SearchLimits | None = None, *, greedy: ScheduleTrace | None = None
) -> PoAReport:
    """Greedy-play makespan over the exact optimum (or its certified bound).

    The ceiling is 2 - 1/m for one stage and 3 - 1/m_max for pipelines; a
    certified ratio above it indicates a bug, not a finding. `greedy`, if
    given, must be `greedy_schedule(instance)`'s trace, as for
    `optimal_makespan`; it is used instead of running greedy again.
    """
    limits = limits or DEFAULT_LIMITS
    trace = greedy if greedy is not None else greedy_schedule(instance)[0]
    t_equ = trace.makespan
    path, bottleneck = opt_lower_bounds(instance)
    if instance.k == 1:
        ceiling = 2 - Fraction(1, instance.stages[0].machines)
    else:
        ceiling = 3 - Fraction(1, max(s.machines for s in instance.stages))
    t_opt: Scalar | None = None
    try:
        result = optimal_makespan(instance, limits, greedy=trace)
        opt_status = result.status
        lower = max(path, bottleneck, result.lower_bound)
        if result.status == "exact":
            t_opt = result.makespan
    except LimitsExceeded:
        opt_status = "refused"
        lower = max(path, bottleneck)
    denominator = t_opt if t_opt is not None else lower
    return PoAReport(
        t_equ=t_equ,
        opt_status=opt_status,
        t_opt=t_opt,
        opt_lower_bound=lower,
        path_bound=path,
        bottleneck_bound=bottleneck,
        ratio=t_equ / denominator,
        ratio_is_exact=t_opt is not None,
        ceiling=ceiling,
        family=instance.family,
    )
