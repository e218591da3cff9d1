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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    DEFAULT_LIMITS,
    LimitsExceeded,
    SearchLimits,
    opt_lower_bounds,
    optimal_makespan,
    single_stage_optimal,
)
from .greedy import greedy_schedule, release_order
from .model import Instance, Scalar, ScheduleTrace, format_decimal, format_scalar

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

    def inverse(self) -> tuple[int, ...]:
        inv = [0] * len(self.order)
        for rank, j in enumerate(self.order):
            inv[j] = rank
        return tuple(inv)


def sigma_permutation(completions: Sequence[Scalar], stage: int = 0) -> SigmaPermutation:
    """Sort job ids by (completion, id) for one stage's completion vector."""
    order = tuple(sorted(range(len(completions)), key=lambda j: (completions[j], j)))
    return SigmaPermutation(stage, order)


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


@dataclass(frozen=True)
class BoundReport:
    """Evaluation of an inequality family on a trace; failures are data."""

    inequality: str
    stage: int | None
    rows: tuple[BoundRow, ...]
    params: dict
    minimal_t: Scalar | None = None

    @property
    def holds(self) -> bool:
        return all(row.holds for row in self.rows)

    @property
    def min_slack(self) -> Scalar:
        return min(row.slack for row in self.rows)

    def failures(self) -> list[BoundRow]:
        return [row for row in self.rows if not row.holds]

    def to_json(self, precision: int = 6) -> dict:
        return {
            "inequality": self.inequality,
            "stage": self.stage,
            "holds": self.holds,
            "min_slack": format_scalar(self.min_slack),
            "min_slack_decimal": format_decimal(self.min_slack, precision),
            "minimal_t": None if self.minimal_t is None else format_scalar(self.minimal_t),
            "params": {k: format_scalar(v) if isinstance(v, Fraction) else v for k, v in self.params.items()},
            "rows": [
                {
                    "label": row.label,
                    "lhs": format_scalar(row.lhs),
                    "rhs": format_scalar(row.rhs),
                    "slack": format_scalar(row.slack),
                    "holds": row.holds,
                }
                for row in self.rows
            ],
        }


def _check_ms_star(instance: Instance, stage: int, ms_star: Scalar) -> None:
    spec = instance.stages[stage]
    if ms_star <= 0:
        raise AnalysisError(f"rate parameter must be positive, got {ms_star}")
    if ms_star > spec.machines * spec.speed:
        raise AnalysisError(
            f"rate parameter {ms_star} exceeds stage {stage} processing rate "
            f"{spec.machines * spec.speed}"
        )


def _stage_rows(
    instance: Instance, trace: ScheduleTrace, stage: int, t_offset: Scalar, ms_star: Scalar, label: str = ""
) -> tuple[list[BoundRow], list[BoundRow], Scalar]:
    """One stage's premise rows, completion rows (release, then sorted order) and minimal_t."""
    spec = instance.stages[stage]
    p_max = max(job.size for job in instance.jobs)
    head = t_offset + Fraction(2 * spec.machines - 1, 1) / (spec.machines * spec.speed) * p_max
    premise: list[BoundRow] = []
    completion: list[BoundRow] = []
    prefix = Fraction(0)
    minimal_t = Fraction(0)
    for rank, j in enumerate(release_order(trace, stage)):
        record = trace.records[j][stage]
        share = prefix / ms_star
        tag = f"j={rank + 1} (job {j})"
        premise.append(BoundRow(f"{label}release {tag}", record.release, t_offset + share))
        completion.append(BoundRow(f"{label}completion {tag}", record.completion, head + share))
        need = record.release - share
        if need > minimal_t:
            minimal_t = need
        prefix += instance.jobs[j].size
    prefix = Fraction(0)
    for rank, j in enumerate(sigma_permutation(trace.completions(stage), stage).order):
        lhs, rhs = trace.records[j][stage].completion, head + prefix / ms_star
        completion.append(BoundRow(f"{label}sorted completion j={rank + 1} (job {j})", lhs, rhs))
        prefix += instance.jobs[j].size
    return premise, completion, minimal_t


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
    _check_ms_star(instance, stage, ms_star)
    rows, _, minimal_t = _stage_rows(instance, trace, stage, t_offset, ms_star)
    spec = instance.stages[stage]
    params = {"T": t_offset, "ms_star": ms_star, "m": spec.machines, "s": spec.speed}
    return BoundReport("release-premise", stage, tuple(rows), params, minimal_t)


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
    _check_ms_star(instance, stage, ms_star)
    premise_rows, rows, _ = _stage_rows(instance, trace, stage, t_offset, ms_star)
    bad = [row for row in premise_rows if not row.holds]
    if bad:
        raise AnalysisError(
            f"release premise fails at stage {stage} ({bad[0].label}: "
            f"{bad[0].lhs} > {bad[0].rhs}); completion bound not applicable"
        )
    spec = instance.stages[stage]
    params = {
        "T": t_offset,
        "ms_star": ms_star,
        "p_max": max(job.size for job in instance.jobs),
        "m": spec.machines,
        "s": spec.speed,
    }
    return BoundReport("completion-bound", stage, tuple(rows), params)


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
    rows: list[BoundRow] = []
    offsets = [Fraction(0)]
    t = Fraction(0)
    for stage in range(instance.k):
        spec = instance.stages[stage]
        premise_rows, completion_rows, _ = _stage_rows(instance, trace, stage, t, rate, f"stage {stage}: ")
        rows += premise_rows + completion_rows
        t += Fraction(2 * spec.machines - 1, 1) / (spec.machines * spec.speed) * p_max
        offsets.append(t)
    final_stage = instance.k - 1
    sigma = sigma_permutation(trace.completions(final_stage), final_stage)
    tail = sum((instance.jobs[j].size for j in sigma.order[:-1]), Fraction(0))
    rows.append(BoundRow("makespan vs accumulated bound", trace.makespan, t + tail / rate))
    path, bottleneck = opt_lower_bounds(instance)
    factor = 2 - Fraction(1, m_max)
    rows.append(
        BoundRow("makespan vs scaled opt lower bounds", trace.makespan, factor * path + bottleneck)
    )
    rows.append(
        BoundRow(
            "makespan vs ratio ceiling * best opt lower bound",
            trace.makespan,
            (factor + 1) * max(path, bottleneck),
        )
    )
    if opt_makespan is not None:
        rows.append(
            BoundRow("makespan vs ratio ceiling * optimum", trace.makespan, (factor + 1) * opt_makespan)
        )
    params = {
        "ms_star": rate,
        "p_max": p_max,
        "m_max": m_max,
        "path_bound": path,
        "bottleneck_bound": bottleneck,
        "offsets": tuple(format_scalar(x) for x in offsets),
        "makespan": trace.makespan,
    }
    return BoundReport("stage-chain", None, tuple(rows), params)


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


def price_of_anarchy(instance: Instance, limits: SearchLimits | None = None) -> PoAReport:
    """Greedy-play makespan over the exact optimum (or its certified bound).

    The ceiling is 2 - 1/m for one stage and 3 - 1/m_max for pipelines; a
    certified ratio above it indicates a bug, not a finding.
    """
    limits = limits or DEFAULT_LIMITS
    trace, _ = greedy_schedule(instance)
    t_equ = trace.makespan
    path, bottleneck = opt_lower_bounds(instance)
    if instance.k == 1:
        ceiling = 2 - Fraction(1, instance.stages[0].machines)
    else:
        ceiling = 3 - Fraction(1, max(s.machines for s in instance.stages))
    t_opt: Scalar | None = None
    try:
        if instance.k == 1:
            spec = instance.stages[0]
            result = single_stage_optimal(list(instance.jobs), spec.machines, spec.speed, limits)
        else:
            result = optimal_makespan(instance, limits)
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
