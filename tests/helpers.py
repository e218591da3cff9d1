"""Independent oracles the tests check the package against, and the traces they check it on.

Every oracle here is deliberately naive: full enumeration and textbook list
scheduling, written without touching the package's solvers so the two routes
stay independent.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st

from schedgame import Instance, ScheduleTrace, StageRecord, evaluate_schedule, gen_random, greedy_schedule


def all_stage_plans(n: int, m: int):
    """Every (machine, queue order) arrangement of n jobs on m labeled machines."""
    for assign in itertools.product(range(m), repeat=n):
        buckets: dict[int, list[int]] = {}
        for j, a in enumerate(assign):
            buckets.setdefault(a, []).append(j)
        machines = list(buckets.keys())
        for orders in itertools.product(*(itertools.permutations(b) for b in buckets.values())):
            yield dict(zip(machines, orders))


def brute_force_optimal(instance: Instance) -> Fraction:
    """Minimum makespan by enumerating every plan of every stage.

    Times are ints in units of 1/scale, the lcm of every execution time's
    denominator. What follows a stage depends only on the releases it passes
    on, so each distinct release vector is expanded once per stage.
    """
    n, k = instance.n, instance.k
    times = [[job.size / spec.speed for job in instance.jobs] for spec in instance.stages]
    scale = math.lcm(*(t.denominator for row in times for t in row))
    execs = [[int(t * scale) for t in row] for row in times]
    plans = [list(all_stage_plans(n, spec.machines)) for spec in instance.stages]
    expanded: set[tuple[int, tuple[int, ...]]] = set()
    best: int | None = None

    def recurse(stage: int, releases: list[int]) -> None:
        nonlocal best
        if stage == k:
            makespan = max(releases)
            if best is None or makespan < best:
                best = makespan
            return
        if (stage, tuple(releases)) in expanded:
            return
        expanded.add((stage, tuple(releases)))
        for plan in plans[stage]:
            recurse(stage + 1, fifo_stage(releases, execs[stage], plan)[1])

    recurse(0, [0] * n)
    assert best is not None
    return Fraction(best, scale)


def dominated(vec: tuple, archive) -> bool:
    """Whether some vector in `archive` is componentwise at most `vec`, by a plain scan."""
    return any(all(a <= b for a, b in zip(prev, vec)) for prev in archive)


def brute_force_partition(sizes: list[Fraction], m: int, s: Fraction) -> Fraction:
    """Minimum single-stage makespan: best max machine workload over speed."""
    best: Fraction | None = None
    for assign in itertools.product(range(m), repeat=len(sizes)):
        loads = [Fraction(0)] * m
        for j, a in enumerate(assign):
            loads[a] += sizes[j]
        worst = max(loads)
        if best is None or worst < best:
            best = worst
    assert best is not None
    return best / s


def list_schedule(sizes: list[Fraction], m: int, s: Fraction):
    """Textbook list scheduling: an idle machine takes the next listed job.

    With all jobs available at time zero the machine that frees up first (ties
    to the lowest index) takes the next job. Returns (machine per job,
    makespan).
    """
    avail = [Fraction(0)] * m
    machine_of = []
    for size in sizes:
        alpha = min(range(m), key=lambda a: (avail[a], a))
        machine_of.append(alpha)
        avail[alpha] += size / s
    return machine_of, max(avail)


def fifo_stage(releases, execs, plan):
    """One stage served by `plan` ({machine: job ids in service order}, as
    `all_stage_plans` yields): each job starts at max(release, its machine's
    previous completion). Returns (starts, completions) per job."""
    starts, completions = [None] * len(execs), [None] * len(execs)
    for order in plan.values():
        free = 0
        for j in order:
            starts[j] = max(releases[j], free)
            free = completions[j] = starts[j] + execs[j]
    return starts, completions


def list_schedule_stage(releases, execs, m: int, order):
    """One stage list-scheduled: each job of `order` in turn joins the machine
    that frees up first (ties to the lowest index) and starts at max(release,
    that machine's free time). Returns each job's completion."""
    free = [0] * m
    completions = [None] * len(execs)
    for j in order:
        a = free.index(min(free))
        free[a] = completions[j] = max(releases[j], free[a]) + execs[j]
    return completions


def naive_replay(instance: Instance, queues) -> list:
    """Serve `queues[stage][machine]` (job ids in service order), in `Fraction`s.

    A job is released into stage i when it completes stage i-1 (at zero into
    stage 0) and starts at max(release, its machine's previous completion).
    Returns per job its per-stage (stage, machine, release, start,
    completion) records.
    """
    release = [Fraction(0)] * instance.n
    records: list[list[tuple]] = [[] for _ in instance.jobs]
    for i, spec in enumerate(instance.stages):
        done = list(release)
        for machine, queue in enumerate(queues[i]):
            free = Fraction(0)
            for j in queue:
                start = max(release[j], free)
                free = done[j] = start + instance.jobs[j].size / spec.speed
                records[j].append((i, machine, release[j], start, free))
        release = done
    return records


def naive_greedy(instance: Instance):
    """Greedy least-loaded play simulated in `Fraction`s, one load snapshot per decision.

    A machine's load is its stage speed times the time its queue drains. At
    each stage the jobs decide in (release, id) order; each joins the least
    loaded machine (ties to the lowest index) and is served first come, first
    served. Returns (records, events): per job its per-stage (machine,
    release, start, completion), and per decision (time, job, stage, loads,
    machine), stage by stage.
    """
    release = [Fraction(0)] * instance.n
    records: list[list[tuple]] = [[] for _ in instance.jobs]
    events = []
    for i, spec in enumerate(instance.stages):
        loads = [Fraction(0)] * spec.machines
        for j in sorted(range(instance.n), key=lambda j: (release[j], j)):
            machine = min(range(spec.machines), key=lambda a: (loads[a], a))
            events.append((release[j], j, i, tuple(loads), machine))
            start = max(release[j], loads[machine] / spec.speed)
            completion = start + instance.jobs[j].size / spec.speed
            loads[machine] = spec.speed * completion
            records[j].append((machine, release[j], start, completion))
        release = [row[i][3] for row in records]
    return records, events


def brute_force_spne(instance: Instance, allow_defer: bool) -> dict:
    """Subgame-perfect play of the machine-choice game by plain backward induction.

    Deciders go in batches: all pending jobs sharing the earliest (ready time,
    stage), in job-id order. The front job picks a machine (its FIFO queue
    serves it at max(ready, machine free)) or, with `allow_defer`, swaps places
    with the next job of the batch, at most (jobs left in the batch - 1) times.
    Each decider minimizes its own final completion; ties go to the lowest
    machine, defer last. Greedy play picks the earliest-free, lowest-index
    machine and never defers. Everything is `Fraction`; the memo is keyed on the
    whole raw state (every machine's free time, every job's stage and ready
    time, finished jobs included, and the batch with its defer counts).

    Returns the equilibrium's final completions, its per-job per-stage
    (stage, machine, release, start, completion) records, and whether it
    coincides with greedy play.
    """
    k = instance.k
    times = [[job.size / spec.speed for spec in instance.stages] for job in instance.jobs]

    def next_batch(jobs):
        pending = [(ready, stage) for stage, ready in jobs if stage < k]
        if not pending:
            return ()
        ready, stage = min(pending)
        return tuple((j, 0) for j, job in enumerate(jobs) if job == (stage, ready))

    def play(free, jobs, batch, move):
        """One move from the state; returns the next state and the record it makes."""
        (j, defers), rest = batch[0], batch[1:]
        if move == "defer":
            return free, jobs, (rest[0], (j, defers + 1)) + rest[1:], None
        stage, ready = jobs[j]
        start = max(ready, free[stage][move])
        done = start + times[j][stage]
        row = list(free[stage])
        row[move] = done
        free = free[:stage] + (tuple(row),) + free[stage + 1 :]
        jobs = jobs[:j] + ((stage + 1, done),) + jobs[j + 1 :]
        return free, jobs, rest or next_batch(jobs), (j, (stage, move, ready, start, done))

    def moves(free, jobs, batch):
        j, defers = batch[0]
        options: list = list(range(len(free[jobs[j][0]])))
        if allow_defer and defers < len(batch) - 1:
            options.append("defer")
        return options

    memo: dict = {}

    def solve(free, jobs, batch):
        """(finals, equilibrium records made from here on)."""
        if not batch:
            return [ready for _, ready in jobs], []
        if (free, jobs, batch) in memo:
            return memo[free, jobs, batch]
        j = batch[0][0]
        best = None
        for move in moves(free, jobs, batch):
            *state, record = play(free, jobs, batch, move)
            finals, records = solve(*state)
            if best is None or finals[j] < best[0][j]:
                best = (finals, ([record] if record else []) + records)
        memo[free, jobs, batch] = best
        return best

    def greedy(free, jobs, batch):
        records = []
        while batch:
            row = free[jobs[batch[0][0]][0]]
            free, jobs, batch, record = play(free, jobs, batch, row.index(min(row)))
            records.append(record)
        return records

    def by_job(records):
        rows = [[] for _ in instance.jobs]
        for j, record in records:
            rows[j].append(record)
        return rows

    jobs = ((0, Fraction(0)),) * instance.n
    start = (tuple((Fraction(0),) * spec.machines for spec in instance.stages), jobs, next_batch(jobs))
    finals, records = solve(*start)
    equilibrium = by_job(records)
    return {
        "final_completions": tuple(finals),
        "records": equilibrium,
        "greedy_is_spne_outcome": equilibrium == by_job(greedy(*start)),
    }


def naive_stage(instance: Instance, trace, stage: int, offset: Fraction, rate: Fraction, label: str = ""):
    """One stage's bound rows straight from the paper's formulas, in `Fraction`s.

    With arrivals ranked by (release, id) and P_j the sizes ranked ahead of
    job j: premise r_j <= T + P_j/rate, completion c_j <= T + (2m-1)/(m*s) *
    p_max + P_j/rate; then the same completion bound with the completions
    re-ranked by (completion, id). Returns (premise rows, completion rows,
    the least T >= 0 that satisfies every premise row), rows as (label, lhs,
    rhs) triples.
    """
    spec = instance.stages[stage]
    sizes = [job.size for job in instance.jobs]
    release = [trace.records[j][stage].release for j in range(instance.n)]
    completion = [trace.records[j][stage].completion for j in range(instance.n)]
    head = offset + Fraction(2 * spec.machines - 1, spec.machines) / spec.speed * max(sizes)

    def ahead(order, rank):
        return sum((sizes[l] for l in order[:rank]), Fraction(0)) / rate

    arrivals = sorted(range(instance.n), key=lambda j: (release[j], j))
    finished = sorted(range(instance.n), key=lambda j: (completion[j], j))
    premise = [
        (f"{label}release j={r + 1} (job {j})", release[j], offset + ahead(arrivals, r))
        for r, j in enumerate(arrivals)
    ]
    completion_rows = [
        (f"{label}completion j={r + 1} (job {j})", completion[j], head + ahead(arrivals, r))
        for r, j in enumerate(arrivals)
    ] + [
        (f"{label}sorted completion j={r + 1} (job {j})", completion[j], head + ahead(finished, r))
        for r, j in enumerate(finished)
    ]
    minimal_t = max([Fraction(0)] + [release[j] - ahead(arrivals, r) for r, j in enumerate(arrivals)])
    return premise, completion_rows, minimal_t


def naive_chain(instance: Instance, trace, opt_makespan=None, ms_star=None):
    """The stage-chain rows and params from the paper's formulas, in `Fraction`s.

    Stage i is checked at offset T_i = sum_{l<i} (2m_l-1)/(m_l*s_l) * p_max;
    the final rows bound the makespan by T_k plus the sizes of all but the
    last-finishing job over the rate, by (2 - 1/m_max) * path + bottleneck,
    and by (3 - 1/m_max) times the best lower bound (and the optimum, if
    given). Returns (rows, params) with rows as (label, lhs, rhs) triples.
    """
    sizes = [job.size for job in instance.jobs]
    rate = min(s.machines * s.speed for s in instance.stages) if ms_star is None else ms_star
    p_max = max(sizes)
    m_max = max(s.machines for s in instance.stages)
    offsets = [Fraction(0)]
    for spec in instance.stages:
        offsets.append(offsets[-1] + Fraction(2 * spec.machines - 1, spec.machines) / spec.speed * p_max)
    rows = []
    for i in range(instance.k):
        premise, completion, _ = naive_stage(instance, trace, i, offsets[i], rate, f"stage {i}: ")
        rows += premise + completion
    last = [trace.records[j][-1].completion for j in range(instance.n)]
    finished = sorted(range(instance.n), key=lambda j: (last[j], j))
    path = sum((p_max / s.speed for s in instance.stages), Fraction(0))
    bottleneck = sum(sizes, Fraction(0)) / min(s.machines * s.speed for s in instance.stages)
    factor = 2 - Fraction(1, m_max)
    makespan = trace.makespan
    rows.append(("makespan vs accumulated bound", makespan,
                 offsets[-1] + sum((sizes[j] for j in finished[:-1]), Fraction(0)) / rate))
    rows.append(("makespan vs scaled opt lower bounds", makespan, factor * path + bottleneck))
    rows.append(("makespan vs ratio ceiling * best opt lower bound", makespan,
                 (3 - Fraction(1, m_max)) * max(path, bottleneck)))
    if opt_makespan is not None:
        rows.append(("makespan vs ratio ceiling * optimum", makespan, (3 - Fraction(1, m_max)) * opt_makespan))
    params = {
        "ms_star": rate,
        "p_max": p_max,
        "m_max": m_max,
        "path_bound": path,
        "bottleneck_bound": bottleneck,
        "offsets": tuple(str(t) for t in offsets),
        "makespan": makespan,
    }
    return rows, params


def naive_trace_json(trace, precision=6) -> dict:
    """The JSON a trace renders, from its `Fraction` records and `str(Fraction)` ("a" or "a/b").

    Only the decimal fields borrow the package's `format_decimal`.
    """
    from schedgame import format_decimal

    records = []
    for j, row in enumerate(trace.records):
        for rec in row:
            times = {"release": rec.release, "start": rec.start, "completion": rec.completion}
            records.append(
                {"job": j, "stage": rec.stage, "machine": rec.machine}
                | {name: str(t) for name, t in times.items()}
                | {f"{name}_decimal": format_decimal(t, precision) for name, t in times.items()}
            )
    return {
        "makespan": str(trace.makespan),
        "makespan_decimal": format_decimal(trace.makespan, precision),
        "records": records,
    }


def naive_events_json(events, precision) -> list:
    """The JSON a decision log renders, from each `GreedyEvent`'s `Fraction`s."""
    from schedgame import format_decimal, format_scalar

    return [
        {
            "time": format_scalar(e.time),
            "time_decimal": format_decimal(e.time, precision),
            "job": e.job,
            "stage": e.stage,
            "loads": [format_scalar(x) for x in e.loads],
            "machine": e.machine,
        }
        for e in events
    ]


def naive_report_json(inequality, stage, rows, params, minimal_t=None, precision=6) -> dict:
    """The JSON a bound report renders for `rows`, from `str(Fraction)` ("a" or "a/b").

    Only the one decimal field borrows the package's `format_decimal`.
    """
    from schedgame import format_decimal

    min_slack = min(rhs - lhs for _, lhs, rhs in rows)
    return {
        "inequality": inequality,
        "stage": stage,
        "holds": all(lhs <= rhs for _, lhs, rhs in rows),
        "min_slack": str(min_slack),
        "min_slack_decimal": format_decimal(min_slack, precision),
        "minimal_t": None if minimal_t is None else str(minimal_t),
        "params": {k: str(v) if isinstance(v, Fraction) else v for k, v in params.items()},
        "rows": [
            {"label": label, "lhs": str(lhs), "rhs": str(rhs), "slack": str(rhs - lhs), "holds": lhs <= rhs}
            for label, lhs, rhs in rows
        ],
    }


def naive_time_grid(sizes, speeds):
    """`model.time_grid` from `Fraction` quotients: (L, ticks) with L the lcm of
    every size/speed's denominator and ticks[j][i] = L * size_j / speed_i."""
    times = [[size / speed for speed in speeds] for size in sizes]
    scale = math.lcm(*(t.denominator for row in times for t in row))
    return scale, [[t.numerator * (scale // t.denominator) for t in row] for row in times]


def naive_opt_lower_bounds(instance: Instance):
    """`exact.opt_lower_bounds` in `Fraction`s, as the paper states the two bounds.

    path bound: the largest job must still traverse every stage, so no plan
    beats sum_i p_max/s_i. bottleneck bound: all work must pass the stage with
    the smallest processing rate m_i*s_i, so no plan beats total size divided
    by that rate.
    """
    p_max = max(job.size for job in instance.jobs)
    total = sum((job.size for job in instance.jobs), Fraction(0))
    path = sum((p_max / s.speed for s in instance.stages), Fraction(0))
    rate = min(s.machines * s.speed for s in instance.stages)
    return path, total / rate


def naive_head_body_tail(instance: Instance) -> Fraction:
    """The head-body-tail lower bound in `Fraction`s, straight from its statement.

    For each stage i: job j's head is its execution time (size over speed)
    at the stages before i, its tail at the stages after i. With b busy
    machines, 1 <= b <= min(m_i, n), the makespan is at least (the b smallest
    heads + the stage's total execution time + the b smallest tails) / b; a
    stage gives the minimum of that over b, and the bound is the largest stage.
    """
    times = [[job.size / spec.speed for spec in instance.stages] for job in instance.jobs]
    bound = Fraction(0)
    for i, spec in enumerate(instance.stages):
        heads = sorted(sum(row[:i], Fraction(0)) for row in times)
        tails = sorted(sum(row[i + 1 :], Fraction(0)) for row in times)
        total = sum((row[i] for row in times), Fraction(0))
        stage = min(
            (sum(heads[:b], Fraction(0)) + total + sum(tails[:b], Fraction(0))) / b
            for b in range(1, min(spec.machines, instance.n) + 1)
        )
        bound = max(bound, stage)
    return bound


times = st.fractions(min_value=0, max_value=20, max_denominator=97)


@st.composite
def checked_traces(draw):
    """An instance and a trace to check: greedy, a random plan's, or hand-built off the grid."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    inst = gen_random(n, k, seed=draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["greedy", "plan", "off-grid"]))
    if kind == "greedy":
        return inst, greedy_schedule(inst)[0]
    if kind == "plan":
        plan = []
        for spec in inst.stages:
            queues: dict[int, int] = {}
            stage = [None] * n
            for j in draw(st.permutations(range(n))):
                machine = draw(st.integers(0, spec.machines - 1))
                stage[j] = (machine, queues.get(machine, 0))
                queues[machine] = queues.get(machine, 0) + 1
            plan.append(stage)
        return inst, evaluate_schedule(inst, plan)
    records = []
    for _ in range(n):
        row, release = [], draw(times)
        for i in range(k):
            start = release + draw(times)
            completion = start + draw(times)
            row.append(StageRecord(i, 0, release, start, completion))
            release = completion
        records.append(tuple(row))
    return inst, ScheduleTrace.from_records(records, max(row[-1].completion for row in records))
