"""Backward-induction solving of the sequential machine-choice game.

Jobs decide in chronological release order (ties by job id) and each picks the
action minimizing its own final completion time given optimal play downstream.
Besides choosing a machine, a job tied with others for the same stage may
"defer": yield its decision slot to the next tied job and re-enter the queue
right behind it. The defer action is our reconstruction of priority-yielding
between simultaneous arrivals, which plain machine choice cannot express when
a stage has a single machine; outputs label it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .exact import DEFAULT_LIMITS, LimitsExceeded, SearchLimits
from .greedy import greedy_schedule
from .model import Instance, Plan, Scalar, ScheduleTrace, evaluate_schedule, queues_to_plan

__all__ = [
    "DEFER",
    "ActionModel",
    "GameNode",
    "Deviation",
    "SpneCertificate",
    "EquilibriumResult",
    "spne_solve",
    "check_greedy_spne",
    "verify_deviation",
]

DEFER = "defer"

Action = int | str


@dataclass(frozen=True)
class ActionModel:
    """What a deciding job may do besides picking a machine.

    A job may defer at most batch size - 1 times within a batch of tied
    decisions, which guarantees termination.
    """

    allow_defer: bool = True


@dataclass(frozen=True)
class GameNode:
    """A decision point: who decides, where, and what actions are available."""

    job: int
    stage: int
    release: Scalar
    batch: tuple[int, ...]
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class Deviation:
    """A profitable one-shot deviation from greedy play at one decision node."""

    decision_index: int
    node: GameNode
    greedy_action: int
    greedy_value: Scalar
    action: Action
    value: Scalar

    @property
    def improvement(self) -> Scalar:
        return self.greedy_value - self.value


@dataclass(frozen=True)
class SpneCertificate:
    greedy_is_spne: bool
    deviations: tuple[Deviation, ...]
    decisions_checked: int


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium-path trace and how it compares with greedy play per job."""

    trace: ScheduleTrace
    final_completions: tuple[Scalar, ...]
    greedy_trace: ScheduleTrace
    greedy_final_completions: tuple[Scalar, ...]
    deltas: tuple[Scalar, ...]
    greedy_is_spne_outcome: bool


# Solver state, all hashable ints on the instance's time grid:
#   machines: per stage, tuple of each machine's available-at tick
#   jobs:     per job, (next_stage, release tick) while pending and
#             (k, final completion tick) once done
#   batch:    decision queue of the current tied group (job ids, front decides)
#   defers:   defer counts aligned with batch
#
# The memo is keyed on the subgame a state leaves, not on the history that led
# to it (see `_GameSolver.key`). Let t be the release of the deciding batch.
# Every pending release is >= t and jobs only move forward, so the rest of the
# game depends on (a) each pending job's (stage, release), (b) the machines of
# the stages at or after the lowest pending stage, each available-at clamped
# to max(avail, t) since max(r, avail) == max(r, max(avail, t)) for all r >= t,
# (c) the batch and (d) the defer counts. A done job's final completion is a
# constant of the subgame, so a memo hit takes done jobs' finals from the
# current state and pending jobs' values from the entry. Machines are never
# permuted or sorted: the lowest-index tie rule is not permutation-invariant.
# Each key is first reached from one raw state that an unkeyed solver also
# expands, so `nodes` (distinct subgames) never exceeds the raw-state count.
#
# The decider j cannot finish before it starts this stage and then runs every
# stage left: under machine a its final completion is at least
# max(release, avail[a]) + rempath[j][stage], and under DEFER at least the same
# with min(avail), since it still takes a machine of this stage later and
# availabilities only grow. `value` skips an action whose bound is already
# >= the decider's best so far: the action could only tie or lose, and ties go
# to the earlier action, so the value, the chosen action and the tie rule are
# those of the full expansion; only the skipped subgames go unexpanded.
_State = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]
_Key = tuple[tuple[tuple[int, int] | None, ...], tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]


class _GameSolver:
    """Backward induction over the states above; every state it returns has its
    decision batch live, so `state[2]` is empty exactly when the game is over."""

    def __init__(self, instance: Instance, model: ActionModel | None = None, limits: SearchLimits | None = None):
        limits = limits or DEFAULT_LIMITS
        if instance.n > limits.max_jobs:
            raise LimitsExceeded(f"{instance.n} jobs exceeds the game-solver cap of {limits.max_jobs}")
        if instance.k > limits.max_stages:
            raise LimitsExceeded(f"{instance.k} stages exceeds the cap of {limits.max_stages}")
        worst = max(s.machines for s in instance.stages)
        if worst > limits.max_machines:
            raise LimitsExceeded(f"{worst} machines in a stage exceeds the cap of {limits.max_machines}")
        self.instance = instance
        self.model = model or ActionModel()
        self.k = instance.k
        self.scale, self.exec = instance.time_grid
        # rempath[j][i]: job j's execution ticks from stage i on
        self.rempath = [[sum(row[i:]) for i in range(self.k)] for row in self.exec]
        self.machine_actions: list[tuple[Action, ...]] = [tuple(range(s.machines)) for s in instance.stages]
        self.memo: dict[_Key, tuple[tuple[int, ...], Action]] = {}
        self.nodes = 0
        self.node_budget = limits.node_budget

    def time(self, tick: int) -> Scalar:
        return Fraction(tick, self.scale)

    def initial_state(self) -> _State:
        machines = tuple((0,) * s.machines for s in self.instance.stages)
        return self._next_batch(machines, ((0, 0),) * self.instance.n)

    def _next_batch(self, machines: tuple[tuple[int, ...], ...], jobs: tuple[tuple[int, int], ...]) -> _State:
        """The state whose previous batch is spent, with the next one live.

        A batch is the maximal group of pending decisions sharing the earliest
        (release, stage); it is ordered by job id and tracked explicitly so
        defers can permute it. No pending job leaves an empty batch: game over.
        """
        k = self.k
        pending = [(release, stage) for stage, release in jobs if stage < k]
        if not pending:
            return (machines, jobs, (), ())
        release, stage = min(pending)
        head = (stage, release)
        group = tuple([j for j, job in enumerate(jobs) if job == head])
        return (machines, jobs, group, (0,) * len(group))

    def key(self, state: _State) -> _Key:
        """The memo key of a state with a live batch: the subgame it leaves."""
        machines, jobs, batch, defers = state
        k = self.k
        t = jobs[batch[0]][1]
        pending = tuple([job if job[0] < k else None for job in jobs])
        low = min(jobs)[0]  # the lowest pending stage, as done jobs sit at stage k
        # a stage with nothing to clamp keeps its tuple, shared with the state
        avail = tuple([m if min(m) >= t else tuple([a if a > t else t for a in m]) for m in machines[low:]])
        return (pending, avail, batch, defers)

    def actions(self, state: _State) -> tuple[Action, ...]:
        machines, jobs, batch, defers = state
        acts = self.machine_actions[jobs[batch[0]][0]]
        if self.model.allow_defer and defers[0] < len(batch) - 1:
            return acts + (DEFER,)
        return acts

    def apply(self, state: _State, action: Action) -> _State:
        machines, jobs, batch, defers = state
        j = batch[0]
        stage, release = jobs[j]
        if action == DEFER:
            new_batch = (batch[1], batch[0]) + batch[2:]
            new_defers = (defers[1], defers[0] + 1) + defers[2:]
            return (machines, jobs, new_batch, new_defers)
        avail = machines[stage][action]
        completion = (release if release > avail else avail) + self.exec[j][stage]
        stage_machines = list(machines[stage])
        stage_machines[action] = completion
        new_machines = machines[:stage] + (tuple(stage_machines),) + machines[stage + 1 :]
        new_jobs = jobs[:j] + ((stage + 1, completion),) + jobs[j + 1 :]
        if len(batch) > 1:
            return (new_machines, new_jobs, batch[1:], defers[1:])
        return self._next_batch(new_machines, new_jobs)

    def bound(self, state: _State, action: Action) -> int:
        """A lower bound on the decider's final completion tick under `action`."""
        machines, jobs, batch, _ = state
        j = batch[0]
        stage, release = jobs[j]
        avail = min(machines[stage]) if action == DEFER else machines[stage][action]
        return (release if release > avail else avail) + self.rempath[j][stage]

    def value(self, state: _State) -> tuple[int, ...]:
        """Final completion ticks under optimal play from `state` on.

        The decider minimizes its own final completion; ties prefer machine
        actions in index order, defer last. An action whose `bound` is at
        least the best completion found so far is skipped unexpanded: it could
        at best tie, and a tie keeps the earlier action (see `_State`).
        """
        machines, jobs, batch, defers = state
        if not batch:
            return tuple([final for _, final in jobs])
        key = self.key(state)
        hit = self.memo.get(key)
        if hit is not None:
            k = self.k
            return tuple([tick if stage == k else value for (stage, tick), value in zip(jobs, hit[0])])
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise LimitsExceeded(f"game tree exceeded the node budget of {self.node_budget}")
        j = batch[0]
        best_vec: tuple[int, ...] | None = None
        best_action: Action = 0
        for action in self.actions(state):
            if best_vec is not None and best_vec[j] <= self.bound(state, action):
                continue
            vec = self.value(self.apply(state, action))
            if best_vec is None or vec[j] < best_vec[j]:
                best_vec = vec
                best_action = action
        assert best_vec is not None
        self.memo[key] = (best_vec, best_action)
        return best_vec

    def chosen_action(self, state: _State) -> Action:
        key = self.key(state)
        if key not in self.memo:
            self.value(state)
        return self.memo[key][1]

    def node_view(self, state: _State) -> GameNode:
        machines, jobs, batch, _ = state
        j = batch[0]
        stage, release = jobs[j]
        return GameNode(j, stage, self.time(release), batch, self.actions(state))


def _walk(solver: _GameSolver, pick: Callable[[_State], Action]) -> Iterator[tuple[_State, Action]]:
    """Each decision state from the root on, with the action `pick` plays there."""
    state = solver.initial_state()
    while state[2]:
        action = pick(state)
        yield state, action
        state = solver.apply(state, action)


def _greedy_pick(instance: Instance) -> Callable[[_State], int]:
    """Greedy play: each decider's machine in the greedy kernel's trace. On the
    greedy path every stage decides in the kernel's (release, job id) order."""
    grid = greedy_schedule(instance)[0].grid

    def pick(state: _State) -> int:
        _, jobs, batch, _ = state
        return grid[batch[0]][jobs[batch[0]][0]][0]

    return pick


def _equilibrium_plan(solver: _GameSolver) -> Plan:
    """Replay the solved equilibrium path into an evaluable plan."""
    queues = [[[] for _ in range(s.machines)] for s in solver.instance.stages]
    for (_, jobs, batch, _), action in _walk(solver, solver.chosen_action):
        if action != DEFER:
            queues[jobs[batch[0]][0]][action].append(batch[0])
    return queues_to_plan(queues)


def spne_solve(
    instance: Instance,
    model: ActionModel | None = None,
    limits: SearchLimits | None = None,
) -> EquilibriumResult:
    """Solve the game by exhaustive backward induction and report the outcome.

    Payoff is each job's own final completion time. The returned trace is the
    equilibrium path replayed through the schedule kernel; deltas are
    equilibrium minus greedy, per job.
    """
    solver = _GameSolver(instance, model, limits)
    finals = tuple(solver.time(t) for t in solver.value(solver.initial_state()))
    trace = evaluate_schedule(instance, _equilibrium_plan(solver))
    greedy_trace, _ = greedy_schedule(instance)
    greedy_finals = greedy_trace.final_completions()
    deltas = tuple(a - b for a, b in zip(finals, greedy_finals))
    return EquilibriumResult(
        trace=trace,
        final_completions=finals,
        greedy_trace=greedy_trace,
        greedy_final_completions=greedy_finals,
        deltas=deltas,
        greedy_is_spne_outcome=trace == greedy_trace,
    )


def check_greedy_spne(
    instance: Instance,
    model: ActionModel | None = None,
    limits: SearchLimits | None = None,
) -> SpneCertificate:
    """Walk the greedy path and test every decision against optimal play.

    At each node the greedy action's value (under optimal continuation) is
    compared with every alternative action's value for the same decider. A
    strictly better alternative is returned as a concrete deviation; greedy
    play continues regardless so all nodes get checked.
    """
    solver = _GameSolver(instance, model, limits)
    path = list(_walk(solver, _greedy_pick(instance)))
    deviations: list[Deviation] = []
    for index, (state, greedy_act) in enumerate(path):
        j = state[2][0]
        values = {action: solver.value(solver.apply(state, action))[j] for action in solver.actions(state)}
        greedy_value = values.pop(greedy_act)
        best = min(values, key=values.__getitem__, default=None)  # the first least, in action order
        if best is not None and values[best] < greedy_value:
            greedy_time, time = solver.time(greedy_value), solver.time(values[best])
            deviations.append(Deviation(index, solver.node_view(state), greedy_act, greedy_time, best, time))
    return SpneCertificate(not deviations, tuple(deviations), len(path))


def verify_deviation(
    instance: Instance,
    deviation: Deviation,
    model: ActionModel | None = None,
    limits: SearchLimits | None = None,
) -> bool:
    """Replay greedy up to the deviation node, apply the deviating action, and
    solve the subgame; True iff the claimed value and improvement reproduce."""
    solver = _GameSolver(instance, model, limits)
    for index, (state, greedy_act) in enumerate(_walk(solver, _greedy_pick(instance))):
        if index >= deviation.decision_index:
            break
    else:
        return False
    job = deviation.node.job
    if state[2][0] != job:
        return False
    greedy_value = solver.time(solver.value(solver.apply(state, greedy_act))[job])
    value = solver.time(solver.value(solver.apply(state, deviation.action))[job])
    return value == deviation.value and greedy_value == deviation.greedy_value and value < greedy_value
