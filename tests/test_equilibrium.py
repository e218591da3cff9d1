import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schedgame import (
    DEFER,
    ActionModel,
    Instance,
    LimitsExceeded,
    SearchLimits,
    check_greedy_spne,
    gen_random,
    greedy_schedule,
    spne_solve,
    validate_trace,
    verify_deviation,
)

from schedgame import equilibrium

from helpers import brute_force_spne


def appendix_instance():
    return Instance.from_sizes([10, 1], [(1, 1), (2, 5), (1, F(1, 10))])


class TestAppendixExample:
    def test_defer_equilibrium(self):
        result = spne_solve(appendix_instance(), ActionModel(allow_defer=True))
        assert result.final_completions == (113, F(56, 5))
        large, small = result.trace.records
        assert [r.completion for r in large] == [11, 13, 113]
        assert [r.completion for r in small] == [1, F(6, 5), F(56, 5)]
        assert not result.greedy_is_spne_outcome
        # the large job gains 606/5 - 113 = 41/5 by yielding priority
        assert result.deltas[0] == -F(41, 5)
        assert result.deltas[1] == F(56, 5) - F(106, 5)

    def test_no_defer_equilibrium_is_greedy(self):
        result = spne_solve(appendix_instance(), ActionModel(allow_defer=False))
        assert result.trace == result.greedy_trace
        assert result.greedy_is_spne_outcome
        assert result.final_completions[0] == F(606, 5)

    def test_greedy_deviation_found_and_replays(self):
        cert = check_greedy_spne(appendix_instance(), ActionModel(allow_defer=True))
        assert not cert.greedy_is_spne
        deviation = cert.deviations[0]
        assert deviation.node.job == 0
        assert deviation.node.stage == 0
        assert deviation.action == DEFER
        assert deviation.greedy_value == F(606, 5)
        assert deviation.value == 113
        assert deviation.improvement == F(41, 5)
        assert verify_deviation(appendix_instance(), deviation, ActionModel(allow_defer=True))

    def test_no_defer_leaves_nothing_to_exploit(self):
        cert = check_greedy_spne(appendix_instance(), ActionModel(allow_defer=False))
        assert cert.greedy_is_spne
        assert cert.deviations == ()


def test_single_job_is_trivially_spne():
    inst = Instance.from_sizes([4], [(1, 1), (2, 2)])
    result = spne_solve(inst)
    assert result.greedy_is_spne_outcome
    assert result.final_completions == (4 + 2,)
    assert check_greedy_spne(inst).greedy_is_spne


def test_three_unit_jobs_two_machines_no_deviation():
    inst = Instance.from_sizes([1, 1, 2], [(2, 1)])
    cert = check_greedy_spne(inst, ActionModel(allow_defer=True))
    assert cert.greedy_is_spne
    assert cert.decisions_checked == 3


def test_single_machine_stages_distinct_sizes_without_defer():
    # one action per node: the tree is a single path, nothing to deviate to
    inst = Instance.from_sizes([3, 1], [(1, 1), (1, 2)])
    cert = check_greedy_spne(inst, ActionModel(allow_defer=False))
    assert cert.greedy_is_spne
    assert cert.deviations == ()


class TestValueConsistency:
    @given(st.integers(0, 120), st.booleans())
    def test_root_values_equal_equilibrium_path_finals(self, seed, allow_defer):
        inst = gen_random(n=1 + seed % 3, k=1 + seed % 3, seed=seed)
        result = spne_solve(inst, ActionModel(allow_defer=allow_defer))
        assert result.trace.final_completions() == result.final_completions
        assert all(isinstance(t, F) for t in result.final_completions + result.deltas)
        assert validate_trace(inst, result.trace) == []

    @given(st.integers(0, 120))
    def test_equilibrium_never_beats_nobody(self, seed):
        # the equilibrium trace is still a feasible schedule: validate + its
        # makespan is at least the max of the final completions
        inst = gen_random(n=1 + seed % 3, k=1 + seed % 2, seed=seed)
        result = spne_solve(inst)
        assert result.trace.makespan == max(result.final_completions)


class TestSingleStageClaim:
    """With machine choice only, single-stage greedy play is already optimal
    for every decider, so the equilibrium path must coincide with greedy."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_exhaustive_small(self, m):
        for n in range(1, 4):
            for sizes in itertools.product([F(1), F(2), F(3)], repeat=n):
                inst = Instance.from_sizes(list(sizes), [(m, 1)])
                result = spne_solve(inst, ActionModel(allow_defer=False))
                assert result.trace == result.greedy_trace, (sizes, m)

    def test_defer_never_objects_single_stage_spotcheck(self):
        inst = Instance.from_sizes([2, 2, 1, 3], [(3, 1)])
        result = spne_solve(inst, ActionModel(allow_defer=True))
        greedy_trace, _ = greedy_schedule(inst)
        assert result.trace.makespan == greedy_trace.makespan


class TestRefusals:
    def test_too_many_jobs(self):
        inst = gen_random(n=9, k=1, seed=1)
        with pytest.raises(LimitsExceeded):
            spne_solve(inst, limits=SearchLimits(max_jobs=8))

    def test_node_budget(self):
        inst = gen_random(n=3, k=3, seed=5)
        with pytest.raises(LimitsExceeded):
            spne_solve(inst, limits=SearchLimits(node_budget=2))


class TestBruteForceOracle:
    """The memoized solver against a naive backward induction over Fractions."""

    @pytest.mark.parametrize("allow_defer", [True, False])
    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, 4 if k <= 2 else 3))),
        st.integers(0, 10**6),
    )
    # defer twice around a 3-job batch and it returns to its order with fewer
    # defers left: a memo key without the defer counts gets this one wrong
    @example(shape=(2, 3), seed=914)
    def test_spne_solve_matches_oracle(self, allow_defer, shape, seed):
        k, n = shape
        inst = gen_random(n=n, k=k, seed=seed)
        expected = brute_force_spne(inst, allow_defer)
        result = spne_solve(inst, ActionModel(allow_defer=allow_defer))
        assert result.final_completions == expected["final_completions"]
        records = [
            [(r.stage, r.machine, r.release, r.start, r.completion) for r in row] for row in result.trace.records
        ]
        assert records == expected["records"]
        assert result.greedy_is_spne_outcome == expected["greedy_is_spne_outcome"]


class TestDeviationReplay:
    @pytest.mark.parametrize("allow_defer", [True, False])
    @given(st.integers(0, 10**6))
    def test_every_deviation_replays(self, allow_defer, seed):
        # one solver's memo serves the whole greedy walk, so later decisions
        # reuse subgames solved under earlier branches
        inst = gen_random(n=1 + seed % 4, k=1 + seed % 3, seed=seed)
        model = ActionModel(allow_defer=allow_defer)
        cert = check_greedy_spne(inst, model)
        assert cert.greedy_is_spne == (cert.deviations == ())
        for deviation in cert.deviations:
            assert deviation.improvement > 0
            assert verify_deviation(inst, deviation, model)


def test_large_game_within_small_node_budget():
    # 605,475 game states without a subgame key; the values are the
    # unkeyed solver's at the default budget
    result = spne_solve(gen_random(5, 3, seed=5), limits=SearchLimits(node_budget=50_000))
    assert result.final_completions == (F(34, 9), F(293, 45), F(46, 9), F(101, 45), F(73, 9))
    assert result.deltas == (0, 0, 0, -F(14, 3), -F(2, 5))
    assert not result.greedy_is_spne_outcome


def test_six_job_game_within_a_budget_the_full_expansion_exceeds():
    # machines 3/3/1; expanding every action takes 34,250 subgames, skipping
    # by bound in index order 7,563, in bound order 1,000. The values are the
    # full expansion's.
    result = spne_solve(gen_random(6, 3, seed=1), limits=SearchLimits(node_budget=10_000))
    assert result.final_completions == (21, 7, 33, 11, F(133, 3), F(163, 3))
    assert result.deltas == (-F(1, 3), 0, -F(1, 3), -F(4, 3), -F(1, 3), -F(1, 3))
    assert not result.greedy_is_spne_outcome


def test_eight_job_game_within_a_budget_the_index_order_expansion_exceeds():
    # machines 3/3/2; skipping by bound in index order takes 234,335
    # subgames, in bound order 736. The values are the index-order solver's
    # at the default budget.
    result = spne_solve(gen_random(8, 3, (2, 3), seed=3), limits=SearchLimits(node_budget=1_000))
    assert result.final_completions == (F(4, 3), F(20, 3), F(26, 3), F(20, 3), F(23, 6), F(21, 2), F(25, 3), 10)
    assert result.deltas == (0, 0, -F(1, 3), -F(1, 2), -F(19, 6), -F(1, 2), -F(1, 2), -F(1, 6))
    assert not result.greedy_is_spne_outcome


class TestActionBound:
    """`_GameSolver.bound` never exceeds the value it lets `value` skip."""

    @pytest.mark.parametrize("allow_defer", [True, False])
    @given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 10**6))
    # a defer bound read off the latest machine, and a skip one tick early,
    # both go wrong on these; stopping at an equal bound whatever the rank
    # goes wrong on the last
    @example(n=3, k=1, seed=0)
    @example(n=2, k=2, seed=16)
    @example(n=3, k=2, seed=229)
    def test_bound_holds_and_skipping_keeps_the_choice(self, allow_defer, n, k, seed):
        inst = gen_random(n, k, seed=seed)
        solver = equilibrium._GameSolver(inst, ActionModel(allow_defer=allow_defer))
        greedy = list(equilibrium._walk(solver, equilibrium._greedy_pick(inst)))
        spne = list(equilibrium._walk(solver, solver.chosen_action))
        for state, _ in greedy + spne:
            j = state[2][0]
            values = []
            for action in solver.actions(state):
                value = solver.value(solver.apply(state, action))[j]
                assert value >= solver.bound(state, action), (state, action)
                values.append(value)
            # the first least in action order, as a full expansion picks it
            first = values.index(min(values))
            assert solver.chosen_action(state) == solver.actions(state)[first]
            assert solver.value(state)[j] == values[first]


# Nodes each call expands: (spne_solve defer, no-defer, check_greedy_spne defer, no-defer)
EFFORT = [
    ("appendix", appendix_instance(), (13, 7, 14, 8)),
    ("random-5-3-seed5", gen_random(5, 3, seed=5), (679, 384, 890, 509)),
    ("random-4-2-seed1", gen_random(4, 2, seed=1), (8, 8, 48, 40)),
]
EFFORT_CALLS = [(spne_solve, True), (spne_solve, False), (check_greedy_spne, True), (check_greedy_spne, False)]


@pytest.mark.parametrize(
    "instance, solve, allow_defer, need",
    [
        pytest.param(inst, solve, defer, need, id=f"{name}-{solve.__name__}-{'defer' if defer else 'no-defer'}")
        for name, inst, needs in EFFORT
        for (solve, defer), need in zip(EFFORT_CALLS, needs)
    ],
)
def test_node_budget_is_exact(instance, solve, allow_defer, need):
    # through the public API: a budget of `need` nodes suffices and one fewer is refused
    model = ActionModel(allow_defer=allow_defer)
    solve(instance, model, SearchLimits(node_budget=need))
    with pytest.raises(LimitsExceeded, match=f"node budget of {need - 1}$"):
        solve(instance, model, SearchLimits(node_budget=need - 1))


class TestGreedyPath:
    @given(st.integers(0, 10**6), st.booleans())
    def test_each_pick_is_the_least_available_lowest_index_machine(self, seed, allow_defer):
        # the rule is re-derived here from the solver state check_greedy_spne walks
        inst = gen_random(1 + seed % 4, 1 + seed % 3, (1, 4), seed=seed)
        walked = []
        walk = equilibrium._walk

        def recording_walk(solver, pick):
            for state, action in walk(solver, pick):
                walked.append((state, action))
                yield state, action

        with mock.patch.object(equilibrium, "_walk", recording_walk):
            cert = check_greedy_spne(inst, ActionModel(allow_defer=allow_defer), SearchLimits(max_machines=4))
        assert len(walked) == cert.decisions_checked == inst.n * inst.k  # greedy never defers
        for (machines, jobs, batch, _), machine in walked:
            available = machines[jobs[batch[0]][0]]
            assert machine == min(range(len(available)), key=lambda a: (available[a], a))
