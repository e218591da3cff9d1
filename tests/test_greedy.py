import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgame import (
    GreedyEvent,
    Instance,
    ScheduleTrace,
    evaluate_schedule,
    gen_random,
    greedy_schedule,
    release_order,
    validate_trace,
)
from schedgame.greedy import events_to_json
from schedgame.model import queues_to_plan, trace_queues
from helpers import list_schedule, naive_events_json, naive_greedy, naive_replay


def _record_tuples(trace):
    return [[(r.stage, r.machine, r.release, r.start, r.completion) for r in row] for row in trace.records]


def appendix_instance():
    return Instance.from_sizes([10, 1], [(1, 1), (2, 5), (1, F(1, 10))])


def test_three_jobs_two_machines():
    # [1,1,2] in that order: units split across machines, the size-2 job then
    # doubles up on machine 0
    inst = Instance.from_sizes([1, 1, 2], [(2, 1)])
    trace, log = greedy_schedule(inst)
    assert [e.machine for e in log] == [0, 1, 0]
    assert list(log)[2].loads == (1, 1)
    assert trace.makespan == 3


def test_appendix_trace_values():
    trace, _ = greedy_schedule(appendix_instance())
    large, small = trace.records
    assert [r.completion for r in large] == [10, 12, F(606, 5)]
    assert [r.completion for r in small] == [11, F(56, 5), F(106, 5)]
    assert [r.release for r in large] == [0, 10, 12]
    assert [r.release for r in small] == [0, 11, F(56, 5)]
    # large grabs stage-1 machine 0, small takes the idle machine 1
    assert large[1].machine == 0
    assert small[1].machine == 1
    assert trace.makespan == F(606, 5)


def test_single_job_pipeline():
    inst = Instance.from_sizes([7], [(1, 1), (3, 1), (2, 1)])
    trace, _ = greedy_schedule(inst)
    assert trace.makespan == 3 * 7


class TestReleaseOrder:
    def test_stage_zero_is_priority_order(self):
        inst = Instance.from_sizes([3, 1, 2], [(2, 1)])
        trace, _ = greedy_schedule(inst)
        assert release_order(trace, 0) == [0, 1, 2]

    def test_appendix_final_stage(self):
        trace, _ = greedy_schedule(appendix_instance())
        # small (job 1) reaches the last stage at 56/5, before large at 12
        assert release_order(trace, 2) == [1, 0]

    def test_bad_stage_index(self):
        trace, _ = greedy_schedule(appendix_instance())
        with pytest.raises(ValueError):
            release_order(trace, 3)

    @given(st.integers(0, 400))
    def test_is_a_permutation(self, seed):
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        trace, _ = greedy_schedule(inst)
        for stage in range(inst.k):
            assert sorted(release_order(trace, stage)) == list(range(inst.n))


class TestGreedyProperties:
    @given(st.integers(0, 500))
    def test_deterministic(self, seed):
        inst = gen_random(n=1 + seed % 5, k=1 + seed % 3, seed=seed)
        first = greedy_schedule(inst)
        second = greedy_schedule(inst)
        assert first[0] == second[0]
        assert first[1] == second[1]

    @given(st.integers(0, 500))
    def test_traces_validate_clean(self, seed):
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        trace, _ = greedy_schedule(inst)
        assert validate_trace(inst, trace) == []

    @given(st.integers(0, 500))
    def test_differential_against_replay_and_list_scheduling(self, seed):
        # greedy's own queues replay to the same trace through the plan
        # kernel and through a naive Fraction replay, the trace is valid and
        # survives a round trip through its records, and one stage is
        # textbook list scheduling
        inst = gen_random(n=1 + seed % 9, k=1 + seed % 3, machine_range=(1, 4), seed=seed)
        trace, _ = greedy_schedule(inst)
        queues = trace_queues(trace)
        assert evaluate_schedule(inst, queues_to_plan(queues)) == trace
        assert _record_tuples(trace) == naive_replay(inst, queues)
        assert ScheduleTrace.from_records(trace.records, trace.makespan) == trace
        assert validate_trace(inst, trace) == []
        # equality compares the grids, so it must agree with the Fraction views
        reversed_queues = [[queue[::-1] for queue in stage] for stage in queues]
        other = evaluate_schedule(inst, queues_to_plan(reversed_queues))
        assert _record_tuples(other) == naive_replay(inst, reversed_queues)
        same_views = other.records == trace.records and other.makespan == trace.makespan
        assert (other == trace) == same_views
        if inst.k == 1:
            spec = inst.stages[0]
            machines, makespan = list_schedule(list(inst.sizes()), spec.machines, spec.speed)
            assert [row[0].machine for row in trace.records] == machines
            assert trace.makespan == makespan

    @given(st.integers(0, 500))
    def test_choice_certificate(self, seed):
        # every logged decision picks the load minimum, lowest index on ties
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        _, log = greedy_schedule(inst)
        for event in log:
            best = min(range(len(event.loads)), key=lambda a: (event.loads[a], a))
            assert event.machine == best

    @given(st.integers(0, 500))
    def test_no_idle_machine_while_waiting(self, seed):
        # a job that waits found every machine occupied at its decision time
        inst = gen_random(n=2 + seed % 5, k=1 + seed % 3, seed=seed)
        trace, log = greedy_schedule(inst)
        for event in log:
            rec = trace.records[event.job][event.stage]
            if rec.start > rec.release:
                speed = inst.stages[event.stage].speed
                assert min(event.loads) > speed * event.time


class TestListSchedulingEquivalence:
    """Single-stage greedy equals list scheduling with the instance order as
    the preference list: same machine per job, same makespan."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_exhaustive_small(self, m):
        import itertools

        for n in range(1, 5):
            for sizes in itertools.product([F(1), F(2), F(3)], repeat=n):
                inst = Instance.from_sizes(list(sizes), [(m, 1)])
                trace, _ = greedy_schedule(inst)
                machines, makespan = list_schedule(list(sizes), m, F(1))
                assert [trace.records[j][0].machine for j in range(n)] == machines
                assert trace.makespan == makespan

    @given(
        st.lists(st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4), min_size=1, max_size=7),
        st.integers(2, 4),
        st.fractions(min_value=F(1, 2), max_value=3, max_denominator=2),
    )
    def test_random(self, sizes, m, s):
        inst = Instance.from_sizes(sizes, [(m, s)])
        trace, _ = greedy_schedule(inst)
        machines, makespan = list_schedule(sizes, m, s)
        assert [trace.records[j][0].machine for j in range(len(sizes))] == machines
        assert trace.makespan == makespan


class TestEventsToJson:
    """`events_to_json` renders loads from the trace's ticks; the text must equal formatting every entry."""

    @given(st.integers(0, 2**32), st.integers(1, 12), st.integers(1, 3), st.integers(0, 100))
    def test_matches_per_entry_formatting(self, seed, n, k, precision):
        _, log = greedy_schedule(gen_random(n, k, (1, 6), seed=seed))
        assert json.loads(events_to_json(log, precision)) == naive_events_json(log, precision)


class TestNaiveGreedyOracle:
    """The trace and the decision log read off it match a textbook Fraction simulation."""

    @given(
        st.integers(0, 2**32),
        st.integers(1, 10),
        st.integers(1, 3),
        # equal sizes are drawn often, so decisions often tie at a nonzero load
        st.sampled_from([(1, 1, 1), (1, 2, 1), (2, 3, 1), (1, 6, 3)]),
        st.integers(0, 100),
    )
    def test_trace_and_log_match_the_oracle(self, seed, n, k, size_range, precision):
        inst = gen_random(n, k, (1, 8), size_range=size_range, seed=seed)
        trace, log = greedy_schedule(inst)
        records, events = naive_greedy(inst)
        assert [[(r.machine, r.release, r.start, r.completion) for r in row] for row in trace.records] == records
        assert trace.makespan == max(row[-1][3] for row in records)
        oracle = [GreedyEvent(*event) for event in events]
        assert len(log) == len(oracle)
        assert list(log) == oracle
        assert json.loads(events_to_json(log, precision)) == naive_events_json(oracle, precision)
