import itertools
import json
from fractions import Fraction as F
from operator import le

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgame import (
    Instance,
    Job,
    LimitsExceeded,
    SearchLimits,
    evaluate_schedule,
    gen_random,
    gen_single_stage_worst,
    greedy_schedule,
    opt_lower_bounds,
    optimal_makespan,
    single_stage_optimal,
)
from schedgame import exact
from schedgame.model import as_plan, plan_to_queues, queues_to_plan
from helpers import (
    all_stage_plans,
    brute_force_optimal,
    brute_force_partition,
    dominated,
    fifo_stage,
    list_schedule_stage,
    naive_opt_lower_bounds,
)


def _json_round_trip(plan):
    return as_plan(json.loads(json.dumps(plan)))


SPEEDS = st.sampled_from([F(1), F(1, 2), F(3)])
# (sizes, non-final stages, last stage) of a 2- or 3-stage pipeline of up to 4 jobs
PIPELINES = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(1, 2), SPEEDS), min_size=1, max_size=2),
    st.tuples(st.integers(2, 3), SPEEDS),
)


def appendix_instance():
    return Instance.from_sizes([10, 1], [(1, 1), (2, 5), (1, F(1, 10))])


class TestLowerBounds:
    def test_worst_family_m3(self):
        path, bottleneck = opt_lower_bounds(gen_single_stage_worst(3))
        assert path == 3
        assert bottleneck == F(6 + 3, 3)

    def test_single_job_path_bound_is_tight(self):
        inst = Instance.from_sizes([5], [(1, 1), (1, F(1, 10))])
        path, bottleneck = opt_lower_bounds(inst)
        assert path == 55
        assert optimal_makespan(inst).makespan == 55

    def test_appendix(self):
        path, bottleneck = opt_lower_bounds(appendix_instance())
        assert path == 112
        assert bottleneck == 110

    @given(
        st.lists(st.fractions(min_value=F(1, 7), max_value=12, max_denominator=7), min_size=1, max_size=6),
        st.lists(
            st.tuples(st.integers(1, 4), st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_grid_bounds_equal_the_fraction_formulas(self, sizes, stages):
        inst = Instance.from_sizes(sizes, stages)
        assert opt_lower_bounds(inst) == naive_opt_lower_bounds(inst)

    @given(st.integers(0, 300))
    def test_bounds_never_exceed_optimum(self, seed):
        inst = gen_random(n=1 + seed % 5, k=1 + seed % 3, seed=seed)
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert max(opt_lower_bounds(inst)) <= result.makespan


class TestSingleStageOptimal:
    def test_small_cases(self):
        assert single_stage_optimal([Job(0, F(1)), Job(1, F(1)), Job(2, F(2))], 2, F(1)).makespan == 2
        assert single_stage_optimal([Job(0, F(3))] * 1 + [Job(1, F(3)), Job(2, F(3))], 3, F(3)).makespan == 1

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("s", [F(1), F(1, 2)])
    def test_worst_family_optimum(self, m, s):
        inst = gen_single_stage_worst(m, s)
        result = single_stage_optimal(list(inst.jobs), m, s)
        assert result.status == "exact"
        assert result.makespan == F(m) / s

    def test_needs_search_when_lpt_is_suboptimal(self):
        # LPT packs 3+2+2 vs 3+2 here (makespan 7); the optimum balances at 6
        jobs = [Job(i, F(x)) for i, x in enumerate([3, 3, 2, 2, 2])]
        result = single_stage_optimal(jobs, 2, F(1))
        assert result.status == "exact"
        assert result.makespan == 6
        assert result.makespan == brute_force_partition([F(3), F(3), F(2), F(2), F(2)], 2, F(1))

    def test_exhaustive_against_brute_force(self):
        for m in (2, 3):
            for n in range(1, 6):
                for sizes in itertools.combinations_with_replacement([F(1), F(2), F(3)], n):
                    jobs = [Job(i, x) for i, x in enumerate(sizes)]
                    got = single_stage_optimal(jobs, m, F(1))
                    assert got.status == "exact"
                    assert got.makespan == brute_force_partition(list(sizes), m, F(1))

    def test_witness_reproduces_makespan(self):
        jobs = [Job(i, F(x)) for i, x in enumerate([5, 4, 3, 3, 2, 1])]
        result = single_stage_optimal(jobs, 3, F(2))
        inst = Instance(tuple(jobs), (Instance.from_sizes([1], [(3, 2)]).stages))
        assert evaluate_schedule(inst, _json_round_trip(result.plan)).makespan == result.makespan

    @given(st.integers(0, 300))
    def test_witness_json_round_trip(self, seed):
        inst = gen_random(n=1 + seed % 7, k=1, machine_range=(2, 3), seed=seed)
        spec = inst.stages[0]
        result = single_stage_optimal(list(inst.jobs), spec.machines, spec.speed)
        assert evaluate_schedule(inst, _json_round_trip(result.plan)).makespan == result.makespan

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6), st.integers(1, 5), SPEEDS)
    def test_both_entry_points_match_brute_force_partition(self, sizes, m, s):
        # m > 3 too: the machine cap is for pipelines only
        inst = Instance.from_sizes(sizes, [(m, s)])
        expected = brute_force_partition([F(x) for x in sizes], m, s)
        for result in (single_stage_optimal(list(inst.jobs), m, s), optimal_makespan(inst)):
            assert result.status == "exact"
            assert result.makespan == expected
            assert evaluate_schedule(inst, result.plan).makespan == expected

    def test_refuses_oversized(self):
        jobs = [Job(i, F(p)) for i, p in enumerate([7, 6, 5, 5, 4, 3, 2, 2, 1])]
        with pytest.raises(LimitsExceeded):
            single_stage_optimal(jobs, 2, F(1), SearchLimits(max_jobs=8))

    def test_budget_exhaustion_reports_bounds(self):
        jobs = [Job(i, F(x)) for i, x in enumerate([3, 3, 2, 2, 2])]
        result = single_stage_optimal(jobs, 2, F(1), SearchLimits(node_budget=1))
        assert result.status == "budget-exhausted"
        assert result.lower_bound <= 6 <= result.makespan


class TestOptimalMakespan:
    def test_single_job(self):
        inst = Instance.from_sizes([3], [(1, 1), (2, F(1, 2)), (1, 3)])
        expected = 3 + 6 + 1
        assert optimal_makespan(inst).makespan == expected

    def test_worst_family_m4(self):
        inst = gen_single_stage_worst(4)
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == 4

    def test_appendix_brute_force(self):
        inst = appendix_instance()
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == 113
        assert result.makespan == brute_force_optimal(inst)

    @given(st.integers(0, 200))
    def test_matches_brute_force_on_tiny_instances(self, seed):
        inst = gen_random(n=1 + seed % 3, k=1 + seed % 2, machine_range=(1, 3), seed=seed)
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == brute_force_optimal(inst)

    @pytest.mark.parametrize(
        "n, k, machines, seed",
        [
            pytest.param(n, k, machines, seed, id=f"n{n}-k{k}-m1to{machines}-seed{seed}")
            for n, k, machines, seeds in [(3, 2, 3, 12), (4, 2, 2, 8), (3, 3, 3, 6), (4, 3, 1, 4)]
            for seed in range(seeds)
        ],
    )
    def test_matches_brute_force_on_pipelines(self, n, k, machines, seed):
        # the search orders only the non-final stages; the oracle orders every stage
        inst = gen_random(n, k, (1, machines), seed=seed)
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == brute_force_optimal(inst)

    def test_last_stage_serves_in_release_order(self):
        # every optimal plan serves a last-stage machine out of job-id order:
        # the best plan that keeps each last-stage queue in id order reaches 7/2
        inst = Instance.from_sizes([4, 2, 1], [(1, 3), (2, 2)])
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.nodes > 0
        assert result.makespan == F(10, 3) == brute_force_optimal(inst)
        queues = plan_to_queues(inst, result.plan)
        id_order = queues[:-1] + (tuple(tuple(sorted(queue)) for queue in queues[-1]),)
        assert evaluate_schedule(inst, queues_to_plan(id_order)).makespan > result.makespan

    @given(st.integers(0, 300))
    def test_witness_replays_exactly(self, seed):
        inst = gen_random(n=1 + seed % 5, k=1 + seed % 3, seed=seed)
        result = optimal_makespan(inst)
        assert evaluate_schedule(inst, _json_round_trip(result.plan)).makespan == result.makespan

    @given(st.integers(0, 300))
    def test_greedy_never_beats_optimal(self, seed):
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        trace, _ = greedy_schedule(inst)
        assert trace.makespan >= optimal_makespan(inst).makespan

    @given(PIPELINES)
    def test_matches_brute_force_with_releases_in_the_last_stage(self, case):
        # earlier stages release jobs at different times into 2-3 last-stage machines
        sizes, head, last = case
        inst = Instance.from_sizes(sizes, head + [last])
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == brute_force_optimal(inst)
        assert evaluate_schedule(inst, result.plan).makespan == result.makespan

    def test_deterministic_including_witness(self):
        inst = gen_random(n=5, k=3, seed=99)
        assert optimal_makespan(inst) == optimal_makespan(inst)

    def test_refuses_oversized_multistage(self):
        inst = Instance.from_sizes([10, 1, 1, 1, 1, 1, 1], [(1, 1), (2, 5)])
        with pytest.raises(LimitsExceeded):
            optimal_makespan(inst)

    def test_certificate_path_answers_beyond_limits(self):
        # greedy matches the lower bounds here, so no search is needed even
        # though the instance is far beyond the search caps
        inst = Instance.from_sizes([1] * 12, [(3, 1)])
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == 4

    def test_budget_exhaustion_reports_interval(self):
        inst = Instance.from_sizes([10, 1, 7, 3], [(1, 1), (2, 5), (1, F(1, 3))])
        limited = optimal_makespan(inst, SearchLimits(node_budget=5))
        assert limited.status == "budget-exhausted"
        full = optimal_makespan(inst)
        assert full.status == "exact"
        assert limited.lower_bound <= full.makespan <= limited.makespan


class TestListSchedules:
    """The search lists each non-final stage's jobs and list-schedules them (`_enumerate`)."""

    @given(st.integers(1, 3), st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), min_size=1, max_size=4))
    def test_list_schedule_in_start_order_completes_every_job_no_later(self, m, jobs):
        releases, execs = zip(*jobs)
        for plan in all_stage_plans(len(jobs), m):
            starts, completions = fifo_stage(releases, execs, plan)
            order = sorted(range(len(jobs)), key=lambda j: (starts[j], j))
            listed = list_schedule_stage(releases, execs, m, order)
            assert all(map(le, listed, completions))

    def test_optimum_needs_a_second_machine_in_stage_0(self):
        # the optimum 9 interleaves the two small jobs with the large ones on
        # both stage-0 machines; every job on machine 0 reaches 11 at best, and
        # every greedy pass 10, so only the search finds 9
        inst = Instance.from_sizes([1, 1, 3, 3], [(2, 1), (1, 1)])
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.nodes > 0
        assert result.makespan == 9 == brute_force_optimal(inst)
        assert exact._heuristic_plan(inst)[0].makespan == 10
        assert brute_force_optimal(Instance.from_sizes([1, 1, 3, 3], [(1, 1), (1, 1)])) == 11
        assert evaluate_schedule(inst, result.plan).makespan == 9

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_with_wide_middle_stages(self, seed):
        inst = gen_random(4, 3, (2, 3), seed=seed)
        result = optimal_makespan(inst)
        assert result.status == "exact"
        assert result.makespan == brute_force_optimal(inst)
        assert evaluate_schedule(inst, _json_round_trip(result.plan)).makespan == result.makespan


# (instance, nodes optimal_makespan spends on it): a change in search effort shows here
EFFORT = [
    ("random-5-2-seed0", gen_random(5, 2, seed=0), 1455),
    ("random-6-2-seed3", gen_random(6, 2, seed=3), 1716),
    ("random-4-3-seed0", gen_random(4, 3, seed=0), 724),
]


@pytest.mark.parametrize("instance, nodes", [pytest.param(inst, nodes, id=name) for name, inst, nodes in EFFORT])
def test_node_budget_is_exact(instance, nodes):
    # a budget of `nodes` reaches the same certified result and one fewer is exhausted
    full = optimal_makespan(instance)
    assert full.status == "exact"
    assert full.nodes == nodes
    assert optimal_makespan(instance, SearchLimits(node_budget=nodes)) == full
    assert optimal_makespan(instance, SearchLimits(node_budget=nodes - 1)).status == "budget-exhausted"


def _vectors(n: int):
    # short vectors of small entries, so equal sums and duplicates are common
    return st.tuples(*[st.integers(0, 3)] * n)


# a list of same-length vectors and one more vector to test against it
VECTORS = st.integers(1, 4).flatmap(lambda n: st.tuples(st.lists(_vectors(n), max_size=40), _vectors(n)))


class TestDominance:
    @given(VECTORS)
    def test_archive_admits_exactly_the_undominated(self, case):
        vecs, _ = case
        archive = exact._Archive()
        admitted: list = []
        for vec in vecs:
            fresh = not dominated(vec, admitted)
            assert archive.admit(vec) == fresh
            if fresh:
                admitted.append(vec)
        assert sorted(archive.vecs) == sorted(admitted)
        assert archive.sums == [sum(vec) for vec in archive.vecs] == sorted(archive.sums)

    @given(VECTORS)
    def test_dominated_matches_the_plain_scan(self, case):
        vecs, vec = case
        assert exact._dominated(vec, vecs) == dominated(vec, vecs)

    def test_archive_edge_cases(self):
        archive = exact._Archive()
        assert archive.admit((2, 1))  # the empty archive dominates nothing
        assert not archive.admit((2, 1))  # a duplicate is dominated
        assert archive.admit((1, 2))  # an equal sum alone does not dominate
        assert not archive.admit((2, 2))
        assert archive.admit((0, 5))
        assert archive.vecs == [(2, 1), (1, 2), (0, 5)]
