import json
from fractions import Fraction as F

import pytest
from helpers import checked_traces, naive_chain, naive_report_json, naive_stage, times
from hypothesis import given, settings
from hypothesis import strategies as st

from schedgame import (
    AnalysisError,
    BoundRow,
    Instance,
    check_completion_bound,
    check_multistage_chain,
    check_release_premise,
    evaluate_schedule,
    gen_multistage_worst,
    gen_random,
    gen_single_stage_worst,
    greedy_schedule,
    optimal_makespan,
    price_of_anarchy,
    release_order,
    sigma_permutation,
)


def appendix_instance():
    return Instance.from_sizes([10, 1], [(1, 1), (2, 5), (1, F(1, 10))])


def appendix_greedy():
    inst = appendix_instance()
    trace, _ = greedy_schedule(inst)
    return inst, trace


class TestSigmaPermutation:
    def test_appendix_stage_two(self):
        # completions (12, 56/5) for (large, small): small finishes first
        sigma = sigma_permutation([F(12), F(56, 5)], stage=1)
        assert sigma.order == (1, 0)

    def test_ties_resolve_by_id(self):
        assert sigma_permutation([F(2), F(2), F(2)]).order == (0, 1, 2)

    @given(st.lists(st.fractions(min_value=0, max_value=20, max_denominator=6), min_size=1, max_size=8))
    def test_sorts_ascending(self, completions):
        sigma = sigma_permutation(completions)
        assert sorted(sigma.order) == list(range(len(completions)))
        ranked = [completions[j] for j in sigma.order]
        assert ranked == sorted(ranked)


class TestReleasePremise:
    def test_stage_zero_holds_with_zero_offset(self):
        inst = gen_single_stage_worst(3)
        trace, _ = greedy_schedule(inst)
        report = check_release_premise(inst, trace, 0, F(0), F(3))
        assert report.holds
        assert report.minimal_t == 0

    def test_appendix_middle_stage(self):
        inst, trace = appendix_greedy()
        report = check_release_premise(inst, trace, 1, F(0), F(1, 10))
        rows = {row.label: row for row in report.rows}
        # second arrival: 11 <= 0 + 10/(1/10) = 100
        second = rows["release j=2 (job 1)"]
        assert second.lhs == 11 and second.rhs == 100 and second.holds
        # but the first arrival needs an offset of 10, so T=0 overall fails
        assert not report.holds
        assert report.minimal_t == 10
        assert check_release_premise(inst, trace, 1, F(10), F(1, 10)).holds

    @pytest.mark.parametrize("bad", [F(0), F(-1), F(11)])
    def test_rejects_invalid_rate(self, bad):
        inst, trace = appendix_greedy()
        with pytest.raises(AnalysisError):
            check_release_premise(inst, trace, 1, F(0), bad)

    @pytest.mark.parametrize("stage", [-1, 3])
    def test_rejects_stage_out_of_range(self, stage):
        inst, trace = appendix_greedy()
        for check in (check_release_premise, check_completion_bound):
            with pytest.raises(AnalysisError, match="out of range"):
                check(inst, trace, stage, F(0), F(1, 10))


class TestCompletionBound:
    def test_worst_family_m2_rows(self):
        inst = gen_single_stage_worst(2)  # jobs [1, 1, 2]
        trace, _ = greedy_schedule(inst)
        report = check_completion_bound(inst, trace, 0, F(0), F(2))
        rows = {row.label: row for row in report.rows}
        last = rows["completion j=3 (job 2)"]
        assert last.lhs == 3
        assert last.rhs == F(3, 2) * 2 + F(1 + 1, 2)  # == 4
        assert report.holds

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_single_job_any_machine_count(self, m):
        inst = Instance.from_sizes([7], [(m, 2)])
        trace, _ = greedy_schedule(inst)
        report = check_completion_bound(inst, trace, 0, F(0), F(m) * 2)
        assert report.holds

    def test_refuses_when_premise_fails(self):
        inst, trace = appendix_greedy()
        with pytest.raises(AnalysisError, match="premise"):
            check_completion_bound(inst, trace, 1, F(0), F(1, 10))

    def test_appendix_final_stage_with_chained_offset(self):
        inst, trace = appendix_greedy()
        report = check_completion_bound(inst, trace, 2, F(13), F(1, 10))
        assert report.holds
        rows = {row.label: row for row in report.rows}
        assert rows["completion j=2 (job 0)"].rhs == 123

    @given(st.integers(0, 300))
    def test_sorted_bound_follows_from_unsorted(self, seed):
        # sorting property: if the release-order rows hold with offset T', the
        # completion-sorted rows hold with the same T'
        inst = gen_random(n=2 + seed % 5, k=1 + seed % 3, seed=seed)
        trace, _ = greedy_schedule(inst)
        rate = min(s.machines * s.speed for s in inst.stages)
        for stage in range(inst.k):
            order = release_order(trace, stage)
            prefix = F(0)
            t_prime = F(0)
            for j in order:
                need = trace.records[j][stage].completion - prefix / rate
                t_prime = max(t_prime, need)
                prefix += inst.jobs[j].size
            sigma = sigma_permutation(trace.completions(stage), stage)
            prefix = F(0)
            for j in sigma.order:
                assert trace.records[j][stage].completion <= t_prime + prefix / rate
                prefix += inst.jobs[j].size


class TestMultistageChain:
    def test_appendix_chain(self):
        inst, trace = appendix_greedy()
        report = check_multistage_chain(inst, trace, optimal_makespan(inst).makespan)
        assert report.holds
        assert report.params["offsets"] == ("0", "10", "13", "113")
        assert report.min_slack >= 0

    def test_failures_are_data_not_errors(self):
        # a deliberately bad plan starves the second machine; the premise rows
        # at stage 0 still hold, later rows may fail, and nothing raises
        from schedgame import evaluate_schedule

        inst = Instance.from_sizes([1, 10], [(1, 1)])
        trace = evaluate_schedule(inst, [[(0, 1), (0, 0)]])  # big job first
        report = check_multistage_chain(inst, trace)
        assert not report.holds
        labels = [row.label for row in report.failures()]
        assert any("completion" in label for label in labels)

    @given(st.integers(0, 400))
    def test_single_stage_chain_equals_completion_bound(self, seed):
        # each stage's chain rows are exactly the premise and completion rows
        # of the single-stage checkers at the chain's offset for that stage
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        trace, _ = greedy_schedule(inst)
        chain = check_multistage_chain(inst, trace)
        assert chain.holds
        rate = min(s.machines * s.speed for s in inst.stages)
        for i in range(inst.k):
            offset = F(chain.params["offsets"][i])
            premise = check_release_premise(inst, trace, i, offset, rate)
            completion = check_completion_bound(inst, trace, i, offset, rate)
            label = f"stage {i}: "
            rows = tuple(
                BoundRow(row.label.removeprefix(label), row.lhs, row.rhs)
                for row in chain.rows
                if row.label.startswith(label)
            )
            assert rows == premise.rows + completion.rows

    def test_fast_stage_family_has_large_slack(self):
        inst = gen_multistage_worst(3, 1, 3, (1, 1), 10**6)
        trace, _ = greedy_schedule(inst)
        report = check_multistage_chain(inst, trace)
        assert report.holds

    @given(st.integers(0, 400))
    def test_holds_on_every_greedy_trace(self, seed):
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        trace, _ = greedy_schedule(inst)
        assert check_multistage_chain(inst, trace).holds

    def test_rate_override(self):
        inst, trace = appendix_greedy()
        # any rate below the bottleneck is valid and still holds
        assert check_multistage_chain(inst, trace, ms_star=F(1, 20)).holds
        with pytest.raises(AnalysisError):
            check_multistage_chain(inst, trace, ms_star=F(1, 5))


class TestNaiveOracle:
    """Every checker against `helpers.naive_chain` / `naive_stage` (plain Fractions)."""

    @settings(max_examples=150)
    @given(
        checked_traces(),
        st.none() | st.fractions(min_value=F(1, 20), max_value=1, max_denominator=20),
        st.none() | st.fractions(min_value=F(1, 2), max_value=200, max_denominator=30),
        st.integers(0, 8),
    )
    def test_chain_matches_oracle(self, case, rate_share, opt, precision):
        inst, trace = case
        bottleneck = min(s.machines * s.speed for s in inst.stages)
        ms_star = None if rate_share is None else bottleneck * rate_share
        report = check_multistage_chain(inst, trace, opt, ms_star)
        rows, params = naive_chain(inst, trace, opt, ms_star)
        assert [(row.label, row.lhs, row.rhs) for row in report.rows] == rows
        assert [row.slack for row in report.rows] == [rhs - lhs for _, lhs, rhs in rows]
        assert [row.holds for row in report.rows] == [lhs <= rhs for _, lhs, rhs in rows]
        assert report.holds == all(lhs <= rhs for _, lhs, rhs in rows)
        assert report.min_slack == min(rhs - lhs for _, lhs, rhs in rows)
        assert report.failures() == [BoundRow(*row) for row in rows if row[1] > row[2]]
        assert report.params == params
        assert report.minimal_t is None
        # the params' offsets are a tuple, which JSON reads back as a list: compare the text
        oracle = naive_report_json("stage-chain", None, rows, params, None, precision)
        assert report.to_json(precision) == json.dumps(oracle, indent=2)

    @settings(max_examples=100)
    @given(checked_traces(), st.fractions(min_value=F(1, 20), max_value=1, max_denominator=20), times)
    def test_stage_checkers_match_oracle(self, case, rate_share, offset):
        inst, trace = case
        rate = min(s.machines * s.speed for s in inst.stages) * rate_share
        p_max = max(job.size for job in inst.jobs)
        for i, spec in enumerate(inst.stages):
            premise, completion, minimal_t = naive_stage(inst, trace, i, offset, rate)
            report = check_release_premise(inst, trace, i, offset, rate)
            assert [(row.label, row.lhs, row.rhs) for row in report.rows] == premise
            assert report.minimal_t == minimal_t
            assert report.min_slack == min(rhs - lhs for _, lhs, rhs in premise)
            params = {"T": offset, "ms_star": rate, "m": spec.machines, "s": spec.speed}
            assert json.loads(report.to_json()) == naive_report_json("release-premise", i, premise, params, minimal_t)
            if not report.holds:
                with pytest.raises(AnalysisError, match="premise"):
                    check_completion_bound(inst, trace, i, offset, rate)
                continue
            report = check_completion_bound(inst, trace, i, offset, rate)
            assert [(row.label, row.lhs, row.rhs) for row in report.rows] == completion
            assert report.failures() == [BoundRow(*row) for row in completion if row[1] > row[2]]
            params = {"T": offset, "ms_star": rate, "p_max": p_max, "m": spec.machines, "s": spec.speed}
            assert json.loads(report.to_json()) == naive_report_json("completion-bound", i, completion, params)


class TestPriceOfAnarchy:
    def test_worst_family_m5(self):
        report = price_of_anarchy(gen_single_stage_worst(5))
        assert report.ratio == F(9, 5)
        assert report.ratio == 2 - F(1, 5)
        assert report.ratio_is_exact
        assert report.ceiling == F(9, 5)

    def test_single_job(self):
        report = price_of_anarchy(Instance.from_sizes([5], [(2, 1), (1, 3)]))
        assert report.ratio == 1
        assert report.opt_status == "exact"

    def test_appendix(self):
        report = price_of_anarchy(appendix_instance())
        assert report.ratio == F(606, 565)
        assert report.t_opt == 113
        assert report.path_bound == 112
        assert report.bottleneck_bound == 110
        assert report.ceiling == 3 - F(1, 2)

    def test_oversized_instance_degrades_to_bound_ratio(self):
        inst = Instance.from_sizes([10, 1, 1, 1, 1, 1, 1], [(1, 1), (2, 5)])
        report = price_of_anarchy(inst)
        assert report.opt_status == "refused"
        assert not report.ratio_is_exact
        assert report.t_opt is None
        assert report.ratio == report.t_equ / report.opt_lower_bound

    @given(st.integers(0, 200))
    def test_certified_ratio_respects_ceiling(self, seed):
        inst = gen_random(n=1 + seed % 6, k=1 + seed % 3, seed=seed)
        report = price_of_anarchy(inst)
        assert report.ratio_is_exact
        assert report.ratio <= report.ceiling
        assert max(report.path_bound, report.bottleneck_bound) <= report.t_opt <= report.t_equ
