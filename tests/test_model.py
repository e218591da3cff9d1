import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from schedgame import (
    Instance,
    InstanceError,
    Job,
    ModelError,
    PlanError,
    ScheduleTrace,
    StageSpec,
    evaluate_schedule,
    format_decimal,
    format_scalar,
    greedy_schedule,
    parse_scalar,
    validate_trace,
)
from schedgame.model import (
    MAX_GRID_BITS,
    MAX_MACHINES,
    MAX_STAGES,
    as_plan,
    format_decimal_ticks,
    format_ticks,
    queues_to_plan,
    time_grid,
    trace_queues,
    trace_to_csv,
    trace_to_json,
)

from helpers import naive_time_grid

small_fractions = st.fractions(min_value=F(1, 8), max_value=10, max_denominator=8)


class TestParseScalar:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("10", F(10)),
            ("0.1", F(1, 10)),
            ("1/10", F(1, 10)),
            ("1e6", F(10**6)),
            ("2.5e-3", F(1, 400)),
            (" 3/7 ", F(3, 7)),
            (5, F(5)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize(
        "bad", ["abc", "1/0", "", "1.2.3", 0.1, True, None, "1e5000", "1e-5000", "1e999999999", "7" * 101, 10**100]
    )
    def test_rejects(self, bad):
        with pytest.raises(ModelError):
            parse_scalar(bad)


class TestFormatting:
    def test_format_scalar(self):
        assert format_scalar(F(7, 3)) == "7/3"
        assert format_scalar(F(4)) == "4"
        assert format_scalar(F(-1, 2)) == "-1/2"

    @pytest.mark.parametrize(
        "value, precision, expected",
        [
            (F(1, 3), 6, "0.333333"),
            (F(2, 3), 6, "0.666667"),
            (F(606, 5), 6, "121.2"),
            (F(1), 6, "1"),
            (F(-1, 8), 2, "-0.13"),  # ties round away from zero
            (F(3, 2), 0, "2"),
            (F(1, 400), 6, "0.0025"),
        ],
    )
    def test_format_decimal(self, value, precision, expected):
        assert format_decimal(value, precision) == expected

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=997), st.integers(0, 8))
    def test_format_decimal_is_correctly_rounded(self, value, precision):
        rendered = format_decimal(value, precision)
        error = abs(F(rendered) - value)
        assert error <= F(1, 2 * 10**precision)


    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**30))
    def test_format_ticks_matches_format_scalar(self, ticks, scale):
        assert format_ticks(ticks, scale) == format_scalar(F(ticks, scale))
        for precision in range(101):
            rendered = format_decimal_ticks(ticks, scale, precision)
            assert rendered == format_decimal(F(ticks, scale), precision)
            assert abs(F(rendered) - F(ticks, scale)) <= F(1, 2 * 10**precision)

    @pytest.mark.parametrize("ticks, scale", [(0, 7), (14, 7), (-14, 7), (3, 6), (-3, 6), (5, 1), (6, 4)])
    def test_format_ticks_examples(self, ticks, scale):
        assert format_ticks(ticks, scale) == format_scalar(F(ticks, scale))


class TestInstanceValidation:
    def test_rejects_empty(self):
        with pytest.raises(InstanceError):
            Instance((), (StageSpec(1, F(1)),))
        with pytest.raises(InstanceError):
            Instance((Job(0, F(1)),), ())

    def test_rejects_nonpositive_quantities(self):
        with pytest.raises(InstanceError):
            Job(0, F(0))
        with pytest.raises(InstanceError):
            StageSpec(0, F(1))
        with pytest.raises(InstanceError):
            StageSpec(1, F(0))

    def test_caps(self):
        assert StageSpec(MAX_MACHINES, F(1)).machines == MAX_MACHINES
        for machines in (MAX_MACHINES + 1, 10**9, 10**99):
            with pytest.raises(InstanceError, match="cap"):
                StageSpec(machines, F(1))
            with pytest.raises(InstanceError, match="cap"):
                Instance.from_json({"stages": [{"machines": machines, "speed": "1"}], "jobs": [{"size": "1"}]})
        with pytest.raises(InstanceError, match="cap"):
            Instance.from_sizes([1], [(1, 1)] * (MAX_STAGES + 1))
        assert Instance.from_sizes([1], [(1, 1)] * MAX_STAGES).k == MAX_STAGES

    def test_rejects_bad_ids(self):
        with pytest.raises(InstanceError):
            Instance((Job(1, F(1)),), (StageSpec(1, F(1)),))

    def test_json_round_trip(self):
        inst = Instance.from_sizes(["10", "1/2"], [(2, "5"), (1, "0.1")], family="x")
        again = Instance.from_json(inst.to_json())
        assert again == inst

    def test_json_rejects_float_fields(self):
        with pytest.raises(ModelError):
            Instance.from_json({"stages": [{"machines": 1, "speed": 0.1}], "jobs": [{"size": "1"}]})

    def test_wire_format_literal(self):
        import json

        raw = '{"stages":[{"machines":2,"speed":"5"}],"jobs":[{"size":"10"},{"size":"1"}]}'
        inst = Instance.from_json(json.loads(raw))
        assert inst.stages == (StageSpec(2, F(5)),)
        assert [j.size for j in inst.jobs] == [10, 1]
        assert [j.id for j in inst.jobs] == [0, 1]

    @given(
        st.lists(small_fractions, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(1, 3), small_fractions), min_size=1, max_size=3),
    )
    def test_json_round_trip_property(self, sizes, stages):
        inst = Instance.from_sizes(sizes, stages)
        assert Instance.from_json(inst.to_json()) == inst


class TestEvaluateSchedule:
    def test_single_job(self):
        inst = Instance.from_sizes([4], [(1, 1)])
        trace = evaluate_schedule(inst, [[(0, 0)]])
        assert trace.makespan == 4
        assert trace.records[0][0].completion == 4

    def test_three_jobs_two_machines(self):
        # jobs 0,1 queued on one machine, job 2 alone: hand recursion gives
        # completions 1, 2, 2 and makespan 2
        inst = Instance.from_sizes([1, 1, 2], [(2, 1)])
        trace = evaluate_schedule(inst, [[(1, 0), (1, 1), (0, 0)]])
        assert trace.makespan == 2
        assert [r[0].completion for r in trace.records] == [1, 2, 2]

    def test_appendix_greedy_plan(self):
        inst = Instance.from_sizes([10, 1], [(1, 1), (2, 5), (1, F(1, 10))])
        plan = [
            [(0, 0), (0, 1)],
            [(0, 0), (1, 0)],
            [(0, 1), (0, 0)],
        ]
        trace = evaluate_schedule(inst, plan)
        assert trace.records[0][2].completion == F(606, 5)
        assert trace.makespan == F(606, 5)

    def test_plan_is_authoritative_even_against_release_order(self):
        # stage 1 serves job 0 first although job 1 is released earlier:
        # the machine idles until job 0 arrives
        inst = Instance.from_sizes([3, 1], [(2, 1), (1, 1)])
        plan = [
            [(0, 0), (1, 0)],
            [(0, 0), (0, 1)],
        ]
        trace = evaluate_schedule(inst, plan)
        assert trace.records[0][1].start == 3
        assert trace.records[1][1].start == 6
        assert trace.makespan == 7

    @pytest.mark.parametrize(
        "plan, fragment",
        [
            ([[(0, 0)]], "plan has 1 stages"),
            ([[(0, 0)], [(0, 0), (0, 1)]], "covers 1 jobs"),
            ([[(0, 0), (0, 0)], [(0, 0), (0, 1)]], "positions"),
            ([[(0, 0), (2, 0)], [(0, 0), (0, 1)]], "out of range"),
            ([[(0, 0), (0, 2)], [(0, 0), (0, 1)]], "positions"),
        ],
    )
    def test_malformed_plans(self, plan, fragment):
        inst = Instance.from_sizes([1, 2], [(2, 1), (1, 1)])
        with pytest.raises(PlanError) as err:
            evaluate_schedule(inst, plan)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "entry", [[0.9, 0], (False, 1), [True, 0], [0, "1"], ["0", 0], [0, 0, 7], [0], {}, None, 3], ids=repr
    )
    def test_plan_entries_must_be_int_pairs(self, entry):
        with pytest.raises(PlanError, match=r"^stage 1, job 0: plan entry .* is not a \(machine, position\) pair"):
            as_plan([[(0, 0), (0, 1)], [entry, (0, 1)]])

    @pytest.mark.parametrize("plan, message", [({}, "a plan must be a list of stages"), ([[], 7], "stage 1: expected")])
    def test_plan_and_stages_must_be_lists(self, plan, message):
        with pytest.raises(PlanError, match=message):
            as_plan(plan)


class TestValidateTrace:
    def _trace(self):
        inst = Instance.from_sizes([2, 3], [(1, 1), (2, 2)])
        trace, _ = greedy_schedule(inst)
        return inst, trace

    def test_produced_traces_are_clean(self):
        inst, trace = self._trace()
        assert validate_trace(inst, trace) == []

    def test_overlap_detected(self):
        import dataclasses

        inst, trace = self._trace()
        rec = trace.records[1][0]
        bad = dataclasses.replace(rec, start=rec.start - 1, completion=rec.completion - 1)
        rows = (trace.records[0], (bad, trace.records[1][1]))
        tampered = ScheduleTrace.from_records(rows, trace.makespan)
        problems = validate_trace(inst, tampered)
        assert any("overlap" in p for p in problems)

    def test_chaining_violation_detected(self):
        import dataclasses

        inst, trace = self._trace()
        rec = trace.records[0][1]
        bad = dataclasses.replace(rec, release=rec.release + 1, start=rec.start + 1, completion=rec.completion + 1)
        rows = ((trace.records[0][0], bad), trace.records[1])
        tampered = ScheduleTrace.from_records(rows, max(bad.completion, trace.records[1][1].completion))
        problems = validate_trace(inst, tampered)
        assert any("previous completion" in p for p in problems)

    def test_makespan_mismatch_detected(self):
        inst, trace = self._trace()
        tampered = ScheduleTrace.from_records(trace.records, trace.makespan + 1)
        assert any("makespan" in p for p in validate_trace(inst, tampered))


class TestTimeGrid:
    # numerators and denominators of up to 30 digits
    wide_fractions = st.builds(F, st.integers(1, 10**30), st.integers(1, 10**30))

    @given(st.lists(wide_fractions, min_size=1, max_size=8), st.lists(wide_fractions, min_size=1, max_size=6))
    @example(sizes=[F(1, 3**6000)], speeds=[F(1)])  # a 9510-bit lcm
    @example(sizes=[F(1, 2**8191)], speeds=[F(1)])  # exactly MAX_GRID_BITS bits
    @example(sizes=[F(10, 1), F(1)], speeds=[F(1), F(2, 5), F(10)])  # the appendix instance
    def test_matches_fraction_quotients(self, sizes, speeds):
        scale, ticks = naive_time_grid(sizes, speeds)
        if scale.bit_length() > MAX_GRID_BITS:
            with pytest.raises(ModelError, match=f"{scale.bit_length()}-bit denominator"):
                time_grid(sizes, speeds)
        else:
            assert time_grid(sizes, speeds) == (scale, ticks)

    def test_instance_grid_leaves_equality_and_hash_unchanged(self):
        fresh = Instance.from_sizes([10, F(1, 3)], [(2, F(2, 5)), (1, 3)])
        read = Instance.from_sizes([10, F(1, 3)], [(2, F(2, 5)), (1, 3)])
        before = hash(read)
        assert read.time_grid == time_grid(read.sizes(), [s.speed for s in read.stages])
        assert read.time_grid is read.time_grid
        assert hash(read) == before == hash(fresh)
        assert read == fresh and {read: 1}[fresh] == 1


class TestScaleCovariance:
    @given(
        st.lists(small_fractions, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(1, 3), small_fractions), min_size=1, max_size=3),
        small_fractions,
    )
    def test_scaling_sizes_scales_times(self, sizes, stages, c):
        inst = Instance.from_sizes(sizes, stages)
        plan = _greedy_plan(inst)
        scaled = Instance.from_sizes([s * c for s in sizes], stages)
        base = evaluate_schedule(inst, plan)
        lifted = evaluate_schedule(scaled, plan)
        assert lifted.makespan == base.makespan * c
        for j in range(inst.n):
            for i in range(inst.k):
                assert lifted.records[j][i].completion == base.records[j][i].completion * c

    @given(
        st.lists(small_fractions, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(1, 3), small_fractions), min_size=1, max_size=3),
        small_fractions,
    )
    def test_scaling_speeds_divides_times(self, sizes, stages, c):
        inst = Instance.from_sizes(sizes, stages)
        plan = _greedy_plan(inst)
        faster = Instance.from_sizes(sizes, [(m, s * c) for m, s in stages])
        base = evaluate_schedule(inst, plan)
        lifted = evaluate_schedule(faster, plan)
        assert lifted.makespan == base.makespan / c

    def test_re_evaluation_is_bit_identical(self):
        inst = Instance.from_sizes([1, 2, 3], [(2, 1), (1, F(1, 2))])
        plan = _greedy_plan(inst)
        assert evaluate_schedule(inst, plan) == evaluate_schedule(inst, plan)


def _greedy_plan(inst):
    trace, _ = greedy_schedule(inst)
    return queues_to_plan(trace_queues(trace))


class TestSerialization:
    def test_csv_has_exact_and_decimal_columns(self):
        inst = Instance.from_sizes([10, 1], [(1, 1), (2, 5), (1, F(1, 10))])
        trace, _ = greedy_schedule(inst)
        csv_text = trace_to_csv(trace)
        header, *rows = csv_text.strip().splitlines()
        assert header == "job,stage,machine,release,start,completion,release_decimal,start_decimal,completion_decimal"
        assert len(rows) == inst.n * inst.k
        assert any("606/5" in row and "121.2" in row for row in rows)

    def test_json_trace(self):
        inst = Instance.from_sizes([1], [(1, 3)])
        trace, _ = greedy_schedule(inst)
        data = json.loads(trace_to_json(trace))
        assert data["makespan"] == "1/3"
        assert data["makespan_decimal"] == "0.333333"
