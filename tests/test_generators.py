from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedgame import (
    SplitMix64,
    gen_appendix_example,
    gen_multistage_worst,
    gen_random,
    gen_single_stage_worst,
    greedy_schedule,
    price_of_anarchy,
    spne_solve,
)


class TestSingleStageWorst:
    def test_m2_layout(self):
        inst = gen_single_stage_worst(2)
        assert [j.size for j in inst.jobs] == [1, 1, 2]
        trace, _ = greedy_schedule(inst)
        assert trace.makespan == 3

    @pytest.mark.parametrize("m", range(2, 7))
    def test_job_count(self, m):
        assert gen_single_stage_worst(m).n == m * m - m + 1

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("s", [F(1), F(1, 2), F(3)])
    def test_ratio_is_exactly_two_minus_one_over_m(self, m, s):
        report = price_of_anarchy(gen_single_stage_worst(m, s))
        assert report.ratio == 2 - F(1, m)
        assert report.ratio_is_exact

    def test_m4_speed2_absolute_values(self):
        inst = gen_single_stage_worst(4, F(2))
        trace, _ = greedy_schedule(inst)
        assert trace.makespan == F(7, 2)
        assert price_of_anarchy(inst).t_opt == 2

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            gen_single_stage_worst(1)
        with pytest.raises(ValueError):
            gen_single_stage_worst(3, F(0))


class TestMultistageWorst:
    def test_example_structure(self):
        inst = gen_multistage_worst(3, 1, 3, (1, 1), 10**6)
        assert [(s.machines, s.speed) for s in inst.stages] == [
            (1, 10**6),
            (3, 1),
            (1, 10**6),
        ]
        assert [j.size for j in inst.jobs] == [1] * 6 + [3]

    def test_single_stage_reduction(self):
        reduced = gen_multistage_worst(1, 0, 4, ())
        reference = gen_single_stage_worst(4, 1)
        assert reduced.jobs == reference.jobs
        assert reduced.stages == reference.stages

    def test_ratio_climbs_with_fast_speed(self):
        ratios = [
            price_of_anarchy(gen_multistage_worst(2, 0, 2, (1,), fs)).ratio
            for fs in (10, 10**2, 10**3, 10**4)
        ]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 2 - F(1, 2) - F(1, 100)

    def test_unit_fast_speed_variant_solves_exactly(self):
        # no closed form at fast_speed=1; the exact oracle still certifies
        report = price_of_anarchy(gen_multistage_worst(2, 0, 2, (1,), 1))
        assert report.ratio_is_exact
        assert 1 <= report.ratio <= report.ceiling

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=3, bottleneck=3, m_max=3, other_machine_counts=(1, 1)),
            dict(k=3, bottleneck=0, m_max=2, other_machine_counts=(2, 1)),
            dict(k=3, bottleneck=0, m_max=2, other_machine_counts=(1,)),
            dict(k=2, bottleneck=0, m_max=1, other_machine_counts=(1,)),
            dict(k=2, bottleneck=0, m_max=3, other_machine_counts=(1,), fast_speed=F(1, 2)),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            gen_multistage_worst(**kwargs)


class TestAppendixExample:
    def test_shape_and_outcomes(self):
        inst = gen_appendix_example()
        assert [j.size for j in inst.jobs] == [10, 1]
        assert [(s.machines, s.speed) for s in inst.stages] == [(1, 1), (2, 5), (1, F(1, 10))]
        trace, _ = greedy_schedule(inst)
        assert trace.makespan == F(606, 5)
        assert [r.completion for r in trace.records[1]] == [11, F(56, 5), F(106, 5)]
        assert spne_solve(inst).final_completions[0] == 113


class TestSplitMix64:
    def test_known_sequence_is_stable(self):
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        rng2 = SplitMix64(0)
        assert first == [rng2.next_u64() for _ in range(3)]

    def test_randint_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.randint(3, 9) for _ in range(200)]
        assert min(draws) >= 3 and max(draws) <= 9
        assert len(set(draws)) > 1

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randint(5, 4)


class TestGenRandom:
    def test_same_seed_same_instance(self):
        assert gen_random(5, 3, seed=7) == gen_random(5, 3, seed=7)

    def test_seeds_differ(self):
        instances = {gen_random(4, 2, seed=s).to_json().__str__() for s in range(6)}
        assert len(instances) > 1

    @given(st.integers(0, 500))
    def test_ranges_respected(self, seed):
        inst = gen_random(
            n=1 + seed % 6,
            k=1 + seed % 3,
            machine_range=(1, 3),
            speed_range=(F(1, 2), 3, 2),
            size_range=(1, 6, 3),
            seed=seed,
        )
        for s in inst.stages:
            assert 1 <= s.machines <= 3
            assert F(1, 2) <= s.speed <= 3
            assert s.speed.denominator <= 2
        for j in inst.jobs:
            assert 1 <= j.size <= 6
            assert j.size.denominator <= 3

    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            gen_random(0, 1)

    def test_rejects_empty_rational_range(self):
        with pytest.raises(ValueError):
            gen_random(2, 1, size_range=(F(1, 3), F(1, 3), 1))

    def test_rejects_a_range_without_an_integer(self):
        # no q up to 7 has a numerator in [4/3, 5/3]; the message names q = 1
        with pytest.raises(ValueError, match=r"no numerator available for denominator 1 in \[4/3, 5/3\]"):
            gen_random(1, 1, size_range=(F(4, 3), F(5, 3), 7))

    @given(st.integers(0, 200))
    def test_huge_max_denominator_draws_in_range(self, seed):
        # checking the range costs one step, not one per denominator
        inst = gen_random(2, 2, speed_range=(F(1, 2), 3, 10**12), size_range=(1, 6, 10**12), seed=seed)
        for s in inst.stages:
            assert F(1, 2) <= s.speed <= 3 and s.speed.denominator <= 10**12
        for j in inst.jobs:
            assert 1 <= j.size <= 6 and j.size.denominator <= 10**12

    def test_rejects_bad_machine_range(self):
        with pytest.raises(ValueError):
            gen_random(2, 1, machine_range=(2, 1))
