"""Adversarial and seeded-random instance construction."""

from __future__ import annotations

from fractions import Fraction

from .model import Instance, Scalar, check_instance_size, format_scalar

__all__ = [
    "SplitMix64",
    "gen_single_stage_worst",
    "gen_multistage_worst",
    "gen_appendix_example",
    "gen_random",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator, specified so draws are portable.

    Step: state = (state + 0x9E3779B97F4A7C15) mod 2^64, then
    z = state; z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64; output z ^ (z >> 31).
    Integer draws map the output by modulo onto the inclusive range.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def gen_single_stage_worst(m: int, s: Scalar | int = 1) -> Instance:
    """Single-stage family with greedy/optimal ratio exactly 2 - 1/m.

    m*(m-1) unit jobs arrive first and spread evenly across the m machines;
    the final job of size m then lands on a machine already loaded to m-1.
    The optimal packing keeps the big job alone, so the ratio is scale-free
    in the speed s.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"machine count must be an int >= 2, got {m!r} (ratio degenerates at m=1)")
    s = Fraction(s)
    if s <= 0:
        raise ValueError("speed must be positive")
    check_instance_size(m * (m - 1) + 1, 1)
    sizes: list = [1] * (m * (m - 1)) + [m]
    return Instance.from_sizes(
        sizes, [(m, s)], family=f"single-stage-worst(m={m},s={format_scalar(s)})"
    )


def gen_multistage_worst(
    k: int,
    bottleneck: int,
    m_max: int,
    other_machine_counts: list[int] | tuple[int, ...],
    fast_speed: Scalar | int = 10**6,
) -> Instance:
    """Pipeline whose ratio approaches 2 - 1/m_max as fast_speed grows.

    One bottleneck stage runs m_max machines at speed 1; every other stage is
    effectively instantaneous at fast_speed, so contention concentrates in the
    bottleneck and the single-stage worst case re-emerges there. The job mix
    is the single-stage worst-case distribution for m_max.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"stage count must be an int >= 1, got {k!r}")
    if not isinstance(m_max, int) or m_max < 2:
        raise ValueError(f"bottleneck machine count must be an int >= 2, got {m_max!r}")
    check_instance_size(m_max * (m_max - 1) + 1, k)
    if not 0 <= bottleneck < k:
        raise ValueError(f"bottleneck index {bottleneck} out of range [0, {k})")
    others = tuple(other_machine_counts)
    if len(others) != k - 1:
        raise ValueError(f"expected {k - 1} other machine counts, got {len(others)}")
    for count in others:
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"machine counts must be ints >= 1, got {count!r}")
        if count >= m_max:
            raise ValueError(
                f"other stage machine count {count} must be strictly below m_max={m_max} "
                "so the bottleneck stage realizes the maximum"
            )
    fast = Fraction(fast_speed)
    if fast < 1:
        raise ValueError("fast_speed must be >= 1")
    stages: list[tuple[int, Fraction]] = []
    rest = iter(others)
    for i in range(k):
        if i == bottleneck:
            stages.append((m_max, Fraction(1)))
        else:
            stages.append((next(rest), fast))
    sizes: list = [1] * (m_max * (m_max - 1)) + [m_max]
    family = (
        f"multi-stage-worst(k={k},bottleneck={bottleneck},m_max={m_max},"
        f"others={','.join(str(c) for c in others)},fast_speed={format_scalar(fast)})"
    )
    return Instance.from_sizes(sizes, stages, family=family)


def gen_appendix_example() -> Instance:
    """Two jobs, three stages, where greedy play is not subgame-perfect.

    The large job (size 10) is ordered first. Greedily it grabs the single
    stage-0 machine, but the slow final stage then makes it queue behind the
    small job; yielding priority at stage 0 would finish it earlier.
    """
    return Instance.from_sizes(
        [10, 1], [(1, Fraction(1)), (2, Fraction(5)), (1, Fraction(1, 10))], family="appendix"
    )


RationalRange = tuple[Scalar | int, Scalar | int, int]


def _draw_rational(rng: SplitMix64, rng_spec: RationalRange, what: str) -> Fraction:
    lo, hi, max_den = Fraction(rng_spec[0]), Fraction(rng_spec[1]), rng_spec[2]
    if max_den < 1:
        raise ValueError(f"{what}: max denominator must be >= 1")
    if lo <= 0 or hi < lo:
        raise ValueError(f"{what}: need 0 < lo <= hi, got [{lo}, {hi}]")
    # an integer N in [lo, hi] makes N*q a numerator for every q; without one, q = 1 has none
    if -(-lo.numerator // lo.denominator) > hi.numerator // hi.denominator:
        raise ValueError(f"{what}: no numerator available for denominator 1 in [{lo}, {hi}]")
    q = rng.randint(1, max_den)
    lo_num = -((-lo.numerator * q) // lo.denominator)
    hi_num = (hi.numerator * q) // hi.denominator
    return Fraction(rng.randint(lo_num, hi_num), q)


def gen_random(
    n: int,
    k: int,
    machine_range: tuple[int, int] = (1, 3),
    speed_range: RationalRange = (Fraction(1, 2), 3, 2),
    size_range: RationalRange = (1, 6, 3),
    seed: int = 0,
) -> Instance:
    """Seeded random instance with bounded-denominator rational sizes/speeds.

    Draw order is fixed so the mapping seed -> instance is reproducible from
    the generator spec alone: for each stage, machine count then speed; then
    each job's size. Rationals draw a denominator q uniformly in [1, max_den],
    then a numerator uniformly in [ceil(lo*q), floor(hi*q)].
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need at least 1 job, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"need at least 1 stage, got {k!r}")
    m_lo, m_hi = machine_range
    if m_lo < 1 or m_hi < m_lo:
        raise ValueError(f"invalid machine range [{m_lo}, {m_hi}]")
    check_instance_size(n, k)
    rng = SplitMix64(seed)
    stages = []
    for _ in range(k):
        machines = rng.randint(m_lo, m_hi)
        stages.append((machines, _draw_rational(rng, speed_range, "speed range")))
    sizes = [_draw_rational(rng, size_range, "size range") for _ in range(n)]
    return Instance.from_sizes(sizes, stages, family=f"random(n={n},k={k},seed={seed})")
