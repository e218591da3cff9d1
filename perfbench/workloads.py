"""Workload definitions: the seeded corpus of each workload and its op.

A corpus is a list of `generate` argument lists; each becomes one instance
JSON file, and one op pushes one instance through the workload's commands.
Sizes are stratified (evenly spaced over the workload's range, then shuffled
by the seed) so that two seeds differ in instance contents, not in size mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One workload; why it exists is in BENCHMARK.json and NOTES.md."""

    name: str
    commands: tuple[str, ...]
    corpus: Callable[[int], list[list[str]]]  # seed -> `generate` argument lists


def _random_instance(rng: random.Random, n: int, k: int, machines: str, speeds: str, sizes: str) -> list[str]:
    return [
        "--family", "random", "--n", str(n), "--k", str(k), "--machine-range", machines,
        "--speed-range", speeds, "--size-range", sizes, "--seed", str(rng.getrandbits(32)),
    ]


def _stratified(lo: int, hi: int, count: int) -> list[int]:
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def _sim_corpus(seed: int, n_lo: int, n_hi: int, machines: str, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    ns = _stratified(n_lo, n_hi, count)
    rng.shuffle(ns)
    return [_random_instance(rng, n, 3, machines, "1/2:3:4", "1:100:4") for n in ns]


def sim_narrow_corpus(seed: int) -> list[list[str]]:
    return _sim_corpus(seed, 80, 160, "2:4", 40)


def sim_wide_corpus(seed: int) -> list[list[str]]:
    return _sim_corpus(seed, 30, 90, "48:64", 30)


def opt_search_corpus(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    shapes = [(5, 2)] * 1068 + [(4, 3)] * 532
    rng.shuffle(shapes)
    return [_random_instance(rng, n, k, "1:3", "1/2:3:2", "1:6:3") for n, k in shapes]


def spne_game_corpus(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    ns = [4] * 35 + [5] * 16
    rng.shuffle(ns)
    items = [_random_instance(rng, n, 2, "2:2", "1/2:3:2", "1:6:3") for n in ns]
    items.insert(rng.randrange(len(items) + 1), ["--family", "appendix"])
    return items


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-narrow",
            ("simulate", "verify-bounds"),
            sim_narrow_corpus,
        ),
        Workload(
            "sim-wide",
            ("simulate", "verify-bounds"),
            sim_wide_corpus,
        ),
        Workload(
            "opt-search",
            ("poa",),
            opt_search_corpus,
        ),
        Workload(
            "spne-game",
            ("spne",),
            spne_game_corpus,
        ),
    )
}
