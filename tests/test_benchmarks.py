import itertools

import numpy as np
import pytest

from flmlab.benchmarks import (
    jump_fitness,
    leadingones,
    make_benchmark,
    make_jump,
    make_leadingones,
    make_onemax,
    onemax,
)


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def all_bitstrings(n: int):
    for tup in itertools.product((0, 1), repeat=n):
        yield np.array(tup, dtype=np.uint8)


def test_onemax_values():
    assert onemax(bits("0000")) == 0
    assert onemax(bits("1111")) == 4
    assert onemax(bits("1010")) == 2


def test_leadingones_values():
    assert leadingones(bits("110110")) == 2
    assert leadingones(bits("0111")) == 0
    assert leadingones(bits("1111")) == 4


def test_jump_fitness_values():
    assert jump_fitness(bits("1111"), 2) == 6
    assert jump_fitness(bits("1110"), 2) == 1
    assert jump_fitness(bits("0000"), 2) == 2


def test_jump_fitness_rejects_bad_k():
    with pytest.raises(ValueError):
        jump_fitness(bits("0101"), 0)
    with pytest.raises(ValueError):
        jump_fitness(bits("0101"), 5)


def test_make_benchmark_level_examples():
    assert make_benchmark("onemax", 4).level(bits("1010")) == 2
    jump_level = make_benchmark("jump", 4, 2).level
    assert jump_level(bits("1110")) == 1  # gap class of fitness 1
    assert jump_level(bits("1100")) == 2  # the non-gap region
    assert jump_level(bits("1111")) == 3  # optimum on top


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_benchmark("trap", 8)


@pytest.mark.parametrize(
    "kind,n,k",
    [
        ("onemax", 12, None),
        ("leadingones", 12, None),
        ("jump", 12, 2),
        ("jump", 12, 5),
        ("longpath", 12, 3),
        ("longpath", 12, 4),
        ("longpath", 6, 2),
    ],
)
def test_level_partition_fitness_compatible_exhaustive(kind, n, k):
    # over all 2^n points: the best fitness of a lower level must stay below
    # the worst fitness of any higher level (off-path points excluded)
    bm = make_benchmark(kind, n, k)
    fitness = np.array([bm.fitness(x) for x in all_bitstrings(n)])
    level = np.array([bm.level(x) for x in all_bitstrings(n)])
    keep = fitness >= 0
    fitness, level = fitness[keep], level[keep]
    present = np.unique(level)
    max_by_level = {lvl: fitness[level == lvl].max() for lvl in present}
    min_by_level = {lvl: fitness[level == lvl].min() for lvl in present}
    for low, high in zip(present, present[1:]):
        assert max_by_level[low] < min_by_level[high]


@pytest.mark.parametrize("n", [6, 9, 12])
def test_only_optimum_on_top_level(n):
    for bm in (make_onemax(n), make_leadingones(n), make_jump(n, 3)):
        for x in all_bitstrings(n):
            assert bm.is_optimum(x) == (bm.level(x) == bm.top_level)


@pytest.mark.parametrize("n", list(range(2, 15)))
def test_jump_unique_maximum_at_all_ones(n):
    for k in (1, 2, min(3, n)):
        best = None
        values = {}
        for x in all_bitstrings(n):
            values[x.tobytes()] = jump_fitness(x, k)
        top = max(values.values())
        winners = [key for key, val in values.items() if val == top]
        assert winners == [np.ones(n, dtype=np.uint8).tobytes()]


def test_sample_level_uniform_members(rng):
    bm = make_jump(8, 3)
    for level in range(1, bm.top_level + 1):
        for _ in range(20):
            x = bm.sample_level(level, rng)
            assert bm.level(x) == level
    lo = make_leadingones(7)
    for level in range(lo.top_level + 1):
        for _ in range(20):
            assert lo.level(lo.sample_level(level, rng)) == level
