import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln

from conftest import chi2_pvalue
from flmlab.benchmarks import (
    build_long_k_path,
    log_factorials,
    make_benchmark,
    make_jump,
    make_leadingones,
    make_onemax,
    pack,
)


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def all_bitstrings(n: int):
    for tup in itertools.product((0, 1), repeat=n):
        yield np.array(tup, dtype=np.uint8)


def fitness(kind: str, s: str, k=None) -> int:
    return make_benchmark(kind, len(s), k).fitness(pack(bits(s)))


def test_onemax_values():
    assert fitness("onemax", "0000") == 0
    assert fitness("onemax", "1111") == 4
    assert fitness("onemax", "1010") == 2


def test_leadingones_values():
    assert fitness("leadingones", "110110") == 2
    assert fitness("leadingones", "0111") == 0
    assert fitness("leadingones", "1111") == 4


def test_jump_fitness_values():
    assert fitness("jump", "1111", 2) == 6
    assert fitness("jump", "1110", 2) == 1
    assert fitness("jump", "0000", 2) == 2


def test_jump_fitness_rejects_bad_k():
    with pytest.raises(ValueError):
        make_benchmark("jump", 4, 0)
    with pytest.raises(ValueError):
        make_benchmark("jump", 4, 5)


def test_make_benchmark_level_examples():
    assert make_benchmark("onemax", 4).level(pack(bits("1010"))) == 2
    jump_level = make_benchmark("jump", 4, 2).level
    assert jump_level(pack(bits("1110"))) == 1  # gap class of fitness 1
    assert jump_level(pack(bits("1100"))) == 2  # the non-gap region
    assert jump_level(pack(bits("1111"))) == 3  # optimum on top


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown benchmark kind: 'trap'"):
        make_benchmark("trap", 8)


@pytest.mark.parametrize("kind", ["jump", "longpath", "Jump"])
def test_make_benchmark_requires_k(kind):
    with pytest.raises(ValueError, match=f"^{kind.lower()} benchmark requires k$"):
        make_benchmark(kind, 8)


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
    fitness = np.array([bm.fitness(pack(x)) for x in all_bitstrings(n)])
    level = np.array([bm.level(pack(x)) for x in all_bitstrings(n)])
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
            assert bm.is_optimum(pack(x)) == (bm.level(pack(x)) == bm.top_level)


@pytest.mark.parametrize("n", list(range(2, 15)))
def test_jump_unique_maximum_at_all_ones(n):
    for k in (1, 2, min(3, n)):
        bm = make_benchmark("jump", n, k)
        values = {}
        for x in all_bitstrings(n):
            values[x.tobytes()] = bm.fitness(pack(x))
        top = max(values.values())
        winners = [key for key, val in values.items() if val == top]
        assert winners == [np.ones(n, dtype=np.uint8).tobytes()]


def test_sample_level_uniform_members(rng):
    bm = make_jump(8, 3)
    for level in range(1, bm.top_level + 1):
        for _ in range(20):
            x = bm.sample_level(level, rng)
            assert bm.level(pack(x)) == level
    lo = make_leadingones(7)
    for level in range(lo.top_level + 1):
        for _ in range(20):
            assert lo.level(pack(lo.sample_level(level, rng))) == level


def test_jump_level_k_sampler_weights_ones_counts_binomially(rng):
    n, k = 10, 3
    bm = make_jump(n, k)
    counts = np.bincount([int(bm.sample_level(k, rng).sum()) for _ in range(4000)], minlength=n - k + 1)
    weights = np.array([math.comb(n, c) for c in range(n - k + 1)], dtype=float)
    assert chi2_pvalue(counts, weights / weights.sum()) > 1e-3


def test_log_factorials_reproduce_scipy_gammaln():
    m = 200_000
    table = log_factorials(m)
    ref = gammaln(np.arange(m + 1) + 1.0)
    np.testing.assert_array_equal(table[:5001], ref[:5001])
    # beyond that, numpy's vectorised log, which the table uses, differs from
    # libm's log, which gammaln uses, by one ulp at a few arguments
    ulps = np.abs(table.view(np.int64) - ref.view(np.int64))  # positive doubles order as integers
    assert ulps.max() <= 4


def test_pack_puts_position_i_at_bit_i():
    assert pack(bits("")) == 0
    assert pack(bits("1")) == 1
    assert pack(bits("0100")) == 0b10
    assert pack(bits("110100001")) == 0b100001011
    for x in all_bitstrings(9):
        assert pack(x) == sum(int(b) << i for i, b in enumerate(x))


def _array_reference(kind, n, k):
    """(fitness, level, is_optimum) of a bit-string array, computed on the
    array itself: numpy sums and scans, path lookup by array comparison."""
    if kind == "longpath":
        path = build_long_k_path(n, k)
        points = np.array(path.points)

        def index(x):
            hits = np.flatnonzero((points == x).all(axis=1))
            return int(hits[0]) if len(hits) else -1

        return index, lambda x: max(index(x), 0), lambda x: index(x) == len(points) - 1
    if kind == "jump":

        def jump(x):
            ones = int(np.sum(x))
            return n - ones if n - k < ones < n else ones + k

        def level(x):
            ones = int(np.sum(x))
            return k + 1 if ones == n else n - ones if ones > n - k else k

        return jump, level, lambda x: bool(np.all(x))
    if kind == "leadingones":

        def prefix(x):
            zeros = np.flatnonzero(x == 0)
            return int(zeros[0]) if len(zeros) else n

        return prefix, prefix, lambda x: bool(np.all(x))
    return (lambda x: int(np.sum(x))), (lambda x: int(np.sum(x))), lambda x: bool(np.all(x))


EXHAUSTIVE_CASES = (
    [("onemax", n, None) for n in range(1, 11)]
    + [("leadingones", n, None) for n in range(1, 11)]
    + [("jump", n, k) for n in range(1, 11) for k in sorted({1, min(3, n), n})]
    + [("longpath", n, k) for n, k in [(2, 2), (4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2), (10, 5)]]
)


@pytest.mark.parametrize("kind,n,k", EXHAUSTIVE_CASES)
def test_packed_callables_match_array_functions_exhaustive(kind, n, k):
    # every one of the 2^n strings, off-path points of a long k-path included
    bm = make_benchmark(kind, n, k)
    ref_fitness, ref_level, ref_optimum = _array_reference(kind, n, k)
    off_path = 0
    for x in all_bitstrings(n):
        code = pack(x)
        assert bm.fitness(code) == ref_fitness(x)
        assert bm.level(code) == ref_level(x)
        assert bm.is_optimum(code) == ref_optimum(x)
        if kind == "longpath":
            assert bm.path.index_of.get(code, -1) == ref_fitness(x)
            off_path += ref_fitness(x) < 0
    if kind == "longpath":
        assert off_path == 2**n - len(bm.path) > 0
