import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy.special import gammaln

from conftest import chi2_pvalue, pack
from flmlab.benchmarks import (
    build_long_k_path,
    log_factorials,
    make_benchmark,
    make_jump,
    make_leadingones,
    make_onemax,
    pack_words,
)


# SHA-256 of every string sample_level draws and the generator state after
# each draw, over every level of four jump functions and seeds 0-9
JUMP_SAMPLE_STREAM_DIGEST = "11443f80675f3c521d7846e012de38b89c69ef956340c665457f0732eb1e5a67"


def test_jump_sample_level_stream_pinned():
    digest = hashlib.sha256()
    for n, k in [(6, 2), (12, 3), (30, 5), (1100, 3)]:
        bench = make_jump(n, k)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for level in range(1, k + 2):
                digest.update(bench.sample_level(level, rng).tobytes())
                digest.update(json.dumps(rng.bit_generator.state, sort_keys=True).encode())
    assert digest.hexdigest() == JUMP_SAMPLE_STREAM_DIGEST


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


def all_bitstrings(n: int):
    for tup in itertools.product((0, 1), repeat=n):
        yield np.array(tup, dtype=np.uint8)


def all_words(n: int) -> np.ndarray:
    """All 2^n strings, packed, in the order of all_bitstrings."""
    return pack_words(np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8))


def fitness(kind: str, s: str, k=None) -> int:
    return int(make_benchmark(kind, len(s), k).fitness(pack_words(bits(s)))[0])


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


def string_callables(bm):
    """(fitness, level, is_optimum) of packed strings: ``level`` and
    ``is_optimum`` read the strings' fitness values."""
    return bm.fitness, lambda x: bm.level(bm.fitness(x)), lambda x: bm.is_optimum(bm.fitness(x))


def test_make_benchmark_level_examples():
    _, onemax_level, _ = string_callables(make_benchmark("onemax", 4))
    assert onemax_level(pack_words(bits("1010")))[0] == 2
    _, jump_level, _ = string_callables(make_benchmark("jump", 4, 2))
    strings = pack_words(np.array([bits("1110"), bits("1100"), bits("1111")]))
    # gap class of fitness 1, the non-gap region, the optimum on top
    assert jump_level(strings).tolist() == [1, 2, 3]


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
    strings = all_words(n)
    fitness = bm.fitness(strings)
    level = bm.level(fitness)
    keep = fitness >= 0
    fitness, level = fitness[keep], level[keep]
    present = np.unique(level)
    max_by_level = {lvl: fitness[level == lvl].max() for lvl in present}
    min_by_level = {lvl: fitness[level == lvl].min() for lvl in present}
    for low, high in zip(present, present[1:]):
        assert max_by_level[low] < min_by_level[high]


@pytest.mark.parametrize("n", [6, 9, 12])
def test_only_optimum_on_top_level(n):
    strings = all_words(n)
    for bm in (make_onemax(n), make_leadingones(n), make_jump(n, 3)):
        fitness = bm.fitness(strings)
        assert np.array_equal(bm.is_optimum(fitness), bm.level(fitness) == bm.top_level)


@pytest.mark.parametrize("n", list(range(2, 15)))
def test_jump_unique_maximum_at_all_ones(n):
    for k in (1, 2, min(3, n)):
        values = make_benchmark("jump", n, k).fitness(all_words(n))
        assert np.flatnonzero(values == values.max()).tolist() == [2**n - 1]  # the all-ones string


def test_sample_level_uniform_members(rng):
    bm = make_jump(8, 3)
    _, jump_level, _ = string_callables(bm)
    for level in range(1, bm.top_level + 1):
        for _ in range(20):
            x = bm.sample_level(level, rng)
            assert jump_level(pack_words(x))[0] == level
    lo = make_leadingones(7)
    _, lo_level, _ = string_callables(lo)
    for level in range(lo.top_level + 1):
        for _ in range(20):
            assert lo_level(pack_words(lo.sample_level(level, rng)))[0] == level


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
    # the int packing of the reference callables below, and the one word
    # pack_words gives a string of up to 64 bits
    assert pack(bits("")) == 0
    assert pack(bits("1")) == 1
    assert pack(bits("0100")) == 0b10
    assert pack(bits("110100001")) == 0b100001011
    for x in all_bitstrings(9):
        assert pack(x) == sum(int(b) << i for i, b in enumerate(x)) == int(pack_words(x)[0, 0])


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


def _int_reference(kind, n, k, path=None):
    """(fitness, level, is_optimum) of a string packed into a Python int (see
    ``pack``): the integer callables the benchmarks had before they took
    packed word arrays."""
    optimum = (1 << n) - 1

    def leading_ones(x: int) -> int:
        return (~x & (x + 1)).bit_length() - 1  # ~x & (x + 1) isolates the lowest zero bit

    def jump(x: int) -> int:
        ones = x.bit_count()
        return ones + k if ones <= n - k or ones == n else n - ones

    def jump_level(x: int) -> int:
        ones = x.bit_count()
        return k + 1 if ones == n else n - ones if ones > n - k else k

    if kind == "longpath":
        index_of = {pack(point): i for i, point in enumerate(path.points)}
        optimum = pack(path.points[-1])
        return (lambda x: index_of.get(x, -1)), (lambda x: index_of.get(x, 0)), lambda x: x == optimum
    if kind == "jump":
        return jump, jump_level, lambda x: x == optimum
    if kind == "leadingones":
        return leading_ones, leading_ones, lambda x: x == optimum
    return int.bit_count, int.bit_count, lambda x: x == optimum


def assert_matches_int_reference(kind, n, k, strings: np.ndarray, bm=None) -> None:
    """The array callables on the rows of a uint8 array equal the integer
    callables on each row packed into an int."""
    bm = make_benchmark(kind, n, k) if bm is None else bm
    packed = pack_words(strings)
    codes = [pack(x) for x in strings]
    for array_fn, int_fn in zip(string_callables(bm), _int_reference(kind, n, k, bm.path)):
        assert array_fn(packed).tolist() == [int_fn(code) for code in codes]


@pytest.mark.parametrize("kind,n,k", EXHAUSTIVE_CASES)
def test_level_and_optimum_are_monotone_functions_of_fitness(kind, n, k):
    # the property the engine books levels by: over the fitness values of all
    # 2^n strings, a higher value is never on a lower level, and only the
    # largest value is optimal
    bm = make_benchmark(kind, n, k)
    values = np.unique(bm.fitness(all_words(n)))
    assert np.all(np.diff(bm.level(values)) >= 0)
    assert np.flatnonzero(bm.is_optimum(values)).tolist() == [len(values) - 1]


@pytest.mark.parametrize("kind,n,k", EXHAUSTIVE_CASES)
def test_array_callables_match_int_callables_exhaustive(kind, n, k):
    assert_matches_int_reference(kind, n, k, np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8))


def edge_strings(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random strings, all-ones, all-zeros, and strings whose first words are
    full and whose leading ones end just before, at and after a word edge."""
    rows = [np.ones(n), np.zeros(n)]
    for ones in sorted({0, 1, 63, 64, 65, 127, 128, 129, n - 1, n} & set(range(n + 1))):
        x = rng.integers(0, 2, size=n)
        x[:ones] = 1
        if ones < n:
            x[ones] = 0
        rows.append(x)
    rows.extend(rng.integers(0, 2, size=(40, n)))
    return np.array(rows, dtype=np.uint8)


# a jump size k <= 0 stands for n + k (at least 1): the jumps at k = n - 1 and k = n
@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 100, 128, 130, 200])
@pytest.mark.parametrize("kind,k", [("onemax", None), ("leadingones", None), ("jump", 1), ("jump", 3), ("jump", -1), ("jump", 0)])
def test_array_callables_match_int_callables_across_word_edges(kind, n, k, rng):
    if k is not None:
        k = min(k, n) if k > 0 else max(n + k, 1)
    assert_matches_int_reference(kind, n, k, edge_strings(n, rng))


def path_strings(bm, rng) -> np.ndarray:
    """The first and last points of a long k-path, 60 random points, one
    Hamming neighbour of each (mostly off the path), and 20 random strings."""
    n = bm.n
    path = np.array(bm.path.points)
    picks = path[rng.choice(len(path), size=60, replace=False)]
    neighbours = picks.copy()
    neighbours[np.arange(60), rng.integers(0, n, size=60)] ^= 1
    return np.concatenate([path[:3], path[-3:], picks, neighbours, rng.integers(0, 2, size=(20, n), dtype=np.uint8)])


def test_long_path_array_callables_match_int_callables_on_two_words(rng):
    # n = 68: every point spans two words
    n, k = 68, 4
    bm = make_benchmark("longpath", n, k)
    strings = path_strings(bm, rng)
    assert_matches_int_reference("longpath", n, k, strings, bm)
    on_path = bm.fitness(pack_words(strings)) >= 0
    assert 0 < on_path.sum() < len(strings)


def test_long_path_array_callables_match_int_callables_on_a_full_word(rng):
    # n = 64: one word per point, searched as an unsigned integer; points with
    # bit 63 set sort above all others as integers, below none as bytes
    n, k = 64, 8
    bm = make_benchmark("longpath", n, k)
    strings = path_strings(bm, rng)
    assert_matches_int_reference("longpath", n, k, strings, bm)
    on_path = bm.fitness(pack_words(strings)) >= 0
    assert 0 < on_path.sum() < len(strings)
    assert 0 < strings[on_path, 63].sum() < on_path.sum()  # top bit set and clear on the path


@pytest.mark.parametrize("kind,n,k", [
    ("onemax", 10, None), ("onemax", 70, None), ("leadingones", 10, None), ("leadingones", 70, None),
    ("jump", 10, 3), ("jump", 64, 64), ("jump", 70, 1), ("longpath", 8, 2), ("longpath", 64, 8), ("longpath", 68, 4),
])
def test_callables_return_int64_values_and_bool_optimum(kind, n, k, rng):
    bm = make_benchmark(kind, n, k)
    x = pack_words(rng.integers(0, 2, size=(5, n), dtype=np.uint8))
    fitness = bm.fitness(x)
    level = bm.level(fitness)
    for values, dtype in ((fitness, np.int64), (level, np.int64), (bm.is_optimum(fitness), np.bool_)):
        assert values.dtype == dtype and values.shape == (5,)
    assert not np.shares_memory(level, fitness)  # the engine updates the levels it reads in place


@pytest.mark.parametrize("n", [5, 64, 65, 130])
def test_jump_tables_are_read_only(n, rng):
    bm = make_jump(n, 3)
    x = pack_words(rng.integers(0, 2, size=(8, n), dtype=np.uint8))
    # fitness: a table over the ones-counts 0..n; level: a table's take over
    # the fitness values 0..n+3
    tables = [cell.cell_contents for cell in bm.fitness.__closure__ if isinstance(cell.cell_contents, np.ndarray)]
    assert len(tables) == 1 and tables[0].shape == (n + 1,)
    assert bm.level.__self__.shape == (n + 4,)
    for table in (tables[0], bm.level.__self__):
        assert not table.flags.writeable
    for fn, arg in ((bm.fitness, x), (bm.level, bm.fitness(x))):
        first = fn(arg)
        first[:] = -7  # a result is the caller's own copy
        assert (fn(arg) >= 0).all()


def test_pack_words_layout():
    # position i at bit i % 64 of word i // 64, bits from n up clear
    x = np.zeros((2, 130), dtype=np.uint8)
    x[0, [0, 63, 64, 129]] = 1
    x[1] = 1
    words = pack_words(x)
    assert words.dtype == np.uint64 and words.shape == (2, 3)
    assert words[0].tolist() == [1 | 1 << 63, 1, 2]
    assert words[1].tolist() == [2**64 - 1, 2**64 - 1, 3]
    assert np.array_equal(pack_words(x[0]), words[:1])


@pytest.mark.parametrize("kind,n,k", EXHAUSTIVE_CASES)
def test_packed_callables_match_array_functions_exhaustive(kind, n, k):
    # every one of the 2^n strings, off-path points of a long k-path included
    bm = make_benchmark(kind, n, k)
    ref_fitness, ref_level, ref_optimum = _array_reference(kind, n, k)
    strings = all_words(n)
    fitness = bm.fitness(strings)
    level, optimum = bm.level(fitness), bm.is_optimum(fitness)
    off_path = 0
    for i, x in enumerate(all_bitstrings(n)):
        assert fitness[i] == ref_fitness(x)
        assert level[i] == ref_level(x)
        assert optimum[i] == ref_optimum(x)
        if kind == "longpath":
            off_path += ref_fitness(x) < 0
    if kind == "longpath":
        assert off_path == 2**n - len(bm.path) > 0
