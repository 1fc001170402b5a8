import hashlib
import math

import numpy as np
import pytest

from flmlab.benchmarks import make_benchmark, make_leadingones, make_onemax
from flmlab.chains import onemax_level_matrix
from flmlab.ea import _flip_sets, run_ea, uniform_random_bitstring
from flmlab.formulas import leadingones_exact

from conftest import chi2_pvalue, exact_binom_pmf


def test_uniform_bitstring_rejects_empty():
    with pytest.raises(ValueError):
        uniform_random_bitstring(0, np.random.default_rng(0))


def test_uniform_bitstring_single_bit_frequency():
    rng = np.random.default_rng(11)
    draws = 10**5
    ones = sum(int(uniform_random_bitstring(1, rng)[0]) for _ in range(draws))
    sigma = math.sqrt(draws * 0.25)
    assert abs(ones - draws / 2) < 3 * sigma


def test_uniform_bitstring_deterministic_for_fixed_seed():
    first = uniform_random_bitstring(4, np.random.default_rng(99))
    second = uniform_random_bitstring(4, np.random.default_rng(99))
    assert np.array_equal(first, second)


def test_uniform_bitstring_ones_count_binomial():
    rng = np.random.default_rng(12)
    counts = np.zeros(11, dtype=np.int64)
    for _ in range(10**5):
        counts[int(uniform_random_bitstring(10, rng).sum())] += 1
    assert chi2_pvalue(counts, exact_binom_pmf(10, 0.5)) > 1e-3


def draw_flip_masks(n, p, seed, count):
    masks = _flip_sets(n, p, np.random.default_rng(seed))
    return [next(masks) for _ in range(count)]


def test_flip_count_binomial():
    counts = np.zeros(9, dtype=np.int64)
    for mask in draw_flip_masks(8, 1 / 8, 13, 10**5):
        counts[mask.bit_count()] += 1
    assert chi2_pvalue(counts, exact_binom_pmf(8, 1 / 8)) > 1e-3


@pytest.mark.parametrize("n,p", [(1, 0.5), (8, 1 / 8), (30, 0.2), (4, 0.9), (50, 0.5)])
def test_flip_positions_distinct_and_in_range(n, p):
    # a mask sets each flipped position once; a rejected duplicate would
    # show as a deficit of set bits in test_flip_count_binomial
    for mask in draw_flip_masks(n, p, 14, 5000):
        assert type(mask) is int and 0 <= mask < 1 << n


def test_flip_sets_exercise_every_branch():
    # n = 4, p = 0.9: 1 and 2 flips by rejection from the index stream,
    # 3 and 4 flips (more than n/2) by Generator.choice
    sizes = {mask.bit_count() for mask in draw_flip_masks(4, 0.9, 15, 2000)}
    assert {1, 2, 3, 4} <= sizes
    # n = 30, p = 0.2: up to 8 flips by rejection, more by Generator.choice
    sizes = {mask.bit_count() for mask in draw_flip_masks(30, 0.2, 16, 2000)}
    assert {0, 1, 8, 9} <= sizes


# SHA-256 of the first 2000 flip masks (one decimal "mask\n" line each) of seed
# 2021, followed by the generator's next integers(0, 2**63) draw; recorded from
# the position-list sampler's output converted to masks, so the engine's
# random stream is unchanged
FLIP_STREAM_DIGESTS = {
    (100, 1 / 100): "02f8181e0f3c97819bac430dc6636d4ea5309c125a513d079102214cbc764c49",
    (10, 0.3): "449a343be111ff0267d61869ae77b86b904373edf140e41d4a6a2e89598b86c3",
    (30, 0.5): "59799e8f105f219352d5ed1ae49924cf581422a1cb37f413f7c17651fae3be9c",
}


@pytest.mark.parametrize("n,p", list(FLIP_STREAM_DIGESTS))
def test_flip_stream_pinned(n, p):
    rng = np.random.default_rng(2021)
    masks = _flip_sets(n, p, rng)
    digest = hashlib.sha256()
    for _ in range(2000):
        digest.update(f"{next(masks)}\n".encode())
    digest.update(str(int(rng.integers(0, 2**63))).encode())
    assert digest.hexdigest() == FLIP_STREAM_DIGESTS[(n, p)]


def test_run_ea_rejects_rate_outside_open_interval():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            run_ea(make_onemax(4), bad, np.random.default_rng(0))


def test_run_ea_zero_runtime_when_initial_optimal():
    bm = make_onemax(1)
    result = run_ea(bm, 0.5, np.random.default_rng(0), initial=np.array([1], dtype=np.uint8))
    assert result.runtime == 0
    assert result.hit_optimum
    assert result.level_trace == [(1, 0)]


def test_run_ea_geometric_mean_on_single_bit():
    bm = make_onemax(1)
    rng = np.random.default_rng(21)
    runs = 10**5
    runtimes = np.array([
        run_ea(bm, 0.5, rng, initial=np.array([0], dtype=np.uint8)).runtime for _ in range(runs)
    ])
    se = runtimes.std(ddof=1) / math.sqrt(runs)
    assert abs(runtimes.mean() - 2.0) < 3 * se


def test_run_ea_leadingones_mean_matches_closed_form():
    # oracle computed first: exact expected runtime for n=8, p=1/8
    expected = leadingones_exact(8, 1 / 8)
    bm = make_leadingones(8)
    rng = np.random.default_rng(22)
    runs = 10**5
    runtimes = np.fromiter((run_ea(bm, 1 / 8, rng).runtime for _ in range(runs)), dtype=np.int64)
    se = runtimes.std(ddof=1) / math.sqrt(runs)
    assert abs(runtimes.mean() - expected) < 3 * se


def test_run_ea_leaves_initial_unmodified():
    initial = np.zeros(6, dtype=np.uint8)
    run_ea(make_onemax(6), 0.9, np.random.default_rng(1), initial=initial, max_iterations=50)
    assert np.array_equal(initial, np.zeros(6, dtype=np.uint8))


def test_run_ea_initial_length_mismatch():
    with pytest.raises(ValueError):
        run_ea(make_onemax(4), 0.2, np.random.default_rng(0), initial=np.zeros(5, dtype=np.uint8))


def test_run_ea_timeout_flags_and_partial_trace():
    bm = make_onemax(30)
    result = run_ea(bm, 1 / 30, np.random.default_rng(3), max_iterations=5)
    assert not result.hit_optimum
    assert result.runtime == 5
    assert sum(spent for _, spent in result.level_trace) == 5


def test_level_trace_strictly_increasing_and_sums_to_runtime():
    bm = make_onemax(12)
    for seed in range(25):
        result = run_ea(bm, 1 / 12, np.random.default_rng(seed))
        assert result.hit_optimum
        levels = [lvl for lvl, _ in result.level_trace]
        assert levels == sorted(set(levels))
        assert levels[-1] == 12
        assert sum(spent for _, spent in result.level_trace) == result.runtime


def test_fitness_nondecreasing_over_iterations():
    # observe every parent fitness through a wrapped benchmark: the last
    # value before each call with a new individual is the accepted parent
    bm = make_leadingones(10)
    parents = []
    inner_fitness = bm.fitness

    def recording_is_optimum(x):
        parents.append(inner_fitness(x))  # called exactly on accepted parents
        return inner_fitness(x) == 10

    bm.is_optimum = recording_is_optimum
    for seed in range(10):
        parents.clear()
        run_ea(bm, 0.1, np.random.default_rng(seed))
        assert all(b >= a for a, b in zip(parents, parents[1:]))


def test_run_ea_identical_for_same_seed():
    bm = make_leadingones(9)
    first = run_ea(bm, 1 / 9, np.random.default_rng(77))
    second = run_ea(bm, 1 / 9, np.random.default_rng(77))
    assert first == second


def test_sojourn_lengths_geometric_against_chain_rates():
    # exact leaving probabilities from the level chain are the oracle
    n, p = 10, 1 / 10
    chain = onemax_level_matrix(n, p)
    bm = make_onemax(n)
    sojourns = {5: [], 7: []}
    for seed in range(4000):
        result = run_ea(bm, p, np.random.default_rng(10_000 + seed))
        assert result.hit_optimum
        for level, spent in result.level_trace[:-1]:
            if level in sojourns:
                sojourns[level].append(spent)
    for level, samples in sojourns.items():
        samples = np.array(samples, dtype=float)
        expected = 1.0 / chain.leave_probs[level]
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - expected) < 3 * se


def _pinned_runs():
    """Fixed-seed runs over every family and run_ea option, seeds 0..2 each."""
    longpath = make_benchmark("longpath", 12, 3)
    cases = {
        "leadingones-50": lambda rng: run_ea(make_leadingones(50), 1 / 50, rng),
        "onemax-100": lambda rng: run_ea(make_onemax(100), 1 / 100, rng),
        "jump-12-3": lambda rng: run_ea(make_benchmark("jump", 12, 3), 1 / 12, rng),
        "longpath-12-3": lambda rng: run_ea(longpath, 1 / 12, rng, initial=longpath.sample_level(0, rng)),
        "explicit-initial": lambda rng: run_ea(
            make_leadingones(20), 0.1, rng, initial=np.array([1, 0] * 10, dtype=np.uint8)
        ),
        "max-iterations": lambda rng: run_ea(make_leadingones(50), 1 / 50, rng, max_iterations=300),
    }
    for name, run in cases.items():
        for seed in range(3):
            yield name, seed, run(np.random.default_rng(seed))


# SHA-256 of the (runtime, hit_optimum, level_trace) triples of _pinned_runs,
# recorded from the engine that worked on numpy arrays
RUN_RESULTS_DIGEST = "59944e1c04d32caa33c2f0d1a693252db2a34f53cb59d7db2e6fa857407b04d1"


def test_run_ea_results_pinned():
    digest = hashlib.sha256()
    for name, seed, result in _pinned_runs():
        if name == "max-iterations":
            assert not result.hit_optimum and result.runtime == 300
        else:
            assert result.hit_optimum
        triple = (result.runtime, result.hit_optimum, result.level_trace)
        digest.update(f"{name} {seed} {triple!r}\n".encode())
    assert digest.hexdigest() == RUN_RESULTS_DIGEST
