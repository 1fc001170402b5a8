import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from flmlab import ea
from flmlab.benchmarks import make_benchmark, make_leadingones, make_onemax, pack_words, word_count
from flmlab.chains import onemax_level_matrix
from flmlab.ea import (
    BUFFER_BYTES,
    _gap_chunk,
    block_lanes,
    flip_masks,
    refill_steps,
    run_block,
    run_ea,
    uniform_random_words,
)
from flmlab.formulas import leadingones_exact

from conftest import chi2_pvalue, exact_binom_pmf, pack
from test_benchmarks import _int_reference


def unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Packed strings (the last axis holds the words) as uint8 bit rows of
    length n, with the bits from n up checked to be clear."""
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
    assert not bits[..., n:].any(), "a bit at or above n is set"
    return bits[..., :n].reshape(-1, n)


def test_uniform_bitstring_rejects_empty():
    with pytest.raises(ValueError):
        uniform_random_words(1, 0, np.random.default_rng(0))


def test_uniform_bitstring_single_bit_frequency():
    rng = np.random.default_rng(11)
    draws = 10**5
    ones = int(unpack(uniform_random_words(draws, 1, rng), 1).sum())
    sigma = math.sqrt(draws * 0.25)
    assert abs(ones - draws / 2) < 3 * sigma


def test_uniform_bitstring_deterministic_for_fixed_seed():
    first = uniform_random_words(3, 70, np.random.default_rng(99))
    second = uniform_random_words(3, 70, np.random.default_rng(99))
    assert np.array_equal(first, second)


def test_uniform_bitstring_ones_count_binomial():
    rng = np.random.default_rng(12)
    counts = np.bincount(unpack(uniform_random_words(10**5, 10, rng), 10).sum(axis=1), minlength=11)
    assert chi2_pvalue(counts, exact_binom_pmf(10, 0.5)) > 1e-3


@pytest.mark.parametrize(
    "n,p,seed", [(1, 0.5, 13), (8, 1 / 8, 14), (30, 0.2, 15), (4, 0.9, 16), (65, 1 / 65, 17), (130, 0.05, 18)]
)
def test_flip_masks_bit_frequency_and_count_law(n, p, seed):
    # 20 000 offspring: each bit flips w.p. p (a chi-square over the n bits'
    # counts) and the flip count per offspring is Binomial(n, p)
    flips = unpack(flip_masks(100, 200, n, p, np.random.default_rng(seed)), n)
    draws = len(flips)
    per_bit = flips.sum(axis=0)
    statistic = np.sum((per_bit - draws * p) ** 2) / (draws * p * (1 - p))
    assert stats.chi2.sf(statistic, df=n) > 1e-3
    counts = np.bincount(flips.sum(axis=1), minlength=n + 1)
    assert chi2_pvalue(counts, exact_binom_pmf(n, p)) > 1e-3


@pytest.mark.parametrize("n", [63, 64, 65, 130])
@pytest.mark.parametrize("p", [0.5, 0.9])
def test_flip_masks_set_no_bit_at_or_above_n(n, p):
    masks = flip_masks(50, 7, n, p, np.random.default_rng(n))
    assert masks.shape == (50, 7, word_count(n))
    assert unpack(masks, n).any(axis=0).all()  # and every bit below n flips at some point


# SHA-256 of flip_masks(100, 20, n, p) from seed 2021 (2000 offspring, as
# bytes), followed by the generator's next integers(0, 2**63) draw
FLIP_MASK_DIGESTS = {
    (100, 1 / 100): "c58178e6e6b4d42939559a12ba22f0781eb4f45d85483ed97545761d24b07e04",
    (10, 0.3): "c707513b6631a0836a5dbb9c8eea692c0fb5d5f1b9bc803177ad05b45c438a28",
    (30, 0.5): "37dbae9853357deac860a6f1d05b191003a2282c3d8ddb32a4e215f2e209c68f",
}


@pytest.mark.parametrize("n,p", list(FLIP_MASK_DIGESTS))
def test_flip_masks_stream_pinned(n, p):
    rng = np.random.default_rng(2021)
    digest = hashlib.sha256(flip_masks(100, 20, n, p, rng).astype("<u8").tobytes())
    digest.update(str(int(rng.integers(0, 2**63))).encode())
    assert digest.hexdigest() == FLIP_MASK_DIGESTS[(n, p)]


def test_engine_buffers_fit_the_budget_at_a_million_bits():
    # the lanes, the masks of one refill and the five arrays of one chunk of
    # gap draws each fit BUFFER_BYTES, although one step of one lane expects
    # n p = 500 000 flips
    n, p = 10**6, 0.5
    lanes = block_lanes(n)
    steps = refill_steps(n, p, lanes)
    assert (lanes, steps) == (1, 1)
    assert 8 * word_count(n) * lanes <= BUFFER_BYTES
    assert 8 * word_count(n) * lanes * steps <= BUFFER_BYTES
    assert 5 * 8 * _gap_chunk(steps * lanes * n * p) <= BUFFER_BYTES
    for n, p in [(50, 1 / 50), (100, 0.5), (1000, 1e-9), (12, 0.9)]:
        lanes = block_lanes(n)
        assert 8 * word_count(n) * lanes * refill_steps(n, p, lanes) <= BUFFER_BYTES


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
    runtimes = run_block(bm, 0.5, rng, np.zeros((runs, 1), dtype=np.uint64)).runtimes
    se = runtimes.std(ddof=1) / math.sqrt(runs)
    assert abs(runtimes.mean() - 2.0) < 3 * se


def test_run_ea_leadingones_mean_matches_closed_form():
    # oracle computed first: exact expected runtime for n=8, p=1/8
    expected = leadingones_exact(8, 1 / 8)
    bm = make_leadingones(8)
    rng = np.random.default_rng(22)
    runs = 10**5
    runtimes = run_block(bm, 1 / 8, rng, uniform_random_words(runs, 8, rng)).runtimes
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


def test_fitness_nondecreasing_over_iterations(monkeypatch):
    # a one-lane run evaluates its start and then one offspring per iteration;
    # recording those and the masks it drew gives the parent of every
    # offspring (the offspring XOR its mask), whose fitness never falls
    bm = make_leadingones(10)
    offspring, masks = [], []
    inner_fitness, inner_masks = bm.fitness, ea.flip_masks

    def recording_fitness(x):
        offspring.append(x.copy())
        return inner_fitness(x)

    def recording_masks(*args):
        masks.append(inner_masks(*args)[:, 0])
        return masks[-1][:, None]

    bm.fitness = recording_fitness
    monkeypatch.setattr(ea, "flip_masks", recording_masks)
    for seed in range(10):
        offspring.clear()
        masks.clear()
        result = run_ea(bm, 0.1, np.random.default_rng(seed))
        steps = np.concatenate(offspring[1:])
        assert len(steps) == result.runtime
        parents = np.concatenate([offspring[0], steps ^ np.concatenate(masks)[: len(steps)]])
        fitness = inner_fitness(parents)
        assert np.array_equal(parents[0], parents[1]) and np.all(np.diff(fitness) >= 0)
        # each parent is its predecessor's offspring iff that is not worse
        accepted = inner_fitness(steps[:-1]) >= fitness[1:-1]
        assert np.array_equal(parents[2:], np.where(accepted[:, None], steps[:-1], parents[1:-1]))
        assert inner_fitness(steps[-1:])[0] == 10


def test_level_that_falls_as_fitness_rises_is_rejected():
    bm = make_onemax(6)
    ones = bm.level
    bm.level = lambda x: np.where(ones(x) == 6, 6, 5 - ones(x))
    with pytest.raises(RuntimeError, match="not fitness-compatible"):
        run_ea(bm, 1 / 6, np.random.default_rng(0), initial=np.zeros(6, dtype=np.uint8))


def test_run_ea_identical_for_same_seed():
    bm = make_leadingones(9)
    first = run_ea(bm, 1 / 9, np.random.default_rng(77))
    second = run_ea(bm, 1 / 9, np.random.default_rng(77))
    assert first == second


def test_sojourn_lengths_geometric_against_chain_rates():
    # exact leaving probabilities from the level chain are the oracle
    n, p = 10, 1 / 10
    # the sojourns at a level are geometric with the chain's leave rate q, so
    # their mean over the runs that visit it has SE sqrt((1 - q) / q^2 / visits)
    chain = onemax_level_matrix(n, p)
    rng = np.random.default_rng(10_000)
    block = run_block(make_onemax(n), p, rng, uniform_random_words(4000, n, rng))
    assert block.hits.all()
    for level in (5, 7):
        q = chain.leave_probs[level]
        visits = block.visits[level]
        assert block.leaves[level] == visits  # every run left it
        se = math.sqrt((1.0 - q) / q**2 / visits)
        assert abs(block.iterations[level] / visits - 1.0 / q) < 3 * se


def test_iteration_cap_truncates_runs():
    # the cap changes no random draw: a capped block is the uncapped block cut
    # at the cap, and a lane that hits the optimum at the cap itself counts
    bm = make_benchmark("jump", 8, 2)
    starts = uniform_random_words(500, 8, np.random.default_rng(8))
    free = run_block(bm, 1 / 8, np.random.default_rng(9), starts)
    cap = int(np.median(free.runtimes))
    capped = run_block(bm, 1 / 8, np.random.default_rng(9), starts, max_iterations=cap)
    assert np.array_equal(capped.runtimes, np.minimum(free.runtimes, cap))
    assert np.array_equal(capped.hits, free.runtimes <= cap)
    assert np.any(free.runtimes == cap)


def test_block_counts_account_for_every_iteration():
    # hit lanes, lanes stopped by the cap and lanes starting at the optimum
    bm = make_leadingones(70)
    rng = np.random.default_rng(5)
    starts = uniform_random_words(300, 70, rng)
    starts[:3] = pack_words(np.ones(70, dtype=np.uint8))
    starts[3:100] = pack_words(bm.sample_level(65, rng))
    block = run_block(bm, 1 / 70, rng, starts, max_iterations=1500)
    assert 0 < block.hits.sum() < 300 and block.runtimes[:3].tolist() == [0, 0, 0]
    assert block.iterations.sum() == block.runtimes.sum()
    assert block.visits[70] == block.hits.sum() and block.leaves[70] == 0
    # each run leaves every level it visits except its last one
    assert block.leaves.sum() == block.visits.sum() - 300
    assert np.all(block.runtimes[~block.hits] == 1500)


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
# recorded from the lockstep block engine
RUN_RESULTS_DIGEST = "00ce93ac349cfcdef48e607fdeb3c507d25883916494f42766b493a05af15b22"


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


def _word_ints(words: np.ndarray) -> list[int]:
    """Packed strings (the last axis holds the words) as Python ints, bit i
    of an int being position i."""
    ints = [0] * len(words)
    for j in range(words.shape[-1]):
        ints = [v | (w << (64 * j)) for v, w in zip(ints, words[:, j].tolist())]
    return ints


def _replay_lanes(bm, kind, k, starts, draws, max_iterations):
    """``run_block``'s result rebuilt in plain Python: each lane replayed on
    its own from the masks the block drew, with the integer callables.

    Draw d serves the lanes unfinished when it was made, in block order, and
    starts where the draws before it ended.  Also returns counts of the
    events the replay passed: rises that kept the level, the same on the
    plateau below the long path (fitness -1 to 0), steps in which at least two
    lanes finished, and whether the cap fell inside a draw.
    """
    fitness, level, is_optimum = _int_reference(kind, bm.n, k, bm.path)
    top = bm.top_level
    x = [pack(row) for row in starts]
    f, at = [fitness(v) for v in x], [level(v) for v in x]
    since = [0] * len(x)
    runtimes, hits = [max_iterations] * len(x), [False] * len(x)
    visits, leaves, iterations = (np.zeros(top + 1, dtype=np.int64) for _ in range(3))
    events = {"plateau_rises": 0, "off_path_rises": 0, "shared_finishes": 0, "cap_inside_draw": False}
    for lane, lvl in enumerate(at):
        visits[lvl] += 1
        if lvl == top:
            runtimes[lane], hits[lane] = 0, True
    t0 = 0
    finish_steps = []
    for masks in draws:
        live = [lane for lane in range(len(x)) if not hits[lane]]
        assert live and t0 < max_iterations and masks.shape[1] == len(live)
        steps = min(len(masks), max_iterations - t0)
        events["cap_inside_draw"] |= steps < len(masks) and t0 + steps == max_iterations
        for pos, lane in enumerate(live):
            for step, mask in enumerate(_word_ints(masks[:steps, pos])):
                t = t0 + step + 1
                y = x[lane] ^ mask
                fy = fitness(y)
                if fy < f[lane]:
                    continue
                x[lane] = y
                if fy == f[lane]:
                    continue
                new = level(y)
                assert new >= at[lane]
                if new == at[lane]:
                    events["plateau_rises"] += 1
                    events["off_path_rises"] += f[lane] == -1
                else:
                    leaves[at[lane]] += 1
                    iterations[at[lane]] += t - since[lane]
                    visits[new] += 1
                    at[lane], since[lane] = new, t
                f[lane] = fy
                if is_optimum(y):
                    runtimes[lane], hits[lane] = t, True
                    finish_steps.append(t)
                    break
        t0 += steps
    for lane in range(len(x)):
        if not hits[lane]:
            assert t0 == max_iterations  # only the cap leaves a lane unfinished
            iterations[at[lane]] += t0 - since[lane]
    events["shared_finishes"] = int(np.sum(np.bincount(finish_steps) > 1)) if finish_steps else 0
    result = ea.BlockResult(np.array(runtimes), np.array(hits), visits, leaves, iterations)
    return result, events


def _replay_starts(kind, bm, rng):
    """Start strings that reach the cases the replay test covers."""
    n = bm.n
    if kind == "longpath":
        # path points, and off-path strings one bit from path point 0 (the
        # point at distance 1 that is on the path would be point 1)
        points = [bm.sample_level(int(lvl), rng) for lvl in rng.integers(0, bm.top_level, 10)]
        near = []
        for bit in rng.permutation(n):
            row = np.zeros(n, dtype=np.uint8)
            row[bit] = 1
            if bm.fitness(pack_words(row))[0] == -1:
                near.append(row)
        return np.array(points + near[:40] + [bm.sample_level(bm.top_level, rng)])
    if kind == "leadingones":
        # many lanes one bit below the optimum finish in the same step
        top = [bm.sample_level(n - 1, rng) for _ in range(60)]
        return np.array(top + [bm.sample_level(int(lvl), rng) for lvl in rng.integers(n - 12, n, 20)])
    random = rng.integers(0, 2, size=(30, n), dtype=np.uint8)
    return np.vstack((random, np.ones((2, n), dtype=np.uint8)))


REPLAY_CASES = [
    # (kind, n, k, max_iterations): W = 1 and W = 3 for every family
    ("onemax", 40, None, 10**9),
    ("onemax", 150, None, 700),
    ("leadingones", 20, None, 10**9),
    ("leadingones", 150, None, 1700),
    ("jump", 10, 3, 2500),
    ("jump", 130, 2, 1200),
    ("longpath", 12, 3, 600),
    ("longpath", 130, 65, 1300),
]


def test_block_matches_per_lane_reference(monkeypatch):
    draws = []
    inner_masks = ea.flip_masks

    def recording_masks(*args):
        draws.append(inner_masks(*args))
        return draws[-1]

    monkeypatch.setattr(ea, "flip_masks", recording_masks)
    totals = {"jump": 0, "longpath": 0, "shared_finishes": 0, "cap_inside_draw": 0}
    for seed, (kind, n, k, cap) in enumerate(REPLAY_CASES):
        bm = make_benchmark(kind, n, k)
        rng = np.random.default_rng(3000 + seed)
        starts = _replay_starts(kind, bm, rng)
        draws.clear()
        block = run_block(bm, 1 / n, rng, pack_words(starts), max_iterations=cap)
        expected, events = _replay_lanes(bm, kind, k, starts, draws, cap)
        for field in ("runtimes", "hits", "visits", "leaves", "iterations"):
            assert np.array_equal(getattr(block, field), getattr(expected, field)), (kind, n, field)
        assert block.hits.any(), (kind, n)
        if kind == "jump":
            totals["jump"] += events["plateau_rises"]  # rises inside level k
        if kind == "longpath":
            totals["longpath"] += events["off_path_rises"]
        totals["shared_finishes"] += events["shared_finishes"]
        totals["cap_inside_draw"] += events["cap_inside_draw"]
        assert cap == 10**9 or not block.hits.all(), (kind, n)
    assert all(totals.values()), totals
