"""The (1+1) EA engine: a block of independent runs that step in lockstep.

A block holds ``lanes`` runs of one benchmark at one mutation rate.  Their
current strings live in one ``(lanes, W)`` uint64 array (``W = ceil(n/64)``
words per string, packed as by ``benchmarks.pack_words``), and each iteration
mutates, evaluates and selects every lane with a few numpy calls on whole
arrays.  A lane that reaches the optimum rides out its draw of masks and
leaves the block before the next draw; the others go on.  An iteration reads
no level: it records each strict fitness rise as (iteration, fitness before,
fitness after), and once per draw one ``level`` call reads those values and
books each rise that changes the level as one event.  No lane's level or
entry time is kept.  The calls of an iteration cost about the same for one
lane as for hundreds, so the engine is fast per iteration only while many
lanes are live: a block of a few lanes, and ``run_ea`` above all, pays them
for each iteration of one run.

Standard bit mutation for many iterations of every lane is drawn at once:
the flipped positions of the flat ``(steps, lanes, n)`` bit cube form a
Bernoulli(p) process, drawn as cumulative geometric gaps, so every bit of
every offspring flips independently with probability p.  ``BUFFER_BYTES``
bounds every buffer the engine allocates per block, lane strings aside when
one string alone is larger.  ``run_ea`` is the same engine with one lane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .benchmarks import pack_words, word_count

__all__ = ["BlockResult", "RunResult", "block_lanes", "flip_masks", "geometric_gaps", "refill_steps", "run_block",
           "run_ea", "uniform_random_words"]

DEFAULT_MAX_ITERATIONS = 10**9
BUFFER_BYTES = 1 << 18  # the size bound of each engine buffer


def block_lanes(n: int) -> int:
    """Lanes per block: as many as leave room in the buffer for the masks of
    32 iterations, and at least one."""
    return max(1, BUFFER_BYTES // (8 * 32 * word_count(n)))


def refill_steps(n: int, p: float, lanes: int) -> int:
    """Iterations one draw of masks serves: the masks fill at most the buffer,
    and so do the expected ``steps * lanes * n * p`` gap draws (at least one)."""
    masks = BUFFER_BYTES // (8 * word_count(n) * lanes)
    gaps = BUFFER_BYTES / (8 * lanes * n * p)  # inf for a rate that rounds n p to 0
    return max(1, int(min(masks, gaps)))


def _gap_chunk(expected: float) -> int:
    """Gaps drawn at once: enough to pass the expected count with room to
    spare, and few enough that the five arrays of their size alive at once
    in ``flip_masks`` fit in the buffer."""
    return int(min(BUFFER_BYTES // 64, expected + 4.0 * math.sqrt(expected) + 16.0))


def geometric_gaps(p: float, size: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws of ``rng.geometric(p)``, each capped at ``cap``, as int64:
    the same values, and the same generator state afterwards.

    For p < 1/3 numpy draws a geometric by inversion, ``ceil(E / -log1p(-p))``
    with E standard exponential; the same doubles are computed here from one
    ``standard_exponential`` call, at a fraction of the cost per draw.  From
    1/3 on numpy searches instead, so those draws come from ``geometric``.
    """
    if p >= 1.0 / 3.0:
        gaps = rng.geometric(p, size=size)
        return np.minimum(gaps, cap, out=gaps)
    scale = -math.log1p(-p)  # libm's log1p, as numpy's sampler calls it
    gaps = rng.standard_exponential(size)
    if scale > 1e-300:
        gaps /= scale
    else:  # a quotient may overflow to inf, as in numpy's sampler, and the cap takes it
        with np.errstate(over="ignore"):
            gaps /= scale
    np.ceil(gaps, out=gaps)
    np.minimum(gaps, cap, out=gaps)  # below 2^63, so the cast is exact
    return gaps.astype(np.int64)


def flip_masks(steps: int, lanes: int, n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Standard bit mutation masks for ``steps`` iterations of ``lanes`` runs
    on n bits: a ``(steps, lanes, W)`` uint64 array, bit set = bit flipped.

    The flipped positions of the flat ``(steps, lanes, n)`` bit cube are a
    Bernoulli(p) process: positions are cumulative ``Generator.geometric(p)``
    gaps (``geometric_gaps``), drawn in chunks until they pass the cube's end.
    Positions are distinct and every bit flips independently with
    probability p.
    """
    words = word_count(n)
    masks = np.zeros(steps * lanes * words, dtype=np.uint64)
    total = steps * lanes * n
    last = -1  # the last flipped position drawn
    while last < total - 1:
        # a gap past the end leads past the end
        flips = geometric_gaps(p, _gap_chunk((total - 1 - last) * p), total + 1, rng)
        np.cumsum(flips, out=flips)
        flips += last
        last = int(flips[-1])
        string, bit = np.divmod(flips[: np.searchsorted(flips, total)], n)
        string *= words
        string += bit >> 6  # the word of each flip
        bit &= 63
        # positions are distinct, so adding their bits into a word ORs them
        np.add.at(masks, string, np.left_shift(np.uint64(1), bit.view(np.uint64)))
    return masks.reshape(steps, lanes, words)


def uniform_random_words(lanes: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``lanes`` packed n-bit strings with each bit 1 independently w.p. 1/2."""
    if n < 1:
        raise ValueError(f"bit string length must be >= 1, got {n}")
    x = rng.integers(0, 2**64, size=(lanes, word_count(n)), dtype=np.uint64)
    if n % 64:
        x[:, -1] &= np.uint64((1 << (n % 64)) - 1)
    return x


@dataclass
class BlockResult:
    """Outcome of a block of runs.

    ``runtimes`` and ``hits`` hold each run's iteration count and optimum
    flag.  Per level, ``visits`` counts the runs that were at the level,
    ``leaves`` the runs that left it and ``iterations`` the iterations spent
    there.  A run's sojourn at the optimum is 0; a run stopped by the
    iteration cap is at its last level and never left it.
    """

    runtimes: np.ndarray
    hits: np.ndarray
    visits: np.ndarray
    leaves: np.ndarray
    iterations: np.ndarray


def _book_levels(level, when, before, after, visits, leaves, iterations) -> None:
    """Book the fitness rises of one draw of masks.

    Rise i took a lane from fitness ``before[i]`` to ``after[i]`` in iteration
    ``when[i]``; one ``level`` call reads both.  A rise that changes the level
    counts a leave at the old level and a visit at the new one, and adds its
    iteration to the old level's sojourn total and subtracts it from the new
    one's: a level's total is the sum of its leave times less the sum of its
    entry times, until ``run_block`` adds each lane's final time at its last
    level.
    """
    old, new = np.split(level(np.concatenate((before, after))), 2)
    if np.any(new < old):
        raise RuntimeError("level function not fitness-compatible: a level fell as fitness rose")
    moved = new != old
    when, old, new = when[moved], old[moved], new[moved]
    np.add.at(leaves, old, 1)
    np.add.at(visits, new, 1)
    np.add.at(iterations, old, when)
    np.subtract.at(iterations, new, when)


def run_block(
    benchmark,
    rate: float,
    rng: np.random.Generator,
    starts: np.ndarray,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> BlockResult:
    """Run the (1+1) EA from each packed start string, all in lockstep.

    Each iteration mutates every lane with rate ``rate`` and accepts its
    offspring iff the fitness is not worse.  A lane stops on reaching the
    optimum, or after ``max_iterations`` iterations (flagged ``hits =
    False``).  A lane that reaches the optimum stays in the arrays until its
    draw of masks ends: its fitness cannot rise again, and the other lanes
    keep their own mask columns, so the random stream is that of a block
    that drops each lane as it finishes.  Each draw is made for the
    unfinished lanes only.  An iteration only records the fitness rises, as
    (iteration, fitness before, fitness after): levels are sets of fitness
    values, so levels change only there.  ``_book_levels`` books them once
    per draw of masks.  The buffers grow with ``len(starts)``;
    ``block_lanes`` keeps them within ``BUFFER_BYTES``.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {rate}")
    n, top = benchmark.n, benchmark.top_level
    fitness, level, is_optimum = benchmark.fitness, benchmark.level, benchmark.is_optimum
    x = np.array(starts, dtype=np.uint64)
    lanes = len(x)
    visits, leaves, iterations = np.zeros((3, top + 1), dtype=np.int64)
    fx = fitness(x)
    start = level(fx)
    np.add.at(visits, start, 1)
    hits = start == top
    runtimes = np.full(lanes, max_iterations, dtype=np.int64)
    runtimes[hits] = 0
    lane = np.arange(lanes)  # the lanes in the arrays, by index in the block
    # selection copies each accepted string whole, as one element of this
    # dtype: row by row, numpy copies a short row of words slowly
    row = np.dtype((np.void, 8 * x.shape[1]))

    t = 0
    while t < max_iterations:
        live = ~hits[lane]  # the lanes that finished in the last draw leave here
        x, fx, lane = x[live], fx[live], lane[live]
        if not len(lane):
            break
        y = np.empty_like(x)
        x_rows, y_rows = x.view(row)[:, 0], y.view(row)[:, 0]
        masks = flip_masks(refill_steps(n, rate, len(lane)), len(lane), n, rate, rng)
        when, before, after = [], [], []  # the fitness rises of this draw
        for step in range(min(len(masks), max_iterations - t)):  # the cap does not change the stream
            t += 1
            np.bitwise_xor(x, masks[step], out=y)
            fy = fitness(y)
            np.copyto(x_rows, y_rows, where=fy >= fx)
            rise = (fy > fx).nonzero()[0]
            if not len(rise):
                continue
            risen = fy.take(rise)
            when.append(t)
            before.append(fx.take(rise))
            after.append(risen)
            np.maximum(fx, fy, out=fx)
            done = lane.take(rise[is_optimum(risen)])
            if len(done):
                runtimes[done] = t
                hits[done] = True
                if hits[lane].all():
                    break
        if when:
            when = np.repeat(when, [len(a) for a in after])
            _book_levels(level, when, np.concatenate(before), np.concatenate(after), visits, leaves, iterations)
    # each lane's final time, at its last level: its runtime, or the cap
    iterations[top] += runtimes[hits].sum()
    capped = ~hits[lane]
    if capped.any():
        np.add.at(iterations, level(fx[capped]), max_iterations)
    return BlockResult(runtimes, hits, visits, leaves, iterations)


@dataclass
class RunResult:
    """Outcome of one run: iteration count, optimum flag, level sojourns.

    ``runtime`` counts mutate-and-select iterations until the current
    individual is first optimal (0 if the initial individual already is).
    ``level_trace`` lists (level, iterations spent at that level) pairs in
    strictly increasing level order; the sojourns sum to ``runtime``.
    """

    runtime: int
    hit_optimum: bool
    level_trace: list[tuple[int, int]]


def run_ea(
    benchmark,
    rate: float,
    rng: np.random.Generator,
    initial: Optional[np.ndarray] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> RunResult:
    """One run of the (1+1) EA on ``benchmark``: ``run_block`` with one lane.

    The run starts from ``initial`` (a uint8 bit string, left unmodified) or
    a uniform random string.  A run never returns to a level it left, so the
    block's per-level counts are the run's trace.  If ``max_iterations`` is
    exhausted the result is flagged ``hit_optimum=False`` with the partial
    trace; no exception is raised.
    """
    n = benchmark.n
    if initial is None:
        start = uniform_random_words(1, n, rng)
    elif len(initial) != n:
        raise ValueError("initial individual has wrong length")
    else:
        start = pack_words(initial)
    block = run_block(benchmark, rate, rng, start, max_iterations)
    trace = [(int(lvl), int(block.iterations[lvl])) for lvl in np.flatnonzero(block.visits)]
    return RunResult(int(block.runtimes[0]), bool(block.hits[0]), trace)
