"""The (1+1) EA engine: bit strings, standard bit mutation, the elitist loop.

Start strings are numpy uint8 arrays with entries in {0, 1}.  The loop packs
the start string once into a Python int (bit i is position i, as
``benchmarks.pack`` does) and mutates it by XOR, so every evaluation works
on an immutable int.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .benchmarks import pack

__all__ = ["RunResult", "uniform_random_bitstring", "run_ea"]

DEFAULT_MAX_ITERATIONS = 10**9
_BLOCK = 1024  # variates drawn per call to the generator
_REJECTION_LIMIT = 8  # largest flip count drawn from the uniform index stream


def uniform_random_bitstring(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a bit string of length n with each bit 1 independently w.p. 1/2."""
    if n < 1:
        raise ValueError(f"bit string length must be >= 1, got {n}")
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def _flip_sets(n: int, p: float, rng: np.random.Generator) -> Iterator[int]:
    """The positions standard bit mutation flips, one XOR mask per iteration.

    The flip count is Binomial(n, p), so each bit flips independently with
    probability p.  Counts come from blocks of binomial variates; the
    positions of up to 8 flips (at most n/2, or the one flip of n <= 3) come
    from blocks of uniform indices with duplicates rejected, larger counts
    from Generator.choice.  Every block is drawn when its first value is
    needed, so the stream is fully determined by the generator's state.
    """

    def blocks(draw) -> Iterator[int]:
        while True:
            yield from draw().tolist()

    limit = min(_REJECTION_LIMIT, max(n // 2, 1))
    indices = blocks(lambda: rng.integers(0, n, size=_BLOCK))
    for count in blocks(lambda: rng.binomial(n, p, size=_BLOCK)):
        mask = 0
        if count <= limit:
            while mask.bit_count() < count:  # a repeated index sets no new bit
                mask |= 1 << next(indices)
        else:
            for pos in rng.choice(n, size=count, replace=False, shuffle=False).tolist():
                mask |= 1 << pos
        yield mask


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
    """Run the (1+1) EA on ``benchmark`` until its optimum predicate holds.

    Each iteration mutates the current individual with rate ``rate`` and
    accepts the offspring iff its fitness is not worse; the run starts from
    ``initial`` or a uniform random string and records the sojourn at each
    ``benchmark.level``.  If ``max_iterations`` is exhausted the result is
    flagged ``hit_optimum=False`` with the partial trace; no exception is
    raised.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mutation rate must be in (0, 1), got {rate}")
    n = benchmark.n
    start = uniform_random_bitstring(n, rng) if initial is None else np.asarray(initial, dtype=np.uint8)
    if len(start) != n:
        raise ValueError("initial individual has wrong length")
    x = pack(start)
    fitness = benchmark.fitness
    is_optimum = benchmark.is_optimum
    level_fn = benchmark.level
    fx = fitness(x)
    level = level_fn(x)
    trace: list[tuple[int, int]] = []
    if is_optimum(x):
        trace.append((level, 0))
        return RunResult(0, True, trace)

    masks = _flip_sets(n, rate, rng)
    iterations = 0
    level_iters = 0
    while iterations < max_iterations:
        iterations += 1
        level_iters += 1
        mask = next(masks)
        if not mask:
            continue  # offspring equals parent: accepted, nothing changes
        y = x ^ mask
        fy = fitness(y)
        if fy >= fx:
            x = y
            fx = fy
            new_level = level_fn(x)
            if new_level != level:
                if new_level < level:
                    raise RuntimeError(f"level function not fitness-compatible: {level} -> {new_level}")
                trace.append((level, level_iters))
                level = new_level
                level_iters = 0
            if is_optimum(x):
                trace.append((level, level_iters))
                return RunResult(iterations, True, trace)

    trace.append((level, level_iters))
    return RunResult(iterations, False, trace)
