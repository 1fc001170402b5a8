"""Pseudo-Boolean benchmark functions with their canonical level partitions.

Four families: OneMax, LeadingOnes, jump functions with a deceptive gap,
and long k-paths.  A :class:`Benchmark` bundles the fitness function, an
optimum predicate and a level function.  Levels are sets of fitness values:
``level`` and ``is_optimum`` read fitness values, not strings, and a higher
level always means strictly higher fitness (off-path points of a long k-path
share level 0 with the path start).  Callers compose ``level(fitness(x))``.

``fitness`` evaluates many bit strings in one call.  It takes an ``(m, W)``
uint64 array, one string per row packed into ``W = ceil(n / 64)`` words,
position i at bit i % 64 of word i // 64 and every bit from n up clear (see
:func:`pack_words`), and returns an ``(m,)`` int64 array.  Each call costs a
few numpy calls, whatever m:

- OneMax counts ones; LeadingOnes adds 64 per full word before the first word
  that is not full to that word's trailing ones.  On up to four words both
  read one word column at a time.  Their ``level`` is the identity.
- Jump reads ``fitness`` from an (n+1)-entry table over the ones-count and
  ``level`` from an (n+k+1)-entry table over the fitness, both built once per
  instance.
- A long k-path binary-searches its sorted points: as integers on one word,
  as blocks of bytes on more; ``level`` clips the index at 0.
- ``is_optimum`` compares each value with the optimum's fitness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Benchmark",
    "LongKPath",
    "pack_words",
    "word_count",
    "log_factorials",
    "log_binom",
    "jump_fitness_of_ones",
    "build_long_k_path",
    "verify_long_k_path",
    "long_k_path_length",
    "make_onemax",
    "make_leadingones",
    "make_jump",
    "jump_level_weights",
    "make_longpath",
    "make_benchmark",
]

DEFAULT_PATH_POINT_CAP = 10**6
_ONE = np.uint64(1)
_FULL = ~np.uint64(0)  # a word of 64 ones

# Cephes' lgam, the kernel of scipy.special.gammaln, at x = j + 1: log of the
# exact product j! for j <= 12 (at x = 13 its Stirling branch gives the same
# double), and the coefficients of its Stirling-series correction below x = 1000
_LOG_SMALL_FACTORIALS = np.array([math.log(math.factorial(j)) for j in range(13)])
_LOG_SMALL_FACTORIALS.flags.writeable = False
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def word_count(n: int) -> int:
    """Number of uint64 words that hold an n-bit string."""
    return (n + 63) // 64


def pack_words(x: np.ndarray) -> np.ndarray:
    """Bit strings (the rows of a 2-d uint8 array, or one 1-d string) as an
    ``(m, W)`` uint64 array: position i at bit i % 64 of word i // 64."""
    x = np.atleast_2d(np.asarray(x, dtype=np.uint8))
    packed = np.packbits(x, axis=1, bitorder="little")
    out = np.zeros((len(x), 8 * word_count(x.shape[1])), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view("<u8").astype(np.uint64, copy=False)


def log_factorials(m: int) -> np.ndarray:
    """log(j!) for j = 0..m, as ``scipy.special.gammaln(j + 1)`` computes it.

    A port of Cephes' lgam at the integers x = j + 1, in its operation order:
    the log of the exact product below x = 13, Stirling's series with a
    polynomial correction above.  It equals gammaln bit for bit except where
    numpy's vectorised log differs from libm's by one ulp (first at j = 9169
    with numpy 2.4 on x86-64; within 3 ulps up to j = 4e5).
    """
    x = np.arange(14.0, m + 2)
    q = (x - 0.5) * np.log(x) - x + 0.91893853320467274178  # log(sqrt(2 pi))
    p = 1.0 / (x * x)
    a0, a1, a2, a3, a4 = _LGAM_A
    lo, hi = slice(0, 1000 - 14), slice(1000 - 14, None)  # x below 1000 and from 1000 on
    q[lo] += ((((a0 * p[lo] + a1) * p[lo] + a2) * p[lo] + a3) * p[lo] + a4) / x[lo]
    q[hi] += ((7.9365079365079365079365e-4 * p[hi] - 2.7777777777777777777778e-3) * p[hi]
              + 0.0833333333333333333333) / x[hi]
    return np.concatenate((_LOG_SMALL_FACTORIALS[: m + 1], q))


def log_binom(m: int, j: np.ndarray) -> np.ndarray:
    """log C(m, j) for integers j in [0, m]."""
    lf = log_factorials(m)
    return lf[m] - lf[j] - lf[m - j]


# numpy reduces along the short word axis row by row, slowly, so on up to
# WORD_COLUMNS words the forms below read one word column at a time
WORD_COLUMNS = 4


def _trailing_ones(word: np.ndarray) -> np.ndarray:
    # w & ~(w + 1) keeps the bits below the lowest zero bit of w (all 64 of a full word)
    return np.bitwise_count(word & ~(word + _ONE))


def _ones(x: np.ndarray) -> np.ndarray:
    counts = np.bitwise_count(x)
    if x.shape[1] > WORD_COLUMNS:
        return counts.sum(axis=1, dtype=np.int64)
    ones = counts[:, 0].astype(np.int64)  # widened first: bitwise_count's uint8 holds no 256
    for j in range(1, x.shape[1]):
        ones += counts[:, j]
    return ones


def _leading_ones(x: np.ndarray) -> np.ndarray:
    if x.shape[1] > WORD_COLUMNS:
        # 64 per full word before the first word that is not full, plus that
        # word's trailing ones; a row of full words alone finds no such word
        # and reads 64 at word 0
        first = (x != _FULL).argmax(axis=1)
        trailing = _trailing_ones(x[np.arange(len(x)), first])
        return np.where(trailing == 64, 64 * x.shape[1], 64 * first + trailing)
    # from the last word back: the leading ones after word j count only if
    # word j is full
    trailing = _trailing_ones(x).astype(np.int64)
    ones = trailing[:, -1]
    for j in range(x.shape[1] - 2, -1, -1):
        ones = trailing[:, j] + (trailing[:, j] == 64) * ones
    return ones


def _by_ones(table: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The callable ``table[ones-count]`` over a table of n + 1 entries; on one
    word the count is one call."""
    if word_count(len(table) - 1) == 1:
        return lambda x: table.take(np.bitwise_count(x[:, 0]))
    return lambda x: table.take(_ones(x))


def jump_fitness_of_ones(ones, n: int, k: int):
    """Jump function with jump size k as a function of the ones-count (an
    int or an int array): OneMax shifted by k outside the gap, deceptive
    ``n - ones`` inside the gap of the k-1 ones-counts below n."""
    return np.where((ones <= n - k) | (ones == n), ones + k, n - ones)


@dataclass
class LongKPath:
    """An explicit long k-path: consecutive points are Hamming neighbours,
    points i < k apart have distance exactly i, points >= k apart at least k."""

    n: int
    k: int
    points: np.ndarray  # (m, n) uint8, one point per row in path order

    def __len__(self) -> int:
        return len(self.points)


def long_k_path_length(n: int, k: int) -> int:
    """Number of path points, k * 2^(n/k) - k + 1."""
    return k * 2 ** (n // k) - k + 1


def build_long_k_path(n: int, k: int) -> LongKPath:
    """Construct the long k-path on n bits by the standard recursion.

    The dimension-k base path is (0^k, 0^{k-1}1, ..., 1^k).  One recursion
    step prefixes the dimension-(n-k) path with 0^k, inserts k-1 bridge
    points (prefixes 0^{k-1}1, ..., 0 1^{k-1} on the last recursive point)
    and appends the reversed recursive path prefixed with 1^k.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
    if n % k != 0:
        raise ValueError(f"k must divide n, got n={n}, k={k}")
    length = long_k_path_length(n, k)
    if length > DEFAULT_PATH_POINT_CAP:
        raise ValueError(f"path would have {length} points, exceeding the cap {DEFAULT_PATH_POINT_CAP}")

    suffixes = np.tri(k + 1, k, -1, dtype=np.uint8)[:, ::-1]  # row j: k - j zeros, then j ones
    points = suffixes  # dimension-k base path
    while points.shape[1] < n:
        m = len(points)
        points = np.vstack((
            np.hstack((np.zeros((m, k), dtype=np.uint8), points)),
            np.hstack((suffixes[1:k], np.repeat(points[-1:], k - 1, axis=0))),  # the bridges
            np.hstack((np.ones((m, k), dtype=np.uint8), points[::-1])),
        ))
    return LongKPath(n=n, k=k, points=points)


def verify_long_k_path(path: LongKPath) -> None:
    """Exhaustively check the defining distance properties; raise on failure."""
    pts = path.points.astype(np.int16)
    m = len(pts)
    if m != long_k_path_length(path.n, path.k):
        raise AssertionError(f"path has {m} points, expected {long_k_path_length(path.n, path.k)}")
    if np.any(pts[0] != 0):
        raise AssertionError("path does not start at the all-zero string")
    if len(np.unique(pack_words(pts), axis=0)) != m:
        raise AssertionError("path points are not distinct")
    k = path.k
    for i in range(m):
        dist = np.abs(pts[i + 1 :] - pts[i]).sum(axis=1)
        ahead = np.arange(1, m - i)
        near = ahead < k
        if np.any(dist[near] != ahead[near]):
            raise AssertionError(f"point {i}: some point < k ahead is not at exact distance")
        if np.any(dist[~near] < k):
            raise AssertionError(f"point {i}: some point >= k ahead is closer than k")


@dataclass
class Benchmark:
    """A fitness function with optimum predicate and level partition.

    ``fitness`` maps an ``(m, W)`` uint64 array of packed strings (see
    :func:`pack_words`) to an ``(m,)`` int64 array of fitness values;
    ``level`` and ``is_optimum`` map fitness values to a new int64 array of
    levels and to bools, so the level of strings ``x`` is
    ``level(fitness(x))``.  ``level`` is non-decreasing in the fitness and
    ``is_optimum`` holds at the largest fitness alone.  ``sample_level`` draws
    a uniform member of a level as a uint8 array.  Immutable after
    construction; safe for concurrent shared reads.  ``top_level`` is the
    level of the optimum class; levels are integers in [0, top_level].
    """

    n: int
    fitness: Callable[[np.ndarray], np.ndarray]
    is_optimum: Callable[[np.ndarray], np.ndarray]
    level: Callable[[np.ndarray], np.ndarray]
    top_level: int
    sample_level: Callable[[int, np.random.Generator], np.ndarray]
    path: Optional[LongKPath] = None


def _bits_with_ones(n: int, ones: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros(n, dtype=np.uint8)
    if ones:
        x[rng.choice(n, size=ones, replace=False, shuffle=False)] = 1
    return x


def make_onemax(n: int) -> Benchmark:
    if n < 1:
        raise ValueError("n must be >= 1")

    def sample_level(level: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= level <= n:
            raise ValueError(f"OneMax level must be in [0, {n}]")
        return _bits_with_ones(n, level, rng)

    return Benchmark(
        n=n,
        fitness=_ones,
        is_optimum=lambda f: f == n,
        level=np.copy,  # level = fitness, as a new array (see Benchmark)
        top_level=n,
        sample_level=sample_level,
    )


def make_leadingones(n: int) -> Benchmark:
    if n < 1:
        raise ValueError("n must be >= 1")

    def sample_level(level: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= level <= n:
            raise ValueError(f"LeadingOnes level must be in [0, {n}]")
        x = np.ones(n, dtype=np.uint8)
        if level < n:
            x[level] = 0
            if level + 1 < n:
                x[level + 1 :] = rng.integers(0, 2, size=n - level - 1, dtype=np.uint8)
        return x

    return Benchmark(
        n=n,
        fitness=_leading_ones,
        is_optimum=lambda f: f == n,
        level=np.copy,  # level = fitness, as a new array (see Benchmark)
        top_level=n,
        sample_level=sample_level,
    )


def jump_level_weights(n: int, k: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Ones-counts of Jump_k level ``level`` and weights proportional to the
    law of a uniform string of the level over them: at level k, C(n, a) over
    0..n-k shifted by its peak (no weight overflows); one count elsewhere."""
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")
    if not 1 <= level <= k + 1:
        raise ValueError(f"jump level must be in [1, {k + 1}]")
    if level != k:
        return np.array([n if level == k + 1 else n - level]), np.ones(1)
    log_w = log_binom(n, np.arange(n - k + 1))
    return np.arange(n - k + 1), np.exp(log_w - log_w.max())


def make_jump(n: int, k: int) -> Benchmark:
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")
    # fitness as a table over the ones-count, level as one over the fitness,
    # each read by one index; levels: the optimum (fitness n + k) on top, the
    # gap's levels equal its fitness 1..k-1, the rest (fitness k..n) is level k
    fitness = jump_fitness_of_ones(np.arange(n + 1), n, k)
    value = np.arange(n + k + 1)
    level = np.where(value == n + k, k + 1, np.minimum(value, k))
    fitness.flags.writeable = level.flags.writeable = False

    def sample_level(lvl: int, rng: np.random.Generator) -> np.ndarray:
        counts, weights = jump_level_weights(n, k, lvl)
        if lvl == k + 1:
            return np.ones(n, dtype=np.uint8)  # the optimum: no draw
        ones = counts[0] if len(counts) == 1 else rng.choice(counts, p=weights / weights.sum())
        return _bits_with_ones(n, int(ones), rng)

    return Benchmark(
        n=n,
        fitness=_by_ones(fitness),
        is_optimum=lambda f: f == n + k,
        level=level.take,
        top_level=k + 1,
        sample_level=sample_level,
    )


def _path_index(path: LongKPath) -> Callable[[np.ndarray], np.ndarray]:
    """The path index of each packed string, -1 off the path: a binary search
    over the sorted points, compared as integers on one word and each row as
    one block of bytes on more."""
    words = word_count(path.n)
    row = np.dtype(np.uint64) if words == 1 else np.dtype((np.void, 8 * words))
    keys = np.ascontiguousarray(pack_words(path.points)).view(row)[:, 0]
    order = np.argsort(keys)
    keys = keys[order]

    def index(x: np.ndarray) -> np.ndarray:
        query = np.ascontiguousarray(x).view(row)[:, 0]
        at = keys.searchsorted(query)  # len(keys) above the last key: clipped
        return np.where(keys.take(at, mode="clip") == query, order.take(at, mode="clip"), -1)

    return index


def make_longpath(n: int, k: int) -> Benchmark:
    path = build_long_k_path(n, k)
    top = len(path) - 1
    index = _path_index(path)

    def sample_level(lvl: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= lvl <= top:
            raise ValueError(f"path level must be in [0, {top}]")
        return path.points[lvl].copy()

    return Benchmark(
        n=n,
        fitness=index,  # -1 off path, else the (distinct, increasing) index
        is_optimum=lambda f: f == top,
        level=lambda f: np.maximum(f, 0),  # off-path points share level 0 with the start
        top_level=top,
        sample_level=sample_level,
        path=path,
    )


# name -> (factory, whether it takes the parameter k)
_FACTORIES = {
    "onemax": (make_onemax, False),
    "leadingones": (make_leadingones, False),
    "jump": (make_jump, True),
    "longpath": (make_longpath, True),
}


def make_benchmark(kind: str, n: int, k: Optional[int] = None) -> Benchmark:
    """Factory keyed by benchmark name; jump and longpath require k.

    Canonical levels: OneMax / LeadingOnes: level = fitness, top level n.
    Jump: gap fitness classes are levels 1..k-1, the non-gap non-optimal set
    is level k, the optimum is level k+1 (level 0 is unused).  Long path:
    level = path index, off-path points share level 0 with the path start.
    """
    kind = kind.lower()
    if kind not in _FACTORIES:
        raise ValueError(f"unknown benchmark kind: {kind!r}")
    factory, takes_k = _FACTORIES[kind]
    if not takes_k:
        return factory(n)
    if k is None:
        raise ValueError(f"{kind} benchmark requires k")
    return factory(n, k)
