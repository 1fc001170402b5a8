"""Pseudo-Boolean benchmark functions with their canonical level partitions.

Four families: OneMax, LeadingOnes, jump functions with a deceptive gap,
and long k-paths.  A :class:`Benchmark` bundles the fitness function, an
optimum predicate and a level function mapping bit strings to integers so
that higher levels always mean strictly higher fitness (off-path points of
a long k-path share level 0 with the path start).

The callables of a :class:`Benchmark` take a bit string packed into a Python
int: bit i of the int is position i of the string (see :func:`pack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Benchmark",
    "LongKPath",
    "pack",
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

# Cephes' lgam, the kernel of scipy.special.gammaln, at x = j + 1: log of the
# exact product j! for j <= 12 (at x = 13 its Stirling branch gives the same
# double), and the coefficients of its Stirling-series correction below x = 1000
_LOG_SMALL_FACTORIALS = np.array([math.log(math.factorial(j)) for j in range(13)])
_LOG_SMALL_FACTORIALS.flags.writeable = False
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def pack(x: np.ndarray) -> int:
    """The bit string as a Python int whose bit i is position i of ``x``."""
    return int.from_bytes(np.packbits(np.asarray(x, dtype=np.uint8), bitorder="little").tobytes(), "little")


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


def _leading_ones(x: int) -> int:
    # ~x & (x + 1) isolates the lowest zero bit of x
    return (~x & (x + 1)).bit_length() - 1


def jump_fitness_of_ones(ones: int, n: int, k: int) -> int:
    """Jump function with jump size k as a function of the ones-count: OneMax
    shifted by k outside the gap, deceptive ``n - ones`` inside the gap of
    the k-1 ones-counts below n."""
    if ones <= n - k or ones == n:
        return ones + k
    return n - ones


@dataclass
class LongKPath:
    """An explicit long k-path: consecutive points are Hamming neighbours,
    points i < k apart have distance exactly i, points >= k apart at least k."""

    n: int
    k: int
    points: list[np.ndarray]
    index_of: dict[int, int] = field(repr=False)  # keyed by the packed point

    def __len__(self) -> int:
        return len(self.points)


def long_k_path_length(n: int, k: int) -> int:
    """Number of path points, k * 2^(n/k) - k + 1."""
    return k * 2 ** (n // k) - k + 1


def build_long_k_path(n: int, k: int, max_points: int = DEFAULT_PATH_POINT_CAP) -> LongKPath:
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
    if long_k_path_length(n, k) > max_points:
        raise ValueError(
            f"path would have {long_k_path_length(n, k)} points, exceeding the cap {max_points}"
        )

    suffixes = [[0] * (k - j) + [1] * j for j in range(k + 1)]
    path = [list(s) for s in suffixes]  # dimension-k base path
    dim = k
    while dim < n:
        prefixed_zero = [[0] * k + pt for pt in path]
        last = path[-1]
        bridges = [suffixes[j] + last for j in range(1, k)]
        prefixed_one = [[1] * k + pt for pt in reversed(path)]
        path = prefixed_zero + bridges + prefixed_one
        dim += k

    points = np.array(path, dtype=np.uint8)
    packed = np.packbits(points, axis=1, bitorder="little").tobytes()  # the rows packed as by pack
    width = (n + 7) // 8
    index_of = {int.from_bytes(packed[i * width : (i + 1) * width], "little"): i for i in range(len(points))}
    return LongKPath(n=n, k=k, points=list(points), index_of=index_of)


def verify_long_k_path(path: LongKPath) -> None:
    """Exhaustively check the defining distance properties; raise on failure."""
    pts = np.array(path.points, dtype=np.int16)
    m = len(pts)
    if m != long_k_path_length(path.n, path.k):
        raise AssertionError(f"path has {m} points, expected {long_k_path_length(path.n, path.k)}")
    if np.any(pts[0] != 0):
        raise AssertionError("path does not start at the all-zero string")
    if len(path.index_of) != m:
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

    ``fitness``, ``is_optimum`` and ``level`` take the bit string packed into
    a Python int (bit i is position i, see :func:`pack`); ``sample_level``
    draws a uniform member of a level as a uint8 array.  Immutable after
    construction; safe for concurrent shared reads.  ``top_level`` is the
    level of the optimum class; levels are integers in [0, top_level].
    """

    n: int
    fitness: Callable[[int], int]
    is_optimum: Callable[[int], bool]
    level: Callable[[int], int]
    top_level: int
    sample_level: Callable[[int, np.random.Generator], np.ndarray]
    path: Optional[LongKPath] = None

    @property
    def level_count(self) -> int:
        return self.top_level + 1


def _bits_with_ones(n: int, ones: int, rng: np.random.Generator) -> np.ndarray:
    x = np.zeros(n, dtype=np.uint8)
    if ones:
        x[rng.choice(n, size=ones, replace=False, shuffle=False)] = 1
    return x


def make_onemax(n: int) -> Benchmark:
    if n < 1:
        raise ValueError("n must be >= 1")
    optimum = (1 << n) - 1

    def sample_level(level: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= level <= n:
            raise ValueError(f"OneMax level must be in [0, {n}]")
        return _bits_with_ones(n, level, rng)

    return Benchmark(
        n=n,
        fitness=int.bit_count,
        is_optimum=lambda x: x == optimum,
        level=int.bit_count,
        top_level=n,
        sample_level=sample_level,
    )


def make_leadingones(n: int) -> Benchmark:
    if n < 1:
        raise ValueError("n must be >= 1")
    optimum = (1 << n) - 1

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
        is_optimum=lambda x: x == optimum,
        level=_leading_ones,
        top_level=n,
        sample_level=sample_level,
    )


def jump_level_weights(n: int, k: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Ones-counts of Jump_k level ``level`` and weights proportional to the
    law of a uniform string of the level over them: at level k, C(n, a) over
    0..n-k shifted by its peak (no weight overflows); one count elsewhere."""
    if not 1 <= level <= k + 1:
        raise ValueError(f"jump level must be in [1, {k + 1}]")
    if level != k:
        return np.array([n if level == k + 1 else n - level]), np.ones(1)
    log_w = log_binom(n, np.arange(n - k + 1))
    return np.arange(n - k + 1), np.exp(log_w - log_w.max())


def make_jump(n: int, k: int) -> Benchmark:
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")
    optimum = (1 << n) - 1

    def level(x: int) -> int:
        ones = x.bit_count()
        if ones == n:
            return k + 1
        if ones > n - k:
            return n - ones  # gap: level equals the (low) fitness
        return k

    def sample_level(lvl: int, rng: np.random.Generator) -> np.ndarray:
        counts, weights = jump_level_weights(n, k, lvl)
        if lvl == k + 1:
            return np.ones(n, dtype=np.uint8)  # the optimum: no draw
        ones = counts[0] if len(counts) == 1 else rng.choice(counts, p=weights / weights.sum())
        return _bits_with_ones(n, int(ones), rng)

    return Benchmark(
        n=n,
        fitness=lambda x: jump_fitness_of_ones(x.bit_count(), n, k),
        is_optimum=lambda x: x == optimum,
        level=level,
        top_level=k + 1,
        sample_level=sample_level,
    )


def make_longpath(n: int, k: int) -> Benchmark:
    path = build_long_k_path(n, k)
    index_of = path.index_of
    optimum = pack(path.points[-1])
    top = len(path) - 1

    def fitness(x: int) -> int:
        return index_of.get(x, -1)  # -1 off path, else the (distinct, increasing) index

    def level(x: int) -> int:
        return index_of.get(x, 0)  # off-path points share level 0 with the start

    def sample_level(lvl: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= lvl <= top:
            raise ValueError(f"path level must be in [0, {top}]")
        return path.points[lvl].copy()

    return Benchmark(
        n=n,
        fitness=fitness,
        is_optimum=lambda x: x == optimum,
        level=level,
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
