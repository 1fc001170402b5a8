"""Pseudo-Boolean benchmark functions with their canonical level partitions.

Four families: OneMax, LeadingOnes, jump functions with a deceptive gap,
and long k-paths.  A :class:`Benchmark` bundles the fitness function, an
optimum predicate and a level function mapping bit strings to integers so
that higher levels always mean strictly higher fitness (off-path points of
a long k-path share level 0 with the path start).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Benchmark",
    "LongKPath",
    "onemax",
    "leadingones",
    "jump_fitness",
    "jump_fitness_of_ones",
    "build_long_k_path",
    "long_path_fitness",
    "verify_long_k_path",
    "long_k_path_length",
    "make_onemax",
    "make_leadingones",
    "make_jump",
    "make_longpath",
    "make_benchmark",
]

DEFAULT_PATH_POINT_CAP = 10**6


def onemax(x: np.ndarray) -> int:
    """Number of ones in the bit string."""
    return int(np.sum(x))


def leadingones(x: np.ndarray) -> int:
    """Length of the maximal all-ones prefix."""
    zero = int(np.argmin(x))
    if x[zero]:  # no zero at all
        return len(x)
    return zero


def jump_fitness(x: np.ndarray, k: int) -> int:
    """Jump function with jump size k: OneMax shifted by k outside the gap,
    deceptive ``n - |x|`` inside the gap of the k-1 ones-counts below n."""
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")
    return jump_fitness_of_ones(int(np.sum(x)), n, k)


def jump_fitness_of_ones(ones: int, n: int, k: int) -> int:
    """Jump fitness as a function of the ones-count alone."""
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
    index_of: dict[bytes, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def index(self, x: np.ndarray) -> int:
        """Path position of x, or -1 when x is not on the path."""
        return self.index_of.get(np.asarray(x, dtype=np.uint8).tobytes(), -1)


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

    points = [np.array(pt, dtype=np.uint8) for pt in path]
    index_of = {pt.tobytes(): i for i, pt in enumerate(points)}
    return LongKPath(n=n, k=k, points=points, index_of=index_of)


def long_path_fitness(path: LongKPath, x: np.ndarray) -> int:
    """Path index of x (0 at the all-zero start), -1 for off-path points."""
    if len(x) != path.n:
        raise ValueError(f"path built for n={path.n}, got a string of length {len(x)}")
    return path.index(x)


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

    Immutable after construction; safe for concurrent shared reads.
    ``top_level`` is the level of the optimum class; levels are integers in
    [0, top_level].  ``sample_level`` draws a uniform member of a level.
    """

    name: str
    n: int
    fitness: Callable[[np.ndarray], int]
    is_optimum: Callable[[np.ndarray], bool]
    level: Callable[[np.ndarray], int]
    top_level: int
    sample_level: Callable[[int, np.random.Generator], np.ndarray]
    k: Optional[int] = None
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

    def sample_level(level: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= level <= n:
            raise ValueError(f"OneMax level must be in [0, {n}]")
        return _bits_with_ones(n, level, rng)

    return Benchmark(
        name="onemax",
        n=n,
        fitness=onemax,
        is_optimum=lambda x: int(np.sum(x)) == n,
        level=onemax,
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
        name="leadingones",
        n=n,
        fitness=leadingones,
        is_optimum=lambda x: leadingones(x) == n,
        level=leadingones,
        top_level=n,
        sample_level=sample_level,
    )


def make_jump(n: int, k: int) -> Benchmark:
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")

    def level(x: np.ndarray) -> int:
        ones = int(np.sum(x))
        if ones == n:
            return k + 1
        if ones > n - k:
            return n - ones  # gap: level equals the (low) fitness
        return k

    def sample_level(lvl: int, rng: np.random.Generator) -> np.ndarray:
        if not 1 <= lvl <= k + 1:
            raise ValueError(f"jump level must be in [1, {k + 1}]")
        if lvl == k + 1:
            return np.ones(n, dtype=np.uint8)
        if lvl <= k - 1:
            return _bits_with_ones(n, n - lvl, rng)
        # level k is the whole non-gap region; weight ones-counts binomially
        counts = np.arange(0, n - k + 1)
        weights = np.array([comb(n, int(c)) for c in counts], dtype=float)
        ones = int(rng.choice(counts, p=weights / weights.sum()))
        return _bits_with_ones(n, ones, rng)

    return Benchmark(
        name="jump",
        n=n,
        fitness=lambda x: jump_fitness(x, k),
        is_optimum=lambda x: int(np.sum(x)) == n,
        level=level,
        top_level=k + 1,
        sample_level=sample_level,
        k=k,
    )


def make_longpath(n: int, k: int, max_points: int = DEFAULT_PATH_POINT_CAP) -> Benchmark:
    path = build_long_k_path(n, k, max_points=max_points)
    optimum_key = path.points[-1].tobytes()
    top = len(path) - 1

    def fitness(x: np.ndarray) -> int:
        return path.index(x)  # -1 off path, else the (distinct, increasing) index

    def level(x: np.ndarray) -> int:
        return max(path.index(x), 0)  # off-path points share level 0 with the start

    def sample_level(lvl: int, rng: np.random.Generator) -> np.ndarray:
        if not 0 <= lvl <= top:
            raise ValueError(f"path level must be in [0, {top}]")
        return path.points[lvl].copy()

    return Benchmark(
        name="longpath",
        n=n,
        fitness=fitness,
        is_optimum=lambda x: np.asarray(x, dtype=np.uint8).tobytes() == optimum_key,
        level=level,
        top_level=top,
        sample_level=sample_level,
        k=k,
        path=path,
    )


def make_benchmark(kind: str, n: int, k: Optional[int] = None) -> Benchmark:
    """Factory keyed by benchmark name; jump and longpath require k.

    Canonical levels: OneMax / LeadingOnes: level = fitness, top level n.
    Jump: gap fitness classes are levels 1..k-1, the non-gap non-optimal set
    is level k, the optimum is level k+1 (level 0 is unused).  Long path:
    level = path index, off-path points share level 0 with the path start.
    """
    kind = kind.lower()
    if kind == "onemax":
        return make_onemax(n)
    if kind == "leadingones":
        return make_leadingones(n)
    if kind == "jump":
        if k is None:
            raise ValueError("jump benchmark requires k")
        return make_jump(n, k)
    if kind == "longpath":
        if k is None:
            raise ValueError("longpath benchmark requires k")
        return make_longpath(n, k)
    raise ValueError(f"unknown benchmark kind: {kind!r}")
