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
    "binomial_pmfs",
    "binomial_law",
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

# Loader's stirlerr(j) = log(j!) - log(sqrt(2 pi j) (j/e)^j) at j = 0..15 (0 at
# j = 0); above 15 it is the Stirling series
_STIRLERR = np.array((0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
                      0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
                      0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
                      0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
                      0.006408994188004207, 0.0059513701127588475, 0.005554733551962801))
# pmf values from one anchor on: the anchor and 31 exact ratios
PMF_SEGMENT = 32
# log b(j; m, p) <= -m KL(j/m || p), and a double is 0 below e^-744.45
PMF_KL_CUT = 745.0


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


def _stirlerr(j: np.ndarray) -> np.ndarray:
    """log(j!) - log(sqrt(2 pi j) (j/e)^j) at the integers j >= 0 (0 at 0)."""
    big = np.maximum(j, 16.0)
    jj = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / jj) / jj) / jj) / jj) / big
    return np.where(j < 16, _STIRLERR[np.minimum(j, 15).astype(np.intp)], series)


def _bd0(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """x log(x/mu) + mu - x for x, mu > 0, by Loader's series where x lies
    within a tenth of x + mu of mu (|v| < 0.1 below, so nine terms reach
    below 2^-53 of the sum)."""
    d, s = x - mu, x + mu
    v = d / s
    w = v * v
    poly = 1 / 19
    for odd in range(17, 1, -2):
        poly = 1 / odd + w * poly
    near = d * v + 2.0 * x * v * (w * poly)
    # log1p(d/mu), not log(x/mu): d is exact while mu/2 <= x <= 2 mu, so x/mu's rounding stays out
    return np.where(np.abs(d) < 0.1 * s, near, x * np.log1p(d / mu) - d)


def _pmf_ends(m: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """b(0; m, p) = (1-p)^m and b(m; m, p) = p^m by pow, within about two
    ulps: 1 - p is a double q plus its exact rounding error (1 - q) - p."""
    q = 1.0 - p
    return np.power(q, m) * np.exp(m * math.log1p(((1.0 - q) - p) / q)), np.power(p, m)


def _pmf_at(j: np.ndarray, m: np.ndarray, p: float) -> np.ndarray:
    """b(j; m, p) at integers 0 <= j <= m by Loader's method: a few ulps near
    the mode, and a few ulps of |log b| relative in the tails."""
    q = 1.0 - p
    out = np.empty(j.shape)
    mid = (0 < j) & (j < m)
    first, last = _pmf_ends(m[~mid], p)
    out[~mid] = np.where(j[~mid] == 0, first, last)
    x, mm = j[mid], m[mid]
    s_m, s_x, s_rest = np.split(_stirlerr(np.concatenate((mm, x, mm - x))), 3)
    d_x, d_rest = np.split(_bd0(np.concatenate((x, mm - x)), np.concatenate((mm * p, mm * q))), 2)
    lc = s_m - s_x - s_rest - d_x - d_rest
    lf = math.log(2.0 * math.pi) + np.log(x) + np.log1p(-x / mm)
    out[mid] = np.exp(lc - 0.5 * lf)
    return out


def _kl_edges(m: np.ndarray, p: float) -> np.ndarray:
    """A ``(2, len(m))`` array of integers lo and hi, on either side of the
    mode, with m KL(j/m || p) > PMF_KL_CUT for every j outside [lo, hi], so
    b(j; m, p) rounds to 0 there.  On each side of the mode that function is
    convex, so Newton's method lands beyond its root after one step and stays
    beyond it, closing in."""
    q = 1.0 - p
    side = np.array([[-1.0], [1.0]])
    edges = np.where(side > 0, m, 0.0)
    cut = -m * np.array([[math.log1p(-p)], [math.log(p)]]) > PMF_KL_CUT  # m KL at j = 0, j = m
    if np.any(cut):
        mc, sc = np.broadcast_to(m, cut.shape)[cut], np.broadcast_to(side, cut.shape)[cut]
        log_mp, log_mq = np.log(mc * p), np.log(mc * q)
        x = np.clip(mc * p + sc * (np.sqrt(2.0 * PMF_KL_CUT * mc * p * q) + 1.0), 0.5, mc - 0.5)
        for _ in range(3):  # x <- x - (m KL(x) - cut) / m KL'(x)
            up, down = np.log(x) - log_mp, np.log(mc - x) - log_mq
            x = np.clip((PMF_KL_CUT - mc * down) / (up - down), 0.5, mc - 0.5)
        edges[cut] = np.clip(np.where(sc > 0, np.ceil(x) + 1.0, np.floor(x) - 1.0), 0.0, mc)
    return edges


def binomial_pmfs(m: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The binomial laws b(.; m_i, p) at once, as ``(offset, table)`` with
    ``table[i, t] = b(offset_i + t; m_i, p)``: exactly 0 for indices outside
    [0, m_i] and where the pmf is below the smallest double.

    Each pmf is computed outward from its mode over the interval of
    ``_kl_edges``: by Loader's method (``_pmf_at``) at every PMF_SEGMENT-th
    index, and by the exact ratios ``b(j+1)/b(j) = (m-j)/(j+1) p/(1-p)``
    from there on.  Outward the values fall, so none is scaled up from an
    underflowed anchor; past the interval they are 0, not the smallest
    subnormal that a ratio above 1/2 keeps rounding back to.  Each entry
    depends only on (m_i, p), not on the other laws of the call.
    """
    m = np.asarray(m, dtype=float)
    rho, seg = p / (1.0 - p), PMF_SEGMENT
    mode = np.minimum(np.floor((m + 1.0) * p), m)
    lo, hi = _kl_edges(m, p)
    up, down = np.maximum(hi, mode) - mode + 1.0, mode - np.minimum(lo, mode)  # from the mode up, below it
    nr, nl = (int(math.ceil(x.max(initial=0.0) / seg)) for x in (up, down))
    # grids of shape (seg, laws, segments): step i of segment t goes up from
    # j = mode + seg t, or down from j = mode - 1 - seg t
    step = np.arange(seg)[:, None, None]
    jr = mode[:, None] + seg * np.arange(nr) + step
    jl = mode[:, None] - 1.0 - seg * np.arange(nl) - step
    factor = np.concatenate((np.maximum(m[:, None] + 1.0 - jr, 0.0) / np.maximum(jr, 1.0) * rho,  # b(j)/b(j-1)
                             np.maximum(jl + 1.0, 0.0) / (m[:, None] - jl) / rho), axis=2)  # b(j)/b(j+1)
    length = np.hstack((np.repeat(up[:, None], nr, axis=1), np.repeat(down[:, None], nl, axis=1)))
    inside = seg * np.hstack((np.arange(nr), np.arange(nl))) + step < length
    factor *= inside
    anchor = inside[0]
    at = np.concatenate((jr[0], jl[0]), axis=1)[anchor]
    factor[0][anchor] = _pmf_at(at, np.broadcast_to(m[:, None], anchor.shape)[anchor], p)
    np.multiply.accumulate(factor, axis=0, out=factor)
    values = factor.transpose(1, 2, 0)
    right = values[:, :nr].reshape(len(m), seg * nr)
    left = values[:, nr:].reshape(len(m), seg * nl)
    offset, table = mode - seg * nl, np.hstack((left[:, ::-1], right))
    # the end points inside the interval also where they are no anchor: a
    # row's entry of a single flip pattern is one of them times another
    for at, j, value in zip((lo == 0, hi == m), (0.0 * m, m), _pmf_ends(m, p)):
        table[at, (j - offset)[at].astype(np.intp)] = value[at]
    return offset, table


def binomial_law(m: int, p: float) -> np.ndarray:
    """b(j; m, p) for j = 0..m (0 where below the smallest double)."""
    offset, table = binomial_pmfs(np.array([m]), p)
    j = int(offset[0]) + np.arange(table.shape[1])
    keep = (0 <= j) & (j <= m)
    return np.bincount(j[keep], table[0, keep], minlength=m + 1)


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
        # a count of 20 digits or more is named by its formula: from n/k of
        # about 14 300 on, Python refuses to write it out in decimal
        count = length if length < 10**19 else f"{k}*2^{n // k} - {k - 1}"
        raise ValueError(f"path at n={n}, k={k} would have {count} points, exceeding the cap {DEFAULT_PATH_POINT_CAP}")

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
    0..n-k relative to its peak, by exact ratios outward from it (no weight
    overflows, and the peak's is 1); one count elsewhere."""
    if not 1 <= k <= n:
        raise ValueError(f"jump size must be in [1, {n}], got {k}")
    if not 1 <= level <= k + 1:
        raise ValueError(f"jump level must be in [1, {k + 1}]")
    if level != k:
        return np.array([n if level == k + 1 else n - level]), np.ones(1)
    ones = np.arange(n - k + 1)
    peak = min(n - k, n // 2)
    below, above = ones[:peak], ones[peak + 1 :]
    weights = np.ones(n - k + 1)
    weights[:peak] = np.cumprod(((below + 1) / (n - below))[::-1])[::-1]  # C(n, a) / C(n, a + 1)
    weights[peak + 1 :] = np.cumprod((n + 1 - above) / above)  # C(n, a) / C(n, a - 1)
    return ones, weights


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
