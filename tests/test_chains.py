import functools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

import flmlab.chains as chains_module
from flmlab.benchmarks import binomial_law, binomial_pmfs, build_long_k_path, make_benchmark
from flmlab.chains import (
    LevelChain,
    expected_hitting_time,
    full_state_expected_time,
    jump_level_matrix,
    longpath_level_matrix,
    mutation_class_row,
    onemax_level_matrix,
    skip_probability,
    summarize,
    truncate_chain,
    visit_probabilities,
    visit_probability_matrix,
)
from flmlab.formulas import leadingones_exact

from conftest import brute_mutation_distribution, random_level_chain


def hand_chain():
    # start at level 0; leaving level 0 goes up with two equally weighted exits
    t = np.array([[0.5, 0.25, 0.25], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    return LevelChain(t, np.array([1.0, 0.0, 0.0]))


def test_transition_prob_trivial_cases():
    assert mutation_class_row(2, 0.5, 0)[2] == pytest.approx(0.25, abs=1e-15)
    # derived by enumerating all four flip masks of a one-one parent
    assert mutation_class_row(2, 0.5, 1)[2] == pytest.approx(0.25, abs=1e-15)


def test_transition_prob_rejects_out_of_range():
    with pytest.raises(ValueError):
        mutation_class_row(4, 0.1, 5)


@pytest.mark.parametrize("n,p", [(3, 0.5), (4, 1 / 3), (5, 0.1), (6, 0.9)])
def test_mutation_rows_match_brute_force(n, p):
    for k in range(n + 1):
        x = np.array([1] * k + [0] * (n - k), dtype=np.uint8)
        expected = brute_mutation_distribution(x, p)
        np.testing.assert_allclose(mutation_class_row(n, p, k), expected, atol=1e-14)


def exact_binomial_law(m, p, floor=Decimal("1e-85")):
    """{j: b(j; m, p)} in 50-digit decimals, over the j where b is at least
    ``floor``: math.comb at the mode, exact ratios outward.  p is the
    double's exact value."""
    with localcontext() as ctx:
        ctx.prec = 50
        pp = Decimal(p)
        qq = 1 - pp
        mode = min(m, int((m + 1) * p))
        peak = Decimal(math.comb(m, mode)) * pp**mode * qq ** (m - mode)
        law = {mode: peak}
        for step in (1, -1):
            j, b = mode, peak
            while 0 <= j + step <= m and b >= floor:
                b = b * (m - j) / (j + 1) * pp / qq if step > 0 else b * j / (m - j + 1) * qq / pp
                j += step
                law[j] = b
        return law


def exact_mutation_entries(n, p, k, ones, floor=Decimal("1e-85")):
    """P(k -> l) for each l in ``ones`` as sum_d b(d; k, p) b(d + l - k; n - k, p),
    to about 40 digits wherever it is above floor * 1e45 (the terms dropped
    with the laws' values below ``floor`` are below it each)."""
    down, up = exact_binomial_law(k, p, floor), exact_binomial_law(n - k, p, floor)
    with localcontext() as ctx:
        ctx.prec = 50
        return [sum((b * up[d + l - k] for d, b in down.items() if d + l - k in up), Decimal(0)) for l in ones]


@functools.lru_cache(maxsize=None)
def rounded_binomial_law(m, p):
    """b(j; m, p) for j = 0..m, each the double nearest its 50-digit value
    (0 below the smallest subnormal), scaled by REFERENCE_SCALE."""
    law = np.zeros(m + 1)
    for j, b in exact_binomial_law(m, p, floor=Decimal("1e-330")).items():
        law[j] = float(b)
    law *= REFERENCE_SCALE
    law.flags.writeable = False
    return law


# 2^511 each, so that the product of two laws' values below 2^-2044 is the
# only one that is not a normal double (and no product overflows)
REFERENCE_SCALE = 2.0**511


def _split(a):
    """a = hi + lo with hi the top 26 bits (Veltkamp), so products of halves are exact."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _exact_sums(terms):
    """Sums along the last axis, whose length is a power of two, with one
    rounding: a tree of exact additions (Knuth's TwoSum) of the two halves,
    whose errors are added up apart (each below 2^-53 of its sum, so their
    own rounding stays below 2^-100 of the total)."""
    err = np.zeros(terms.shape[:-1])
    while terms.shape[-1] > 1:
        half = terms.shape[-1] // 2
        a, b = terms[:, :half], terms[:, half:]
        s = a + b
        z = s - a
        err += ((a - (s - z)) + (b - z)).sum(axis=1)
        terms = s
    return terms[:, 0] + err


def reference_mutation_class_row(n, p, k):
    """Reference row sum_d b(d; k, p) b(d + l - k; n - k, p) in doubles alone:
    each law value correctly rounded (rounded_binomial_law), each product
    exact as a pair of doubles (Dekker), the larger parts summed exactly
    (_exact_sums), the smaller ones (below 2^-53 of the larger) plainly, and
    the two rounded once.  So every entry is within 1.5 ulps of the exact
    sum, wherever it is a normal double."""
    up, down = rounded_binomial_law(n - k, p), rounded_binomial_law(k, p)
    d0, d1 = np.flatnonzero(down)[[0, -1]].tolist()
    u0, u1 = np.flatnonzero(up)[[0, -1]].tolist()
    width = d1 - d0 + 1
    a = np.zeros(1 << (width - 1).bit_length())  # zeros past the last down-flip
    a[:width] = down[d0 : d1 + 1]
    a_hi, a_lo = _split(a)
    # column l = k + u - d reads up[u] at u = l - k + d for d = d0..d1, here
    # from up's nonzero stretch padded with zeros on either side
    padded = np.concatenate((np.zeros(width - 1), up[u0 : u1 + 1], np.zeros(a.size - 1)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, a.size)[: u1 - u0 + width]  # l = k + u0 - d1 + i
    row = np.zeros(n + 1)
    block = max(1, 2**17 // a.size)
    for i in range(0, len(windows), block):
        b = windows[i : i + block]
        b_hi, b_lo = _split(b)
        hi = b * a
        lo = ((b_hi * a_hi - hi) + b_hi * a_lo + b_lo * a_hi) + b_lo * a_lo
        row[k + u0 - d1 + i : k + u0 - d1 + i + len(b)] = _exact_sums(hi) + lo.sum(axis=1)
    return row / REFERENCE_SCALE**2


# The kernel's relative error: a few ulps near the modes of its two pmfs, and
# in their tails a few ulps of |log b|, the exponent that Loader's method
# feeds to exp; so an entry v is held to EXACT_REL + EXACT_PER_NAT |ln v|.
# Over the grids below the kernel reached 0.70 of it (n = 5000, p = 0.3).
EXACT_REL, EXACT_PER_NAT = 2e-14, 2e-15


def assert_rows_exact(row, reference):
    """Each entry within the stated tolerance of the reference where that is
    a normal double, and below the smallest normal double elsewhere."""
    normal = reference >= np.finfo(float).tiny
    ref = reference[normal]
    bound = (EXACT_REL + EXACT_PER_NAT * np.abs(np.log(ref))) * ref
    assert np.all(np.abs(row[normal] - ref) <= bound), np.max(np.abs(row[normal] - ref) / bound)
    assert np.all(row[~normal] < np.finfo(float).tiny)


@pytest.mark.parametrize("n,p", [(12, 0.3), (40, 1 / 40), (40, 0.9), (300, 0.5)])
def test_reference_rows_match_exact_sums(n, p):
    for k in range(0, n + 1, 1 if n <= 40 else 37):
        reference = reference_mutation_class_row(n, p, k)
        with localcontext() as ctx:
            ctx.prec = 50
            for l, exact in enumerate(exact_mutation_entries(n, p, k, range(n + 1), Decimal("1e-360"))):
                if exact >= Decimal(np.finfo(float).tiny):
                    assert abs(Decimal(reference[l]) - exact) <= Decimal(1.5 * 2.0**-52) * exact, (k, l)


ROW_GRID = [(n, p) for n in (1, 2, 10, 200, 600) for p in (1 / n, 10 / n, 0.3) if p < 1.0]


@pytest.mark.parametrize("n,p", ROW_GRID)
def test_mutation_rows_match_exact_sums(n, p):
    for k in range(n + 1):
        assert_rows_exact(mutation_class_row(n, p, k), reference_mutation_class_row(n, p, k))


@pytest.mark.parametrize("p", [1 / 2000, 10 / 2000, 0.3])
def test_mutation_rows_match_exact_sums_spot_rows(p):
    for k in (0, 1, 2, 500, 1000, 1998, 1999, 2000):
        assert_rows_exact(mutation_class_row(2000, p, k), reference_mutation_class_row(2000, p, k))


PARTIAL_ROW_GRID = [
    (n, p) for n in (1, 2, 3, 10, 57, 200) for p in (1 / n, 10 / n, 0.3, 0.5, 0.9) if p < 1.0
]


@pytest.mark.parametrize("n,p", PARTIAL_ROW_GRID)
def test_partial_mutation_rows_match_exact_sums(n, p):
    # n <= 3 with k in {0, n} and p in {0.5, 0.9} gives one-entry pmfs
    for k in range(n + 1):
        full = reference_mutation_class_row(n, p, k)
        for lowest in sorted({0, k, k + 1, n}):
            row = mutation_class_row(n, p, k, lowest)
            assert row.shape == (n + 1,)
            assert_rows_exact(row[lowest:], full[lowest:])
            assert not row[:lowest].any(), (k, lowest)


BLOCK_GRID = [(n, p) for n in (1, 2, 3, 57, 600) for p in (1 / n, 10 / n, 0.3, 0.5, 0.9) if p < 1.0]


@pytest.mark.parametrize("n,p", BLOCK_GRID)
def test_row_blocks_equal_stacked_single_rows(n, p):
    for per_row in (False, True):  # lowest 0, or k + 1 for each parent k
        singles = np.array([mutation_class_row(n, p, k, k + 1 if per_row else 0) for k in range(n + 1)])
        # blocks of 32 parents, then one block over every parent 0..n
        for k, count in [*((k, min(32, n + 1 - k)) for k in range(0, n + 1, 32)), (0, n + 1)]:
            lowest = np.arange(k + 1, k + count + 1) if per_row else 0
            block = mutation_class_row(n, p, k, lowest, count=count)
            assert block.shape == (count, n + 1)
            assert np.array_equal(block, singles[k : k + count]), (per_row, k, count)


@pytest.mark.parametrize("per_row", [False, True])
def test_row_block_at_full_window_width_equals_stacked_single_rows(per_row):
    # at p = 0.5 and n = 2000 the down-flip laws of this block (576..607
    # trials) stay above the smallest double over their whole support, and the
    # up-flip laws' windows are about 1300 wide: the widest windows a block gets
    n, p, k = 2000, 0.5, 576
    down = np.arange(k, k + 32)
    offset, table = binomial_pmfs(np.concatenate([n - down, down]), p)
    assert np.array_equal((table[32:] > 0).sum(axis=1), down + 1)
    assert (table[:32] > 0).sum(axis=1).min() > 1200
    lowest = np.arange(k + 1, k + 33) if per_row else 0
    block = mutation_class_row(n, p, k, lowest, count=32)
    singles = [mutation_class_row(n, p, k + i, k + i + 1 if per_row else 0) for i in range(32)]
    assert np.array_equal(block, np.array(singles))


def test_row_block_rejects_parents_past_n():
    with pytest.raises(ValueError, match="ones-count"):
        mutation_class_row(4, 0.1, 3, count=3)
    with pytest.raises(ValueError, match="ones-count"):
        mutation_class_row(4, 0.1, 0, count=0)


TOLERANCE_GRID = [
    (n, p) for n in (1, 2, 3, 10, 57, 200, 600) for p in (1 / n, 10 / n, 0.3, 0.5, 0.9) if p < 1.0
]


@pytest.mark.parametrize("n,p", TOLERANCE_GRID)
def test_upward_mutation_rows_match_exact_sums(n, p):
    for k in range(0, n + 1, 1 if n <= 200 else 7):
        reference = reference_mutation_class_row(n, p, k)
        assert_rows_exact(mutation_class_row(n, p, k), reference)
        assert_rows_exact(mutation_class_row(n, p, k, k + 1)[k + 1 :], reference[k + 1 :])


@pytest.mark.parametrize("p", [1 / 5000, 10 / 5000, 0.3, 0.5, 0.9])
def test_upward_mutation_rows_match_exact_sums_spot_rows(p):
    for k in (0, 1, 2, 2500, 4998, 4999, 5000):
        assert_rows_exact(mutation_class_row(5000, p, k), reference_mutation_class_row(5000, p, k))


@pytest.mark.parametrize("n,p", TOLERANCE_GRID)
def test_trimmed_rows_equal_whole_rows(n, p):
    # a row asked for the columns >= lowest drops the flips that reach none of
    # them, and each column it keeps sums the same terms in the same order
    for k in range(0, n + 1, 1 if n <= 200 else 7):
        whole = mutation_class_row(n, p, k)
        for lowest in sorted({k, k + 1, (k + n + 1) // 2, n}):
            row = mutation_class_row(n, p, k, min(lowest, n))
            assert np.array_equal(row[lowest:], whole[lowest:]), (k, lowest)


@pytest.mark.parametrize("n", [1, 2, 10, 57, 600, 1000, 1100, 2000])
def test_binomial_start_law_matches_exact_values(n):
    # a uniform string's ones-count law, which the chains start from; each
    # math.comb(n, j) / 2**n is the correctly rounded double, 0 past 2^-1075
    exact = np.array([math.comb(n, j) / 2**n for j in range(n + 1)])
    assert_rows_exact(binomial_law(n, 0.5), exact)


# relative error allowed on the pinned entries (those above 1e-40: 20 steps
# up from five parents, and the row's mean and +-1 and +-3 standard
# deviations); the kernel reached 2.3e-15 at 1/n and 10/n, 4.7e-15 at 0.5
PINNED_REL = {"1/n": 1e-13, "10/n": 1e-13, "0.5": 1e-14}


PINNED_GRID = [(n, rate) for n in (10, 100, 1000, 10**4, 10**5) for rate in sorted(PINNED_REL) if (n, rate) != (10, "10/n")]


@pytest.mark.parametrize("n,rate", PINNED_GRID)
def test_sampled_mutation_entries_pinned_to_exact_sums(n, rate):
    p = {"1/n": 1 / n, "10/n": 10 / n, "0.5": 0.5}[rate]
    checked = 0
    for k in sorted({0, 1, n // 3, n // 2, n - 1}):
        sd = math.sqrt(n * p * (1 - p))
        mean = k + (n - 2 * k) * p
        ones = sorted({k + e for e in range(-2, 21)} | {round(mean + t * sd) for t in (-3, -1, 0, 1, 3)})
        ones = [l for l in ones if 0 <= l <= n]
        row = mutation_class_row(n, p, k)
        for l, value in zip(ones, exact_mutation_entries(n, p, k, ones)):
            if value < Decimal("1e-40"):
                continue  # its decimal sum is not pinned to 40 digits
            assert row[l] == pytest.approx(float(value), rel=PINNED_REL[rate], abs=0.0), (k, l)
            checked += 1
    assert checked >= 10


def convolved_mutation_class_row(n, p, k):
    """Reference in linear space: the laws of the up-flip and down-flip counts
    convolved.  Masses below the smallest double are lost, which no expected
    time feels."""

    def law(m):
        j = np.arange(m + 1)
        return np.exp(gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1) + j * math.log(p) + (m - j) * math.log1p(-p))

    return np.convolve(law(n - k), law(k)[::-1])


@pytest.mark.parametrize("n", [1000, 2000])
def test_banded_chain_expected_time_within_tolerance(n):
    p = 1 / n
    t = np.zeros((n + 1, n + 1))
    for k in range(n):
        t[k, k + 1 :] = convolved_mutation_class_row(n, p, k)[k + 1 :]
        t[k, k] = max(0.0, 1.0 - t[k, k + 1 :].sum())
    t[n, n] = 1.0
    chain = onemax_level_matrix(n, p)
    reference = summarize(LevelChain(t, chain.start)).expected_time
    assert summarize(chain).expected_time == pytest.approx(reference, rel=1e-13, abs=0.0)


def test_single_term_mutation_entries_pinned():
    # one flip pattern per entry, valued exactly in rationals at the double p
    # k = n - 1 -> n flips exactly the one zero-bit: p (1-p)^(n-1)
    for p in (0.3, 0.5):
        expected = float(Fraction(p) * (1 - Fraction(p)) ** 399)
        assert mutation_class_row(400, p, 399)[400] == pytest.approx(expected, rel=1e-14, abs=0.0)
    # Jump(400, 3) from n - 3 ones to the optimum flips exactly the three zero-bits
    assert float(Fraction(1 / 400) ** 3 * (1 - Fraction(1 / 400)) ** 397) == 5.7841967413222921e-9
    row = mutation_class_row(400, 1 / 400, 397, 400)
    assert row[400] == pytest.approx(5.7841967413222921e-9, rel=1e-14, abs=0.0)
    chain = jump_level_matrix(400, 3, 1 / 400)
    assert chain.transition[chain.labels.index(397), -1] == row[400]


def test_mutation_row_total_probability():
    for k in (0, 7, 13, 20):
        row = mutation_class_row(20, 1 / 20, k)
        assert abs(row.sum() - 1.0) < 1e-10


def test_log_space_survives_large_dimension():
    for n in (1000, 2000):
        for k in (0, n // 2, n - 1):
            assert mutation_class_row(n, 1 / n, k)[k + 1] > 0.0
    # naive direct evaluation hits p^150 = 0 long before this value (~1e-262)
    deep_tail = mutation_class_row(1000, 1 / 1000, 0)[150]
    assert 0.0 < deep_tail < 1e-200


def test_log_space_agrees_with_direct_evaluation():
    # direct two-binomial sum, safe at small n
    n, p, k = 12, 0.3, 5
    row = mutation_class_row(n, p, k)
    for l in range(n + 1):
        direct = sum(
            math.comb(n - k, u) * math.comb(k, u - (l - k)) * p ** (2 * u - l + k) * (1 - p) ** (n - 2 * u + l - k)
            for u in range(max(0, l - k), min(n - k, l) + 1)
        )
        assert row[l] == pytest.approx(direct, rel=1e-10)


def reference_onemax_level_matrix(n, p, start):
    """Reference: the OneMax chain built directly over ones-counts, upward
    mutation mass accepted and the rest folded into the self-loop."""
    t = np.zeros((n + 1, n + 1))
    for k in range(n):
        row = mutation_class_row(n, p, k)
        t[k, k + 1 :] = row[k + 1 :]
        t[k, k] = max(0.0, 1.0 - t[k, k + 1 :].sum())
    t[n, n] = 1.0
    if start == "random":
        s = binomial_law(n, 0.5)  # its accuracy: test_binomial_start_law_matches_exact_values
    else:
        s = np.zeros(n + 1)
        s[start] = 1.0
    return t, s, tuple(range(n + 1))


def reference_jump_level_matrix(n, k, p):
    """Reference: the jump chain built one mutation row per level, the levels
    in increasing fitness, accepted mass upward and the rest in the self-loop."""
    fitness = [k + a if a <= n - k or a == n else n - a for a in range(n + 1)]
    ones = sorted(range(n + 1), key=fitness.__getitem__)
    t = np.zeros((n + 1, n + 1))
    for i, a in enumerate(ones[:-1]):
        row = mutation_class_row(n, p, a)
        t[i, i + 1 :] = row[ones[i + 1 :]]
        t[i, i] = max(0.0, 1.0 - t[i, i + 1 :].sum())
    t[n, n] = 1.0
    return t, tuple(ones)


@pytest.mark.parametrize("n,k,p", [(400, 3, 1 / 400), (600, 5, 10 / 600)])
def test_jump_matrix_matches_per_row_reference(n, k, p):
    t, labels = reference_jump_level_matrix(n, k, p)
    chain = jump_level_matrix(n, k, p)
    assert chain.labels == labels
    assert np.array_equal(chain.transition, t)


ONEMAX_GRID = [(n, p) for n in [*range(1, 60), 100, 200] for p in (1 / n, 10 / n, 0.3) if p < 1.0]


@pytest.mark.parametrize("n,p", ONEMAX_GRID)
def test_onemax_matrix_matches_reference(n, p):
    for start in ("random", 0, n // 2, n):
        t, s, labels = reference_onemax_level_matrix(n, p, start)
        chain = onemax_level_matrix(n, p, start)
        assert np.array_equal(chain.transition, t), start
        assert np.array_equal(chain.start, s), start
        assert chain.labels == labels


def test_ones_count_chains_reject_bad_sizes():
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        onemax_level_matrix(0, 0.5)
    with pytest.raises(ValueError, match="^n must be >= 1$"):
        jump_level_matrix(0, 1, 0.5)
    for k in (0, 5):
        with pytest.raises(ValueError, match="^jump size must be in"):
            jump_level_matrix(4, k, 0.25)


def test_onemax_matrix_single_bit():
    chain = onemax_level_matrix(1, 0.5)
    assert chain.transition[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert chain.transition[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_onemax_matrix_rows_sum_to_one():
    chain = onemax_level_matrix(10, 0.1)
    np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)


def test_chain_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        LevelChain(np.array([[0.5, 0.4], [0.0, 1.0]]), np.array([1.0, 0.0]))  # row sum
    with pytest.raises(ValueError):
        LevelChain(np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([1.0, 0.0]))  # decreasing move
    with pytest.raises(ValueError):
        LevelChain(np.eye(2), np.array([0.7, 0.7]))  # start not a distribution
    with pytest.raises(ValueError, match="start distribution"):
        LevelChain(np.eye(2), np.array([np.nan, np.nan]))  # e.g. 0/0 from an underflowed law
    with pytest.raises(ValueError, match="transition row"):
        LevelChain(np.array([[np.nan, np.nan], [0.0, 1.0]]), np.array([1.0, 0.0]))


# (row, column) below the diagonal of a 300-level chain: in the first block of
# rows and the last, left of a block and inside its own square, next to the
# diagonal and far from it
@pytest.mark.parametrize("row,col", [(1, 0), (5, 4), (127, 0), (128, 127), (130, 129), (200, 3), (299, 0), (299, 298)])
def test_chain_validation_finds_every_decreasing_move(row, col):
    t = np.eye(300)
    LevelChain(t, np.eye(300)[0])
    t[row, row], t[row, col] = 1.0 - 1e-300, 1e-300
    with pytest.raises(ValueError, match="non-decreasing"):
        LevelChain(t, np.eye(300)[0])


def test_chain_arrays_are_read_only():
    t = np.array([[0.5, 0.5], [0.0, 1.0]])
    start = np.array([1.0, 0.0])
    chain = LevelChain(t, start)
    with pytest.raises(ValueError):
        chain.transition[0, 0] = 0.0
    with pytest.raises(ValueError):
        chain.start[1] = 1.0
    t[0, 0] = 0.0  # the caller's arrays stay writable and do not reach the chain
    assert chain.transition[0, 0] == 0.5
    np.testing.assert_array_equal(visit_probabilities(chain), [1.0, 1.0])


def test_chain_takes_over_only_read_only_arrays_that_own_their_data():
    t = np.array([[0.5, 0.5], [0.0, 1.0]])
    start = np.array([1.0, 0.0])
    t.flags.writeable = start.flags.writeable = False
    chain = LevelChain(t, start)
    assert chain.transition is t and chain.start is start  # handed over, not copied
    base = np.array([[0.5, 0.5], [0.0, 1.0]])
    view = base[:]
    view.flags.writeable = False  # read-only, but its base stays writeable
    chain = LevelChain(view, [1.0, 0.0])
    assert chain.transition is not view and not chain.transition.flags.writeable
    assert base.flags.writeable
    base[0, 0] = 0.0
    assert chain.transition[0, 0] == 0.5


@pytest.mark.parametrize("build", [onemax_level_matrix, lambda n, p: jump_level_matrix(n, 3, p)])
def test_level_chain_build_holds_one_matrix_at_peak(build):
    n = 1000
    tracemalloc.start()
    try:
        chain = build(n, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.m_levels == n + 1
    assert peak < 1.5 * 8 * (n + 1) ** 2  # the chain keeps its builder's matrix


def test_visit_probabilities_hand_chain():
    np.testing.assert_allclose(visit_probabilities(hand_chain()), [1.0, 0.5, 1.0], atol=1e-15)


def test_visit_probabilities_point_mass_at_top():
    t = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    chain = LevelChain(t, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(visit_probabilities(chain), [0.0, 0.0, 1.0], atol=1e-15)


def test_visit_probabilities_absorbing_interior_rejected():
    t = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    chain = LevelChain(t, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="absorbing"):
        visit_probabilities(chain)
    with pytest.raises(ValueError, match="absorbing"):
        expected_hitting_time(chain)


def counting(monkeypatch, name):
    """Replace chains.<name> by a wrapper that counts its calls."""
    calls = []
    original = getattr(chains_module, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(chains_module, name, wrapped)
    return calls


def test_summarize_runs_each_recursion_once_through_the_module(monkeypatch):
    # through the public names, so wrappers on the module (a profiler's) see both;
    # one forward pass: the backward one needs it only for an absorbing interior level
    chain = onemax_level_matrix(20, 1 / 20)
    before = summarize(chain)
    visits = counting(monkeypatch, "visit_probabilities")
    times = counting(monkeypatch, "expected_hitting_time")
    after = summarize(chain)
    assert len(visits) == 1 and len(times) == 1
    assert after.expected_time == before.expected_time
    np.testing.assert_array_equal(after.visit_probs, before.visit_probs)
    np.testing.assert_array_equal(after.leave_probs, before.leave_probs)


def test_expected_hitting_time_hand_chain():
    overall, per_level = expected_hitting_time(hand_chain())
    assert overall == pytest.approx(2.5, abs=1e-12)  # E0 = 2 + 0.5 * 1
    assert per_level[1] == pytest.approx(1.0, abs=1e-12)


def test_expected_hitting_time_past_unreachable_absorbing_level():
    # level 1 is absorbing but level 0 never moves there: 0 * inf must not reach E_0
    t = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0]])
    chain = LevelChain(t, np.array([1.0, 0.0, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overall, per_level = expected_hitting_time(chain)
        summary = summarize(chain)
    assert overall == 4.0 and summary.expected_time == 4.0
    np.testing.assert_array_equal(per_level, [4.0, math.inf, 2.0, 0.0])
    # a level that can move to the absorbing one never finishes
    t[0] = [0.5, 0.25, 0.25, 0.0]
    _, per_level = expected_hitting_time(LevelChain(t, np.array([0.0, 0.0, 1.0, 0.0])))
    np.testing.assert_array_equal(per_level, [math.inf, math.inf, 2.0, 0.0])


def test_summarize_runs_one_visit_pass_past_unreachable_absorbing_level(monkeypatch):
    # the reachability check runs only when the expectation is infinite
    t = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 1.0]])
    calls = []
    counted = chains_module.visit_probabilities

    def counting(chain):
        calls.append(chain)
        return counted(chain)

    monkeypatch.setattr(chains_module, "visit_probabilities", counting)
    assert summarize(LevelChain(t, np.array([1.0, 0.0, 0.0, 0.0]))).expected_time == 4.0
    assert len(calls) == 1


def test_expected_hitting_time_geometric():
    t = np.array([[0.75, 0.25], [0.0, 1.0]])
    chain = LevelChain(t, np.array([1.0, 0.0]))
    overall, _ = expected_hitting_time(chain)
    assert overall == pytest.approx(4.0, abs=1e-12)


def test_identity_visits_over_rates_on_random_chains(rng):
    for _ in range(300):
        chain = random_level_chain(rng, int(rng.integers(2, 9)))
        v = visit_probabilities(chain)
        overall, _ = expected_hitting_time(chain)
        identity = float(np.sum(v[:-1] / chain.leave_probs[:-1]))
        assert abs(identity - overall) < 1e-9


def test_visit_probability_matrix_matches_point_mass_runs(rng):
    chain = random_level_chain(rng, 7)
    matrix = visit_probability_matrix(chain)
    for k in range(7):
        point = LevelChain(chain.transition, np.eye(7)[k])
        np.testing.assert_allclose(matrix[k], visit_probabilities(point), atol=1e-12)


def test_skip_probability_top_level_never_skipped(rng):
    chain = random_level_chain(rng, 6)
    assert skip_probability(chain, 5, 5) == pytest.approx(0.0, abs=1e-12)


def test_skip_probability_covering_start_mass_is_zero():
    chain = hand_chain()
    assert skip_probability(chain, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_skip_probability_hand_value():
    # skipping level 1 of the hand chain: leave 0 directly to level 2
    assert skip_probability(hand_chain(), 1, 1) == pytest.approx(0.5, abs=1e-15)


def test_jump_chain_gap_moves_toward_both_sides():
    chain = jump_level_matrix(4, 2, 1 / 4)
    labels = list(chain.labels)
    i3, i2, i4 = labels.index(3), labels.index(2), labels.index(4)
    assert chain.transition[i3, i4] > 0.0  # optimum reachable from the gap
    assert chain.transition[i3, i2] > 0.0  # and the better non-gap class too
    assert i2 > i3  # fitness 4 beats fitness 1 in the level order


def test_jump_chain_matches_double_loop_reference():
    from flmlab.chains import jump_fitness_order

    for n, k, start in [(10, 3, "random"), (40, 2, 5), (60, 7, "random")]:
        order = jump_fitness_order(n, k)
        position = {a: i for i, a in enumerate(order)}
        t = np.zeros((n + 1, n + 1))
        for a in range(n + 1):
            i = position[a]
            if a == n:
                t[i, i] = 1.0
                continue
            row = mutation_class_row(n, 1 / n, a)
            for b in range(n + 1):
                if position[b] > i:
                    t[i, position[b]] = row[b]
            t[i, i] = max(0.0, 1.0 - t[i, i + 1 :].sum())
        # the start law over ones-counts: a uniform string's
        if start == "random":
            class_start = binomial_law(n, 0.5)
        else:
            class_start = np.zeros(n + 1)
            class_start[start] = 1.0
        start_vec = np.zeros(n + 1)
        for a in range(n + 1):
            start_vec[position[a]] = class_start[a]
        chain = jump_level_matrix(n, k, 1 / n, start=start)
        assert np.array_equal(chain.transition, t)
        assert np.array_equal(chain.start, start_vec)


def test_jump_chain_rows_sum_to_one():
    chain = jump_level_matrix(14, 3, 1 / 14)
    np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n,k", [(8, 2), (10, 3), (12, 3)])
def test_jump_chain_matches_full_state(n, k):
    benchmark = make_benchmark("jump", n, k)
    oracle = full_state_expected_time(benchmark, 1 / n)
    chain = jump_level_matrix(n, k, 1 / n)
    overall, _ = expected_hitting_time(chain)
    assert abs(overall - oracle.expected_time) < 1e-6


def test_onemax_chain_matches_full_state():
    benchmark = make_benchmark("onemax", 8)
    oracle = full_state_expected_time(benchmark, 1 / 8)
    overall, _ = expected_hitting_time(onemax_level_matrix(8, 1 / 8))
    assert abs(overall - oracle.expected_time) < 1e-6


def test_onemax_chain_visit_probabilities_match_full_state():
    # n = 14 is the full-state oracle's cap; its largest OneMax class holds
    # C(14, 7) = 3432 states, so no block is larger than 3432 x 2^14
    n = 14
    oracle = full_state_expected_time(make_benchmark("onemax", n), 1 / n)
    chain = summarize(onemax_level_matrix(n, 1 / n))
    np.testing.assert_allclose(oracle.visit_probs, chain.visit_probs, rtol=1e-12, atol=0)
    assert oracle.expected_time == pytest.approx(chain.expected_time, rel=1e-12)


def test_jump_skip_probability_desk_check():
    # non-gap region of jump(10, 3) under random initialization
    chain = jump_level_matrix(10, 3, 1 / 10)
    labels = list(chain.labels)
    block = [i for i, a in enumerate(labels) if a <= 10 - 3]
    assert block == list(range(min(block), max(block) + 1))
    q = skip_probability(chain, min(block), max(block))
    assert q <= 20 * 2**-10


def test_full_state_single_bit_onemax():
    result = full_state_expected_time(make_benchmark("onemax", 1), 0.5)
    assert result.expected_time == pytest.approx(1.0, abs=1e-12)


def test_full_state_leadingones_matches_closed_form():
    result = full_state_expected_time(make_benchmark("leadingones", 2), 0.5)
    assert result.expected_time == pytest.approx(3.0, abs=1e-9)
    assert result.expected_time == pytest.approx(leadingones_exact(2, 0.5), abs=1e-9)


def test_full_state_rejects_large_dimension():
    with pytest.raises(ValueError):
        full_state_expected_time(make_benchmark("onemax", 15), 0.1)


def test_full_state_refuses_more_than_physical_memory_before_allocating(monkeypatch):
    # one byte below the guard's need for the largest OneMax class, C(12, 6) states
    need = chains_module.FULL_STATE_CLASS_ARRAYS * 8 * math.comb(12, 6) ** 2
    monkeypatch.setattr(chains_module, "_physical_memory", lambda: need - 1)
    benchmark = make_benchmark("onemax", 12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            full_state_expected_time(benchmark, 1 / 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # no block of class rows was built


# the largest class: C(12, 6) ones-count states; 2^10 strings starting with a zero
@pytest.mark.parametrize("kind,n,k,largest", [
    ("onemax", 12, None, math.comb(12, 6)),
    ("leadingones", 11, None, 2**10),
    ("jump", 12, 3, math.comb(12, 6)),
])
def test_full_state_holds_about_one_class_matrix_at_peak(kind, n, k, largest):
    benchmark = make_benchmark(kind, n, k)
    tracemalloc.start()
    try:
        full_state_expected_time(benchmark, 1 / n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # I - T_cc of the largest class, its uint8 distances to the higher states
    # and one block; no (class x higher states) float64 matrix
    assert peak <= 1.6 * 8 * largest**2


RSS_GROWTH_SCRIPT = r"""
import contextlib, io
from flmlab.cli import main


def status(key):  # kB
    return next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith(key + ":"))


rss = status("VmRSS")
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["oracle", "--full-state", "--benchmark", "leadingones", "--n", "12"])
print(code, 1024 * (status("VmHWM") - rss))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the resident set size from /proc")
def test_full_state_rss_holds_no_copy_of_the_class_matrix():
    # tracemalloc does not see buffers LAPACK allocates itself, such as a
    # solve's copy of I - T_cc; RSS does: the peak RSS of the child's own
    # address space (VmHWM; ru_maxrss would start at this process's peak)
    # over its RSS after import.  Class 0 of LeadingOnes n = 12 holds the
    # 2^11 strings starting with a zero
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", RSS_GROWTH_SCRIPT], env=env,
                            capture_output=True, text=True, check=True)
    code, growth = map(int, result.stdout.split())
    assert code == 0
    assert growth < 1.5 * 8 * (2**11) ** 2


def test_longpath_chain_build_holds_one_matrix_at_peak():
    path = build_long_k_path(30, 3)
    m = len(path)
    tracemalloc.start()
    try:
        chain = longpath_level_matrix(path, 1 / 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert chain.m_levels == m
    assert peak <= 1.2 * 8 * m * m  # the matrix and one block of rows, no m x m temporaries


def test_longpath_chain_refuses_more_than_physical_memory_before_allocating(monkeypatch):
    path = build_long_k_path(24, 3)
    m = len(path)
    monkeypatch.setattr(chains_module, "_physical_memory", lambda: 8 * m * m - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            longpath_level_matrix(path, 1 / 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m  # not even one row of the m x m distance matrix


def test_level_chain_refuses_more_than_physical_memory_before_allocating(monkeypatch):
    def need(n):
        return chains_module.LEVEL_DENSE_ARRAYS * 8 * (n + 1) ** 2

    monkeypatch.setattr(chains_module, "_physical_memory", lambda: need(1000) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="physical memory"):
            onemax_level_matrix(1000, 1 / 1000)
        with pytest.raises(ValueError, match="physical memory"):
            jump_level_matrix(1000, 3, 1 / 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # not one (n+1) x (n+1) matrix, which is 8 MB
    monkeypatch.setattr(chains_module, "_physical_memory", lambda: need(100))
    assert onemax_level_matrix(100, 1 / 100).m_levels == 101  # exactly enough memory


def test_full_state_fixed_level_start():
    result = full_state_expected_time(make_benchmark("onemax", 6), 1 / 6, start=6)
    assert result.expected_time == pytest.approx(0.0, abs=1e-12)
    chain = onemax_level_matrix(6, 1 / 6, start=3)
    overall, _ = expected_hitting_time(chain)
    fixed = full_state_expected_time(make_benchmark("onemax", 6), 1 / 6, start=3)
    assert abs(overall - fixed.expected_time) < 1e-9


def test_truncate_chain_gives_partial_passage_times():
    n = 10
    chain = onemax_level_matrix(n, 1 / n, start=2)
    truncated = truncate_chain(chain, 7)
    overall, times = expected_hitting_time(truncated)
    # against an independent absorbing-state solve on the original matrix
    q = chain.transition[:7, :7]
    direct = np.linalg.solve(np.eye(7) - q, np.ones(7))
    assert overall == pytest.approx(direct[2], rel=1e-12)
    assert times[2] == pytest.approx(direct[2], rel=1e-12)


def test_longpath_chain_against_full_state():
    bm = make_benchmark("longpath", 6, 3)
    chain = longpath_level_matrix(bm.path, 1 / 6)
    overall, _ = expected_hitting_time(chain)
    oracle = full_state_expected_time(bm, 1 / 6, start=bm.path.points[0])
    assert abs(overall - oracle.expected_time) < 1e-8


def test_longpath_chain_matches_distance_tensor_reference():
    # (24, 3) has 766 positions, so the chain is built in several row blocks
    for n, k in [(6, 2), (12, 3), (15, 5), (24, 3)]:
        path = build_long_k_path(n, k)
        pts = np.array(path.points, dtype=np.int16)
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
        for p in (1 / n, 0.1, 0.5, 0.9):
            t = np.triu(np.exp(dist * math.log(p) + (n - dist) * math.log1p(-p)), k=1)
            np.fill_diagonal(t, np.maximum(1.0 - t.sum(axis=1), 0.0))
            assert np.array_equal(longpath_level_matrix(path, p).transition, t), (n, k, p)


def test_summary_bundles_consistent_values():
    chain = onemax_level_matrix(12, 1 / 12)
    summary = summarize(chain)
    assert summary.expected_time == pytest.approx(
        float(np.sum(summary.visit_probs[:-1] / summary.leave_probs)), abs=1e-9
    )
