import decimal
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from flmlab.benchmarks import build_long_k_path
from flmlab.bounds import flm_upper_visit
from flmlab.chains import (
    expected_hitting_time,
    full_state_expected_time,
    jump_level_matrix,
    longpath_level_matrix,
    onemax_level_matrix,
    skip_probability,
    truncate_chain,
    visit_probabilities,
    visit_probability_matrix,
)
from flmlab.formulas import (
    e_n_factor,
    jump_bounds,
    leadingones_exact,
    leadingones_leave_probs,
    longpath_leave_prob,
    longpath_leave_prob_bound,
    longpath_level_visit_lower,
    longpath_lower_bound,
    longpath_visit_lower,
    onemax_bounds,
    onemax_leave_probs,
    onemax_skip_bound,
    sudholt_reference_bound,
)


def test_e_n_values():
    assert e_n_factor(2) == pytest.approx(2.0)
    assert e_n_factor(1) == pytest.approx(1.0)
    assert math.e * 0.99 <= e_n_factor(100) <= math.e


def test_e_n_bracket_for_all_small_n():
    for n in range(2, 500):
        assert math.e * (1 - 1 / n) <= e_n_factor(n) <= math.e


def test_leadingones_exact_values():
    assert leadingones_exact(1, 0.5) == pytest.approx(1.0)
    assert leadingones_exact(2, 0.5) == pytest.approx(3.0)


def test_leadingones_exact_matches_direct_sum():
    for n, p in [(5, 0.3), (20, 0.05), (100, 1 / 100)]:
        direct = 0.5 * sum(1.0 / ((1 - p) ** i * p) for i in range(n))
        assert leadingones_exact(n, p) == pytest.approx(direct, rel=1e-12)


def test_leadingones_exact_near_asymptotic_value():
    # the limit expression n^2 (e-1) / 2 evaluates to 8591.41... at n=100
    target = 100**2 * (math.e - 1) / 2
    assert abs(leadingones_exact(100, 1 / 100) - target) / target < 0.02


def test_leadingones_ratio_to_asymptote_monotone():
    ratios = [
        leadingones_exact(n, 1 / n) / (n**2 * (math.e - 1) / 2)
        for n in (10, 20, 50, 100, 200, 500, 1000)
    ]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert 0.98 <= ratios[3] <= 1.02  # n = 100
    assert all(r <= 1.0 for r in ratios)


def test_leadingones_level_sum_matches_closed_form():
    # compare's exact value, sum v_i / p_i with v_i = 1/2, against the
    # geometric-series closed form (measured worst: 7.7e-16 relative)
    worst = 0.0
    for n in range(2, 2001):
        for p in (1 / n, 2 / n):
            if p < 1.0:
                level_sum = flm_upper_visit(leadingones_leave_probs(n, p), np.full(n, 0.5)).value
                closed = leadingones_exact(n, p)
                worst = max(worst, abs(level_sum - closed) / closed)
    assert worst <= 2e-15


def test_leadingones_exact_rejects_bad_rate():
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            leadingones_exact(5, bad)


def test_longpath_bound_overflow_is_one_error_naming_its_parameters():
    # m = 8000 path points, but (1 - p)^n underflows and the waiting time with it
    with pytest.raises(ValueError, match=r"^long k-path bound at n=3000, k=1000, p=0\.4 overflows a double$"):
        longpath_lower_bound(3000, 1000, 0.4)


def test_leadingones_leave_probs_closed_form():
    probs = leadingones_leave_probs(4, 0.25)
    np.testing.assert_allclose(probs, [0.25 * 0.75**i for i in range(4)])


@pytest.mark.parametrize("n,p", [(2000, 1 / 2000), (1000, 0.3), (10**5, 1e-5)])
def test_leadingones_level_sum_within_1e_15_of_decimal(n, p):
    # (1-p)^i from the rounded 1 - p lost about i ulps: these sums were 6.4e-14,
    # 7.9e-14 and 2.6e-12 off; the reference is the geometric series at the
    # double p, 0.5/p * (r^n - 1)/(r - 1) with r = 1/(1-p), in 60 digits
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rate = decimal.Decimal(p)
        r = 1 / (1 - rate)
        reference = decimal.Decimal("0.5") / rate * (r**n - 1) / (r - 1)
        level_sum = flm_upper_visit(leadingones_leave_probs(n, p), np.full(n, 0.5)).value
        assert abs(decimal.Decimal(level_sum) - reference) <= decimal.Decimal("1e-15") * reference


def test_onemax_skip_bound_values():
    assert onemax_skip_bound(10, 10) == 0.0
    assert onemax_skip_bound(10, 9) == pytest.approx(0.1 / 0.9**8, rel=1e-12)
    with pytest.raises(ValueError):
        onemax_skip_bound(1, 1)


def test_onemax_skip_bound_dominates_exact_chain():
    # oracle: exact per-start visit probabilities of the level chain, for
    # every dimension up to 200 and every fixed start below the level
    for n in range(2, 201):
        matrix = visit_probability_matrix(onemax_level_matrix(n, 1 / n))
        for i in range(1, n + 1):
            worst_skip = float(np.max(1.0 - matrix[:i, i]))
            assert worst_skip <= onemax_skip_bound(n, i) + 1e-12


def test_onemax_bounds_adjacent_levels_have_no_correction():
    for n, k in [(10, 3), (50, 20)]:
        om = onemax_bounds(n, k, k + 1)
        leave = onemax_leave_probs(n, 1.0 / n)
        assert om.thm_lower == pytest.approx(om.tilde_t)
        assert om.tilde_t == pytest.approx(1.0 / leave[k])


# SHA-256 of the float64 bytes of onemax_leave_probs(n, 1/n), recorded with
# the mutation rows built from two binomial pmfs (Loader's method)
ONEMAX_LEAVE_PROBS_SHA256 = {
    10: "982562a0282e5d92a7449d541712db37bee217c0f670d1ac48463f0151d3d08a",
    200: "f3cb8c3db8e6b911a907a8c941661434e70bc34b5948402e58133a00c0a378dd",
    800: "77df0b316fe34429ddebe4d7b009b5a57c8ad1610faa2c698aea0f86176d9e22",
}


@pytest.mark.parametrize("n", sorted(ONEMAX_LEAVE_PROBS_SHA256))
def test_onemax_leave_probs_pinned(n):
    leave = onemax_leave_probs(n, 1 / n)
    assert leave.dtype == np.float64 and leave.shape == (n,)
    assert hashlib.sha256(leave.tobytes()).hexdigest() == ONEMAX_LEAVE_PROBS_SHA256[n]


def test_onemax_bounds_orderings_small_case():
    om = onemax_bounds(10, 8, 10)
    assert om.tilde_t_minus <= om.tilde_t <= om.tilde_t_plus
    assert om.thm_lower <= om.tilde_t


def test_onemax_bounds_sandwich_with_exact_passage_time():
    n, k, l = 100, 50, 100
    om = onemax_bounds(n, k, l)
    chain = onemax_level_matrix(n, 1.0 / n, start=k)
    overall, _ = expected_hitting_time(chain)
    assert om.thm_lower <= overall <= om.tilde_t


def test_onemax_bounds_orderings_sampled_dimensions(rng):
    for n in rng.choice(np.arange(2, 501), size=25, replace=False):
        n = int(n)
        k = int(rng.integers(0, n))
        l = int(rng.integers(k + 1, n + 1))
        om = onemax_bounds(n, k, l)
        assert om.tilde_t_minus <= om.tilde_t <= om.tilde_t_plus + 1e-9
        assert om.thm_lower <= om.tilde_t


def test_onemax_bounds_rejects_bad_range():
    with pytest.raises(ValueError):
        onemax_bounds(10, 5, 5)
    with pytest.raises(ValueError):
        onemax_bounds(10, -1, 5)


def test_jump_p_k_hand_value():
    jb = jump_bounds(4, 2)
    assert jb.p_k == pytest.approx(9 / 256, rel=1e-12)


def test_jump_skip_bound_single_term():
    for n in (6, 11, 40):
        jb = jump_bounds(n, 2, init="arbitrary")
        assert jb.skip_bound_arbitrary == pytest.approx(math.e / (n - 1), rel=1e-12)


def test_jump_skip_bound_random_dominates_exact():
    n, k = 12, 3
    chain = jump_level_matrix(n, k, 1 / n)
    labels = list(chain.labels)
    block = [i for i, a in enumerate(labels) if a <= n - k]
    exact = skip_probability(chain, min(block), max(block))
    jb = jump_bounds(n, k)
    assert exact <= jb.skip_bound_random


JUMP_SKIP_CASES = [(30, 3), (60, 3), (100, 3), (400, 3), (60, 4), (100, 5)]


@pytest.mark.parametrize("n,k", JUMP_SKIP_CASES)
def test_jump_exact_skip_probability_is_about_two_to_the_minus_n(n, k):
    # the paper's O(2^-n): the exact chance that a run from a uniform start
    # never has a parent in the non-gap region (1.877 to 2.016 times 2^-n)
    chain = jump_level_matrix(n, k, 1 / n)
    exact = skip_probability(chain, chain.labels.index(0), chain.labels.index(n - k))
    assert 1.85 <= exact * 2.0**n <= 2.05


@pytest.mark.parametrize("n,k", [(n, k) for n, k in JUMP_SKIP_CASES if n >= 60])
def test_jump_skip_bound_random_constant(n, k):
    # from n = 60 the term 2e n^(1 - ceil(n/4)) is negligible and the stated
    # bound is (6e + 1) 2^-n, about 9 times the exact probability
    assert jump_bounds(n, k).skip_bound_random * 2.0**n == pytest.approx(6 * math.e + 1, rel=1e-6)
    assert 6 * math.e + 1 == pytest.approx(17.3097, abs=5e-5)


def test_onemax_leave_probs_hold_a_row_block_at_peak():
    # rows are built about 1 MiB at a time: the full (n+1)^2 table would take 69 MiB
    tracemalloc.start()
    try:
        probs = onemax_leave_probs(3000, 1 / 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (3000,)
    assert peak < 4 * 2**20


def test_jump_bounds_reject_bad_parameters():
    with pytest.raises(ValueError):
        jump_bounds(10, 1)
    with pytest.raises(ValueError):
        jump_bounds(3, 2)
    with pytest.raises(ValueError):
        jump_bounds(10, 3, init="sideways")


def test_longpath_bounds_vanish_at_half():
    assert longpath_lower_bound(8, 2, 0.5) == 0.0
    assert sudholt_reference_bound(8, 2, 0.5) == 0.0


def test_longpath_lower_bound_clamp_case():
    # survival base 1 - 6 * (1/3) < 0 clamps the whole bound to zero
    assert longpath_lower_bound(4, 2, 0.25) == 0.0


def test_longpath_lower_bound_below_exact_chain():
    for n, k in [(8, 4), (12, 4)]:
        p = 1.0 / n
        path = build_long_k_path(n, k)
        overall, _ = expected_hitting_time(longpath_level_matrix(path, p))
        assert longpath_lower_bound(n, k, p) <= overall


def test_longpath_leave_prob_single_term():
    # k = 2 leaves only the one-bit step
    assert longpath_leave_prob(8, 2, 0.1) == pytest.approx(0.1 * 0.9**7, rel=1e-12)


def test_longpath_leave_prob_vanishing_bound_at_half():
    assert longpath_leave_prob_bound(8, 0.5) == math.inf
    assert longpath_visit_lower(0.5) == 0.0


def test_longpath_leave_prob_below_series_bound():
    for n, k, p in [(8, 2, 0.1), (12, 4, 1 / 12), (20, 5, 0.25), (9, 3, 0.5)]:
        assert longpath_leave_prob(n, k, p) <= longpath_leave_prob_bound(n, p)


def test_longpath_visit_lower_value():
    assert longpath_visit_lower(0.25) == pytest.approx((0.5) / 0.75, rel=1e-12)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 3), (12, 4), (12, 6), (15, 5)])
def test_longpath_level_visit_lower_below_exact_chain(n, k):
    path = build_long_k_path(n, k)
    for p in (0.5 / n, 1 / n, 2 / n, 0.05):
        interior = visit_probabilities(longpath_level_matrix(path, p))[1:-1]
        assert longpath_level_visit_lower(n, k, p) <= interior.min() * (1 + 1e-12)


def test_longpath_level_visit_lower_accounts_for_shortcuts():
    # the short-jump bound alone exceeds the exact chain once jumps of k or
    # more bits are allowed; the survival factor brings it below
    interior = visit_probabilities(longpath_level_matrix(build_long_k_path(6, 2), 1 / 6))[1:-1]
    assert longpath_visit_lower(1 / 6) > interior.min()
    assert longpath_level_visit_lower(6, 2, 1 / 6) == 0.0
    assert 0.5 < longpath_level_visit_lower(12, 4, 1 / 12) < 0.9


def test_longpath_parameter_validation():
    with pytest.raises(ValueError):
        longpath_lower_bound(9, 2, 0.1)  # k does not divide n
    with pytest.raises(ValueError):
        longpath_lower_bound(8, 2, 0.7)  # rate above 1/2


def test_jump_lower_bound_below_exact_for_both_inits():
    n, k = 10, 3
    chain = jump_level_matrix(n, k, 1 / n)
    _, times = expected_hitting_time(chain)
    labels = list(chain.labels)
    arbitrary = jump_bounds(n, k, init="arbitrary")
    worst_fixed_start = min(times[i] for i, a in enumerate(labels) if a != n)
    assert arbitrary.lower_bound <= worst_fixed_start
    random_init = jump_bounds(n, k, init="random")
    overall, _ = expected_hitting_time(chain)
    assert random_init.lower_bound <= overall
