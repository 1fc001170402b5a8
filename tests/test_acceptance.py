"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from flmlab.benchmarks import build_long_k_path, long_k_path_length, make_benchmark, verify_long_k_path
from flmlab.bounds import flm_lower_viscosity, flm_upper_viscosity, viscosity_params_from_chain
from flmlab.chains import (
    expected_hitting_time,
    full_state_expected_time,
    jump_level_matrix,
    longpath_level_matrix,
    onemax_level_matrix,
    skip_probability,
    summarize,
    truncate_chain,
    visit_probabilities,
    visit_probability_matrix,
)
from flmlab.cli import main as cli_main
from flmlab.experiments import ExperimentConfig, run_experiment
from flmlab.formulas import (
    jump_bounds,
    leadingones_exact,
    longpath_level_visit_lower,
    longpath_lower_bound,
    onemax_bounds,
    onemax_skip_bound,
    sudholt_reference_bound,
)

from conftest import random_level_chain


def report(number: int, ok: bool, started: float, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {verdict} ({time.perf_counter() - started:5.1f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_leadingones_exactness():
    started = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        oracle = full_state_expected_time(make_benchmark("leadingones", n), 0.5)
        worst = max(worst, abs(oracle.expected_time - leadingones_exact(n, 0.5)))
    hand_ok = abs(leadingones_exact(2, 0.5) - 3.0) < 1e-12
    report(1, worst <= 1e-9 and hand_ok, started,
           f"closed form vs full state n<=8, max dev {worst:.2e}; hand value 3.0 at n=2")


def test_criterion_02_leadingones_corollary():
    started = time.perf_counter()
    target = 100**2 * (math.e - 1) / 2  # 8591.41...
    exact = leadingones_exact(100, 1 / 100)
    relative = abs(exact - target) / target
    stats = run_experiment(ExperimentConfig(
        benchmark="leadingones", n=50, mutation_rate="1/n", replicates=10**4, master_seed=1002))
    closed = leadingones_exact(50, 1 / 50)
    deviation = abs(stats.mean - closed) / stats.std_error
    report(2, relative < 0.02 and deviation <= 3.0, started,
           f"n=100 within {relative * 100:.2f}% of n^2(e-1)/2={target:.1f}; "
           f"MC n=50 mean {stats.mean:.1f} vs {closed:.1f} ({deviation:.2f} SE)")


def test_criterion_03_visit_identity():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 201):
        chain = onemax_level_matrix(n, 1 / n)
        v = visit_probabilities(chain)
        overall, _ = expected_hitting_time(chain)
        worst = max(worst, abs(float(np.sum(v[:-1] / chain.leave_probs[:-1])) - overall))
    rng = np.random.default_rng(303)
    for _ in range(1000):
        chain = random_level_chain(rng, int(rng.integers(2, 9)))
        v = visit_probabilities(chain)
        overall, _ = expected_hitting_time(chain)
        worst = max(worst, abs(float(np.sum(v[:-1] / chain.leave_probs[:-1])) - overall))
    report(3, worst <= 1e-9, started,
           f"sum v_i/p_i == E[T] on 199 OneMax chains + 1000 synthetic chains, max dev {worst:.2e}")


def test_criterion_04_skip_bound_soundness():
    started = time.perf_counter()
    worst_margin = -math.inf
    ok = True
    for n in range(2, 101):
        matrix = visit_probability_matrix(onemax_level_matrix(n, 1 / n))
        for i in range(1, n + 1):
            exact_worst = float(np.max(1.0 - matrix[:i, i]))
            bound = onemax_skip_bound(n, i)
            margin = exact_worst - bound
            worst_margin = max(worst_margin, margin)
            if margin > 1e-12:
                ok = False
    report(4, ok, started,
           f"exact q_i <= (n-i)/(n(1-1/n)^(i-1)) for every start below i, n in [2..100]; "
           f"max excess {worst_margin:.2e}")


def test_criterion_05_onemax_sandwich():
    started = time.perf_counter()
    ok = True
    rows = 0
    for n in (50, 100, 200, 500):
        chain = onemax_level_matrix(n, 1.0 / n)
        _, times_to_top = expected_hitting_time(chain)
        for k, l in ((0, n), (n // 2, n), (3 * n // 4, n), (0, n // 2)):
            om = onemax_bounds(n, k, l)
            if l == n:
                exact = float(times_to_top[k])
            else:
                exact = float(expected_hitting_time(truncate_chain(chain, l))[1][k])
            gap_limit = (l - k) * math.e * (math.e - 1) * math.exp(k / (n - 1)) + 1.0
            ok &= om.thm_lower <= exact + 1e-9 and exact <= om.tilde_t + 1e-9
            ok &= om.tilde_t_minus <= om.tilde_t + 1e-9 and om.tilde_t <= om.tilde_t_plus + 1e-9
            ok &= (om.tilde_t - om.thm_lower) <= gap_limit
            rows += 1
    # claim (ii) at scale: from a random start the lower bound is tight up to O(n)
    exact_at, gaps = {}, {}
    for n in (1000, 2000, 5000):
        exact_at[n], _ = expected_hitting_time(onemax_level_matrix(n, 1.0 / n))
        om = onemax_bounds(n, 0, n)
        ok &= om.thm_lower <= exact_at[n] <= om.tilde_t <= om.tilde_t_plus
        gaps[n] = (exact_at[n] - om.thm_lower) / n
    ok &= max(gaps.values()) <= 3.0
    doc_value = exact_at[1000]
    headline = math.e * 1000 * math.log(1000)
    gap_text = ", ".join(f"{gap:.4f} at n={n}" for n, gap in gaps.items())
    report(5, ok, started,
           f"{rows} (n,k,l) sandwiches hold; random init at (0, n): thm_lower <= E[T] <= tilde_T "
           f"<= tilde_T_plus, (E[T] - thm_lower)/n = {gap_text} (<= 3); documentation: exact E[T] "
           f"at n=1000 random init = {doc_value:.1f} (e n ln n = {headline:.1f}, "
           f"difference {headline - doc_value:.1f})")


def test_criterion_06_leadingones_visit_half():
    started = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        oracle = full_state_expected_time(make_benchmark("leadingones", n), 1.0 / n)
        worst = max(worst, float(np.max(np.abs(oracle.visit_probs[:-1] - 0.5))))
    stats = run_experiment(ExperimentConfig(
        benchmark="leadingones", n=20, mutation_rate="1/n", replicates=10**4, master_seed=1003))
    max_dev_se = max(
        abs(stats.visit_freq[i] - 0.5) / stats.visit_std_error(i) for i in range(20)
    )
    report(6, worst <= 1e-9 and max_dev_se <= 3.0, started,
           f"full-state v_i = 1/2 (max dev {worst:.2e}, n<=8); MC n=20 max dev {max_dev_se:.2f} SE")


def test_criterion_07_jump_bounds():
    started = time.perf_counter()
    ok = True
    max_scaled_skip = 0.0
    # from n = 50 on the exact skip probability is about twice the bound's 6e 2^-n
    # term, so a bound that drops it fails here; up to n = 20 the 2e n^(1-ceil(n/4))
    # term dominates the bound and would hide that
    larger = [(20, 3), (50, 3), (100, 4), (200, 5), (400, 3)]
    for n, k in [(n, k) for n in range(8, 15) for k in (2, 3, 4)] + larger:
        chain = jump_level_matrix(n, k, 1.0 / n)
        overall, times = expected_hitting_time(chain)
        labels = list(chain.labels)
        random_bounds = jump_bounds(n, k, init="random")
        arbitrary_bounds = jump_bounds(n, k, init="arbitrary")
        ok &= overall >= random_bounds.lower_bound
        worst_start = min(times[i] for i, a in enumerate(labels) if a != n)
        ok &= worst_start >= arbitrary_bounds.lower_bound
        if n <= 10:
            oracle = full_state_expected_time(make_benchmark("jump", n, k), 1.0 / n)
            ok &= abs(overall - oracle.expected_time) <= 1e-6
        block = [i for i, a in enumerate(labels) if a <= n - k]
        exact_skip = skip_probability(chain, min(block), max(block))
        ok &= exact_skip <= random_bounds.skip_bound_random
        max_scaled_skip = max(max_scaled_skip, exact_skip * 2.0**n)
    ok &= max_scaled_skip <= 20.0
    report(7, ok, started,
           f"n in [8..14] x k in [2..4] and (n, k) in {larger}: E[T] >= (1-skip)/p_k both inits, "
           f"chain==full-state at n<=10, exact skip <= bound; max exact q*2^n = "
           f"{max_scaled_skip:.3f} (<= 20)")


def test_criterion_08_longpath():
    started = time.perf_counter()
    ok = True
    for n, k in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (12, 4)):
        path = build_long_k_path(n, k)
        verify_long_k_path(path)
        ok &= len(path) == long_k_path_length(n, k)
    stats = run_experiment(ExperimentConfig(
        benchmark="longpath", n=12, k=4, mutation_rate="1/12", replicates=200,
        master_seed=1004, init="level:0"))
    bound = longpath_lower_bound(12, 4, 1 / 12)
    ok &= stats.mean >= bound - 3.0 * stats.std_error
    # claim (iii) against the exact chain from path position 0
    tight, reference = {}, {}
    for n, k in ((12, 4), (24, 3), (24, 4), (30, 5), (36, 6), (40, 5), (42, 6), (48, 6)):
        p = 1.0 / n
        summary = summarize(longpath_level_matrix(build_long_k_path(n, k), p, start=0))
        exact = summary.expected_time
        ok &= longpath_lower_bound(n, k, p) <= exact
        ok &= bool(np.all(longpath_level_visit_lower(n, k, p) <= summary.visit_probs[1:-1]))
        if k == 6:  # the stated tightness regime
            tight[n, k] = longpath_lower_bound(n, k, p) / exact
        ratio = sudholt_reference_bound(n, k, p) / exact
        if ratio > 1.0:  # data, not a claim: the reference variant has no proof
            reference[n, k] = ratio
    ok &= min(tight.values()) >= 0.98
    tight_text = ", ".join(f"{r:.4f} at {nk}" for nk, r in tight.items())
    reference_text = ", ".join(f"{nk} ({r:.5f} of it)" for nk, r in reference.items())
    report(8, ok, started,
           f"7 paths verified exhaustively; MC mean {stats.mean:.1f} >= bound {bound:.1f} - 3 SE; "
           f"8 exact chains: bound <= E[T], level visit bound <= every interior v_i, bound/E[T] = "
           f"{tight_text}; unproven reference above E[T] at {reference_text}")


def test_criterion_09_viscosity():
    started = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(1000):
        chain = random_level_chain(rng, 4)
        overall, _ = expected_hitting_time(chain)
        p, gamma, chi_low = viscosity_params_from_chain(chain, "lower")
        lower = flm_lower_viscosity(p, gamma, chi_low, chain.start)
        p, gamma, chi_up = viscosity_params_from_chain(chain, "upper")
        upper = flm_upper_viscosity(p, gamma, chi_up, chain.start)
        ok &= lower.ok and upper.ok
        ok &= lower.value <= overall + 1e-9 <= upper.value + 2e-9
    # validators must reject gamma rows perturbed by 1e-3
    chain = random_level_chain(rng, 4)
    p, gamma, chi = viscosity_params_from_chain(chain, "lower")
    perturbed = gamma.copy()
    perturbed[0, 1:] *= 1.001
    rejected = not flm_lower_viscosity(p, perturbed, chi, chain.start).ok
    ok &= rejected
    report(9, ok, started,
           "1000 random 4-level chains: viscosity lower <= exact <= viscosity upper; "
           "perturbed gamma rows rejected")


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    ok = True
    scenarios = [
        (["simulate", "--benchmark", "jump", "--n", "12", "--k", "3", "--p", "1/n",
          "--replicates", "400", "--seed", "42", "--format", "csv"], [".csv", ".levels.csv"]),
        (["simulate", "--benchmark", "onemax", "--n", "15", "--p", "1/n",
          "--replicates", "300", "--seed", "7", "--format", "json"], [".json"]),
        (["compare", "--benchmark", "leadingones", "--n", "10", "--p", "1/n",
          "--replicates", "500", "--seed", "11", "--format", "json"], [".json"]),
    ]
    for idx, (argv, suffixes) in enumerate(scenarios):
        outputs = []
        for threads, tag in (("1", "a"), ("4", "b")):
            out = tmp_path / f"s{idx}{tag}{suffixes[0]}"
            code = cli_main(argv + ["--threads", threads, "--out", str(out)])
            ok &= code == 0
            produced = [out] + [out.with_suffix(sfx) for sfx in suffixes[1:]]
            outputs.append(b"".join(path.read_bytes() for path in produced))
        ok &= outputs[0] == outputs[1]
    report(10, ok, started,
           "simulate/compare outputs byte-identical across thread counts (csv and json)")
