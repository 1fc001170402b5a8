import numpy as np
import pytest

from flmlab.bounds import BoundResult
from flmlab.experiments import (
    ExperimentConfig,
    aggregate_results,
    compare_report,
    replicate_rng,
    resolve_mutation_rate,
    run_experiment,
)
from flmlab.formulas import leadingones_exact
from flmlab.serialize import emit_replicates_csv, parse_replicates_csv


def test_resolve_mutation_rate_forms():
    assert resolve_mutation_rate(0.25, 10) == 0.25
    assert resolve_mutation_rate("1/8", 10) == 0.125
    assert resolve_mutation_rate("1/n", 10) == pytest.approx(0.1)
    assert resolve_mutation_rate("1.5/n", 10) == pytest.approx(0.15)
    assert resolve_mutation_rate("3/2/n", 20) == pytest.approx(0.075)
    with pytest.raises(ValueError):
        resolve_mutation_rate("2.0", 10)  # outside (0, 1)


def test_replicate_streams_are_distinct_and_stable():
    a = replicate_rng(42, 0).integers(0, 2**31, size=4)
    b = replicate_rng(42, 1).integers(0, 2**31, size=4)
    a_again = replicate_rng(42, 0).integers(0, 2**31, size=4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, a_again)


def test_run_experiment_single_bit_mean():
    config = ExperimentConfig(benchmark="onemax", n=1, mutation_rate=0.5,
                              replicates=10**5, master_seed=3)
    stats = run_experiment(config)
    # half the starts are optimal, otherwise geometric with rate 1/2
    assert abs(stats.mean - 1.0) < 3 * stats.std_error
    assert stats.timeouts == 0


def test_run_experiment_leadingones_matches_closed_form():
    expected = leadingones_exact(8, 1 / 8)
    config = ExperimentConfig(benchmark="leadingones", n=8, mutation_rate="1/n",
                              replicates=10**5, master_seed=4)
    stats = run_experiment(config)
    assert abs(stats.mean - expected) < 3 * stats.std_error


def test_run_experiment_fixed_level_init():
    config = ExperimentConfig(benchmark="onemax", n=12, mutation_rate="1/n",
                              replicates=200, master_seed=5, init="level:11")
    stats = run_experiment(config)
    assert stats.visit_freq[11] == 1.0
    assert all(stats.visit_freq[i] == 0.0 for i in range(11))


def test_run_experiment_fixed_point_init():
    config = ExperimentConfig(benchmark="onemax", n=4, mutation_rate=0.2,
                              replicates=50, master_seed=5, init="point:1110")
    stats = run_experiment(config)
    assert stats.visit_freq[3] == 1.0


@pytest.mark.parametrize("field,value", [("max_iterations", 0), ("max_iterations", -1),
                                         ("replicates", 0), ("master_seed", -1), ("master_seed", 2**64)])
def test_experiment_config_validation(field, value):
    with pytest.raises(ValueError):
        ExperimentConfig(benchmark="onemax", n=8, **{field: value})


def test_run_experiment_counts_timeouts():
    config = ExperimentConfig(benchmark="onemax", n=40, mutation_rate="1/n",
                              replicates=20, master_seed=6, max_iterations=3)
    stats = run_experiment(config)
    assert stats.timeouts == 20
    assert not stats.hits.any()


def test_aggregates_recomputable_from_replicate_csv():
    config = ExperimentConfig(benchmark="leadingones", n=6, mutation_rate="1/n",
                              replicates=500, master_seed=11)
    stats = run_experiment(config)
    runtimes, hits = parse_replicates_csv(emit_replicates_csv(stats.runtimes, stats.hits))
    assert abs(float(np.mean(runtimes)) - stats.mean) < 1e-12
    assert abs(float(np.var(runtimes, ddof=1)) - stats.variance) < 1e-12
    assert int(np.sum(~hits)) == stats.timeouts


def test_visit_and_leave_estimates_match_chain(rng):
    from flmlab.chains import onemax_level_matrix, summarize

    summary = summarize(onemax_level_matrix(8, 1 / 8))
    config = ExperimentConfig(benchmark="onemax", n=8, mutation_rate="1/n",
                              replicates=20000, master_seed=12)
    stats = run_experiment(config)
    for level in range(8):
        se = stats.visit_std_error(level)
        assert abs(stats.visit_freq[level] - summary.visit_probs[level]) < 4 * se
        if stats.iterations_at_level[level] > 500:
            rate = stats.leave_rate[level]
            assert rate == pytest.approx(summary.leave_probs[level], rel=0.15)


def test_compare_report_verdict_rules():
    results = aggregate_results_for_fixed_runtimes([10, 12, 14, 16, 18])
    # vacuous lower bound 0 always passes
    report = compare_report(results, [BoundResult(0.0, "lower", "vacuous")])
    assert report.rows[0].verdict == "PASS"
    # mean 14: a lower bound far above the mean fails
    report = compare_report(results, [BoundResult(100.0, "lower", "too-high")])
    assert report.rows[0].verdict == "FAIL"
    assert report.failed
    # an upper bound below the mean fails
    report = compare_report(results, [BoundResult(1.0, "upper", "too-low")])
    assert report.rows[0].verdict == "FAIL"
    # an exact oracle inside the bounds passes every row
    report = compare_report(
        results,
        [BoundResult(5.0, "lower", "lo"), BoundResult(30.0, "upper", "hi")],
        exact=14.0,
    )
    assert not report.failed


def test_compare_report_exact_vs_bound_tolerance_is_relative():
    results = aggregate_results_for_fixed_runtimes([10, 12, 14, 16, 18])

    def exact_verdict(exact, value, kind):
        report = compare_report(results, [BoundResult(value, kind, "b")], exact=exact)
        return report.rows[1].verdict

    # OneMax n = 600 at p = 10/n: sum v/p rounds 1.4e-9 above the backward recursion
    assert exact_verdict(3854595.2876144834, 3854595.287614485, "lower") == "PASS"
    for value in (3854595.287614485, 0.5):
        assert exact_verdict(value * (1 - 1e-6), value, "lower") == "FAIL"
        assert exact_verdict(value * (1 + 1e-6), value, "upper") == "FAIL"
        assert exact_verdict(value * (1 + 1e-6), value, "lower") == "PASS"
        assert exact_verdict(value * (1 - 1e-6), value, "upper") == "PASS"
    # below 1 the tolerance stays absolute
    assert exact_verdict(0.5 - 5e-10, 0.5, "lower") == "PASS"
    assert exact_verdict(0.5 - 2e-9, 0.5, "lower") == "FAIL"


def test_compare_report_visit_rule():
    # synthetic traces all skip level 1 on their way from 0 to the top
    results = aggregate_results_for_fixed_runtimes([3, 4, 5, 6] * 10, levels=3)
    report = compare_report(results, [], visit_lower={0: 1.0})
    assert report.rows[-1].verdict == "PASS"
    report = compare_report(results, [], visit_lower={1: 0.5})
    assert report.rows[-1].verdict == "FAIL"
    # frequency 0 has empirical SE 0; the slack then uses the SE of a
    # frequency equal to the bound, and 0 visits in 4 runs (chance 1/16
    # under v = 0.5) is no evidence against the bound
    few = aggregate_results_for_fixed_runtimes([3, 4, 5, 6], levels=3)
    report = compare_report(few, [], visit_lower={1: 0.5})
    assert report.rows[-1].verdict == "PASS"


def aggregate_results_for_fixed_runtimes(runtimes, levels=2):
    # every run spends its runtime at level 0 and then enters the top level
    from flmlab.ea import BlockResult

    count = len(runtimes)
    visits, leaves, iterations = np.zeros((3, levels), dtype=np.int64)
    visits[[0, -1]] = count
    leaves[0] = count
    iterations[0] = sum(runtimes)
    block = BlockResult(np.array(runtimes), np.ones(count, dtype=bool), visits, leaves, iterations)
    return aggregate_results([block])
