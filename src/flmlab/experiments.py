"""Monte Carlo experiment harness and bound-vs-empirical comparison reports.

Replicate r of an experiment draws its random stream from
``SeedSequence(entropy=master_seed, spawn_key=(r,))`` — numpy's published
entropy-mixing hash — and replicates run one after another in index order,
so the same seed yields bit-identical statistics.  The module also owns the
``--init`` grammar shared by the Monte Carlo runs and the exact oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .benchmarks import Benchmark, make_benchmark
from .bounds import BoundResult
from .ea import DEFAULT_MAX_ITERATIONS, RunResult, run_ea

__all__ = [
    "ExperimentConfig",
    "RunStatistics",
    "Report",
    "ReportRow",
    "resolve_mutation_rate",
    "replicate_rng",
    "run_experiment",
    "compare_report",
]

Z_99 = 2.5758293035489004  # 0.995 normal quantile
SE_SLACK = 3.0  # uniform 3-standard-error slack in verdicts


def resolve_mutation_rate(rate: Union[str, float], n: int) -> float:
    """Resolve a mutation-rate spec: a literal real, a literal fraction such
    as "1/8", or the token "c/n" with rational c resolved once n is known."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(rate, (int, float)):
        p = float(rate)
    else:
        text = rate.strip()
        if text.endswith("/n"):
            p = float(Fraction(text[:-2])) / n
        else:
            p = float(Fraction(text))
    if not 0.0 < p < 1.0:
        raise ValueError(f"resolved mutation rate {p} outside (0, 1)")
    return p


@dataclass
class ExperimentConfig:
    """A Monte Carlo experiment: benchmark, rate spec, replicate count, seed."""

    benchmark: str
    n: int
    k: Optional[int] = None
    mutation_rate: Union[str, float] = "1/n"
    replicates: int = 1000
    master_seed: int = 0
    init: str = "random"  # "random", "level:<int>" or "point:<bits>"
    max_iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class RunStatistics:
    """Aggregates over replicates: runtime moments and per-level estimates.

    ``visit_freq[i]`` is the fraction of replicates whose trace contains
    level i; ``leave_rate[i]`` is total leaves / total iterations spent at
    level i (0 where no iterations were spent).
    """

    replicates: int
    mean: float
    variance: float
    ci99: tuple[float, float]
    visit_freq: np.ndarray
    leave_rate: np.ndarray
    mean_sojourn: np.ndarray
    iterations_at_level: np.ndarray
    timeouts: int
    runtimes: np.ndarray
    hits: np.ndarray

    @property
    def std_error(self) -> float:
        return float(np.sqrt(self.variance / self.replicates))

    def visit_std_error(self, level: int) -> float:
        f = float(self.visit_freq[level])
        return float(np.sqrt(f * (1.0 - f) / self.replicates))

    def as_dict(self) -> dict:
        return {
            "replicates": self.replicates,
            "mean_runtime": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci99": [self.ci99[0], self.ci99[1]],
            "timeouts": self.timeouts,
            "levels": list(range(len(self.visit_freq))),
            "visit_freq": [float(x) for x in self.visit_freq],
            "leave_rate": [float(x) for x in self.leave_rate],
            "mean_sojourn": [float(x) for x in self.mean_sojourn],
        }


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """The dedicated random stream of one replicate."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))
    return np.random.Generator(np.random.PCG64(seq))


def _parse_init(init: str, n: int, point: bool = True) -> Union[str, int, np.ndarray]:
    """Parse an ``--init`` value: "random", "level:<int>" (returned as the
    int) or, where ``point`` allows it, "point:<bits>" (an n-bit array)."""
    if init == "random":
        return init
    if init.startswith("level:"):
        return int(init.split(":", 1)[1])
    if point and init.startswith("point:"):
        bits = init.split(":", 1)[1]
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"init point must be {n} characters of 0/1")
        return np.array([int(c) for c in bits], dtype=np.uint8)
    forms = "'random', 'level:<int>' or 'point:<bits>'" if point else "'random' or 'level:<int>'"
    raise ValueError(f"init must be {forms}, got {init!r}")


def _run_replicate(
    benchmark: Benchmark, rate: float, config: ExperimentConfig, replicate: int, start
) -> RunResult:
    rng = replicate_rng(config.master_seed, replicate)
    if isinstance(start, str):
        initial = None
    elif isinstance(start, int):
        initial = benchmark.sample_level(start, rng)
    else:
        initial = start
    return run_ea(benchmark, rate, rng, initial=initial, max_iterations=config.max_iterations)


def run_experiment(config: ExperimentConfig) -> RunStatistics:
    """Execute the configured replicates in index order and merge them."""
    # the rate before the benchmark, so a bad n is reported as such
    rate = resolve_mutation_rate(config.mutation_rate, config.n)
    benchmark = make_benchmark(config.benchmark, config.n, config.k)
    start = _parse_init(config.init, config.n)
    results = [_run_replicate(benchmark, rate, config, r, start) for r in range(config.replicates)]
    return aggregate_results(results, benchmark.level_count)


def aggregate_results(results: Sequence[RunResult], level_count: int) -> RunStatistics:
    """Merge per-replicate results (in the given order) into statistics."""
    n_rep = len(results)
    runtimes = np.array([res.runtime for res in results], dtype=np.int64)
    hits = np.array([res.hit_optimum for res in results], dtype=bool)
    mean = float(np.mean(runtimes))
    variance = float(np.var(runtimes, ddof=1)) if n_rep > 1 else 0.0
    half = Z_99 * float(np.sqrt(variance / n_rep))

    visits = np.zeros(level_count, dtype=np.int64)
    leaves = np.zeros(level_count, dtype=np.int64)
    iters = np.zeros(level_count, dtype=np.int64)
    for res in results:
        trace = res.level_trace
        for pos, (level, spent) in enumerate(trace):
            visits[level] += 1
            iters[level] += spent
            if pos < len(trace) - 1:  # every entry except the final one was left
                leaves[level] += 1

    with np.errstate(invalid="ignore", divide="ignore"):
        leave_rate = np.where(iters > 0, leaves / np.maximum(iters, 1), 0.0)
        mean_sojourn = np.where(visits > 0, iters / np.maximum(visits, 1), 0.0)
    return RunStatistics(
        replicates=n_rep,
        mean=mean,
        variance=variance,
        ci99=(mean - half, mean + half),
        visit_freq=visits / n_rep,
        leave_rate=leave_rate,
        mean_sojourn=mean_sojourn,
        iterations_at_level=iters,
        timeouts=int(np.sum(~hits)),
        runtimes=runtimes,
        hits=hits,
    )


@dataclass
class ReportRow:
    quantity: str
    empirical: float
    theoretical: float
    verdict: str  # "PASS" or "FAIL"


@dataclass
class Report:
    rows: list[ReportRow] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return any(row.verdict == "FAIL" for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "rows": [
                {
                    "quantity": r.quantity,
                    "empirical": r.empirical,
                    "theoretical": r.theoretical,
                    "verdict": r.verdict,
                }
                for r in self.rows
            ],
            "failed": self.failed,
        }

    def to_csv(self) -> str:
        lines = ["quantity,empirical,theoretical,verdict"]
        for r in self.rows:
            lines.append(f"{r.quantity},{repr(r.empirical)},{repr(r.theoretical)},{r.verdict}")
        return "\n".join(lines) + "\n"


def compare_report(
    stats: RunStatistics,
    bounds: Sequence[BoundResult],
    exact: Optional[float] = None,
    visit_lower: Optional[dict[int, float]] = None,
) -> Report:
    """Empirical-vs-theory verdicts with a uniform 3-standard-error slack.

    A lower bound fails when the empirical mean plus slack is still below
    it; an upper bound fails when the mean minus slack exceeds it; an exact
    oracle counts as bound in both directions and is itself checked against
    every supplied bound; a proven per-level visit lower bound fails when
    the empirical frequency plus its own slack stays below it (its SE is
    never taken below that of a frequency equal to the clipped bound).
    """
    report = Report()
    slack = SE_SLACK * stats.std_error
    for bound in bounds:
        if not bound.ok:
            continue  # unusable bounds are not verdicts
        if bound.kind == "lower":
            verdict = "FAIL" if stats.mean + slack < bound.value else "PASS"
        else:
            verdict = "FAIL" if stats.mean - slack > bound.value else "PASS"
        report.rows.append(
            ReportRow(f"mean_runtime_vs_{bound.theorem}[{bound.kind}]", stats.mean, bound.value, verdict)
        )
        if exact is not None:
            if bound.kind == "lower":
                verdict = "PASS" if exact >= bound.value - 1e-9 else "FAIL"
            else:
                verdict = "PASS" if exact <= bound.value + 1e-9 else "FAIL"
            report.rows.append(
                ReportRow(f"exact_vs_{bound.theorem}[{bound.kind}]", exact, bound.value, verdict)
            )
    if exact is not None:
        deviation = abs(stats.mean - exact)
        verdict = "FAIL" if deviation > slack else "PASS"
        report.rows.append(ReportRow("mean_runtime_vs_exact", stats.mean, exact, verdict))
    if visit_lower:
        for level in sorted(visit_lower):
            bound_value = visit_lower[level]
            freq = float(stats.visit_freq[level])
            # a frequency of 0 or 1 has empirical SE 0; fall back to the SE
            # the frequency would have if the bound were the true probability
            b = min(max(bound_value, 0.0), 1.0)
            se = max(stats.visit_std_error(level), float(np.sqrt(b * (1.0 - b) / stats.replicates)))
            level_slack = SE_SLACK * se
            verdict = "FAIL" if freq + level_slack < bound_value else "PASS"
            report.rows.append(
                ReportRow(f"visit_freq[{level}]_vs_lower", freq, bound_value, verdict)
            )
    return report
