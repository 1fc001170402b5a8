"""Monte Carlo experiment harness and bound-vs-empirical comparison reports.

Replicates run in blocks of a fixed size (``ea.block_lanes(n)``, set by n
alone), each block in lockstep through ``ea.run_block``.  Block b draws its
start strings and then its mutations from
``SeedSequence(entropy=master_seed, spawn_key=(b,))`` — numpy's published
entropy-mixing hash — and blocks run one after another in index order, so
the same seed yields bit-identical statistics.  :func:`parse_start` reads an
``--init`` value, once per command, into the :class:`Start` every route reads.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .benchmarks import Benchmark, make_benchmark, pack_words
from .bounds import BoundResult
from .ea import DEFAULT_MAX_ITERATIONS, BlockResult, block_lanes, run_block, uniform_random_words
# unused here: kept only because perfbench/tracing.py wraps experiments.run_ea,
# which run_experiment no longer calls (ROADMAP item 9)
from .ea import run_ea  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "RunStatistics",
    "Report",
    "ReportRow",
    "Start",
    "parse_start",
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
            "ci99": self.ci99,
            "timeouts": self.timeouts,
            "levels": np.arange(len(self.visit_freq)),
            "visit_freq": self.visit_freq,
            "leave_rate": self.leave_rate,
            "mean_sojourn": self.mean_sojourn,
        }


def replicate_rng(master_seed: int, block: int) -> np.random.Generator:
    """The dedicated random stream of one block of replicates."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64(seq))


class Start(NamedTuple):
    """A parsed ``--init``: its form and, for "level" or "point", the level or the n bits."""

    form: str
    level: Optional[int] = None
    point: Optional[np.ndarray] = None


def parse_start(init: str, n: int, forms: Sequence[str] = ("random", "level:<int>", "point:<bits>")) -> Start:
    """Parse an ``--init`` value in one of the syntaxes ``forms`` lists, out of
    "random", "level:<int>", "point:<bits>" (n characters of 0/1) and "arbitrary"."""
    form, colon, value = init.partition(":")
    if form + colon not in [f.split("<")[0] for f in forms]:
        raise ValueError(f"init must be {', '.join(map(repr, forms[:-1]))} or {forms[-1]!r}, got {init!r}")
    if form == "level":
        try:
            return Start(form, level=int(value))
        except ValueError:
            raise ValueError(f"--init level must be 'level:<int>', got {init!r}") from None
    if form == "point" and (len(value) != n or set(value) - {"0", "1"}):
        raise ValueError(f"init point must be {n} characters of 0/1")
    return Start(form, point=np.array([int(c) for c in value], dtype=np.uint8) if form == "point" else None)


def _block_starts(benchmark: Benchmark, start: Start, lanes: int, rng: np.random.Generator) -> np.ndarray:
    """The packed start strings of one block: the engine's reading of a ``Start``."""
    if start.form == "random":
        return uniform_random_words(lanes, benchmark.n, rng)
    if start.form == "level":
        return pack_words(np.array([benchmark.sample_level(start.level, rng) for _ in range(lanes)]))
    return np.repeat(pack_words(start.point), lanes, axis=0)


def run_experiment(config: ExperimentConfig, start: Optional[Start] = None) -> RunStatistics:
    """Run the configured replicates block by block and merge them; ``start``, if given, is ``config.init`` parsed."""
    # the rate first, so a bad n is reported as such, then --init, so a bad one builds no benchmark
    rate = resolve_mutation_rate(config.mutation_rate, config.n)
    start = parse_start(config.init, config.n) if start is None else start
    benchmark = make_benchmark(config.benchmark, config.n, config.k)
    lanes = block_lanes(config.n)
    blocks = []
    for block, first in enumerate(range(0, config.replicates, lanes)):
        rng = replicate_rng(config.master_seed, block)
        starts = _block_starts(benchmark, start, min(lanes, config.replicates - first), rng)
        blocks.append(run_block(benchmark, rate, rng, starts, config.max_iterations))
    return aggregate_results(blocks)


def aggregate_results(blocks: Sequence[BlockResult]) -> RunStatistics:
    """Merge block results (in the given order) into statistics."""
    runtimes = np.concatenate([block.runtimes for block in blocks])
    hits = np.concatenate([block.hits for block in blocks])
    visits = sum(block.visits for block in blocks)
    leaves = sum(block.leaves for block in blocks)
    iters = sum(block.iterations for block in blocks)
    n_rep = len(runtimes)
    mean = float(np.mean(runtimes))
    variance = float(np.var(runtimes, ddof=1)) if n_rep > 1 else 0.0
    half = Z_99 * float(np.sqrt(variance / n_rep))

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
    """One verdict; its fields, in order, are compare's JSON keys and CSV columns."""

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
        return {"rows": [asdict(r) for r in self.rows], "failed": self.failed}


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
    every supplied bound up to 1e-9 max(1, |bound|); a proven per-level visit
    lower bound fails when the empirical frequency plus its own slack stays
    below it (its SE is never taken below that of a frequency equal to the
    clipped bound).
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
            tol = 1e-9 * max(1.0, abs(bound.value))  # rounding: relative, absolute below 1
            if bound.kind == "lower":
                verdict = "PASS" if exact >= bound.value - tol else "FAIL"
            else:
                verdict = "PASS" if exact <= bound.value + tol else "FAIL"
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
