"""Per-layer spans and counters for the traced run, applied from outside flmlab.

flmlab itself is not instrumented.  ``install`` replaces each public name at
the place it is looked up (a module attribute, an instance attribute or a
class method) with a wrapper that records a span.  A span's self time is its
duration minus the time of the spans opened inside it.  The traced child
process runs one pass and exits, so wrappers are never removed.

Counts marked "computed" in NOTES.md (terms, states, matrix bytes, solve
flops) come from array sizes, not from measurement.
"""

from __future__ import annotations

import inspect
import resource
import tracemalloc
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [layer, seconds of child spans]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        self.entries: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls into a layer from outside it
        self.counts: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` records counts."""
        layer = name.split(".", 1)[0]
        stack, spans, entries = self.stack, self.spans, self.entries

        def wrapped(*args, **kwargs):
            outer = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                record = spans[name]
                record[0] += 1
                record[1] += seconds
                record[2] += seconds - frame[1]
                if outer != layer:
                    entry = entries[layer]
                    entry[0] += 1
                    entry[1] += seconds
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def rusage(self, name: str, fn):
        """Add system time and minor page faults of each call to the counters."""
        counts = self.counts

        def wrapped(*args, **kwargs):
            before = resource.getrusage(resource.RUSAGE_SELF)
            try:
                return fn(*args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF)
                counts[name + ".sys_s"] += after.ru_stime - before.ru_stime
                counts[name + ".minflt"] += after.ru_minflt - before.ru_minflt

        return wrapped

    def count(self, key: str, value: float) -> None:
        self.counts[key] += value


def install(tracer: Tracer) -> None:
    """Wrap every traced name of flmlab at its lookup sites."""
    import numpy as np

    from flmlab import benchmarks, bounds, chains, cli, experiments, formulas, serialize

    span, counts = tracer.span, tracer.counts

    # experiments: cli imported these two names into its own namespace
    cli.run_experiment = span(
        "experiments.run_experiment",
        cli.run_experiment,
        after=lambda args, stats: tracer.count("experiments.replicates", stats.replicates),
    )
    cli.compare_report = span("experiments.compare_report", cli.compare_report)
    experiments.replicate_rng = span("experiments.replicate_rng", experiments.replicate_rng)
    experiments.aggregate_results = span("experiments.aggregate_results", experiments.aggregate_results)

    # ea: run_ea is looked up in experiments; evaluations are the fitness
    # calls made while it runs, progress is the number of levels left
    run_ea = experiments.run_ea
    fitness_calls = tracer.spans["benchmarks.fitness"]

    def counted_run_ea(*args, **kwargs):
        calls_before = fitness_calls[0]
        result = run_ea(*args, **kwargs)
        counts["ea.iterations"] += result.runtime
        counts["ea.fitness_evals"] += fitness_calls[0] - calls_before
        counts["ea.level_leaves"] += max(len(result.level_trace or ()) - 1, 0)
        return result

    experiments.run_ea = span("ea.run_ea", counted_run_ea)

    # benchmarks: the callables on each instance, wrapped before run_ea or
    # the full-state oracle read them
    def traced_make_benchmark(make):
        def make_traced(*args, **kwargs):
            bench = make(*args, **kwargs)
            bench.fitness = span("benchmarks.fitness", bench.fitness)
            bench.level = span("benchmarks.level", bench.level)
            bench.is_optimum = span("benchmarks.is_optimum", bench.is_optimum)
            return bench

        return span("benchmarks.make_benchmark", make_traced)

    benchmarks.make_benchmark = traced_make_benchmark(benchmarks.make_benchmark)
    experiments.make_benchmark = traced_make_benchmark(experiments.make_benchmark)
    benchmarks.build_long_k_path = span("benchmarks.build_long_k_path", benchmarks.build_long_k_path)

    # chains: mutation rows are looked up in chains and in formulas
    def row_terms(args, row):
        n, k = args[0], args[2]
        counts["chains.mutation_class_row.terms"] += (n - k + 1) * (k + 1)

    for module in (chains, formulas):
        module.mutation_class_row = span(
            "chains.mutation_class_row",
            tracer.rusage("chains.mutation_class_row", module.mutation_class_row),
            after=row_terms,
        )
    for name in ("onemax_level_matrix", "jump_level_matrix", "longpath_level_matrix"):
        setattr(chains, name, span("chains.level_matrix", getattr(chains, name)))
    chains.LevelChain.__post_init__ = span("chains.LevelChain.init", chains.LevelChain.__post_init__)
    chains.visit_probabilities = span("chains.visit_probabilities", chains.visit_probabilities)
    chains.expected_hitting_time = span("chains.expected_hitting_time", chains.expected_hitting_time)
    chains.summarize = span("chains.summarize", chains.summarize)

    full_state = tracer.rusage("chains.full_state", chains.full_state_expected_time)
    solve = np.linalg.solve

    def flop_counted_solve(a, b):
        counts["chains.full_state.solve_flops"] += 2.0 / 3.0 * a.shape[0] ** 3
        return solve(a, b)

    traced_solve = span("chains.full_state.solve", flop_counted_solve)

    def traced_full_state(benchmark, p, *args, **kwargs):
        counts["chains.full_state.states"] += 2**benchmark.n
        counts["chains.full_state.matrix_bytes"] += 8 * 4**benchmark.n  # dense float64 transition matrix
        np.linalg.solve = traced_solve
        tracemalloc.start()
        try:
            return full_state(benchmark, p, *args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            np.linalg.solve = solve
            counts["chains.full_state.peak_alloc_mb"] = max(counts["chains.full_state.peak_alloc_mb"], peak)

    chains.full_state_expected_time = span("chains.full_state", traced_full_state)

    # formulas and bounds: every public callable, counted once per entry
    # into the layer (bounds.BoundResult construction included)
    for module, layer in ((formulas, "formulas"), (bounds, "bounds")):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or (layer == "bounds" and inspect.isclass(obj)):
                setattr(module, name, span(f"{layer}.{name}", obj))

    def count_bytes(key):
        return lambda args, text: tracer.count(key, len(text.encode()))

    serialize.dumps = span("serialize.dumps", serialize.dumps, after=count_bytes("serialize.dumps.bytes"))
    for name in ("emit_replicates_csv", "emit_levels_csv"):
        setattr(serialize, name, span("serialize.csv", getattr(serialize, name), after=count_bytes("serialize.csv.bytes")))


# name -> unit of every per-layer metric, in the order they are reported
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "experiments.replicates": "count",
    "experiments.replicate_rng.calls": "count",
    "experiments.replicate_rng.s": "s",
    "experiments.aggregate_results.s": "s",
    "experiments.compare_report.s": "s",
    "experiments.run_experiment.self_s": "s",
    "ea.run_ea.calls": "count",
    "ea.run_ea.self_s": "s",
    "ea.iterations": "count",
    "ea.ns_per_iter": "ns",
    "ea.eval_ratio": "ratio",
    "ea.progress_ratio": "ratio",
    "benchmarks.fitness.calls": "count",
    "benchmarks.fitness.s": "s",
    "benchmarks.level.calls": "count",
    "benchmarks.level.s": "s",
    "benchmarks.is_optimum.s": "s",
    "benchmarks.build_long_k_path.s": "s",
    "chains.mutation_class_row.calls": "count",
    "chains.mutation_class_row.s": "s",
    "chains.mutation_class_row.sys_s": "s",
    "chains.mutation_class_row.minflt": "count",
    "chains.mutation_class_row.terms": "count",
    "chains.level_matrix.self_s": "s",
    "chains.LevelChain.init_s": "s",
    "chains.visit_probabilities.s": "s",
    "chains.expected_hitting_time.self_s": "s",
    "chains.full_state.s": "s",
    "chains.full_state.build_s": "s",
    "chains.full_state.solve_s": "s",
    "chains.full_state.solve_calls": "count",
    "chains.full_state.sys_s": "s",
    "chains.full_state.minflt": "count",
    "chains.full_state.states": "count",
    "chains.full_state.matrix_bytes": "B",
    "chains.full_state.solve_flops": "flop",
    "chains.full_state.peak_alloc_mb": "MiB",
    "formulas.calls": "count",
    "formulas.s": "s",
    "bounds.calls": "count",
    "bounds.s": "s",
    "serialize.dumps.s": "s",
    "serialize.dumps.bytes": "B",
    "serialize.csv.s": "s",
    "serialize.csv.bytes": "B",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics (all but the tracing overhead) of one traced pass."""
    spans, counts = tracer.spans, tracer.counts

    def calls(name):
        return spans[name][0] if name in spans else 0

    def seconds(name):
        return spans[name][1] if name in spans else 0.0

    def self_seconds(name):
        return spans[name][2] if name in spans else 0.0

    iterations = counts["ea.iterations"]
    values = {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_seconds("cli.main"),
        "experiments.replicates": counts["experiments.replicates"],
        "experiments.replicate_rng.calls": calls("experiments.replicate_rng"),
        "experiments.replicate_rng.s": seconds("experiments.replicate_rng"),
        "experiments.aggregate_results.s": seconds("experiments.aggregate_results"),
        "experiments.compare_report.s": seconds("experiments.compare_report"),
        "experiments.run_experiment.self_s": self_seconds("experiments.run_experiment"),
        "ea.run_ea.calls": calls("ea.run_ea"),
        "ea.run_ea.self_s": self_seconds("ea.run_ea"),
        "ea.iterations": iterations,
        "ea.ns_per_iter": seconds("ea.run_ea") / iterations * 1e9 if iterations else 0.0,
        "ea.eval_ratio": counts["ea.fitness_evals"] / iterations if iterations else 0.0,
        "ea.progress_ratio": counts["ea.level_leaves"] / iterations if iterations else 0.0,
        "benchmarks.fitness.calls": calls("benchmarks.fitness"),
        "benchmarks.fitness.s": seconds("benchmarks.fitness"),
        "benchmarks.level.calls": calls("benchmarks.level"),
        "benchmarks.level.s": seconds("benchmarks.level"),
        "benchmarks.is_optimum.s": seconds("benchmarks.is_optimum"),
        "benchmarks.build_long_k_path.s": seconds("benchmarks.build_long_k_path"),
        "chains.mutation_class_row.calls": calls("chains.mutation_class_row"),
        "chains.mutation_class_row.s": seconds("chains.mutation_class_row"),
        "chains.level_matrix.self_s": self_seconds("chains.level_matrix"),
        "chains.LevelChain.init_s": seconds("chains.LevelChain.init"),
        "chains.visit_probabilities.s": seconds("chains.visit_probabilities"),
        "chains.expected_hitting_time.self_s": self_seconds("chains.expected_hitting_time"),
        "chains.full_state.s": seconds("chains.full_state"),
        "chains.full_state.build_s": seconds("chains.full_state") - seconds("chains.full_state.solve"),
        "chains.full_state.solve_s": seconds("chains.full_state.solve"),
        "chains.full_state.solve_calls": calls("chains.full_state.solve"),
        "formulas.calls": tracer.entries["formulas"][0],
        "formulas.s": tracer.entries["formulas"][1],
        "bounds.calls": tracer.entries["bounds"][0],
        "bounds.s": tracer.entries["bounds"][1],
        "serialize.dumps.s": seconds("serialize.dumps"),
        "serialize.csv.s": seconds("serialize.csv"),
    }
    for key in (
        "chains.mutation_class_row.sys_s",
        "chains.mutation_class_row.minflt",
        "chains.mutation_class_row.terms",
        "chains.full_state.sys_s",
        "chains.full_state.minflt",
        "chains.full_state.states",
        "chains.full_state.matrix_bytes",
        "chains.full_state.solve_flops",
        "chains.full_state.peak_alloc_mb",
        "serialize.dumps.bytes",
        "serialize.csv.bytes",
    ):
        values[key] = counts[key]
    return {name: values[name] for name in LAYER_METRICS}
