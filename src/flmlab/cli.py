"""Command-line interface.

Subcommands: ``bounds`` (theorem bounds for a benchmark configuration),
``oracle`` (exact level-chain / full-state values), ``simulate`` (Monte
Carlo runs), ``compare`` (simulate + bounds + oracle + verdict report) and
``path-check`` (build and exhaustively verify a long k-path).

Exit status: 0 success, 1 validation failure, 2 usage error, 3 FAIL verdict
in a comparison report.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import benchmarks, bounds, chains, formulas, serialize
from .experiments import (
    ExperimentConfig,
    compare_report,
    parse_start,
    resolve_mutation_rate,
    run_experiment,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FAIL_VERDICT = 3


def _add_common(parser: argparse.ArgumentParser, benchmark: bool = True) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="64-bit unsigned master seed")
    parser.add_argument("--out", default=None, help="output file (default: standard output)")
    parser.add_argument("--config", default=None, help="JSON file mirroring the flags")
    if benchmark:
        parser.add_argument("--benchmark", choices=tuple(_FAMILIES), required=True)
        parser.add_argument("--n", type=int, required=True)
        parser.add_argument("--k", type=int, default=None)
        parser.add_argument("--p", default="1/n", help="mutation rate: real, fraction, or c/n")
        parser.add_argument(
            "--init", default="random",
            help="random, level:<L> (benchmark level L), point:<bits> (simulate, bounds) or arbitrary (bounds)",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="flmlab",
        description="Fitness-level runtime bounds, exact chain oracles and Monte Carlo validation for the (1+1) EA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="compute all applicable theorem bounds")
    _add_common(p_bounds)
    p_bounds.add_argument("--from", dest="from_level", type=int, default=None)
    p_bounds.add_argument("--to", dest="to_level", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="exact level-chain / full-state values")
    _add_common(p_oracle)
    p_oracle.add_argument(
        "--full-state", action="store_true", help="force the brute-force 2^n-state oracle"
    )

    p_sim = sub.add_parser("simulate", help="run Monte Carlo replicates")
    p_cmp = sub.add_parser("compare", help="simulate, compute bounds and report verdicts")
    for p_mc in (p_sim, p_cmp):
        _add_common(p_mc)
        p_mc.add_argument("--replicates", type=int, default=1000)
        p_mc.add_argument("--max-iterations", type=int, default=10**9)
        p_mc.add_argument("--threads", type=int, default=0, help="accepted and ignored")

    p_path = sub.add_parser("path-check", help="build and exhaustively verify a long k-path")
    _add_common(p_path, benchmark=False)
    p_path.add_argument("--n", type=int, required=True)
    p_path.add_argument("--k", type=int, required=True)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Merge --config FILE values into argv as flags; explicit flags win.

    The config flags go right after the subcommand, so argparse reads every
    explicit flag later, in whatever spelling (an abbreviation included).
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    with open(known.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError("--config file must hold a JSON object")
    flags: list[str] = []
    for key, value in values.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                flags.append(flag)
        else:
            flags.extend([flag, str(value)])
    return argv[:1] + flags + argv[1:]


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit(args, doc: dict, header: tuple[str, ...], rows) -> None:
    """Write ``doc`` as JSON, or ``rows`` under ``header`` as CSV, as --format asks."""
    text = serialize.emit_csv(header, rows) if args.format == "csv" else serialize.dumps(doc)
    _write_output(text, args.out)


def _rate_is_one_over_n(p: float, n: int) -> bool:
    """The OneMax sandwich and the jump skip bounds are stated for rate 1/n only."""
    return abs(p - 1.0 / n) < 1e-15


def _require_k(args) -> int:
    if args.k is None:
        raise ValueError(f"{args.benchmark} requires --k")
    return args.k


def _where_stated(family_bounds: Callable, args, p: float):
    """A family's ``bounds`` entry, or no fields and no bounds where it
    raises: where its bounds are not stated."""
    try:
        return family_bounds(args, p)
    except ValueError:
        return {}, []


def _full_state_start(benchmark: benchmarks.Benchmark, start):
    """The full-state oracle's start: a long k-path level is its one path point."""
    if start.form == "level" and benchmark.path is not None:
        return benchmark.sample_level(start.level, None)  # the point simulate starts from: no draw
    return "random" if start.form == "random" else start.level


# ---------------------------------------------------------------------------
# per-family ingredients: exact chain, bounds document, compare inputs
# ---------------------------------------------------------------------------


def _onemax_chain(args, p: float) -> chains.LevelChain:
    return chains.onemax_level_matrix(args.n, p, start=args.start.level if args.start.form == "level" else "random")


def _onemax_bounds(args, p: float):
    k = 0 if args.from_level is None else args.from_level
    l = args.n if args.to_level is None else args.to_level
    om = formulas.onemax_bounds(args.n, k, l)  # validates n, from and to
    if not _rate_is_one_over_n(p, args.n):
        raise ValueError(f"onemax bounds are stated for rate 1/n only, got p={p!r}")
    if args.start.form == "level" and not 0 <= args.start.level <= args.n:
        raise ValueError(f"OneMax level must be in [0, {args.n}], got {args.start.level}")
    fields = {
        "from": k,
        "to": l,
        "e_n": om.e_n,
        "tilde_T": om.tilde_t,
        "tilde_T_plus": om.tilde_t_plus,
        "tilde_T_minus": om.tilde_t_minus,
        "thm_lower": om.thm_lower,
        "thm_lower_clamped": om.clamped,
    }
    return fields, [
        bounds.BoundResult(om.tilde_t, "upper", "onemax-tilde-T"),
        bounds.BoundResult(om.tilde_t_plus, "upper", "onemax-tilde-T-plus"),
        bounds.BoundResult(om.thm_lower, "lower", "onemax-visit-lower"),
    ]


def _onemax_compare(args, p: float, summary: chains.ChainSummary):
    # the calculators validate the leave probabilities before any division
    upper = bounds.flm_upper_classic(summary.leave_probs)
    lower = bounds.flm_lower_visit(summary.leave_probs, summary.visit_probs[:-1])
    visit_lower = {i: float(v) for i, v in enumerate(summary.visit_probs[:-1])}
    return [upper, lower], summary.expected_time, visit_lower


def _leadingones_bounds(args, p: float):
    # the closed form is stated for a uniform start
    if args.start.form != "random":
        raise ValueError(f"leadingones bounds are stated for --init random only, got {args.init!r}")
    exact = formulas.leadingones_exact(args.n, p)
    return {"exact_expected_runtime": exact}, [
        bounds.BoundResult(exact, "lower", "leadingones-exact"),
        bounds.BoundResult(exact, "upper", "leadingones-exact"),
    ]


def _leadingones_compare(args, p: float, summary: None):
    # the bits behind the first zero stay uniform, so a run visits every level
    # above its start with probability 1/2 (from random: every level below n)
    v = np.full(args.n, 0.5)
    if args.start.form == "level":
        level = args.start.level
        if not 0 <= level <= args.n:
            raise ValueError(f"LeadingOnes level must be in [0, {args.n}], got {level}")
        v[:level] = 0.0  # no lower level
        v[level : level + 1] = 1.0  # level L surely (no level when L = n)
    # the closed form, checked against the sum; from a uniform start it is
    # stated, and its overflow is the error that bounds reports too
    lower_upper = _leadingones_bounds(args, p)[1] if args.start.form == "random" else []
    exact = bounds.flm_upper_visit(formulas.leadingones_leave_probs(args.n, p), v).value
    return lower_upper[::-1], exact, dict(enumerate(v.tolist()))  # reports list the upper first


def _jump_chain(args, p: float) -> chains.LevelChain:
    k, start = _require_k(args), "random"
    if args.start.form == "level":  # the law over ones-counts that sample_level(L) draws from
        ones, weights = benchmarks.jump_level_weights(args.n, k, args.start.level)
        start = np.zeros(args.n + 1)
        start[ones] = weights
        start /= start.sum()
    return chains.jump_level_matrix(args.n, k, p, start=start)


def _jump_bounds(args, p: float):
    k, start = _require_k(args), args.start
    init = "random" if start.form == "random" else "arbitrary"  # the bound that covers any fixed start
    jb = formulas.jump_bounds(args.n, k, init=init)  # validates n and k
    if not _rate_is_one_over_n(p, args.n):
        raise ValueError(f"jump bounds are stated for rate 1/n only, got p={p!r}")
    if (start.form == "level" and not 1 <= start.level <= k) or (start.form == "point" and start.point.all()):
        raise ValueError(f"jump bounds are stated for a start below the optimum (level 1..{k}), got {args.init!r}")
    fields = {
        "k": k,
        "init": init,
        "p_k": jb.p_k,
        "skip_bound_arbitrary": jb.skip_bound_arbitrary,
        "skip_bound_random": jb.skip_bound_random,
        "lower_bound": jb.lower_bound,
    }
    return fields, [bounds.BoundResult(jb.lower_bound, "lower", f"jump-skip-{init}")]


def _jump_compare(args, p: float, summary: chains.ChainSummary):
    fields, bound_list = _where_stated(_jump_bounds, args, p)
    # the skip bound's complement, on the canonical non-gap level
    visit_lower = {args.k: 1.0 - float(fields[f"skip_bound_{fields['init']}"])} if fields else {}
    return bound_list, summary.expected_time, visit_lower


def _longpath_chain(args, p: float) -> chains.LevelChain:
    path = benchmarks.build_long_k_path(args.n, _require_k(args))
    # "random" as position 0 is a known defect (ROADMAP item 1, LONGPATH_INIT): the engine starts it uniformly
    return chains.longpath_level_matrix(path, p, start=0 if args.start.form == "random" else args.start.level)


def _longpath_bounds(args, p: float):
    k = _require_k(args)
    # stated for a run from path position 0, where the chain also starts "random"
    if (args.start.form, args.start.level) not in (("random", None), ("level", 0)):
        raise ValueError(f"longpath bounds are stated for --init random or level:0 only, got {args.init!r}")
    main_bound = formulas.longpath_lower_bound(args.n, k, p)  # validates k and p in (0, 1/2]
    fields = {
        "k": k,
        "p": p,
        "lower_bound": main_bound,
        "reference_bound": formulas.sudholt_reference_bound(args.n, k, p),
        "reference_bound_unproven": True,
        "leave_prob": formulas.longpath_leave_prob(args.n, k, p),
        "leave_prob_bound": formulas.longpath_leave_prob_bound(args.n, p),
        "visit_lower": formulas.longpath_visit_lower(p),
    }
    return fields, [bounds.BoundResult(main_bound, "lower", "longpath-visit-lower")]


def _longpath_compare(args, p: float, summary: chains.ChainSummary):
    _, bound_list = _where_stated(_longpath_bounds, args, p)
    if not bound_list:
        return [], summary.expected_time, {}
    v_low = formulas.longpath_level_visit_lower(args.n, args.k, p)
    visit_lower = {i: v_low for i in range(1, len(summary.visit_probs) - 1)}
    return bound_list, summary.expected_time, visit_lower


@dataclass(frozen=True)
class _Family:
    """Everything the CLI knows about one benchmark family; each entry reads
    ``args.start``, its command's parsed --init ("arbitrary" and points: bounds only).

    ``chain`` builds the exact level chain; a full-state-only family has none.
    ``bounds`` returns the family's fields of the ``bounds`` document and its
    bounds, and raises where they are not stated; ``compare`` returns those
    bounds (OneMax: its chain's), exact runtime and visit lower bounds.
    """

    chain: Optional[Callable]
    bounds: Callable
    compare: Callable


# The entries call library functions through their modules at call time, so
# wrappers installed on those modules (as by a profiler) see every call.
_FAMILIES = {
    "onemax": _Family(_onemax_chain, _onemax_bounds, _onemax_compare),
    "leadingones": _Family(None, _leadingones_bounds, _leadingones_compare),
    "jump": _Family(_jump_chain, _jump_bounds, _jump_compare),
    "longpath": _Family(_longpath_chain, _longpath_bounds, _longpath_compare),
}


def _bound_entry(b: bounds.BoundResult) -> dict:
    return {
        "theorem": b.theorem,
        "kind": b.kind,
        "value": b.value,
        "violated_preconditions": list(b.violated_preconditions),
    }


def _cmd_bounds(args) -> int:
    p = resolve_mutation_rate(args.p, args.n)
    args.start = parse_start(args.init, args.n, ("random", "level:<int>", "point:<bits>", "arbitrary"))
    fields, results = _FAMILIES[args.benchmark].bounds(args, p)
    doc = {"benchmark": args.benchmark, "n": args.n, **fields}
    doc["bounds"] = [_bound_entry(b) for b in results]
    _emit(args, doc, ("theorem", "kind", "value"), ((b.theorem, b.kind, b.value) for b in results))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    p = resolve_mutation_rate(args.p, args.n)
    family = _FAMILIES[args.benchmark]
    args.start = parse_start(args.init, args.n, ("random", "level:<int>"))
    if args.full_state or family.chain is None:
        benchmark = benchmarks.make_benchmark(args.benchmark, args.n, args.k)
        summary = chains.full_state_expected_time(benchmark, p, start=_full_state_start(benchmark, args.start))
        oracle = "full-state"
    else:
        summary = chains.summarize(family.chain(args, p))
        oracle = "level-chain"
    leave, visit, expected = summary.leave_probs, summary.visit_probs, summary.expected_time
    doc = {"levels": len(visit), "p": leave, "v": visit, "expected_T": expected, "oracle": oracle}
    # the top level has no leave probability: its p cell reads 0.0
    rows = itertools.chain(zip(range(len(visit)), np.append(leave, 0.0), visit), [("expected_T", expected, "")])
    _emit(args, doc, ("level", "p", "v"), rows)
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        benchmark=args.benchmark,
        n=args.n,
        k=args.k,
        mutation_rate=args.p,
        replicates=args.replicates,
        master_seed=args.seed,
        init=args.init,
        max_iterations=args.max_iterations,
    )


def _simulate_doc(args, stats) -> dict:
    return {
        "benchmark": args.benchmark,
        "n": args.n,
        "k": args.k,
        "p": resolve_mutation_rate(args.p, args.n),
        "seed": args.seed,
        "init": args.init,
        **stats.as_dict(),
        "runtimes": stats.runtimes,
        "hit_optimum": stats.hits,
    }


def _cmd_simulate(args) -> int:
    stats = run_experiment(_experiment_config(args))
    if args.format == "csv":
        replicate_text = serialize.emit_replicates_csv(stats.runtimes, stats.hits)
        levels = np.arange(len(stats.visit_freq))
        levels_text = serialize.emit_levels_csv(levels, stats.visit_freq, stats.leave_rate, stats.mean_sojourn)
        if args.out is None:
            sys.stdout.write(replicate_text + "\n" + levels_text)
        else:
            Path(args.out).write_text(replicate_text, encoding="utf-8")
            Path(args.out).with_suffix(".levels.csv").write_text(levels_text, encoding="utf-8")
    else:
        _write_output(serialize.dumps(_simulate_doc(args, stats)), args.out)
    return EXIT_OK


def _compare_inputs(args, p: float):
    """Bounds, exact oracle value and proven visit lower bounds for compare."""
    family = _FAMILIES[args.benchmark]
    summary = None if family.chain is None else chains.summarize(family.chain(args, p))
    return family.compare(args, p, summary)


def _cmd_compare(args) -> int:
    config = _experiment_config(args)  # Monte Carlo flags checked before the exact chain is built
    p = resolve_mutation_rate(args.p, args.n)
    args.start = parse_start(args.init, args.n, ("random", "level:<int>"))
    bound_list, exact, visit_lower = _compare_inputs(args, p)  # every input check before the first replicate
    stats = run_experiment(config, args.start)
    report = compare_report(stats, bound_list, exact=exact, visit_lower=visit_lower)
    doc = {
        "benchmark": args.benchmark,
        "n": args.n,
        "k": args.k,
        "p": p,
        "seed": args.seed,
        "statistics": stats.as_dict(),
        "bounds": [_bound_entry(b) for b in bound_list],
        "exact": exact,
        "report": report.as_dict(),
    }
    _emit(args, doc, ("quantity", "empirical", "theoretical", "verdict"), map(astuple, report.rows))
    return EXIT_FAIL_VERDICT if report.failed else EXIT_OK


def _cmd_path_check(args) -> int:
    path = benchmarks.build_long_k_path(args.n, args.k)
    benchmarks.verify_long_k_path(path)
    dump = "\n".join("".join(str(int(b)) for b in pt) for pt in path.points) + "\n"
    _write_output(dump, args.out)
    sys.stdout.write(f"points={len(path)}\n")
    return EXIT_OK


_HANDLERS = {
    "bounds": _cmd_bounds,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "path-check": _cmd_path_check,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors exit with status 2
        return int(exc.code) if exc.code is not None else EXIT_OK
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
