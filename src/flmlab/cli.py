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
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import benchmarks, bounds, chains, formulas, serialize
from .experiments import (
    ExperimentConfig,
    _parse_init,
    compare_report,
    resolve_mutation_rate,
    run_experiment,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_FAIL_VERDICT = 3


def _add_common(parser: argparse.ArgumentParser, benchmark: bool = True) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="64-bit unsigned master seed")
    parser.add_argument("--out", default=None, help="output file (default: standard output)")
    parser.add_argument("--config", default=None, help="JSON file mirroring the flags")
    if benchmark:
        # required, but checked after parsing so a --config file can supply them
        parser.add_argument("--benchmark", choices=tuple(_FAMILIES), default=None)
        parser.add_argument("--n", type=int, default=None)
        parser.add_argument("--k", type=int, default=None)
        parser.add_argument("--p", default="1/n", help="mutation rate: real, fraction, or c/n")
        parser.add_argument(
            "--init", default="random", help="random, level:<int>, point:<bits> (simulate, bounds) or arbitrary (bounds)"
        )


def build_parser() -> argparse.ArgumentParser:
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
    p_path.add_argument("--n", type=int, default=None)
    p_path.add_argument("--k", type=int, default=None)

    return parser


def _missing_required(args) -> list[str]:
    missing = []
    if args.command == "path-check":
        needed = ("n", "k")
    else:
        needed = ("benchmark", "n")
    for name in needed:
        if getattr(args, name, None) is None:
            missing.append(f"--{name}")
    return missing


def _apply_config_file(argv: list[str]) -> list[str]:
    """Merge --config FILE values into argv as flags; explicit flags win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    with open(known.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError("--config file must hold a JSON object")
    merged = list(argv)
    for key, value in values.items():
        flag = "--" + str(key).replace("_", "-")
        if any(arg == flag or arg.startswith(flag + "=") for arg in argv):
            continue
        if isinstance(value, bool):
            if value:
                merged.append(flag)
        else:
            merged.extend([flag, str(value)])
    return merged


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _chain_start(args):
    """Start law of an exact oracle: "random" or a level index."""
    return _parse_init(args.init, args.n, point=False)


def _rate_is_one_over_n(p: float, n: int) -> bool:
    """The OneMax sandwich and the jump skip bounds are stated for rate 1/n only."""
    return abs(p - 1.0 / n) < 1e-15


def _require_k(args) -> int:
    if args.k is None:
        raise ValueError(f"{args.benchmark} requires --k")
    return args.k


# ---------------------------------------------------------------------------
# per-family ingredients: exact chain, bounds document, compare inputs
# ---------------------------------------------------------------------------


def _onemax_chain(args, p: float) -> chains.LevelChain:
    return chains.onemax_level_matrix(args.n, p, start=_chain_start(args))


def _onemax_bounds(args, p: float):
    k = 0 if args.from_level is None else args.from_level
    l = args.n if args.to_level is None else args.to_level
    om = formulas.onemax_bounds(args.n, k, l)  # validates n, from and to
    if not _rate_is_one_over_n(p, args.n):
        raise ValueError(f"onemax bounds are stated for rate 1/n only, got p={p!r}")
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
    exact = formulas.leadingones_exact(args.n, p)
    return {"exact_expected_runtime": exact}, [
        bounds.BoundResult(exact, "lower", "leadingones-exact"),
        bounds.BoundResult(exact, "upper", "leadingones-exact"),
    ]


def _leadingones_compare(args, p: float, summary: None):
    start = _chain_start(args)
    if start == "random":  # every level below n is visited with probability 1/2
        fields, lower_upper = _leadingones_bounds(args, p)
        visit_lower = dict.fromkeys(range(args.n), 0.5)
        return lower_upper[::-1], fields["exact_expected_runtime"], visit_lower  # reports list the upper first
    if not 0 <= start <= args.n:
        raise ValueError(f"LeadingOnes level must be in [0, {args.n}], got {start}")
    # the bits behind the first zero stay uniform, so a run started at level
    # L visits every higher level with probability 1/2 and no lower one
    levels = np.arange(args.n)
    v = np.where(levels == start, 1.0, np.where(levels > start, 0.5, 0.0))
    exact = float(np.sum(v / formulas.leadingones_leave_probs(args.n, p)))  # sum v_i / p_i
    return [], exact, dict(enumerate(v.tolist()))


def _jump_chain(args, p: float) -> chains.LevelChain:
    k = _require_k(args)
    start = _chain_start(args)
    if start != "random":  # benchmark level L, uniform over its strings as in simulate
        level = benchmarks.make_benchmark("jump", args.n, k).level
        ones = np.array([a for a in range(args.n + 1) if level((1 << a) - 1) == start])
        if not ones.size:
            raise ValueError(f"no state has level {start}")
        log_w = chains._log_binom(args.n, ones)  # C(n, a), shifted by its peak so no class underflows
        law = np.zeros(args.n + 1)
        law[ones] = np.exp(log_w - log_w.max())
        start = law / law.sum()
    return chains.jump_level_matrix(args.n, k, p, start=start)


def _jump_bounds(args, p: float):
    k = _require_k(args)
    init = "random" if args.init == "random" else "arbitrary"  # the bound that covers any fixed start
    jb = formulas.jump_bounds(args.n, k, init=init)  # validates n and k
    if not _rate_is_one_over_n(p, args.n):
        raise ValueError(f"jump bounds are stated for rate 1/n only, got p={p!r}")
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
    k = args.k
    # a run started at the optimum (level k+1) has no valley left to jump
    if not (_rate_is_one_over_n(p, args.n) and formulas.jump_bounds_stated(args.n, k) and _chain_start(args) != k + 1):
        return [], summary.expected_time, {}
    fields, bound_list = _jump_bounds(args, p)
    skip = fields[f"skip_bound_{fields['init']}"]
    return bound_list, summary.expected_time, {k: 1.0 - float(skip)}  # canonical non-gap level


def _longpath_chain(args, p: float) -> chains.LevelChain:
    path = benchmarks.build_long_k_path(args.n, _require_k(args))
    start = _chain_start(args)
    # known defect: simulate starts from a uniform random string, not path position 0
    return chains.longpath_level_matrix(path, p, start=0 if start == "random" else start)


def _longpath_bounds(args, p: float):
    k = _require_k(args)
    main_bound = formulas.longpath_lower_bound(args.n, k, p)
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
    _, bound_list = _longpath_bounds(args, p)
    v_low = formulas.longpath_level_visit_lower(args.n, args.k, p)
    visit_lower = {i: v_low for i in range(1, len(summary.visit_probs) - 1)}
    return bound_list, summary.expected_time, visit_lower


@dataclass(frozen=True)
class _Family:
    """Everything the CLI knows about one benchmark family.

    ``chain`` builds the exact level chain; a full-state-only family has none
    and gives its leave probabilities in closed form by ``leave``.  ``bounds``
    returns the family's fields of the ``bounds`` document and its bounds;
    ``compare`` returns the bounds, exact runtime and visit lower bounds of a
    comparison from the exact chain's summary.
    """

    chain: Optional[Callable]
    bounds: Callable
    compare: Callable
    leave: Optional[Callable] = None


# The entries call library functions through their modules at call time, so
# wrappers installed on those modules (as by a profiler) see every call.
_FAMILIES = {
    "onemax": _Family(_onemax_chain, _onemax_bounds, _onemax_compare),
    "leadingones": _Family(
        None, _leadingones_bounds, _leadingones_compare,
        leave=lambda args, p: formulas.leadingones_leave_probs(args.n, p),
    ),
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
    if args.init != "arbitrary":  # every family rejects an unknown --init form
        _parse_init(args.init, args.n)
    fields, results = _FAMILIES[args.benchmark].bounds(args, p)
    doc = {"benchmark": args.benchmark, "n": args.n, **fields}
    doc["bounds"] = [_bound_entry(b) for b in results]
    if args.format == "csv":
        lines = ["theorem,kind,value"]
        for b in results:
            lines.append(f"{b.theorem},{b.kind},{repr(b.value)}")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(serialize.dumps(doc), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    p = resolve_mutation_rate(args.p, args.n)
    family = _FAMILIES[args.benchmark]
    if args.full_state or family.chain is None:
        benchmark = benchmarks.make_benchmark(args.benchmark, args.n, args.k)
        result = chains.full_state_expected_time(benchmark, p, start=_chain_start(args))
        if family.chain is None:
            leave = family.leave(args, p)
        else:
            leave = family.chain(args, p).leave_probs[:-1]
        visit, expected, oracle = result.visit_probs, result.expected_time, "full-state"
    else:
        summary = chains.summarize(family.chain(args, p))
        leave, visit, expected = summary.leave_probs, summary.visit_probs, summary.expected_time
        oracle = "level-chain"
    doc = {
        "levels": len(visit),
        "p": [float(x) for x in leave],
        "v": [float(x) for x in visit],
        "expected_T": expected,
        "oracle": oracle,
    }
    if args.format == "csv":
        lines = ["level,p,v"]
        for i, v in enumerate(doc["v"]):
            pv = doc["p"][i] if i < len(doc["p"]) else 0.0
            lines.append(f"{i},{repr(float(pv))},{repr(float(v))}")
        lines.append(f"expected_T,{repr(doc['expected_T'])},")
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        _write_output(serialize.dumps(doc), args.out)
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
        "runtimes": [int(t) for t in stats.runtimes],
        "hit_optimum": [bool(h) for h in stats.hits],
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
    p = resolve_mutation_rate(args.p, args.n)
    bound_list, exact, visit_lower = _compare_inputs(args, p)  # every input check before the first replicate
    stats = run_experiment(_experiment_config(args))
    report = compare_report(stats, bound_list, exact=exact, visit_lower=visit_lower)
    if args.format == "csv":
        _write_output(report.to_csv(), args.out)
    else:
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
        _write_output(serialize.dumps(doc), args.out)
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
    missing = _missing_required(args)
    if missing:
        print(f"usage error: missing {', '.join(missing)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
