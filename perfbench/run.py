"""The flmlab benchmark: run a workload of CLI calls and report its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-concentrated --seed 1 --seconds 20 --trace 0

Set-up is measured in ``SETUP_SAMPLES`` fresh child processes that only
import flmlab.  Each pass of the workload runs in its own fresh child with a
fixed environment, so caches and allocator state never carry over between
passes.  Passes repeat while another one fits in ``--seconds`` (at least
one).  With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics plus the tracing overhead.

Every op's output is checked (checks.py); a detailed report, with each op's
status and output digest, goes to perfbench/out/.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
CHILD = ROOT / "perfbench" / "child.py"
SETUP_SAMPLES = 5
# The speed probe's mean time on the 2-core machine the benchmark was defined
# on; times are reported rescaled to the speed at which the probe takes this.
REF_PROBE_S = 0.0006
# an op shorter than this is rescaled by the probe's mean over a window of
# this length centred on it, so that it gets enough samples
PROBE_WINDOW_S = 4.0
DEADLINE_S = 170.0  # every child is stopped by then, so the run ends within 180 s
BLAS_THREADS = "1"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ea_iters_per_s": "iter/s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    """The same environment on every commit: one BLAS thread, no FLM_THREADS,
    no allocator tuning, flmlab imported from this checkout's sources."""
    env = {k: v for k, v in os.environ.items() if k != "FLM_THREADS" and not k.startswith("MALLOC_")}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run child.py with ``args`` and return its result and its start time."""
    result_file = OUT_DIR / f"child-{os.getpid()}.json"
    result_file.unlink(missing_ok=True)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(result_file), *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError(f"child {' '.join(args)} did not finish before the deadline")
    if proc.returncode != 0 or not result_file.exists():
        raise BenchmarkError(f"child {' '.join(args)} exited {proc.returncode}: {err.strip()[-500:]}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result_file.unlink()
    return result, started


def at_reference_speed(start: float, end: float, probe: list[list[float]]) -> float:
    """Rescale the interval [start, end) of a pass to the reference speed: drop
    the probe's own time inside it and divide by the probe's mean slowdown."""
    half = max(PROBE_WINDOW_S - (end - start), 0.0) / 2
    window = [dt for t, dt in probe if start - half <= t < end + half] or [dt for _, dt in probe] or [REF_PROBE_S]
    inside = sum(dt for t, dt in probe if start <= t < end)
    return (end - start - inside) * REF_PROBE_S / statistics.fmean(window)


def evaluate(workload: str, result: dict) -> dict:
    """Check every op of one pass and derive the pass's measurements."""
    ops = workloads.WORKLOADS[workload]
    probe = result["probe"]
    records, mc_iterations, mc_seconds = [], 0, 0.0
    for op, rec in zip(ops, result["ops"]):
        outcome = checks.check(op, rec)
        output = rec["stdout"] + "".join(rec["files"][name] for name in sorted(rec["files"]))
        seconds = at_reference_speed(rec["start"], rec["end"], probe)
        if op.monte_carlo:
            mc_iterations += checks.reported_iterations(op, rec)
            mc_seconds += seconds
        records.append(
            {
                "argv": rec["argv"],
                "exit": rec["exit"],
                "exception": rec["exception"],
                "seconds": seconds,
                "raw_seconds": rec["end"] - rec["start"],
                "sha256": hashlib.sha256(output.encode()).hexdigest(),
                "status": outcome.status,
                "detail": outcome.detail,
            }
        )
    return {
        "ops": records,
        "wall_s": sum(rec["seconds"] for rec in records),
        "raw_wall_s": sum(rec["raw_seconds"] for rec in records),
        "speed": REF_PROBE_S / statistics.fmean(dt for _, dt in probe) if probe else 1.0,
        "ea_iters_per_s": mc_iterations / mc_seconds if mc_seconds else 0.0,
        "ea_iterations": mc_iterations,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def source_identity() -> dict:
    """The git revision when the checkout has one, and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flmlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = "unavailable (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            rev = ref
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    setup_samples, versions = [], None
    for _ in range(SETUP_SAMPLES):
        result, started = spawn(["setup"], deadline)
        setup_samples.append(result["imported_at"] - started)
        versions = result["versions"]

    passes = []
    measure_start = time.monotonic()
    while True:
        result, _ = spawn([workload, str(seed), "0"], deadline)
        passes.append(evaluate(workload, result))
        elapsed = time.monotonic() - measure_start
        if trace or elapsed + elapsed / len(passes) > seconds:
            break

    traced = None
    if trace:
        result, _ = spawn([workload, str(seed), "1"], deadline)
        traced = evaluate(workload, result)
        layers = dict(result["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]

    all_passes = passes + ([traced] if traced else [])
    statuses = [op["status"] for p in all_passes for op in p["ops"]]
    digests = {tuple(op["sha256"] for op in p["ops"]) for p in all_passes}
    attempted = len(statuses)
    failed = statuses.count("fail")

    if trace:
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead_s": "s"})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "ea_iters_per_s": statistics.median(p["ea_iters_per_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_ratio": statuses.count("pass") / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    summary = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "summary": summary,
        "fail_ratio": 1.0 - statuses.count("pass") / attempted,
        "outputs_identical_across_passes": len(digests) == 1,
        "setup_samples_s": setup_samples,
        "passes": passes,
        "traced_pass": traced,
        "known_defects": sorted({op.defect.reason for op in workloads.WORKLOADS[workload] if op.defect}),
        "environment": {
            **versions,
            **source_identity(),
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
        },
    }
    return summary, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flmlab" / "__init__.py").is_file():
        print(f"error: no flmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        summary, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    for p in report["passes"] + ([report["traced_pass"]] if args.trace else []):
        for op in p["ops"]:
            print(f"{op['status']:>12}  {op['seconds']:8.3f} s  {' '.join(op['argv'])}  {op['detail']}".rstrip())
    for metric, entry in summary["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"report: {(OUT_DIR / name).relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
