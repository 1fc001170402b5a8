"""One pass of a workload, run by run.py in a fresh child process.

Usage: python3 perfbench/child.py RESULT_FILE setup
       python3 perfbench/child.py RESULT_FILE WORKLOAD SEED TRACE

``setup`` only imports flmlab and reports when the import finished.  A
pass runs the workload's ops in order through ``flmlab.cli.main``, captures
each op's output and exit status, and writes everything to RESULT_FILE as
JSON.
"""

import sys
import time

import flmlab  # set-up ends when this import finishes

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import flmlab.cli  # noqa: E402
import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_INTERVAL_S = 0.1


class SpeedProbe:
    """Times a small fixed kernel (a Python loop over a small numpy ``sum``,
    like the EA's inner loop) every ``PROBE_INTERVAL_S`` of wall time.

    The host's speed drifts by up to about 1.6x over tens of seconds; the
    kernel's time tracks that drift, so run.py can rescale each op's time to
    the reference speed.  The handler runs between bytecodes, so a long
    native call delays the next sample without being disturbed.  No sample
    is taken while tracemalloc runs (around full-state calls in the traced
    pass), because it slows the kernel's allocations.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._bits = numpy.zeros(100, dtype=numpy.uint8)

    def _sample(self, *_signal_args) -> None:
        if tracemalloc.is_tracing():
            return
        start = time.perf_counter()
        bits, total = self._bits, 0
        for i in range(200):
            total += int(bits.sum()) ^ i
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def _versions() -> dict:
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "flmlab": getattr(flmlab, "__version__", "unknown"),
    }


def run_op(main, argv: list[str], scratch: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    code, exception = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:  # an escaping exception is a recorded op failure
        exception = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    files = {}
    for path in sorted(scratch.iterdir()):
        files[path.name] = path.read_text(encoding="utf-8")
        path.unlink()
    return {
        "argv": argv,
        "exit": code,
        "exception": exception,
        "start": start,
        "end": end,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "files": files,
    }


def run_pass(workload: str, seed: int, traced: bool, scratch: Path) -> dict:
    main = flmlab.cli.main
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.span("cli.main", main)

    records = []
    with SpeedProbe() as probe:
        for index, op in enumerate(workloads.WORKLOADS[workload]):
            out_path = str(scratch / f"op{index}.csv") if op.to_files else None
            records.append(run_op(main, workloads.cli_argv(op, seed, index, out_path), scratch))
    result = {
        "ops": records,
        "probe": probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    return result


def main(argv: list[str]) -> None:
    result_file = Path(argv[0])
    result = {"imported_at": IMPORTED_AT, "versions": _versions()}
    if argv[1] != "setup":
        workload, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
        scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=result_file.parent))
        try:
            result.update(run_pass(workload, seed, traced, scratch))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    result_file.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
