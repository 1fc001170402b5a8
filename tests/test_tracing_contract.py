"""The benchmark's traced run must see every layer the CLI calls into.

``perfbench/tracing.py`` wraps flmlab's public names where they are looked up
(module attributes, ``cli``'s imported names, benchmark instance callables).
Code that captures one of those functions at import time, for instance in a
dispatch table, bypasses the wrapper and the per-layer metrics silently read
zero.  This test installs the tracer in a fresh interpreter, runs small calls
of four subcommands over every family, and checks that each layer was seen.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
from flmlab import cli

CALLS = [
    "oracle --benchmark onemax --n 20",
    "oracle --benchmark jump --n 10 --k 3",
    "oracle --benchmark longpath --n 6 --k 2",
    "oracle --full-state --benchmark leadingones --n 5",
    "bounds --benchmark onemax --n 30",
    "bounds --benchmark leadingones --n 30",
    "bounds --benchmark jump --n 10 --k 3",
    "bounds --benchmark longpath --n 12 --k 4",
    "simulate --benchmark leadingones --n 6 --replicates 10 --seed 1 --format csv",
    "compare --benchmark jump --n 6 --k 2 --replicates 50 --seed 2",
]
codes = []
for argv in CALLS:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv.split()))
print(json.dumps({
    "codes": codes,
    "spans": {name: record[0] for name, record in tracer.spans.items()},
    "entries": {layer: record[0] for layer, record in tracer.entries.items()},
}))
"""


def test_traced_run_sees_every_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    assert seen["codes"] == [0] * 10
    spans = seen["spans"]
    assert spans.get("chains.level_matrix", 0) >= 4  # three level-chain oracles and the jump compare
    for name in (
        "chains.mutation_class_row",
        "chains.full_state",
        "benchmarks.fitness",
        "experiments.run_experiment",
        "experiments.compare_report",
        "serialize.dumps",
        "serialize.csv",
    ):
        assert spans.get(name, 0) > 0, name
    assert seen["entries"].get("formulas", 0) >= 4  # the four bounds calls at least
    assert seen["entries"].get("bounds", 0) >= 4
