"""Property test of the CLI's error contract over its argument space.

Every input must end in exit status 0, 1, 2 or 3 without an exception
escaping ``cli.main``, and a validation failure (exit 1) writes exactly one
line to standard error.  The Monte Carlo subcommands always get a small
``--max-iterations`` and at most 15 replicates, so every case is quick: the
slowest of the 1000 cases takes about 0.1 s on a 2-core x86-64 machine, and
a case that takes longer than ``CASE_SECONDS`` fails on its own.
"""

from __future__ import annotations

import contextlib
import io
import time
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from flmlab.cli import main

CASE_SECONDS = 5.0
SUBCOMMANDS = ("bounds", "oracle", "simulate", "compare", "path-check")
FAMILIES = ("onemax", "leadingones", "jump", "longpath", "trap")
# flag values that are well-formed, and values each flag must reject; a case
# draws at most one flag from the rejected values (n and k range freely, and
# an init point of n bits is added to the well-formed inits)
VALID = {
    "--p": ("1/n", "2/n", "0.25", "1/3", "1e-20"),
    "--init": ("random", "arbitrary", "level:0", "level:1", "level:3"),
    "--replicates": tuple(str(r) for r in range(1, 16)),
    "--max-iterations": ("1", "2000"),
    "--seed": ("0", "7"),
}
INVALID = {
    "--p": ("0", "1", "-1", "1/0", "abc"),
    "--init": ("bogus", "", "level:", "level:x", "level:-1", "level:99", "point:", "point:0a01", "point:111111111"),
    "--replicates": ("0", "-1"),
    "--max-iterations": ("-1", "0"),
    "--seed": ("-1", str(2**64)),
}


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(SUBCOMMANDS))
    bad = draw(st.one_of(st.none(), st.sampled_from(tuple(INVALID))))
    n = draw(st.integers(-1, 9))
    valid = {**VALID, "--init": (*VALID["--init"], "point:" + "01" * (n // 2) + "1" * (n % 2))}

    def flag(name: str) -> list[str]:
        return [name, draw(st.sampled_from(INVALID[name] if name == bad else valid[name]))]

    argv = [command, "--n", str(n)]
    k = draw(st.one_of(st.none(), st.integers(-1, 9)))
    if k is not None:
        argv += ["--k", str(k)]
    if command != "path-check":
        argv += ["--benchmark", draw(st.sampled_from(FAMILIES)), *flag("--p"), *flag("--init")]
    if command in ("simulate", "compare"):
        argv += [*flag("--replicates"), *flag("--max-iterations")]
    if command == "oracle" and draw(st.booleans()):
        argv.append("--full-state")
    argv += [*flag("--seed"), "--format", draw(st.sampled_from(("json", "csv")))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(cli_argv())
def test_cli_exit_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning escapes as an exception
        code = main(argv)
    elapsed = time.perf_counter() - started
    assert code in (0, 1, 2, 3)
    assert elapsed < CASE_SECONDS, f"case took {elapsed:.1f} s"
    if code == 1:
        assert len(stderr.getvalue().splitlines()) == 1, stderr.getvalue()


def test_simulate_a_million_bits_exits_0():
    # the engine's buffers are bounded whatever n is: one lane per block, one
    # iteration per draw of masks, gap draws in chunks (tests/test_ea.py)
    argv = "simulate --benchmark onemax --n 1000000 --replicates 5 --max-iterations 3".split()
    with contextlib.redirect_stdout(io.StringIO()) as stdout, warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert '"timeouts": 5' in stdout.getvalue()
