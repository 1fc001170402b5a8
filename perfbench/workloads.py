"""The benchmark's workloads: fixed lists of flmlab CLI calls ("ops").

Each workload is a closed loop: one op runs after the previous one ends,
single-threaded, in one fresh child process.  The workload seed only feeds
the ``--seed`` of the Monte Carlo ops, so the same seed gives the same
inputs; exact-oracle ops take no seed.

Reference values were computed once with the level-chain oracle at the
commit that introduced this benchmark (``flmlab oracle ...``); each agrees
with the full-state oracle or a closed form wherever both exist.  The
LeadingOnes references are closed forms evaluated by ``checks.py`` itself.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

@dataclass(frozen=True)
class Defect:
    """A known defect an op reproduces at this commit.

    The op counts as ``known_defect`` (not passed, not failed) while it
    fails its normal check in exactly this way; once fixed it passes.
    """

    reason: str
    exit_code: Optional[int] = None  # expected exit status of cli.main
    exception: Optional[str] = None  # or: expected uncaught exception type
    stderr: str = ""  # substring the error message must contain


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output is checked against.

    ``ref`` is the stored exact value of the op's result: the expected
    runtime, or for ``bounds`` the exact sum of 1/p_i (``None``: LeadingOnes
    closed form, or no reference).  ``sd`` is the exact runtime SD, used to
    size the statistical tolerance of CSV compare reports, which print no
    standard error.  ``bracketed`` is the exact value a bounds op's lower and
    upper bounds must bracket.
    """

    argv: tuple[str, ...]
    ref: Optional[float] = None
    sd: Optional[float] = None
    bracketed: Optional[float] = None
    defect: Optional[Defect] = None
    to_files: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def monte_carlo(self) -> bool:
        return self.command in ("simulate", "compare")

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "json"

    def arg(self, name: str) -> Optional[str]:
        flag = "--" + name
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None

    @property
    def benchmark(self) -> str:
        return self.arg("benchmark") or ""

    @property
    def replicates(self) -> int:
        return int(self.arg("replicates") or 0)


def _op(text: str, **kw) -> Op:
    return Op(tuple(text.split()), **kw)


# Small instances that reach every layer (full-state oracle, long k-path,
# CSV serialisation, compare reports), so each per-layer metric is measured
# on every workload.  They are also the Monte Carlo work behind
# ea_iters_per_s on exact-oracles, which needs about 2 s of it to be steady.
CROSS_ROUTE = (
    _op("oracle --benchmark leadingones --n 8"),
    _op("compare --benchmark jump --n 6 --k 2 --replicates 2000 --format csv", ref=75.98871318806219, sd=74.31739138261676),
    _op("simulate --benchmark longpath --n 6 --k 2 --init level:0 --replicates 1500 --format csv", ref=71.2014849282361),
)

LONGPATH_INIT = Defect(
    reason="simulate starts from uniform random strings but cli._exact_chain maps init 'random' "
    "to path position 0, so mean and visit rows FAIL (exit 3); --init level:0 passes",
    exit_code=3,
)
ABSORBING_LEVEL = Defect(
    reason="LevelChain.leave_probs = 1 - diag rounds leave probabilities below ~1e-16 to 0, "
    "so reachable levels look absorbing (exit 1)",
    exit_code=1,
    stderr="absorbing non-top level",
)
OVERFLOW = Defect(
    reason="a value overflowing a double escapes cli.main as an uncaught OverflowError",
    exception="OverflowError",
)

WORKLOADS: dict[str, tuple[Op, ...]] = {
    "mc-concentrated": CROSS_ROUTE
    + (
        _op("simulate --benchmark leadingones --n 50 --replicates 400"),
        _op("simulate --benchmark onemax --n 100 --replicates 800", ref=1069.5384972597576),
        _op("simulate --benchmark leadingones --n 100 --replicates 60"),
    ),
    "mc-tail": CROSS_ROUTE
    + (
        _op("compare --benchmark jump --n 8 --k 3 --replicates 1000 --format csv", ref=993.8092956059943, sd=997.7312847817752),
        _op("compare --benchmark longpath --n 12 --k 4 --replicates 1000", defect=LONGPATH_INIT),
        _op("compare --benchmark leadingones --n 12 --replicates 3000 --format csv"),
        _op("simulate --benchmark jump --n 12 --k 3 --replicates 150 --format csv", ref=3791.643020539582, to_files=True),
    ),
    "exact-oracles": CROSS_ROUTE
    + (
        _op("oracle --benchmark onemax --n 1000", ref=16894.689296413213),
        _op("oracle --benchmark onemax --n 600 --p 10/n", ref=3854595.2876144834),
        # ref: the exact sum of 1/p_i; bracketed: the exact time from 0 ones (oracle --init level:0)
        _op("bounds --benchmark onemax --n 800", ref=14386.049034239273, bracketed=13717.854647117452),
        _op("oracle --benchmark jump --n 400 --k 3", ref=172888634.01628515),
        _op("oracle --benchmark longpath --n 24 --k 3", ref=25736.669783286463),
        _op("oracle --full-state --benchmark onemax --n 12", ref=62.85115370868991),
        _op("oracle --benchmark leadingones --n 11"),
        _op("oracle --benchmark onemax --n 400 --p 0.3", defect=ABSORBING_LEVEL),
        _op("bounds --benchmark leadingones --n 100000 --p 0.5", defect=OVERFLOW),
        _op("bounds --benchmark longpath --n 2400 --k 2 --p 1/n", defect=OVERFLOW),
    ),
}


def op_seed(workload_seed: int, index: int) -> int:
    """The 64-bit ``--seed`` of op ``index``, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def cli_argv(op: Op, workload_seed: int, index: int, out_path: Optional[str] = None) -> list[str]:
    """The argument list passed to ``flmlab.cli.main`` for one op."""
    argv = list(op.argv)
    if op.monte_carlo:
        argv += ["--seed", str(op_seed(workload_seed, index)), "--threads", "1"]
    if out_path is not None:
        argv += ["--out", out_path]
    return argv
