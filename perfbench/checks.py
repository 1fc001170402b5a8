"""Output checks: decide for each op whether it passed, reproduced its known
defect, or failed, and count the EA iterations its output reports.

Statistical checks allow ``Z_TOL`` standard errors.  The CLI's own compare
verdicts use 3 standard errors per row with no correction for the number of
rows, so a correct run of ``compare --benchmark leadingones --n 12`` FAILs
a row for about 1.7% of seeds (5 of 300 seeds measured).  A FAIL row within
``Z_TOL`` standard errors of its theoretical value is recorded as marginal
and does not fail the op; a deterministic row that FAILs always does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from workloads import Op

Z_TOL = 5.0  # about 6e-7 two-sided false-alarm rate per normal statistic
RTOL = 1e-9  # relative tolerance of exact oracle values against references


@dataclass
class Outcome:
    status: str  # "pass", "known_defect" or "fail"
    detail: str


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def mutation_rate(op: Op) -> float:
    n = int(op.arg("n"))
    spec = op.arg("p") or "1/n"
    return float(Fraction(spec[:-2])) / n if spec.endswith("/n") else float(Fraction(spec))


def leadingones_exact(n: int, p: float) -> float:
    """E[T] on LeadingOnes from a uniform random start: sum of 1/(2 p (1-p)^i)."""
    return math.fsum(0.5 / (p * (1.0 - p) ** i) for i in range(n))


def leadingones_sd(n: int, p: float) -> float:
    """Runtime SD on LeadingOnes: level i is visited independently w.p. 1/2 and
    then held for a Geometric(p_i) time, p_i = p (1-p)^i."""
    rates = [p * (1.0 - p) ** i for i in range(n)]
    return math.sqrt(math.fsum((3.0 - 2.0 * q) / (4.0 * q * q) for q in rates))


def reference(op: Op) -> tuple[float, float | None]:
    """The op's exact expected runtime and runtime SD (if known)."""
    if op.benchmark == "leadingones":
        n, p = int(op.arg("n")), mutation_rate(op)
        return leadingones_exact(n, p), leadingones_sd(n, p)
    return op.ref, op.sd


def _close(value: float, ref: float, rtol: float = RTOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


def _runtimes_from_csv(text: str) -> list[int]:
    lines = text.strip().split("\n")
    _require(lines[0] == "replicate,runtime,hit_optimum", "bad replicate CSV header")
    runtimes = []
    for expected, line in enumerate(lines[1:]):
        replicate, runtime, hit = line.split(",")
        _require(int(replicate) == expected and hit == "true", f"bad replicate row {line!r}")
        runtimes.append(int(runtime))
    return runtimes


def _simulate_runtimes(op: Op, rec: dict) -> list[int]:
    if op.fmt == "json":
        doc = json.loads(rec["stdout"])
        _require(all(doc["hit_optimum"]) and doc["timeouts"] == 0, "replicates timed out")
        return doc["runtimes"]
    elif op.to_files:
        (replicates_name,) = [name for name in rec["files"] if not name.endswith(".levels.csv")]
        return _runtimes_from_csv(rec["files"][replicates_name])
    return _runtimes_from_csv(rec["stdout"].split("\n\n", 1)[0])


def _check_simulate(op: Op, rec: dict) -> None:
    _require(rec["exit"] == 0, "non-zero exit")
    runtimes = _simulate_runtimes(op, rec)
    count = len(runtimes)
    _require(count == op.replicates, f"{count} replicates, expected {op.replicates}")
    mean = math.fsum(runtimes) / count
    se = math.sqrt(math.fsum((t - mean) ** 2 for t in runtimes) / (count - 1) / count)
    exact, _ = reference(op)
    _require(abs(mean - exact) <= Z_TOL * se, f"mean {mean} is {abs(mean - exact) / se:.1f} SE from {exact}")
    if op.fmt == "json":
        reported = json.loads(rec["stdout"])["mean_runtime"]
        _require(_close(reported, mean, 1e-12), "reported mean differs from the runtimes")


def _compare_rows(op: Op, rec: dict):
    """(rows, mean runtime, its standard error, exact expected runtime)."""
    if op.fmt == "json":
        doc = json.loads(rec["stdout"])
        stats = doc["statistics"]
        rows = [(r["quantity"], r["empirical"], r["theoretical"], r["verdict"]) for r in doc["report"]["rows"]]
        return rows, stats["mean_runtime"], stats["std_error"], doc["exact"]
    lines = rec["stdout"].strip().split("\n")
    _require(lines[0] == "quantity,empirical,theoretical,verdict", "bad compare CSV header")
    rows = []
    for line in lines[1:]:
        quantity, empirical, theoretical, verdict = line.split(",")
        rows.append((quantity, float(empirical), float(theoretical), verdict))
    by_name = {row[0]: row for row in rows}
    _require("mean_runtime_vs_exact" in by_name, "no mean_runtime_vs_exact row")
    _, mean, exact, _ = by_name["mean_runtime_vs_exact"]
    _, sd = reference(op)
    return rows, mean, sd / math.sqrt(op.replicates), exact


def _check_compare(op: Op, rec: dict) -> str:
    _require(rec["exit"] in (0, 3), f"exit {rec['exit']}")
    rows, mean, se, exact = _compare_rows(op, rec)
    ref, _ = reference(op)
    if ref is not None:
        _require(_close(exact, ref), f"exact value {exact} differs from reference {ref}")
    marginal = []
    for quantity, empirical, theoretical, verdict in rows:
        if verdict == "PASS":
            continue
        _require(verdict == "FAIL", f"unknown verdict {verdict!r}")
        if quantity.startswith("mean_runtime_vs_"):
            z = abs(empirical - theoretical) / se
        elif quantity.startswith("visit_freq["):
            spread = max(empirical * (1 - empirical), theoretical * (1 - theoretical))
            z = abs(empirical - theoretical) / math.sqrt(spread / op.replicates)
        else:
            raise CheckFailed(f"deterministic row {quantity} FAILs")
        _require(z <= Z_TOL, f"{quantity} FAILs by {z:.1f} SE")
        marginal.append(f"{quantity} ({z:.1f} SE)")
    _require((rec["exit"] == 3) == bool(marginal), "exit status disagrees with the verdicts")
    return "marginal FAIL rows: " + ", ".join(marginal) if marginal else ""


def _check_oracle(op: Op, rec: dict) -> None:
    _require(rec["exit"] == 0, f"exit {rec['exit']}")
    doc = json.loads(rec["stdout"])
    expected = doc["expected_T"]
    _require(expected > 0.0, f"expected_T {expected} not positive")
    ref, _ = reference(op)
    if ref is not None:
        _require(_close(expected, ref), f"expected_T {expected} differs from reference {ref}")
    if math.isfinite(expected):  # the paper's identity E[T] = sum v_i / p_i
        identity = math.fsum(v / p for v, p in zip(doc["v"], doc["p"]))
        _require(_close(identity, expected), f"sum v_i/p_i = {identity} but expected_T = {expected}")


def _check_bounds(op: Op, rec: dict) -> None:
    if op.bracketed is None:
        # no reference: exit 0 with a JSON document, or exit 1 with one line
        if rec["exit"] == 1:
            _require(rec["stderr"].count("\n") == 1, "error message is not one line")
            return
        _require(rec["exit"] == 0, f"exit {rec['exit']}")
        json.loads(rec["stdout"])
        return
    _require(rec["exit"] == 0, f"exit {rec['exit']}")
    doc = json.loads(rec["stdout"])
    _require(_close(doc["tilde_T"], op.ref), f"tilde_T {doc['tilde_T']} differs from reference {op.ref}")
    exact = op.bracketed
    _require(doc["thm_lower"] <= exact <= doc["tilde_T"] <= doc["tilde_T_plus"], "bounds do not bracket the exact value")


def _matches(defect, rec: dict) -> bool:
    if defect.exception is not None:
        return (rec["exception"] or "").startswith(defect.exception + ":")
    return rec["exception"] is None and rec["exit"] == defect.exit_code and defect.stderr in rec["stderr"]


def reported_iterations(op: Op, rec: dict) -> int:
    """EA iterations of a Monte Carlo op: the sum of the runtimes its output
    reports (mean times replicates for compare), 0 if it reports none."""
    try:
        if op.command == "simulate":
            return sum(_simulate_runtimes(op, rec))
        if op.command == "compare":
            _, mean, _, _ = _compare_rows(op, rec)
            return round(mean * op.replicates)
    except (CheckFailed, ArithmeticError, ValueError, KeyError, TypeError, IndexError):
        pass
    return 0


def check(op: Op, rec: dict) -> Outcome:
    """Judge one op's recorded output."""
    detail = ""
    try:
        _require(rec["exception"] is None, f"uncaught {rec['exception']}")
        if op.command == "simulate":
            _check_simulate(op, rec)
        elif op.command == "compare":
            detail = _check_compare(op, rec)
        elif op.command == "oracle":
            _check_oracle(op, rec)
        else:
            _check_bounds(op, rec)
    except (CheckFailed, ArithmeticError, ValueError, KeyError, TypeError, IndexError) as exc:
        reason = str(exc) if isinstance(exc, CheckFailed) else f"unreadable output ({type(exc).__name__}: {exc})"
        if op.defect is not None and _matches(op.defect, rec):
            return Outcome("known_defect", op.defect.reason)
        return Outcome("fail", reason)
    return Outcome("pass", detail)
