"""Deterministic output formats.

JSON is emitted with every float printed to 17 significant digits (full
double round-trip precision) so repeated runs are byte-identical.  The two
CSV schemas are fixed: per-replicate files carry
``replicate,runtime,hit_optimum`` and aggregate files carry
``level,visit_freq,leave_rate,mean_sojourn``; parsing either reproduces the
emitted values exactly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "dumps",
    "format_float",
    "emit_replicates_csv",
    "parse_replicates_csv",
    "emit_levels_csv",
    "parse_levels_csv",
]


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _write(obj: Any, parts: list[str], level: int) -> None:
    pad = "  " * (level + 1)
    closing_pad = "  " * level
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(_escape(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(pad)
            parts.append(_escape(str(key)))
            parts.append(": ")
            _write(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(closing_pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[")
        for i, value in enumerate(items):
            _write(value, parts, level + 1)
            if i < len(items) - 1:
                parts.append(", ")
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """JSON text (two-space indent, floats at 17 significant digits); trailing newline."""
    parts: list[str] = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def emit_replicates_csv(runtimes: np.ndarray, hits: np.ndarray) -> str:
    lines = ["replicate,runtime,hit_optimum"]
    for r, (t, h) in enumerate(zip(runtimes, hits)):
        lines.append(f"{r},{int(t)},{'true' if h else 'false'}")
    return "\n".join(lines) + "\n"


def parse_replicates_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or lines[0] != "replicate,runtime,hit_optimum":
        raise ValueError("not a per-replicate CSV (bad header)")
    runtimes = []
    hits = []
    for expected, line in enumerate(lines[1:]):
        rep, runtime, hit = line.split(",")
        if int(rep) != expected:
            raise ValueError(f"replicate column out of order at row {expected}")
        runtimes.append(int(runtime))
        hits.append(hit == "true")
    return np.array(runtimes, dtype=np.int64), np.array(hits, dtype=bool)


def emit_levels_csv(
    levels: np.ndarray, visit_freq: np.ndarray, leave_rate: np.ndarray, mean_sojourn: np.ndarray
) -> str:
    lines = ["level,visit_freq,leave_rate,mean_sojourn"]
    for lvl, vf, lr, ms in zip(levels, visit_freq, leave_rate, mean_sojourn):
        lines.append(f"{int(lvl)},{repr(float(vf))},{repr(float(lr))},{repr(float(ms))}")
    return "\n".join(lines) + "\n"


def parse_levels_csv(text: str) -> dict[str, np.ndarray]:
    lines = [ln for ln in text.strip().split("\n") if ln]
    if not lines or lines[0] != "level,visit_freq,leave_rate,mean_sojourn":
        raise ValueError("not an aggregate CSV (bad header)")
    rows = [line.split(",") for line in lines[1:]]
    return {
        "level": np.array([int(r[0]) for r in rows]),
        "visit_freq": np.array([float(r[1]) for r in rows]),
        "leave_rate": np.array([float(r[2]) for r in rows]),
        "mean_sojourn": np.array([float(r[3]) for r in rows]),
    }
