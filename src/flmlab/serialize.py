"""Deterministic output formats: the one place where results become text.

JSON is emitted with every float printed to 17 significant digits (full
double round-trip precision) so repeated runs are byte-identical.
:func:`emit_csv` writes all five CSV schemas, each a fixed header:

- ``replicate,runtime,hit_optimum`` (``simulate``, one row per replicate);
- ``level,visit_freq,leave_rate,mean_sojourn`` (``simulate``, per level);
- ``theorem,kind,value`` (``bounds``);
- ``level,p,v`` and a closing ``expected_T`` row (``oracle``);
- ``quantity,empirical,theoretical,verdict`` (``compare``).

Floats are written by ``repr``, so every float cell parses back to the
emitted value; the two ``simulate`` schemas have parsers here.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "dumps",
    "format_float",
    "emit_csv",
    "emit_replicates_csv",
    "parse_replicates_csv",
    "emit_levels_csv",
    "parse_levels_csv",
]


def format_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _escape(s: str) -> str:
    return json.dumps(s, ensure_ascii=False)


def _write_bool(x: bool) -> str:
    return "true" if x else "false"


def _join_floats(a: np.ndarray) -> str:
    """``format_float`` of each element of a float array no wider than a
    double, joined: each distinct bit pattern is formatted once, so -0.0 and
    every NaN payload keep their own text."""
    bits, where = np.unique(a.astype(np.float64, copy=False).view(np.uint64), return_inverse=True)
    texts = np.array([format_float(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return ", ".join(texts[where].tolist())


# by dtype kind: the writer of the Python scalars ``tolist`` makes of an array
_SCALAR_WRITERS = {"b": _write_bool, "i": str, "u": str, "f": format_float}


def _write(obj: Any, parts: list[str], level: int) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append(_write_bool(obj))
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
        pad = "  " * (level + 1)
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(pad)
            parts.append(_escape(str(key)))
            parts.append(": ")
            _write(value, parts, level + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append("  " * level + "}")
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in _SCALAR_WRITERS:
        # the element-wise writer's output, without a type dispatch per element
        if obj.dtype.kind == "f" and obj.dtype.itemsize <= 8:
            parts.append("[" + _join_floats(obj) + "]")
        else:
            parts.append("[" + ", ".join(map(_SCALAR_WRITERS[obj.dtype.kind], obj.tolist())) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, value in enumerate(obj.tolist() if isinstance(obj, np.ndarray) else obj):
            if i:
                parts.append(", ")
            _write(value, parts, level + 1)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """JSON text (two-space indent, floats at 17 significant digits); trailing newline."""
    parts: list[str] = []
    _write(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def _cell(x: Any) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return x


def emit_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV text: the header, then one line per row; trailing newline.

    Cells are written as booleans ``true``/``false``, integers in decimal,
    floats by ``repr`` and strings as they are (no quoting).
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def emit_replicates_csv(runtimes: np.ndarray, hits: np.ndarray) -> str:
    return emit_csv(("replicate", "runtime", "hit_optimum"), zip(range(len(runtimes)), runtimes, hits))


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
    header = ("level", "visit_freq", "leave_rate", "mean_sojourn")
    return emit_csv(header, zip(levels, visit_freq, leave_rate, mean_sojourn))


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
