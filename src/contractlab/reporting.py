"""Deterministic artifact emission: JSON summaries, trace CSVs, quantile curves.

Machine-readable outputs must be byte-identical across reruns of the same
config, so no timestamps, no environment-dependent fields, and all floats
rendered by shortest round-trip repr.  Non-finite values serialize as null.
"""
from __future__ import annotations

import csv
import json
import math
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .process import ProcessPath, VectorProcessPath

__all__ = [
    "json_safe",
    "format_float",
    "write_summary_json",
    "write_summary_text",
    "write_quantiles_csv",
    "trace_header",
    "write_traces_csv",
]


def json_safe(obj):
    """Recursively convert to JSON-encodable values; non-finite floats become None."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, str) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [json_safe(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    return str(obj)


def format_float(v: float) -> str:
    return repr(float(v))


def write_summary_json(path: Path, payload: Dict) -> None:
    text = json.dumps(json_safe(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def write_summary_text(path: Path, lines: Sequence[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def write_quantiles_csv(path: Path, curves: Dict[str, List]) -> None:
    keys = ["n", "q05", "q25", "q50", "q75", "q95"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        for i in range(len(curves["n"])):
            row = [str(int(curves["n"][i]))]
            for key in keys[1:]:
                v = curves[key][i]
                row.append("" if v is None or not math.isfinite(v) else format_float(v))
            writer.writerow(row)


def trace_header(p: int = 1) -> List[str]:
    if p == 1:
        return ["seed", "n", "x", "m", "eps", "u_flag"]
    cols = ["seed", "n"]
    cols += [f"x_{t}" for t in range(1, p + 1)]
    cols += [f"m_{t}" for t in range(1, p + 1)]
    cols += [f"eps_{t}" for t in range(1, p + 1)]
    cols.append("u_flag")
    return cols


TRACE_CHUNK = 256  # steps formatted at a time: a long path leaves no large text behind


def _trace_chunks(seed: int, path: ProcessPath | VectorProcessPath) -> Iterator[str]:
    """One path's CSV text in chunks of whole lines; the n = 0 line carries only
    the initial value.

    ``u_flag`` marks a zero-class predecessor: ``|x_{n-1}|`` for a scalar
    path, the row norm for a vector path (whose norm of a tiny entry may
    underflow to zero where its absolute value does not).
    """
    xs = path.xs.reshape(len(path.xs), -1)
    p = xs.shape[1]
    ms, eps = path.ms.reshape(-1, p), path.eps.reshape(-1, p)
    if isinstance(path, VectorProcessPath):
        prev = np.linalg.norm(path.xs[:-1], axis=1)
    else:
        prev = np.abs(path.xs[:-1])
    flags = np.where(prev <= path.zero_tol, "1", "0")
    tag = str(seed)
    yield ",".join([tag, "0", *map(repr, xs[0].tolist())]) + "," * (2 * p + 1) + "\n"
    for lo in range(0, path.horizon, TRACE_CHUNK):
        hi = min(lo + TRACE_CHUNK, path.horizon)
        columns = np.hstack((xs[lo + 1 : hi + 1], ms[lo:hi], eps[lo:hi])).T.tolist()
        ns = map(str, range(lo + 1, hi + 1))
        lines = zip(repeat(tag), ns, *[map(repr, col) for col in columns], flags[lo:hi].tolist())
        yield "\n".join(map(",".join, lines)) + "\n"


def write_traces_csv(
    path: Path, p: int, paths: Iterable[Tuple[int, ProcessPath | VectorProcessPath]]
) -> None:
    """Write ``(seed, path)`` pairs in the order given under the ``p``-column header.

    Floats are written by shortest round-trip repr, like every other artifact.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace_header(p)) + "\n")
        for seed, trace in paths:
            fh.writelines(_trace_chunks(seed, trace))


def read_trace_csv(path: Path):
    """Load a scalar trace CSV back into per-seed ``(xs, ms)`` arrays, keyed by seed.

    ``xs`` includes the initial value at index 0.  Values are parsed as
    written, so a ``nan`` or ``inf`` entry reaches the checkers unchanged.
    Raises ValueError for a missing column, a file without data rows, and a
    row with the wrong number of fields or a non-numeric field (naming its
    line).
    """
    per_seed: Dict[int, Dict[int, tuple]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        required = {"seed", "n", "x", "m", "eps"}
        if not required.issubset(header):
            raise ValueError(f"trace file must carry columns {sorted(required)}")
        columns = [header.index(name) for name in ("seed", "n", "x", "m")]
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                seed, n, x, m = (row[i] for i in columns)
                per_seed.setdefault(int(seed), {})[int(n)] = (float(x), float(m) if m else None)
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not per_seed:
        raise ValueError("trace file has no data rows")
    out = {}
    for seed, steps in per_seed.items():
        ns = sorted(steps)
        if ns != list(range(ns[0], ns[0] + len(ns))) or ns[0] != 0:
            raise ValueError(f"seed {seed}: trace rows must cover n = 0..horizon contiguously")
        xs = np.array([steps[n][0] for n in ns])
        ms = []
        for n in ns[1:]:
            if steps[n][1] is None:
                raise ValueError(f"seed {seed}: missing mean at step {n}")
            ms.append(steps[n][1])
        out[seed] = (xs, np.array(ms))
    return out
