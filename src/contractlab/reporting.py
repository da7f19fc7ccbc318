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
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

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


def scalar_trace_rows(seed_index: int, path) -> Iterable[List[str]]:
    """Rows for one scalar path; the n = 0 row carries only the initial value."""
    yield [str(seed_index), "0", format_float(path.x0), "", "", ""]
    zero_prev = np.abs(path.xs[:-1]) <= path.zero_tol
    for n in range(1, path.horizon + 1):
        yield [
            str(seed_index),
            str(n),
            format_float(path.xs[n]),
            format_float(path.ms[n - 1]),
            format_float(path.eps[n - 1]),
            "1" if zero_prev[n - 1] else "0",
        ]


def vector_trace_rows(seed_index: int, path) -> Iterable[List[str]]:
    p = path.p
    first = [str(seed_index), "0"] + [format_float(v) for v in path.xs[0]]
    first += [""] * (2 * p) + [""]
    yield first
    norms_prev = np.linalg.norm(path.xs[:-1], axis=1)
    for n in range(1, path.horizon + 1):
        row = [str(seed_index), str(n)]
        row += [format_float(v) for v in path.xs[n]]
        row += [format_float(v) for v in path.ms[n - 1]]
        row += [format_float(v) for v in path.eps[n - 1]]
        row.append("1" if norms_prev[n - 1] <= path.zero_tol else "0")
        yield row


def write_traces_csv(path: Path, header: List[str], rows: Iterable[List[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def read_trace_csv(path: Path):
    """Load a scalar trace CSV back into per-seed ``(xs, ms)`` arrays, keyed by seed.

    ``xs`` includes the initial value at index 0.  Values are parsed as
    written, so a ``nan`` or ``inf`` entry reaches the checkers unchanged.
    """
    per_seed: Dict[int, Dict[int, tuple]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"seed", "n", "x", "m", "eps"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"trace file must carry columns {sorted(required)}")
        for row in reader:
            seed = int(row["seed"])
            n = int(row["n"])
            x = float(row["x"])
            m = float(row["m"]) if row["m"] != "" else None
            per_seed.setdefault(seed, {})[n] = (x, m)
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
