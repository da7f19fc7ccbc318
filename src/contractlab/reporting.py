"""Deterministic artifact emission: JSON summaries, trace CSVs, quantile curves.

Machine-readable outputs must be byte-identical across reruns of the same
config, so no timestamps, no environment-dependent fields, and all floats
rendered by shortest round-trip repr.  Non-finite values serialize as null.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from enum import Enum
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .process import ProcessPath

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
    """One row per grid step: ``n``, then each further column of ``curves`` in its order."""
    keys = list(curves)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        for i in range(len(curves["n"])):
            row = [str(int(curves["n"][i]))]
            for key in keys[1:]:
                v = curves[key][i]
                row.append(format_float(v) if math.isfinite(v) else "")
            writer.writerow(row)


def trace_header(p: int = 1) -> List[str]:
    if p == 1:
        return ["seed", "n", "x", "m"]
    cols = ["seed", "n"]
    cols += [f"x_{t}" for t in range(1, p + 1)]
    cols += [f"m_{t}" for t in range(1, p + 1)]
    return cols


TRACE_CHUNK = 256  # steps formatted at a time: a long path leaves no large text behind


def _trace_chunks(seed: int, path: ProcessPath) -> Iterator[str]:
    """One path's CSV text in chunks of whole lines, its values and means
    only; the n = 0 line carries only the initial value.  What is derived from
    them is not written: a reader recomputes the residual ``eps = x - m`` bit
    for bit (``ProcessPath``), and the zero class (``zero_state_mask``).
    """
    xs = path.xs.reshape(len(path.xs), -1)
    p = xs.shape[1]
    ms = path.ms.reshape(-1, p)
    tag = str(seed)
    yield ",".join([tag, "0", *map(repr, xs[0].tolist())]) + "," * p + "\n"
    for lo in range(0, path.horizon, TRACE_CHUNK):
        hi = min(lo + TRACE_CHUNK, path.horizon)
        columns = np.hstack((xs[lo + 1 : hi + 1], ms[lo:hi])).T.tolist()
        ns = map(str, range(lo + 1, hi + 1))
        lines = zip(repeat(tag), ns, *[map(repr, col) for col in columns])
        yield "\n".join(map(",".join, lines)) + "\n"


def write_traces_csv(
    path: Path, p: int, paths: Iterable[Tuple[int, ProcessPath]]
) -> None:
    """Write ``(seed, path)`` pairs in the order given under the ``p``-column header.

    Each row holds the values and means of one step, not their residuals.
    Floats are written by shortest round-trip repr, like every other artifact.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace_header(p)) + "\n")
        for seed, trace in paths:
            fh.writelines(_trace_chunks(seed, trace))


TRACE_READ_CHUNK = 1 << 20  # bytes scanned at a time when checking a trace's lines


def _scan_lines(fh, carry: bytes, width: int, m_cols: Sequence[int]):
    """Check the field count of every non-blank line of ``carry`` and the rest
    of ``fh``, without parsing a field.

    Lines end at LF, CR or CR LF, as ``csv.reader`` and ``np.loadtxt`` split
    them.  The file is read ``TRACE_READ_CHUNK`` bytes at a time, so memory
    stays bounded on a long trace.  Returns the number of non-blank lines and
    the indices, among them, of those with an empty field in ``m_cols``; None
    when a line's field count is not ``width``.
    """
    rows, empty = 0, []
    while True:
        block = fh.read(TRACE_READ_CHUNK)
        data = carry + block if block else carry + b"\n"
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        buf, carry = np.frombuffer(data, np.uint8, cut), data[cut:]
        ends = np.flatnonzero((buf == 10) | (buf == 13))
        commas = np.flatnonzero(buf == 44)
        starts = np.concatenate(([0], ends + 1))[:-1]
        first = np.searchsorted(commas, starts)
        kept = ends > starts
        if np.any((np.searchsorted(commas, ends) - first)[kept] != width - 1):
            return None
        first, starts, ends = first[kept], starts[kept], ends[kept]
        blank = np.zeros(len(first), dtype=bool)
        for col in m_cols:
            lo = commas[first + col - 1] + 1 if col else starts
            hi = commas[first + col] if col < width - 1 else ends
            blank |= lo == hi
        empty.append(np.flatnonzero(blank) + rows)
        rows += len(first)
        if not block:
            return rows, np.concatenate(empty)


def _raise_first_bad_line(path: Path, width: int, columns: Sequence[int]) -> None:
    """Raise for the first line with the wrong field count or a non-numeric field.

    ``columns`` are those of the seed, the step, the p values and the p
    means.  Walks the rows as ``csv.reader`` splits them and converts the
    fields as ``float()`` and ``int()`` do (a mean may be empty); returns if
    every line converts.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                seed, n, *values = (row[i] for i in columns)
                for j, text in enumerate(values):
                    if text or j < len(values) // 2:
                        float(text)
                int(seed), int(n)
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None


def _mean_or_nan(text: str) -> float:
    return float(text) if text else math.nan


def _seed_error(seed: int, ns: np.ndarray, missing: np.ndarray) -> str:
    """Why one seed's rows, sorted by step, do not make a path."""
    dup = np.flatnonzero(ns[1:] == ns[:-1])
    if len(dup):
        return f"seed {seed}: duplicate rows for step {ns[dup[0]]}"
    if not np.array_equal(ns, np.arange(len(ns))):
        return f"seed {seed}: trace rows must cover n = 0..horizon contiguously"
    return f"seed {seed}: missing mean at step {np.flatnonzero(missing)[0]}"


def read_trace_csv(path: Path):
    """Load a trace CSV back into per-seed ``(xs, ms)`` arrays, keyed by seed.

    The trace has ``p`` components when its header names ``x_2..x_p``, one
    otherwise; it must carry the columns of ``trace_header(p)``, in any
    order; other columns, such as an older trace's ``eps``, ``eps_t`` or
    ``u_flag``, are ignored.  The arrays are 1-d for a scalar trace
    and ``(steps, p)`` otherwise, and ``xs`` includes the initial value at
    index 0.  Values are parsed as written, so a ``nan`` or ``inf`` entry
    reaches the checkers unchanged.  Rows may come in any order; seeds are
    keyed in order of their first row.
    Raises ValueError for a missing column, a file without data rows, a row
    with the wrong number of fields or a non-numeric field (naming its
    line), a non-integer ``seed`` or ``n``, two rows for one step, a seed
    whose steps are not ``0..horizon`` and a missing mean (any empty ``m_t``).

    The file is parsed column-wise by ``np.loadtxt``; a line it rejects is
    named by walking the rows again with ``csv.reader``.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        cut = len(line.split(b"\r", 1)[0].rstrip(b"\n"))  # the header ends at \r or \n
        header = next(csv.reader([line[:cut].decode()]), [])
        p = 1
        while f"x_{p + 1}" in header:
            p += 1
        required = trace_header(p)
        if not set(required).issubset(header):
            raise ValueError(f"trace file must carry columns {sorted(required)}")
        columns = [header.index(name) for name in required]
        m_cols = columns[p + 2 :]
        scan = _scan_lines(fh, line[cut:], len(header), m_cols)
    if scan is None:
        _raise_first_bad_line(path, len(header), columns)
        raise ValueError(f"rows do not all have the header's {len(header)} fields")
    rows, empty = scan
    if not rows:
        raise ValueError("trace file has no data rows")
    value = "f8" if p == 1 else f"({p},)f8"  # one field per row, or p of them
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads an integer field that is not one ("1.5", "1e3", a
            # seed beyond 64 bits) through a float and truncates it, with only
            # this warning; raised as an error, it fails the field (ValueError)
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            table = np.loadtxt(
                path,
                delimiter=",",
                skiprows=1,
                usecols=columns,
                comments=None,
                # numpy's parser rejects an empty float field, as in the n = 0 row
                converters=dict.fromkeys(m_cols, _mean_or_nan),
                dtype=[("seed", "i8"), ("n", "i8"), ("x", value), ("m", value)],
                ndmin=1,
            )
    except ValueError as exc:
        _raise_first_bad_line(path, len(header), columns)
        raise ValueError(str(exc)) from None
    order = np.lexsort((table["n"], table["seed"]))
    seed, n = table["seed"][order], table["n"][order]
    missing = np.isin(order, empty) & (n != 0)
    starts = np.flatnonzero(np.concatenate(([True], seed[1:] != seed[:-1])))
    bounds = np.append(starts, rows)
    step = np.arange(rows) - np.repeat(starts, np.diff(bounds))
    by_first = np.argsort(np.minimum.reduceat(order, starts))  # seeds in file order
    spans = np.column_stack((bounds[:-1], bounds[1:]))[by_first].tolist()
    bad = np.logical_or.reduceat((n != step) | missing, starts)[by_first]
    if bad.any():
        lo, hi = spans[np.argmax(bad)]
        raise ValueError(_seed_error(int(seed[lo]), n[lo:hi], missing[lo:hi]))
    xs, ms = table["x"][order], table["m"][order]
    return {int(seed[lo]): (xs[lo:hi], ms[lo + 1 : hi]) for lo, hi in spans}
