"""Deterministic artifact emission: JSON summaries, trace CSVs, quantile curves.

Machine-readable outputs must be byte-identical across reruns of the same
config, so no timestamps, no environment-dependent fields, and all floats
rendered by shortest round-trip repr.  Non-finite values serialize as null.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from enum import Enum
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
    line = [tag, ",", "n", *[",", "v"] * (2 * p), "\n"]  # a line's fields and separators
    width = len(line)
    for lo in range(0, path.horizon, TRACE_CHUNK):
        hi = min(lo + TRACE_CHUNK, path.horizon)
        fields = line * (hi - lo)
        fields[2::width] = map(str, range(lo + 1, hi + 1))
        columns = np.hstack((xs[lo + 1 : hi + 1], ms[lo:hi])).T.tolist()
        for j, column in enumerate(columns):
            fields[4 + 2 * j :: width] = map(repr, column)
        yield "".join(fields)


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


TRACE_READ_CHUNK = 1 << 18  # bytes read at a time, to check a trace's lines and to parse them


def _blocks(fh) -> Iterator[bytes]:
    """The rest of ``fh`` in blocks of whole lines, about ``TRACE_READ_CHUNK``
    bytes each, so memory stays bounded on a long trace.

    Lines end at LF, CR or CR LF, as ``csv.reader`` and ``np.loadtxt`` split
    them; the last block ends the file's last line.
    """
    carry = b""
    while True:
        block = fh.read(TRACE_READ_CHUNK)
        if not block:
            yield carry + b"\n"
            return
        block = carry + block
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        carry, block = block[cut:], block[:cut]
        yield block


def _lines(block: bytes):
    """Where the non-blank lines of a block start and end, the offsets of the
    block's commas, and the index among them of each line's first comma."""
    buf = np.frombuffer(block, np.uint8)
    ends = buf == 10
    ends = np.flatnonzero(np.logical_or(ends, buf == 13, out=ends))
    commas = np.flatnonzero(buf == 44)
    starts = np.concatenate(([0], ends + 1))[:-1]
    kept = ends > starts
    starts, ends = starts[kept], ends[kept]
    return starts, ends, commas, np.searchsorted(commas, starts)


def _count_rows(fh, width: int):
    """The number of non-blank lines in the rest of ``fh``, without parsing a
    field; None when a line's field count is not ``width``."""
    rows = 0
    for starts, ends, commas, first in map(_lines, _blocks(fh)):
        if np.any(np.searchsorted(commas, ends) - first != width - 1):
            return None
        rows += len(starts)
    return rows


def _parse_blocks(fh, width: int, columns: Sequence[int], m_cols: Sequence[int], dtype, where: list):
    """The rows of the rest of ``fh``, whose lines all have ``width`` fields,
    parsed block by block by ``np.loadtxt`` into ``dtype`` tables of the
    fields in ``columns``.

    Yields each block's table and a mask of its rows with an empty field in
    ``m_cols``, the means; numpy's parser rejects an empty float field, so an
    empty mean is parsed as ``nan``.  Before each block is parsed,
    ``where[0]`` is set to the offset in the file at which its lines start
    (past the LF of a CR LF that the block before cut).
    """
    offset, cr = fh.tell(), False
    for block in _blocks(fh):
        where[0] = offset + (cr and block.startswith(b"\n"))
        offset, cr = offset + len(block), block.endswith(b"\r")
        starts, ends, commas, first = _lines(block)
        if not len(starts):
            continue  # loadtxt warns on a block without rows
        blank, holes = np.zeros(len(starts), dtype=bool), []
        for col in m_cols:
            lo = commas[first + col - 1] + 1 if col else starts
            hi = commas[first + col] if col < width - 1 else ends
            blank |= lo == hi
            holes.append(lo[lo == hi])
        holes = np.concatenate(holes)
        if len(holes):
            nan = np.frombuffer(b"nan", np.uint8)
            buf = np.frombuffer(block, np.uint8)
            block = np.insert(buf, np.repeat(holes, len(nan)), np.tile(nan, len(holes))).tobytes()
        lines = block.splitlines()
        del block  # held once, as its lines, while they are parsed
        table = np.loadtxt(
            lines, delimiter=",", usecols=columns, comments=None, dtype=dtype, ndmin=1
        )
        del lines  # and not while the next block is read
        yield table, blank


def _line_ends(path: Path, start: int, stop: int) -> Tuple[int, bool]:
    """The line ends among bytes [start, stop) of ``path``, as ``csv.reader``
    counts them (a CR LF once), and whether a quote character is among them."""
    ends, quoted, cr = 0, False, False
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop:
            block = fh.read(min(TRACE_READ_CHUNK, stop - start))
            ends += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
            ends -= cr and block.startswith(b"\n")
            quoted |= b'"' in block
            start, cr = start + len(block), block.endswith(b"\r")
    return ends, quoted


def _raise_first_bad_line(path: Path, width: int, columns: Sequence[int], header: int, at: int):
    """Raise for the first line from byte ``at`` on with the wrong field count
    or a non-numeric field; the header ends at byte ``header``, before its
    line end, and ``at`` starts a line after it.

    ``columns`` are those of the seed, the step, the p values and the p
    means.  Walks the rows as ``csv.reader`` splits them, its line numbers
    counted from the line ends before ``at``, and converts the fields as
    ``float()`` and ``int()`` do (a mean may be empty); returns if every
    line converts.  A quote character before ``at`` may open a field that
    ``csv.reader`` reads across lines, so then the walk starts at the header.
    """
    lines, quoted = _line_ends(path, 0, at)
    if quoted:
        lines, at = 0, header
    with open(path, "rb") as raw:
        raw.seek(at)
        reader = csv.reader(io.TextIOWrapper(raw, newline=""))
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
                raise ValueError(f"line {lines + reader.line_num}: {exc}") from None


def _seed_error(seed: int, ns: np.ndarray, missing: np.ndarray) -> str:
    """Why one seed's rows, sorted by step, do not make a path."""
    dup = np.flatnonzero(ns[1:] == ns[:-1])
    if len(dup):
        return f"seed {seed}: duplicate rows for step {ns[dup[0]]}"
    if not np.array_equal(ns, np.arange(len(ns))):
        return f"seed {seed}: trace rows must cover n = 0..horizon contiguously"
    return f"seed {seed}: missing mean at step {np.flatnonzero(missing)[0]}"


def _run_starts(seed: np.ndarray, n: np.ndarray, last, firsts: Dict[int, int]):
    """Where each seed's run of rows starts in a block that continues
    seed-major, step-ordered rows: each seed's steps ``0, 1, ...`` in one run,
    no seed in two.  ``last`` is the previous row's ``(seed, n)``, None before
    the first block, and ``firsts`` holds the seeds run so far.  None when the
    block does not continue them.
    """
    new = np.concatenate(([last is None or seed[0] != last[0]], seed[1:] != seed[:-1]))
    prev = np.concatenate(([-1 if last is None else last[1]], n[:-1]))
    fresh = seed[new].tolist()
    if np.any(n != np.where(new, 0, prev + 1)) or len(set(fresh)) < len(fresh):
        return None
    return np.flatnonzero(new) if firsts.keys().isdisjoint(fresh) else None


def _steps_of_runs(firsts: Dict[int, int], upto: int, rows: int):
    """Arrays for the seed and step of each of ``rows`` rows, filled for the
    first ``upto``, which run seed by seed from the rows ``firsts`` gives."""
    starts = np.fromiter(firsts.values(), np.int64, len(firsts))
    lengths = np.diff(np.append(starts, upto))
    seeds, steps = np.empty(rows, np.int64), np.empty(rows, np.int64)
    seeds[:upto] = np.repeat(np.fromiter(firsts, np.int64, len(firsts)), lengths)
    steps[:upto] = np.arange(upto) - np.repeat(starts, lengths)
    return seeds, steps


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

    A first pass counts the rows and checks their field counts; a second
    parses the file with ``np.loadtxt`` block by block, ``TRACE_READ_CHUNK``
    bytes at a time, straight into one array of values and one of means.  A
    seed-major file whose seeds each run ``n = 0, 1, ...``, as
    ``write_traces_csv`` writes them, holds those two arrays (16·p bytes a
    row) and one block, with its lines and table: each seed's arrays are
    slices of the two.  Rows in any other order also hold each row's seed and
    step, and are sorted by them.
    A line numpy's parser rejects is named by walking the rows again with
    ``csv.reader``, from the block that holds it; a line with the wrong
    field count, from the first row.
    """
    with open(path, "rb") as fh, warnings.catch_warnings():
        # numpy < 2 reads an integer field that is not one ("1.5", "1e3", a
        # seed beyond 64 bits) through a float and truncates it, with only
        # this warning; raised as an error, it fails the field (ValueError)
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
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
        fh.seek(cut)
        rows = _count_rows(fh, len(header))
        if rows is None:
            _raise_first_bad_line(path, len(header), columns, cut, cut)
            raise ValueError(f"rows do not all have the header's {len(header)} fields")
        if not rows:
            raise ValueError("trace file has no data rows")
        value = "f8" if p == 1 else f"({p},)f8"  # one field per row, or p of them
        dtype = [("seed", "i8"), ("n", "i8"), ("x", value), ("m", value)]
        x = np.empty((rows,) if p == 1 else (rows, p))
        m = np.empty_like(x)
        firsts: Dict[int, int] = {}  # each seed's first row, while the rows run seed by seed
        seeds = steps = None  # each row's seed and step, once they do not
        last, empty, at = None, [], 0
        fh.seek(cut)
        where = [cut]  # the offset of the block being parsed
        try:
            m_cols = columns[p + 2 :]
            for table, blank in _parse_blocks(fh, len(header), columns, m_cols, dtype, where):
                end = at + len(table)
                x[at:end], m[at:end] = table["x"], table["m"]
                seed, n = table["seed"], table["n"]
                empty.append(np.flatnonzero(blank) + at)
                if steps is None:
                    runs = _run_starts(seed, n, last, firsts)
                    if runs is not None:
                        firsts.update(zip(seed[runs].tolist(), (runs + at).tolist()))
                    else:  # out of order from this block on
                        seeds, steps = _steps_of_runs(firsts, at, rows)
                if steps is not None:
                    seeds[at:end], steps[at:end] = seed, n
                last, at = (seed[-1], n[-1]), end
        except ValueError as exc:
            _raise_first_bad_line(path, len(header), columns, cut, where[0])
            raise ValueError(str(exc)) from None
    empty = np.concatenate(empty)
    if steps is None:  # each seed's rows are one run
        bounds = [*firsts.values(), rows]
        if set(empty.tolist()).issubset(bounds):  # and only step 0 lacks a mean: slices
            return {s: (x[lo:hi], m[lo + 1 : hi]) for s, lo, hi in zip(firsts, bounds, bounds[1:])}
        seeds, steps = _steps_of_runs(firsts, rows, rows)  # to name the missing mean
    order = np.lexsort((steps, seeds))
    seed, n = seeds[order], steps[order]
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
    xs, ms = x[order], m[order]
    return {int(seed[lo]): (xs[lo:hi], ms[lo + 1 : hi]) for lo, hi in spans}
