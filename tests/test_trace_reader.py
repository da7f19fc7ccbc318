"""``reporting.read_trace_csv`` against a row-by-row reference reader.

``reference_read_trace_csv`` is the ``csv.reader`` implementation the
columnar reader replaced, kept as the oracle (requiring only the ``seed``,
``n``, ``x`` and ``m`` columns, as the columnar reader does): for any file it
accepts, the columnar reader must return the same seeds in the same order
with byte-identical ``xs``/``ms``, and for any file it rejects, the same
``ValueError`` message.  Files with two rows for one ``(seed, n)`` are left
out: the reference keeps the last of them, the columnar reader rejects them.
Rows come shuffled, or seed-major and step-ordered as ``write_traces_csv``
writes them, which the columnar reader returns as slices without sorting.
"""
from __future__ import annotations

import csv
import math
import tracemalloc
import warnings
from pathlib import Path
from typing import Dict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import reporting
from contractlab.process import ProcessPath, zero_state_mask
from contractlab.reporting import read_trace_csv, write_traces_csv

HEADER = "seed,n,x,m,u_flag"


def reference_read_trace_csv(path: Path):
    per_seed: Dict[int, Dict[int, tuple]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        required = {"seed", "n", "x", "m"}
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


def outcome(reader, path: Path):
    """What a reader makes of ``path``: its error message, or every array's bytes."""
    try:
        paths = reader(path)
    except ValueError as exc:
        return ("error", str(exc))
    return (
        "ok",
        [
            (seed, xs.dtype.str, xs.shape, xs.tobytes(), ms.dtype.str, ms.shape, ms.tobytes())
            for seed, (xs, ms) in paths.items()
        ],
    )


# Values a trace can hold, including the ones a checker must see unchanged.
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]),
)
# How a value may be spelled: the writer's repr, and spellings float() also reads.
SPELLINGS = st.sampled_from([repr, lambda v: repr(v).upper(), lambda v: f" {v!r} "])


@st.composite
def trace_rows(draw, ordered=False):
    """Data rows of a valid scalar trace: several seeds, as field lists,
    shuffled or (``ordered``) seed by seed, each seed's steps in order."""
    seeds = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=4, unique=True))
    rows = []
    for seed in seeds:
        horizon = draw(st.integers(0, 12))
        for n in range(horizon + 1):
            spell = draw(SPELLINGS)
            x = spell(draw(VALUES))
            m = spell(draw(VALUES)) if n else draw(st.sampled_from(["", "0.5"]))
            rows.append([str(seed), str(n), x, m, "0"])
    return rows if ordered else draw(st.permutations(rows))


def render(rows, blanks=(), newline="\n"):
    lines = [HEADER] + [",".join(row) for row in rows]
    for at in sorted(blanks, reverse=True):
        lines.insert(min(at, len(lines)), "")
    return newline.join(lines) + newline


# Line endings csv.reader and np.loadtxt both split on; chunk sizes that split
# lines, and CR LF pairs, across reads.
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
CHUNKS = st.sampled_from([1, 7, 64, reporting.TRACE_READ_CHUNK])


def both_outcomes(factory, text: str, chunk: int):
    """The columnar reader's outcome, read ``chunk`` bytes at a time, and the reference's."""
    path = factory.mktemp("trace") / "traces.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with mock.patch.object(reporting, "TRACE_READ_CHUNK", chunk):
        got = outcome(read_trace_csv, path)
    return got, outcome(reference_read_trace_csv, path)


def check_valid(factory, rows, blanks, newline, chunk):
    got, expected = both_outcomes(factory, render(rows, blanks, newline), chunk)
    assert got[0] == "ok"
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    rows=trace_rows(),
    blanks=st.lists(st.integers(1, 60), max_size=3),
    newline=NEWLINES,
    chunk=CHUNKS,
)
def test_valid_traces_match_reference(tmp_path_factory, rows, blanks, newline, chunk):
    check_valid(tmp_path_factory, rows, blanks, newline, chunk)


@settings(max_examples=150, deadline=None)
@given(
    rows=trace_rows(ordered=True),
    blanks=st.lists(st.integers(1, 60), max_size=3),
    newline=NEWLINES,
    chunk=CHUNKS,
)
def test_ordered_traces_match_reference(tmp_path_factory, rows, blanks, newline, chunk):
    check_valid(tmp_path_factory, rows, blanks, newline, chunk)


def _field(index, text):
    def mutate(row):
        return [text if i == index else field for i, field in enumerate(row)]

    return mutate


MUTATIONS = {
    "short-row": lambda row: row[:3],
    "long-row": lambda row: row + ["7"],
    "non-numeric-x": _field(2, "half"),
    "comment-like-x": _field(2, "#0.5"),
    "non-numeric-m": _field(3, "n/a"),
    "comment-like-m": _field(3, "#0.5"),
    "non-integer-seed": _field(0, "0.0"),
    "non-integer-n": _field(1, "1.5"),
    "empty-n": _field(1, ""),
    "empty-m": _field(3, ""),
    "drop-row": None,
}


MUTATED = st.lists(
    st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 10**6)),
    min_size=1,
    max_size=3,
)


def check_malformed(factory, rows, mutations, blanks, newline, chunk):
    rows = list(rows)
    for name, at in mutations:
        if not rows:
            break
        at %= len(rows)
        if MUTATIONS[name] is None:
            del rows[at]
        else:
            rows[at] = MUTATIONS[name](rows[at])
    got, expected = both_outcomes(factory, render(rows, blanks, newline), chunk)
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(
    rows=trace_rows(),
    mutations=MUTATED,
    blanks=st.lists(st.integers(1, 60), max_size=2),
    newline=NEWLINES,
    chunk=CHUNKS,
)
def test_malformed_traces_match_reference(
    tmp_path_factory, rows, mutations, blanks, newline, chunk
):
    """Short and long rows, non-numeric fields, gaps, a missing n = 0 and empty means."""
    check_malformed(tmp_path_factory, rows, mutations, blanks, newline, chunk)


@settings(max_examples=200, deadline=None)
@given(
    rows=trace_rows(ordered=True),
    mutations=MUTATED,
    blanks=st.lists(st.integers(1, 60), max_size=2),
    newline=NEWLINES,
    chunk=CHUNKS,
)
def test_malformed_ordered_traces_match_reference(
    tmp_path_factory, rows, mutations, blanks, newline, chunk
):
    """The same faults in seed-major, step-ordered rows: a dropped row breaks
    their order from its block on, and a fault may sit past clean blocks."""
    check_malformed(tmp_path_factory, rows, mutations, blanks, newline, chunk)


HEAD = HEADER + "\n"
NOT_CONTIGUOUS = "trace rows must cover n = 0..horizon contiguously"
NOT_INT = "invalid literal for int() with base 10: "
NOT_FLOAT = "could not convert string to float: "


@pytest.mark.parametrize(
    "text, message",
    [
        (HEAD, "trace file has no data rows"),
        (HEAD + "\n\n", "trace file has no data rows"),
        (HEADER, "trace file has no data rows"),
        ("", "trace file must carry columns ['m', 'n', 'seed', 'x']"),
        (HEAD + "0,0,1.0,,\n0,2,0.5,0.5,0\n", f"seed 0: {NOT_CONTIGUOUS}"),
        (HEAD + "3,1,1.0,0.5,\n3,2,0.5,0.5,0\n", f"seed 3: {NOT_CONTIGUOUS}"),
        (HEAD + "0,0,1.0,,\n0,1,0.5,,0\n", "seed 0: missing mean at step 1"),
        (
            HEAD + "0,0,1.0,,\n0,1,0.5,0.5,0\n0,2,0.2,,0\n",
            "seed 0: missing mean at step 2",
        ),
        (HEAD + "0,0,1.0,,\n0,1.5,0.5,0.5,0\n", f"line 3: {NOT_INT}'1.5'"),
        (HEAD + "0,0,1.0,,\n0,1,#0.5,0.5,0\n", f"line 3: {NOT_FLOAT}'#0.5'"),
        (HEAD + "0,0,1.0,,\n0,1,0.5,0.5\n", "line 3: expected 5 fields, got 4"),
        (HEAD + "0,0,1.0,,\n \n", "line 3: expected 5 fields, got 1"),
    ],
    ids=[
        "header-only",
        "blank-only",
        "header-without-newline",
        "empty-file",
        "gap-in-n",
        "n-not-from-0",
        "missing-mean",
        "missing-mean-later",
        "non-integer-n",
        "comment-like-x",
        "short-row",
        "whitespace-row",
    ],
)
def test_error_messages(tmp_path, text, message):
    path = tmp_path / "traces.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == message
    assert outcome(reference_read_trace_csv, path) == ("error", message)


def test_first_bad_seed_in_file_order(tmp_path):
    """Among several bad seeds, the one whose first row comes first is reported."""
    text = HEADER + "\n5,0,1.0,,\n5,2,0.5,0.5,0\n1,0,1.0,,\n1,1,0.5,,0\n"
    path = tmp_path / "traces.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^seed 5: trace rows must cover"):
        read_trace_csv(path)


CLEAN = "".join(f"0,{n},0.5,0.25,0\n" for n in range(1, 40))  # blocks of steps 1..39


@pytest.mark.parametrize("chunk", [7, 64, reporting.TRACE_READ_CHUNK])
@pytest.mark.parametrize(
    "rows, message",
    [
        (
            "0,0,1.0,,\n0,1,0.5,0.5,0\n0,2,0.5,0.5,0\n1,0,2.0,,\n1,1,1.0,1.0,0\n"
            "0,3,0.5,0.5,0\n0,4,0.5,0.5,0\n",
            None,
        ),
        ("0,0,1.0,,\n" + CLEAN + "0,40,half,0.5,0\n", f"line 42: {NOT_FLOAT}'half'"),
        ("0,0,1.0,,\n" + CLEAN + "0,40,0.5,,0\n", "seed 0: missing mean at step 40"),
        ("0,0,1.0,,\n" + CLEAN.rstrip("\n"), None),
    ],
    ids=[
        "seed-returns",
        "bad-field-in-last-block",
        "missing-mean-in-later-block",
        "no-final-newline",
    ],
)
def test_rows_across_blocks(tmp_path, rows, message, chunk):
    """What a block learns from the blocks before it: a seed that comes back
    after another is one path, and a fault after clean blocks is still found."""
    path = tmp_path / "traces.csv"
    path.write_text(HEAD + rows)
    with mock.patch.object(reporting, "TRACE_READ_CHUNK", chunk):
        got = outcome(read_trace_csv, path)
    assert got == outcome(reference_read_trace_csv, path)
    assert got[0] == "ok" if message is None else got == ("error", message)


@pytest.mark.parametrize("chunk", [7, 64, reporting.TRACE_READ_CHUNK])
def test_seed_back_from_step_0_repeats_its_steps(tmp_path, chunk):
    """A seed whose rows start again from step 0 after another seed's, in
    the same block or a later one, has two rows for each of those steps."""
    path = tmp_path / "traces.csv"
    path.write_text(HEAD + "0,0,1.0,,\n0,1,0.5,0.5,0\n1,0,2.0,,\n0,0,1.0,,\n0,1,0.5,0.5,0\n")
    with mock.patch.object(reporting, "TRACE_READ_CHUNK", chunk), pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == "seed 0: duplicate rows for step 0"


def test_columns_found_by_name(tmp_path):
    """The columns may come in any order; only their names place them."""
    path = tmp_path / "traces.csv"
    path.write_text("u_flag,eps,m,x,n,seed\n0,,,1.0,0,2\n1,0.1,0.25,0.5,1,2\n")
    (xs, ms), = read_trace_csv(path).values()
    assert xs.tolist() == [1.0, 0.5] and ms.tolist() == [0.25]
    assert outcome(read_trace_csv, path) == outcome(reference_read_trace_csv, path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,1.0,,\n0,1,0.5,0.5,0\n0,1,9.0,0.5,0\n", "seed 0: duplicate rows for step 1"),
        ("0,0,1.0,,\n0,0,2.0,,\n", "seed 0: duplicate rows for step 0"),
        (
            "2,0,1.0,,\n1,0,1.0,,\n1,3,0.5,,0\n2,0,1.0,,\n",
            "seed 2: duplicate rows for step 0",
        ),
    ],
    ids=["later-step", "initial-value", "before-another-bad-seed"],
)
def test_duplicate_steps_rejected(tmp_path, rows, message):
    """The reference keeps the last of two rows for one step; a trace with both is unusable."""
    path = tmp_path / "traces.csv"
    path.write_text(HEADER + "\n" + rows)
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,1_0,,\n", "could not convert string '1_0'"),
        ("0,0,\"1.0\",,\n", "could not convert string '\"1.0\"'"),
        ("99999999999999999999,0,1.0,,\n", "could not convert string '99999999999999999999'"),
        ("0,0,1.0,,\"a,b\"\n", "rows do not all have the header's 5 fields"),
    ],
    ids=["underscore", "quoted-number", "seed-beyond-int64", "quoted-comma"],
)
def test_numpy_parser_rejects_what_python_reads(tmp_path, rows, message):
    """Spellings int(), float() and csv.reader accept but numpy's parser does not;
    numpy's own message, which names no file line, is passed on."""
    path = tmp_path / "traces.csv"
    path.write_text(HEADER + "\n" + rows)
    assert outcome(reference_read_trace_csv, path)[0] == "ok"
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value).startswith(message)


REAL_LOADTXT = np.loadtxt


def legacy_int(text: str) -> int:
    """An ``i8`` field as numpy 1.23-1.26 parse it: a 64-bit integer literal
    as itself, anything else through ``float()``, truncated or wrapped, after
    a DeprecationWarning that fails the field when raised as an error."""
    try:
        value = int(text)
        if -(2**63) <= value < 2**63:
            return value
    except ValueError:
        pass
    try:
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
    except DeprecationWarning as exc:
        raise ValueError(f"could not convert string {str(text)!r} to int64") from exc
    return int(float(text)) % 2**63


def float_fallback_loadtxt(fname, *, dtype, **kwargs):
    """``np.loadtxt`` with numpy < 2's float fallback for integer fields."""
    text_dtype = [(name, "U64" if kind == "i8" else kind) for name, kind in dtype]
    table = REAL_LOADTXT(fname, dtype=text_dtype, **kwargs)
    out = np.empty(table.shape, dtype)
    for name, kind in dtype:
        out[name] = [legacy_int(text) for text in table[name]] if kind == "i8" else table[name]
    return out


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize(
    "loadtxt", [REAL_LOADTXT, float_fallback_loadtxt], ids=["numpy", "float-fallback"]
)
@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0,1.0,,\n0,1.5,0.5,0.5,0\n", f"line 3: {NOT_INT}'1.5'"),
        ("0,0,1.0,,\n0,1e0,0.5,0.5,0\n", f"line 3: {NOT_INT}'1e0'"),
        ("0.0,0,1.0,,\n", f"line 2: {NOT_INT}'0.0'"),
        ("99999999999999999999,0,1.0,,\n", "could not convert string '99999999999999999999'"),
    ],
    ids=["non-integer-n", "exponent-n", "non-integer-seed", "seed-beyond-int64"],
)
def test_integer_fields_never_read_through_a_float(tmp_path, loadtxt, rows, message):
    """A seed or n that is not a 64-bit integer is rejected with numpy's
    DeprecationWarning hidden, as it is outside the test run, also where
    numpy's parser would read it through a float and truncate it."""
    path = tmp_path / "traces.csv"
    path.write_text(HEADER + "\n" + rows)
    with mock.patch.object(np, "loadtxt", loadtxt), pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value).startswith(message)


# Values as the writer's repr keeps them: one NaN, whose sign and payload it drops.
WRITTEN = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308]),
)


@st.composite
def written_paths(draw):
    """A width p and ``(seed, path)`` pairs of that width, in the order written."""
    p = draw(st.sampled_from([1, 2, 3]))
    seeds = draw(st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=4, unique=True))
    pairs = []
    for seed in seeds:
        shape = (draw(st.integers(1, 13)),) + ((p,) if p > 1 else ())
        size = 2 * int(np.prod(shape))
        values = draw(st.lists(WRITTEN, min_size=size, max_size=size))
        xs, ms = np.array(values).reshape((2, *shape))
        pairs.append((seed, ProcessPath(xs, ms[1:])))
    return p, pairs


@settings(max_examples=150, deadline=None)
@given(case=written_paths())
def test_written_traces_read_back(tmp_path_factory, case):
    """What ``write_traces_csv`` writes, at any width, reads back to the same bytes."""
    p, pairs = case
    path = tmp_path_factory.mktemp("trace") / "traces.csv"
    write_traces_csv(path, p, pairs)
    got = read_trace_csv(path)
    assert list(got) == [seed for seed, _ in pairs]
    for seed, trace in pairs:
        for read, written in zip(got[seed], (trace.xs, trace.ms)):
            assert (read.dtype, read.shape) == (np.float64, written.shape)
            assert read.tobytes() == written.tobytes()
        # the residuals are not written: x - m of what is read gives them back,
        # bit for bit wherever they are not NaN
        with np.errstate(all="ignore"):  # residuals of inf and nan entries
            eps, written = ProcessPath(*got[seed]).eps, trace.eps
        nan = np.isnan(written)
        assert np.array_equal(np.isnan(eps), nan)
        assert eps[~nan].tobytes() == written[~nan].tobytes()


@settings(max_examples=100, deadline=None)
@given(case=written_paths(), data=st.data())
def test_traces_with_eps_columns_read_as_before(tmp_path_factory, case, data):
    """A trace in an earlier schema, with the residuals ``eps`` (scalar) or
    ``eps_1..eps_p`` (vector) and the zero-class flag ``u_flag`` after the
    means, reads to the same arrays as the same paths written without them,
    whatever the order of its columns."""
    p, pairs = case
    folder = tmp_path_factory.mktemp("trace")
    new, old = folder / "new.csv", folder / "old.csv"
    write_traces_csv(new, p, pairs)
    with open(new, newline="") as fh:
        header, *rows = csv.reader(fh)
    derived = []  # the eps and u_flag fields of each row, in the order written
    for _, trace in pairs:
        derived.append([""] * (p + 1))
        with np.errstate(all="ignore"):  # residuals and row norms of huge, inf and nan entries
            eps, flags = trace.eps.reshape(-1, p).tolist(), zero_state_mask(trace).tolist()
        derived += [[*map(repr, row), str(int(flag))] for row, flag in zip(eps, flags)]
    names = ["eps"] if p == 1 else [f"eps_{t}" for t in range(1, p + 1)]
    old_rows = [r + e for r, e in zip([header] + rows, [names + ["u_flag"]] + derived)]
    if p == 1:
        assert old_rows[0] == ["seed", "n", "x", "m", "eps", "u_flag"]
    order = data.draw(st.permutations(range(len(old_rows[0]))))
    old.write_text("".join(",".join(r[i] for i in order) + "\n" for r in old_rows))
    got = outcome(read_trace_csv, old)
    assert got[0] == "ok"
    assert got == outcome(read_trace_csv, new)


VECTOR_HEAD = "seed,n,x_1,x_2,m_1,m_2,u_flag\n0,0,1.0,2.0,,,\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (VECTOR_HEAD + "0,1,0.5,1.0,0.5,,0\n", "seed 0: missing mean at step 1"),
        (VECTOR_HEAD + "0,1,0.5,,0.5,1.0,0\n", f"line 3: {NOT_FLOAT}''"),
        (VECTOR_HEAD + "0,1,0.5,1.0,0.5,n/a,0\n", f"line 3: {NOT_FLOAT}'n/a'"),
        (
            "seed,n,x_1,x_2,m_1,u_flag\n",
            "trace file must carry columns ['m_1', 'm_2', 'n', 'seed', 'x_1', 'x_2']",
        ),
    ],
    ids=["empty-second-mean", "empty-second-value", "non-numeric-second-mean", "missing-m_2"],
)
def test_vector_trace_errors(tmp_path, text, message):
    """Every component of a vector row is read and checked, not only the first."""
    path = tmp_path / "traces.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_trace_csv(path)
    assert str(exc.value) == message


def test_read_memory_stays_within_blocks(tmp_path):
    """A written trace reads back holding its values and means, 16 bytes a
    row, and a few blocks, without sorting; the same rows shuffled read to
    the same arrays."""
    seeds, horizon = 4, 50_000
    rng = np.random.default_rng(3)
    pairs = [
        (seed, ProcessPath(rng.standard_normal(horizon + 1), rng.standard_normal(horizon)))
        for seed in range(seeds)
    ]
    path = tmp_path / "traces.csv"
    write_traces_csv(path, 1, pairs)
    read_trace_csv(path)  # lazy imports and caches
    tracemalloc.start()
    try:
        with mock.patch.object(np, "lexsort", side_effect=AssertionError("rows sorted")):
            got = read_trace_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * seeds * (horizon + 1) + 8 * reporting.TRACE_READ_CHUNK
    for seed, trace in pairs:
        assert [a.tobytes() for a in got[seed]] == [trace.xs.tobytes(), trace.ms.tobytes()]

    header, *rows = path.read_text().splitlines(keepends=True)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text(header + "".join(rows[i] for i in rng.permutation(len(rows))))
    again = read_trace_csv(shuffled)
    assert sorted(again) == sorted(got)
    for seed in got:
        assert [a.tobytes() for a in again[seed]] == [a.tobytes() for a in got[seed]]
