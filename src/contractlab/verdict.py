"""Shared pass/fail verdict type and the band kernel behind every pathwise check."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Slack for rounding in the pathwise checks: the stored means are exact, so a
# margin below -DEFAULT_ATOL is a violation, not floating-point noise.
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a pathwise or gridwise condition check.

    ``holds`` is True exactly when ``first_violation`` is None.  ``worst_margin``
    is the smallest slack observed across all checked indices (positive means
    the condition held with room to spare, +inf means the check was vacuous).
    A holding verdict never carries a NaN margin.
    """

    holds: bool
    first_violation: Optional[int]
    worst_margin: float
    detail: str = ""

    def __post_init__(self) -> None:
        if self.holds != (self.first_violation is None):
            raise ValueError("holds must be True exactly when first_violation is absent")
        if self.holds and math.isnan(self.worst_margin):
            raise ValueError("a holding verdict cannot have a NaN worst margin")


def passing(margin: float, detail: str = "") -> ConditionVerdict:
    return ConditionVerdict(True, None, float(margin), detail)


def vacuous(detail: str) -> ConditionVerdict:
    return ConditionVerdict(True, None, math.inf, detail)


def failing(index: int, margin: float, detail: str = "") -> ConditionVerdict:
    return ConditionVerdict(False, int(index), float(margin), detail)


@dataclass(frozen=True)
class Band:
    """Outcome of :func:`band_check`: the first violating step (None when the
    band held), the worst margin (+inf when nothing was checked), the number of
    steps checked, and the checked quantity at the first violation and at the
    worst margin."""

    first_violation: Optional[int]
    worst_margin: float
    checked: int
    value: float = math.nan
    worst_value: float = math.nan

    def verdict(self, failed: str, held: str, empty: str) -> ConditionVerdict:
        """Render as a verdict; the detail templates may name ``{step}``,
        ``{value}`` and ``{worst_value}`` (failed) or ``{checked}`` (held)."""
        step = self.first_violation
        if step is not None:
            text = failed.format(step=step, value=self.value, worst_value=self.worst_value)
            return failing(step, self.worst_margin, text)
        if self.checked == 0:
            return vacuous(empty)
        return passing(self.worst_margin, held.format(checked=self.checked))


def band_check(
    values: np.ndarray,
    upper=None,
    lower=None,
    mask: Optional[np.ndarray] = None,
    atol: float = 0.0,
    over: Optional[np.ndarray] = None,
    finite: Optional[np.ndarray] = None,
) -> Band:
    """Check ``lower <= values / over <= upper`` at the steps selected by ``mask``.

    Arrays hold one entry per step, ``values[i]`` belonging to step ``i + 1``;
    a bound may be a scalar, ``over`` and either bound (not both) may be
    absent.  A step's margin is its distance inside the band and it violates
    when that falls below ``-atol``.  ``mask`` (default: all) skips steps
    such as the zero class, but never a non-finite one: a non-finite value,
    divisor or bound, or a False entry of ``finite`` (the step's other data),
    is always a violation with margin -inf.  This is :func:`band_window` over
    one window of one column.
    """
    args = (column(a) for a in (values, upper, lower, mask))
    return band_window(*args, atol=atol, over=column(over), finite=column(finite)).band(0)


def column(a):
    """A per-step array as the (steps, 1) window of one seed; a scalar or None as it is."""
    return np.reshape(a, (-1, 1)) if np.ndim(a) == 1 else a


@dataclass(frozen=True, eq=False)
class Bands:
    """Outcome of :func:`band_window` over ``steps`` steps and S columns (seeds).

    Per column: the first violating step of the window (0 when the band held),
    the worst margin (+inf when nothing was checked), the number of steps
    checked, and the checked quantity at the first violation and at the worst
    margin (NaN where the band held).
    """

    steps: int
    first: np.ndarray
    worst: np.ndarray
    checked: np.ndarray
    value: np.ndarray
    worst_value: np.ndarray

    @classmethod
    def empty(cls, columns: int) -> "Bands":
        """The bands of no steps, the start of a fold with :meth:`then`."""
        none, nan = np.zeros(columns, int), np.full(columns, math.nan)
        return cls(0, none, np.full(columns, math.inf), none, nan, nan)

    def then(self, later: "Bands") -> "Bands":
        """These steps followed by ``later``'s, as :func:`band_window` over both.

        Exact: the first of the first violations, the sum of the counts, and the
        smallest margin with the checked quantity at it, the first NaN or else
        the first minimum, as ``np.argmin`` picks it.
        """
        held = self.first == 0
        first = np.where(held, np.where(later.first > 0, later.first + self.steps, 0), self.first)
        later_worse = ~np.isnan(self.worst) & (np.isnan(later.worst) | (later.worst < self.worst))
        return Bands(
            self.steps + later.steps,
            first,
            np.where(later_worse, later.worst, self.worst),
            self.checked + later.checked,
            np.where(held, later.value, self.value),
            np.where(later_worse, later.worst_value, self.worst_value),
        )

    def band(self, column: int) -> Band:
        """One column as a :class:`Band`, its steps counted from the window's start."""
        step = int(self.first[column])
        worst, checked = float(self.worst[column]), int(self.checked[column])
        if not step:
            return Band(None, worst, checked)
        value, worst_value = float(self.value[column]), float(self.worst_value[column])
        return Band(step, worst, checked, value, worst_value)


class Scratch:
    """Float buffers that a loop over windows reuses: ``take(name, shape)`` is
    the first entries of the buffer ``name`` as a contiguous array of
    ``shape``, its contents left as they were, the buffer grown when a window
    needs more.  A fresh one per call allocates as ``np.empty`` does; one
    kept across the windows of a run allocates none of their arrays again,
    which spares the allocator releasing and faulting back the same pages
    every window."""

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)


def band_window(
    values: np.ndarray,
    upper=None,
    lower=None,
    mask: Optional[np.ndarray] = None,
    atol: float = 0.0,
    over: Optional[np.ndarray] = None,
    finite: Optional[np.ndarray] = None,
    scratch: Optional[Scratch] = None,
) -> Bands:
    """:func:`band_check` of each column of a (steps, S) window at once.

    Every argument but ``atol`` and ``scratch`` is a (steps, S) array or
    broadcasts to one, such as a (steps, 1) bound shared by the seeds.  Only
    the checked steps are divided and subtracted, so a skipped step raises no
    floating-point warning.  Windows fold into the whole path's bands by
    :meth:`Bands.then`.  The quotients and margins are formed in the buffers
    "checked", "margins" and "low" of ``scratch``, a fresh one when None.
    """
    work = Scratch() if scratch is None else scratch
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values)
    for arr in (finite, over, upper, lower):
        if arr is not None:
            ok &= arr if arr is finite else np.isfinite(arr)
    take = True if mask is None else mask | ~ok
    checked = values
    if over is not None:
        checked = work.take("checked", values.shape)  # only its taken entries are reported
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(values, over, out=checked, where=take)
    margins = work.take("margins", values.shape)
    margins.fill(math.inf)
    if upper is not None:
        np.subtract(upper, checked, out=margins, where=take)
    if lower is not None:
        low = work.take("low", values.shape)  # read only where taken
        np.subtract(checked, lower, out=low, where=take)
        np.minimum(margins, low, out=margins, where=take)
    margins[~ok] = -math.inf
    columns = values.shape[1]
    if not len(values):
        return Bands.empty(columns)
    seeds = np.arange(columns)
    worst_at = margins.argmin(axis=0)
    bad = ~(margins >= -atol)
    held = ~bad.any(axis=0)
    first = np.where(held, 0, bad.argmax(axis=0) + 1)
    value = np.where(held, math.nan, checked[first - 1, seeds])
    worst_value = np.where(held, math.nan, checked[worst_at, seeds])
    count = np.count_nonzero(np.broadcast_to(take, values.shape), axis=0)
    return Bands(len(values), first, margins[worst_at, seeds], count, value, worst_value)
