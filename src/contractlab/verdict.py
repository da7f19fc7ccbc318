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
    is always a violation with margin -inf.
    """
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values) if finite is None else finite & np.isfinite(values)
    for arr in (over, upper, lower):
        if arr is not None:
            ok &= np.isfinite(arr)
    take = np.ones_like(ok) if mask is None else mask | ~ok
    with np.errstate(divide="ignore", invalid="ignore"):
        checked = values[take] if over is None else values[take] / over[take]
    margins = math.inf if upper is None else np.broadcast_to(upper, values.shape)[take] - checked
    if lower is not None:
        margins = np.minimum(margins, checked - np.broadcast_to(lower, values.shape)[take])
    margins[~ok[take]] = -math.inf
    if margins.size == 0:
        return Band(None, math.inf, 0)
    worst_at = int(np.argmin(margins))
    worst = float(margins[worst_at])
    if worst >= -atol:
        return Band(None, worst, margins.size)
    bad = int(np.argmax(~(margins >= -atol)))
    step = int(np.flatnonzero(take)[bad]) + 1
    return Band(step, worst, margins.size, float(checked[bad]), float(checked[worst_at]))
