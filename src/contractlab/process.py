"""Filtered process paths: drift/residual decomposition, sign crossings, peak bounds.

A path stores, for every step, the realized value and the exact predictable
one-step conditional mean supplied by the generating model; the residual is
their difference.  Because the means are exact, the inequalities checked
here are pathwise facts rather than statistical estimates.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .verdict import (
    DEFAULT_ATOL,
    Band,
    Bands,
    ConditionVerdict,
    Scratch,
    band_check,
    band_window,
    column,
    failing,
    vacuous,
)

__all__ = [
    "ProcessPath",
    "CrossingReport",
    "sign_classes",
    "doob_decompose",
    "zero_state_mask",
    "row_norms",
    "crossing_report",
    "max_growth_factor",
    "finite_steps",
    "ratio_band",
    "zero_state_band",
    "check_segment_peak_bound",
    "kronecker_path",
]


def sign_classes(values: np.ndarray, zero_tol: float) -> np.ndarray:
    """Classify values into {-1, 0, +1}; magnitudes <= zero_tol count as zero."""
    v = np.asarray(values, dtype=float)
    out = np.sign(v).astype(np.int8)
    out[np.abs(v) <= zero_tol] = 0
    return out


def finite_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, rejecting a NaN or infinite entry by its
    index along the first axis (the row of a 2-d array)."""
    arr = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"non-finite {name} at index {int(bad[0]) // math.prod(arr.shape[1:])}")
    return arr


@dataclass(frozen=True, eq=False)
class ProcessPath:
    """A realized trajectory with exact predictable one-step means.

    ``xs`` has ``horizon + 1`` rows and carries the initial value in row 0;
    ``ms[i]`` is the conditional mean of step ``i + 1`` given the past.  A
    scalar path has 1-d arrays, a vector path ``(steps, p)`` arrays, whose
    conditions are checked on the row norms.  Only the values and means are
    held, 16·p bytes a step: the residuals :attr:`eps` are derived from them.
    """

    xs: np.ndarray
    ms: np.ndarray
    zero_tol: float = 0.0

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ms = np.asarray(self.ms, dtype=float)
        if xs.ndim not in (1, 2) or ms.ndim != xs.ndim:
            raise ValueError("xs and ms must both be one-dimensional or both (steps, p) arrays")
        if xs.shape[1:] != ms.shape[1:]:
            raise ValueError(f"dimension mismatch: {xs.shape[1]} vs {ms.shape[1]} components")
        if len(xs) != len(ms) + 1:
            raise ValueError(
                f"length mismatch: got {len(xs)} values but {len(ms)} means "
                f"(expected one mean per step after the initial value)"
            )
        if self.zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ms", ms)

    @property
    def eps(self) -> np.ndarray:
        """The residuals ``xs[1:] - ms``, computed on each read, so the
        decomposition identity holds to the last bit by definition."""
        return self.xs[1:] - self.ms

    @property
    def x0(self) -> float | np.ndarray:
        return self.xs[0] if self.xs.ndim == 2 else float(self.xs[0])

    @property
    def horizon(self) -> int:
        return len(self.ms)

    @property
    def p(self) -> int:
        return self.xs.shape[1]

    def classes(self) -> np.ndarray:
        return sign_classes(self.xs, self.zero_tol)

    def norms(self) -> np.ndarray:
        return row_norms(self.xs)

    def mean_norms(self) -> np.ndarray:
        return row_norms(self.ms)

    def window(self) -> Tuple[np.ndarray, np.ndarray]:
        """The path as one window of one seed: (steps, 1) arrays, or (steps, 1, p)."""
        return self.xs[:, None], self.ms[:, None]

    def component(self, t: int) -> ProcessPath:
        """The scalar path of component ``t`` (its means stay exact conditional means)."""
        return ProcessPath(self.xs[:, t], self.ms[:, t], self.zero_tol)


def scalar_only(path: ProcessPath, name: str) -> None:
    """Reject a vector path from ``name``, whose condition is sign-based or per value."""
    if path.xs.ndim != 1:
        raise ValueError(f"{name} needs a scalar path, got one with {path.p} components")


def doob_decompose(xs, ms) -> ProcessPath:
    """Split a realized trajectory into predictable means plus residuals.

    ``ms`` must supply the conditional mean of every step after the initial
    value: one-dimensional arrays with ``len(ms) == len(xs) - 1``, or
    ``(steps, p)`` arrays for a vector path.  Non-finite entries are rejected
    with the index of the offending step.
    """
    return ProcessPath(finite_array(xs, "value in xs"), finite_array(ms, "value in ms"))


def row_norms(
    x: np.ndarray, out: Optional[np.ndarray] = None, scratch: Optional[Scratch] = None
) -> np.ndarray:
    """The Euclidean norm over the last axis of ``x``: every path's one row-norm rule.

    Bit for bit ``np.linalg.norm(x, axis=-1)``, which sums the squares with no
    scaling (so 1e200 gives inf and a subnormal 0).  Below 8 components numpy
    adds them in order, so they are added here column by column, elementwise
    over the rows, which is faster than reducing a short last axis; from 8 on
    the axis is reduced, which keeps numpy's pairwise summation.  The norms
    are formed in ``out`` when given, and a column's squares in the buffer
    "square" of ``scratch`` (see :func:`band_window`).
    """
    p = x.shape[-1]
    if p >= 8:
        return np.sqrt(np.add.reduce(x * x, axis=-1), out=out)
    first = x[..., 0]
    total = np.multiply(first, first, out=out)
    if p > 1:
        square = (Scratch() if scratch is None else scratch).take("square", total.shape)
    for t in range(1, p):
        col = x[..., t]
        total += np.multiply(col, col, out=square)
    return np.sqrt(total, out=total)


def zero_state_mask(path: ProcessPath) -> np.ndarray:
    """Mask over steps 1..horizon: True where the predecessor x_{n-1} is
    zero-class, ``|x_{n-1}| <= zero_tol`` (its row norm for a vector path)."""
    return drift_pairs(*path.window(), path.zero_tol)[2][:, 0]


@dataclass(frozen=True, eq=False)
class CrossingReport:
    """Sign-class sequence, crossing times, and per-segment peak magnitudes.

    A crossing is any change of sign class between consecutive indices.  The
    final segment is truncated by the horizon, so its recorded peak is a
    supremum over observed indices only.
    """

    sign_classes: np.ndarray
    crossing_times: Tuple[int, ...]
    n_t: int
    w: Tuple[float, ...]
    last_segment_open: bool


def crossing_report(path: ProcessPath) -> CrossingReport:
    scalar_only(path, "crossing_report")
    cls = path.classes()
    change = np.nonzero(cls[1:] != cls[:-1])[0] + 1
    times = tuple(int(i) for i in change)
    return CrossingReport(
        sign_classes=cls,
        crossing_times=times,
        n_t=len(times),
        w=tuple(np.maximum.reduceat(np.abs(path.xs), change).tolist()) if times else (),
        last_segment_open=bool(times),
    )


def allowance_array(alphas: Sequence[float], cap: float = math.inf) -> np.ndarray:
    """Finite, nonnegative allowances alpha_n whose sum stays within ``cap``."""
    alphas = finite_array(alphas, "alpha")
    if np.any(alphas < 0):
        raise ValueError("alphas must be nonnegative")
    if alphas.sum() > cap:
        raise ValueError(f"sum of alphas {alphas.sum():g} exceeds cap {cap:g}")
    return alphas


def max_growth_factor(alphas: Sequence[float]) -> float:
    """Largest window product over all realized (t, k) pairs.

    All factors are >= 1, so the maximum is attained by the full product; over
    a finite horizon this is a lower bound for the untruncated supremum.  A
    product that overflows is inf.
    """
    with np.errstate(over="ignore"):
        return float(np.prod(1.0 + allowance_array(alphas)))


# A window holds S seeds' iterates xs (w + 1 rows, the first one the iterate
# before the window's first step) and means ms (w rows): (rows, S) arrays for
# scalar seeds, (rows, S, p) for vector ones.  A whole path is one window of
# one seed (ProcessPath.window).


def finite_steps(path: ProcessPath) -> np.ndarray:
    """Mask over steps 1..horizon: True where x_{n-1}, m_n and x_n are all finite."""
    return finite_rows(*path.window())[:, 0]


def finite_rows(xs: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """:func:`finite_steps` of each seed of a window, (w, S)."""
    xs_ok, ms_ok = _finite_rows_of(xs), _finite_rows_of(ms)
    return xs_ok[:-1] & xs_ok[1:] & ms_ok


def _finite_rows_of(a: np.ndarray) -> np.ndarray:
    """Whether each row of a window is finite, a vector row in every component
    (taken column by column)."""
    if a.ndim < 3:
        return np.isfinite(a)
    ok = np.isfinite(a[..., 0])
    for t in range(1, a.shape[-1]):
        ok &= np.isfinite(a[..., t])
    return ok


def drift_pairs(
    xs: np.ndarray, ms: np.ndarray, zero_tol: float, scratch: Optional[Scratch] = None
) -> Tuple[np.ndarray, ...]:
    """The levels of a window's iterates (their row norms for vector seeds, the
    values themselves for scalar ones), the levels of its means, and whether
    each step's predecessor is zero-class, ``|x_{n-1}| <= zero_tol``: the
    checkers' one zero-class rule.  The norms and magnitudes are formed in
    the buffers "levels", "norms" and "magnitudes" of ``scratch`` (see
    :func:`band_window`)."""
    work = Scratch() if scratch is None else scratch
    rows = ms.shape[:2]
    if xs.ndim == 3:
        levels = row_norms(xs, work.take("levels", xs.shape[:2]), work)
        means = row_norms(ms, work.take("norms", rows), work)
    else:
        levels, means = xs, ms
    return levels, means, np.abs(levels[:-1], out=work.take("magnitudes", rows)) <= zero_tol


def ratio_window(
    pairs,
    finite,
    upper,
    lower=None,
    mask=None,
    atol: float = 0.0,
    scratch: Optional[Scratch] = None,
) -> Bands:
    """:func:`ratio_band` of each seed of a window, from its :func:`drift_pairs` and
    :func:`finite_rows`; bounds and ``mask`` broadcast to (w, S).  Its arrays
    are formed in ``scratch`` (see :func:`band_window`)."""
    levels, means, zero_class = pairs
    off_zero = ~zero_class
    if mask is not None:
        off_zero &= mask
    return band_window(
        means, upper, lower, off_zero, atol=atol, over=levels[:-1], finite=finite, scratch=scratch
    )


def ratio_band(path, upper, lower=None, mask=None, atol: float = 0.0) -> Band:
    """Band check of the ratios m_n / x_{n-1} (of norms for a vector path) off the
    zero class; ``mask`` restricts the steps further (see :func:`band_check`)."""
    xs, ms = path.window()
    pairs, finite = drift_pairs(xs, ms, path.zero_tol), finite_rows(xs, ms)
    return ratio_window(pairs, finite, column(upper), column(lower), column(mask), atol).band(0)


def zero_state_band(path, tail_window: int | None, tol: float) -> Band:
    """|m_n| <= tol (||m_n|| for a vector path) at tail steps with a zero-class
    predecessor; the tail defaults to the last half of the horizon."""
    horizon = path.horizon
    if tail_window is None:
        tail_window = min(max(1, horizon // 2), horizon)
    if tail_window > horizon:
        raise ValueError(f"tail window {tail_window} exceeds horizon {horizon}")
    xs, ms = path.window()
    _, means, zero_class = drift_pairs(xs, ms, path.zero_tol)
    mask = column(np.arange(horizon) >= horizon - tail_window) & zero_class
    return band_window(np.abs(means), tol, mask=mask, finite=finite_rows(xs, ms)).band(0)


def check_segment_peak_bound(path: ProcessPath, alphas: Sequence[float]) -> ConditionVerdict:
    """Check each crossing segment's peak against the accumulated-residual bound.

    For every observed crossing time T_j the peak |x| over the segment starting
    there must not exceed max_growth_factor * (sum of |residuals| over the
    segment + |mean at T_j when restarting from a zero state|).  The verdict
    index is the first crossing step whose segment breaks the bound.  Requires
    the nonexpansive ratio condition with the same ``alphas``; a ratio
    violation makes the bound inapplicable and is reported as the failure
    index, and a growth factor that overflows makes it vacuous.  The guarantee
    assumes exact zero classification (``zero_tol == 0``).
    """
    scalar_only(path, "check_segment_peak_bound")
    alphas = np.asarray(alphas, dtype=float)
    if len(alphas) < path.horizon:
        raise ValueError("alphas must cover the path horizon")
    bad = ratio_band(path, 1.0 + alphas[: path.horizon], 0.0, atol=DEFAULT_ATOL).first_violation
    if bad is not None:
        detail = f"not applicable: nonexpansive ratio condition fails at step {bad}"
        return failing(bad, math.nan, detail)
    lam = max_growth_factor(alphas[: path.horizon])
    report = crossing_report(path)
    if math.isinf(lam) and report.n_t:
        return vacuous("growth factor overflows; bound is vacuous")
    # one entry per step, set at the steps T_j where a segment starts
    at = np.array(report.crossing_times, dtype=int) - 1
    ends = np.append(at[1:], path.horizon)
    eps = np.abs(path.eps)
    residual = np.array([eps[a:b].sum() for a, b in zip(at, ends)])
    restart = np.where(zero_state_mask(path)[at], np.abs(path.ms[at]), 0.0)
    starts = np.zeros(path.horizon, bool)
    peaks, bound = np.zeros((2, path.horizon))
    with np.errstate(over="ignore"):  # a bound past the largest float holds for any peak
        limit = np.minimum(lam * (residual + restart), np.finfo(float).max)
    starts[at], peaks[at], bound[at] = True, report.w, limit
    return band_check(peaks, bound, mask=starts, atol=DEFAULT_ATOL).verdict(
        "segment peak exceeds the residual bound",
        "{checked} segments checked",
        "no crossings observed; bound is vacuous",
    )


def kronecker_path(increments: Sequence[float], weights: Sequence[float]) -> ProcessPath:
    """Path of weighted partial sums x_n = (y_1 + ... + y_n) / a_n.

    The predictable mean of step n is the previous partial sum divided by the
    new weight, so the mean/value ratio equals a_{n-1}/a_n wherever the
    previous value is nonzero.  Weights must be positive and nondecreasing.
    """
    ys = np.asarray(increments, dtype=float)
    ws = np.asarray(weights, dtype=float)
    if ys.shape != ws.shape or ys.ndim != 1:
        raise ValueError("increments and weights must be 1-d sequences of equal length")
    if np.any(ws <= 0):
        raise ValueError(
            f"weights must be positive (violation at index {int(np.nonzero(ws <= 0)[0][0])})"
        )
    if np.any(np.diff(ws) < 0):
        raise ValueError(
            f"weights must be nondecreasing (violation at index "
            f"{int(np.nonzero(np.diff(ws) < 0)[0][0] + 1)})"
        )
    if len(ws) and ws[-1] / ws[0] < 10:
        warnings.warn(
            "weights grow slowly (last/first < 10); the averaged path may not settle",
            stacklevel=2,
        )
    sums = np.cumsum(ys)
    xs = np.concatenate(([0.0], sums / ws))
    prev_sums = np.concatenate(([0.0], sums[:-1]))
    ms = prev_sums / ws
    return ProcessPath(xs, ms)
