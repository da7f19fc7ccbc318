"""Filtered process paths: drift/residual decomposition, sign crossings, peak bounds.

A path stores, for every step, the realized value, the exact predictable
one-step conditional mean supplied by the generating model, and the residual
(their difference).  Because the means are exact, the inequalities checked
here are pathwise facts rather than statistical estimates.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .verdict import Band, ConditionVerdict, band_check, failing, passing, vacuous

__all__ = [
    "ProcessPath",
    "VectorProcessPath",
    "CrossingReport",
    "sign_classes",
    "doob_decompose",
    "zero_state_mask",
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
    """A realized scalar trajectory with exact predictable one-step means.

    ``xs`` has length ``horizon + 1`` and carries the initial value at index 0;
    ``ms[i]`` is the conditional mean of step ``i + 1`` given the past.  The
    residuals ``eps = xs[1:] - ms`` are recomputed on construction, so the
    decomposition identity holds to the last bit by definition.
    """

    xs: np.ndarray
    ms: np.ndarray
    zero_tol: float = 0.0
    eps: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ms = np.asarray(self.ms, dtype=float)
        if xs.ndim != 1 or ms.ndim != 1:
            raise ValueError("xs and ms must be one-dimensional")
        if len(xs) != len(ms) + 1:
            raise ValueError(
                f"length mismatch: got {len(xs)} values but {len(ms)} means "
                f"(expected one mean per step after the initial value)"
            )
        if self.zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "eps", xs[1:] - ms)

    @property
    def x0(self) -> float:
        return float(self.xs[0])

    @property
    def horizon(self) -> int:
        return len(self.ms)

    def classes(self) -> np.ndarray:
        return sign_classes(self.xs, self.zero_tol)


@dataclass(frozen=True, eq=False)
class VectorProcessPath:
    """A realized vector trajectory with exact predictable one-step means."""

    xs: np.ndarray  # shape (horizon + 1, p)
    ms: np.ndarray  # shape (horizon, p)
    zero_tol: float = 0.0
    eps: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ms = np.asarray(self.ms, dtype=float)
        if xs.ndim != 2 or ms.ndim != 2:
            raise ValueError("xs and ms must be two-dimensional (steps, components)")
        if xs.shape[1] != ms.shape[1]:
            raise ValueError(f"dimension mismatch: {xs.shape[1]} vs {ms.shape[1]} components")
        if xs.shape[0] != ms.shape[0] + 1:
            raise ValueError(
                f"length mismatch: got {xs.shape[0]} values but {ms.shape[0]} means"
            )
        if self.zero_tol < 0:
            raise ValueError("zero_tol must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ms", ms)
        object.__setattr__(self, "eps", xs[1:] - ms)

    @property
    def p(self) -> int:
        return self.xs.shape[1]

    @property
    def horizon(self) -> int:
        return self.ms.shape[0]

    @property
    def x0(self) -> np.ndarray:
        return self.xs[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.xs, axis=1)

    def mean_norms(self) -> np.ndarray:
        return np.linalg.norm(self.ms, axis=1)

    def component(self, t: int) -> ProcessPath:
        """The scalar path of component ``t`` (its means stay exact conditional means)."""
        return ProcessPath(self.xs[:, t], self.ms[:, t], self.zero_tol)


def doob_decompose(xs, ms, zero_tol: float = 0.0) -> ProcessPath | VectorProcessPath:
    """Split a realized trajectory into predictable means plus residuals.

    ``ms`` must supply the conditional mean of every step after the initial
    value, so ``len(ms) == len(xs) - 1``.  One-dimensional input gives a
    :class:`ProcessPath`, ``(steps, p)`` input a :class:`VectorProcessPath`.
    Non-finite entries are rejected with the index of the offending step.
    """
    xs = np.asarray(xs, dtype=float)
    ms = np.asarray(ms, dtype=float)
    if xs.ndim not in (1, 2) or ms.ndim != xs.ndim:
        raise ValueError("xs and ms must both be one-dimensional or both (steps, p) arrays")
    if len(ms) != len(xs) - 1:
        raise ValueError(
            f"length mismatch: {len(xs)} values require {len(xs) - 1} means, got {len(ms)}"
        )
    finite_array(xs, "value in xs")
    finite_array(ms, "value in ms")
    return (ProcessPath if xs.ndim == 1 else VectorProcessPath)(xs, ms, zero_tol)


def zero_state_mask(path: ProcessPath) -> np.ndarray:
    """Boolean mask over steps 1..horizon: True where the predecessor is zero-class."""
    return np.abs(path.xs[:-1]) <= path.zero_tol


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
    cls = path.classes()
    change = np.nonzero(cls[1:] != cls[:-1])[0] + 1
    times = tuple(int(i) for i in change)
    abs_x = np.abs(path.xs)
    peaks: List[float] = []
    for j, start in enumerate(times):
        end = times[j + 1] if j + 1 < len(times) else len(path.xs)
        peaks.append(float(abs_x[start:end].max()))
    return CrossingReport(
        sign_classes=cls,
        crossing_times=times,
        n_t=len(times),
        w=tuple(peaks),
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
    a finite horizon this is a lower bound for the untruncated supremum.
    """
    return float(np.prod(1.0 + allowance_array(alphas)))


def finite_steps(path: ProcessPath | VectorProcessPath) -> np.ndarray:
    """Mask over steps 1..horizon: True where x_{n-1}, m_n and x_n are all finite."""
    xs_ok, ms_ok = np.isfinite(path.xs), np.isfinite(path.ms)
    if xs_ok.ndim == 2:
        xs_ok, ms_ok = xs_ok.all(axis=1), ms_ok.all(axis=1)
    return xs_ok[:-1] & xs_ok[1:] & ms_ok


def _drift_pairs(path: ProcessPath | VectorProcessPath) -> Tuple[np.ndarray, np.ndarray]:
    """Per step, the predecessor x_{n-1} and the mean m_n (their norms for a vector path)."""
    if isinstance(path, VectorProcessPath):
        return path.norms()[:-1], path.mean_norms()
    return path.xs[:-1], path.ms


def ratio_band(path, upper, lower=None, mask=None, atol: float = 0.0) -> Band:
    """Band check of the ratios m_n / x_{n-1} (of norms for a vector path) off the
    zero class; ``mask`` restricts the steps further (see :func:`band_check`)."""
    prev, means = _drift_pairs(path)
    off_zero = np.abs(prev) > path.zero_tol
    if mask is not None:
        off_zero &= mask
    return band_check(means, upper, lower, off_zero, atol=atol, over=prev, finite=finite_steps(path))


def zero_state_band(path, tail_window: int | None, tol: float) -> Band:
    """|m_n| <= tol (||m_n|| for a vector path) at tail steps with a zero-class
    predecessor; the tail defaults to the last half of the horizon."""
    horizon = path.horizon
    if tail_window is None:
        tail_window = max(1, horizon // 2)
    if tail_window > horizon:
        raise ValueError(f"tail window {tail_window} exceeds horizon {horizon}")
    prev, means = _drift_pairs(path)
    mask = (np.arange(horizon) >= horizon - tail_window) & (np.abs(prev) <= path.zero_tol)
    return band_check(np.abs(means), tol, mask=mask, finite=finite_steps(path))


def check_segment_peak_bound(
    path: ProcessPath, alphas: Sequence[float], atol: float = 1e-12
) -> ConditionVerdict:
    """Check each crossing segment's peak against the accumulated-residual bound.

    For every observed crossing time T_j the peak |x| over the segment starting
    there must not exceed max_growth_factor * (sum of |residuals| over the
    segment + |mean at T_j when restarting from a zero state|).  Requires the
    nonexpansive ratio condition with the same ``alphas``; a ratio violation
    makes the bound inapplicable and is reported as the failure index.  The
    guarantee assumes exact zero classification (``zero_tol == 0``).
    """
    alphas = np.asarray(alphas, dtype=float)
    if len(alphas) < path.horizon:
        raise ValueError("alphas must cover the path horizon")
    bad = ratio_band(path, 1.0 + alphas[: path.horizon], 0.0, atol=atol).first_violation
    if bad is not None:
        return failing(
            bad,
            math.nan,
            f"not applicable: nonexpansive ratio condition fails at step {bad}",
        )
    lam = max_growth_factor(alphas[: path.horizon])
    report = crossing_report(path)
    if report.n_t == 0:
        return vacuous("no crossings observed; bound is vacuous")
    zero_prev = zero_state_mask(path)
    worst = math.inf
    worst_at = None
    for j, start in enumerate(report.crossing_times):
        end = (
            report.crossing_times[j + 1]
            if j + 1 < report.n_t
            else path.horizon + 1
        )
        m_abs = float(np.abs(path.eps[start - 1 : end - 1]).sum())
        u_term = abs(float(path.ms[start - 1])) if zero_prev[start - 1] else 0.0
        slack = lam * (m_abs + u_term) - report.w[j]
        if slack < worst:
            worst = slack
            worst_at = start
    if worst < -atol:
        return failing(worst_at, worst, "segment peak exceeds the residual bound")
    return passing(worst, f"{report.n_t} segments checked")


def kronecker_path(
    increments: Sequence[float], weights: Sequence[float], zero_tol: float = 0.0
) -> ProcessPath:
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
    return ProcessPath(xs, ms, zero_tol)
