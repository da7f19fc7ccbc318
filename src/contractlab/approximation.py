"""Robbins-Monro root solvers and the regularity checks that justify them.

The solvers store the exact predictable mean of every step: each update first
applies the drift x - alpha * g(x) and then subtracts alpha times a zero-mean
shock, so the stored mean is the true conditional mean of the realized value
as a floating-point number, not an approximation of it.
"""
from __future__ import annotations

import contextlib
import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .conditions import _ratio_verdict
from .process import (
    ProcessPath,
    finite_rows,
    finite_steps,
    ratio_band,
    row_norms,
    scalar_only,
    zero_state_mask,
)
from .verdict import (
    DEFAULT_ATOL,
    Bands,
    ConditionVerdict,
    Scratch,
    band_check,
    band_window,
    column,
    vacuous,
)

__all__ = [
    "RootProblem",
    "NoiseModel",
    "Schedule",
    "EnvelopeReport",
    "RegularityVerdict",
    "TruncatedPath",
    "rm_solve",
    "rm_solve_block",
    "rm_fold",
    "check_linear_envelope",
    "check_norm_envelope",
    "check_regularity",
    "check_ratio_sandwich",
    "derive_truncated",
    "truncated_nonexpansive_verdict",
    "check_truncated_zero_mean_bound",
    "contraction_factor",
    "signed_log_grid",
    "sphere_grid",
]


@dataclass(frozen=True, eq=False)
class RootProblem:
    """A deterministic target map g whose root is sought from noisy evaluations.

    When ``x_star`` is supplied it must actually be a root (|g| at most 1e-12).
    ``g_block``, when given, evaluates g on a stack of iterates, one per row
    (shape (k,) or (k, p)), with ``g``'s floating-point operations on each
    row; :func:`rm_solve_block` applies it to the seeds of one step and to the
    steps of one seed, and without it runs the seeds one at a time.
    """

    g: Callable
    x_star: Optional[float | np.ndarray] = None
    dimension: int = 1
    g_block: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.x_star is not None:
            gx = np.asarray(self.g(self.x_star), dtype=float)
            if float(np.linalg.norm(np.atleast_1d(gx))) > 1e-12:
                raise ValueError(
                    f"x_star is not a root: |g(x_star)| = {float(np.linalg.norm(np.atleast_1d(gx))):g}"
                )

    @property
    def root(self):
        """The known root, defaulting to the origin."""
        if self.x_star is not None:
            return self.x_star
        return 0.0 if self.dimension == 1 else np.zeros(self.dimension)


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean observation noise for the evaluation oracle.

    ``draw(rng, shape)`` returns the additive shocks; the oracle sample at x is
    g(x) plus a shock, so it is conditionally unbiased by construction.
    """

    draw: Callable[[np.random.Generator, tuple], np.ndarray]

    @classmethod
    def gaussian(cls, sd: float) -> "NoiseModel":
        if sd < 0:
            raise ValueError("sd must be nonnegative")
        return cls(lambda rng, shape: rng.normal(0.0, sd, size=shape))

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseModel":
        if half_width < 0:
            raise ValueError("half_width must be nonnegative")
        return cls(lambda rng, shape: rng.uniform(-half_width, half_width, size=shape))

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(lambda rng, shape: np.zeros(shape))


@dataclass(frozen=True, eq=False)
class Schedule:
    """Step-size sequence alpha_n, either from a named family or explicit.

    Families: ``inverse_n`` (c/n) and ``inverse_n_power`` (c/n**gamma).
    ``summable`` records whether the infinite sum is known to converge (None
    for explicit lists).
    """

    kind: str
    c: float = 1.0
    gamma: float = 1.0
    explicit_values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.kind not in ("inverse_n", "inverse_n_power", "explicit"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "explicit":
            vals = np.asarray(self.explicit_values, dtype=float)
            if vals.ndim != 1 or len(vals) == 0:
                raise ValueError("explicit schedule needs a nonempty 1-d value list")
            if np.any(vals < 0):
                raise ValueError("step sizes must be nonnegative")
            object.__setattr__(self, "explicit_values", vals)
        else:
            if self.c <= 0:
                raise ValueError("c must be positive")
            if self.gamma <= 0:
                raise ValueError("gamma must be positive")

    @classmethod
    def inverse_n(cls, c: float = 1.0) -> "Schedule":
        return cls("inverse_n", c=c)

    @classmethod
    def inverse_n_power(cls, c: float, gamma: float) -> "Schedule":
        return cls("inverse_n_power", c=c, gamma=gamma)

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "Schedule":
        return cls("explicit", explicit_values=np.asarray(values, dtype=float))

    def alphas(self, horizon: int, start: int = 0) -> np.ndarray:
        """The step sizes of steps ``start + 1 .. horizon``.  Each is computed
        on its own, so a window's are the bits of the whole horizon's."""
        n = np.arange(start + 1, horizon + 1, dtype=float)
        if self.kind == "inverse_n":
            return self.c / n
        if self.kind == "inverse_n_power":
            return self.c / n**self.gamma
        vals = self.explicit_values
        if len(vals) < horizon:
            raise ValueError(f"explicit schedule covers {len(vals)} steps < horizon {horizon}")
        return vals[start:horizon].copy()

    def sum_at(self, horizon: int) -> float:
        return _pairwise_sum(lambda a, b: self.alphas(b, a), 0, horizon)

    def sum_sq_at(self, horizon: int) -> float:
        return _pairwise_sum(lambda a, b: np.square(self.alphas(b, a)), 0, horizon)

    @property
    def summable(self) -> Optional[bool]:
        if self.kind == "inverse_n":
            return False
        if self.kind == "inverse_n_power":
            return self.gamma > 1.0
        return None


# numpy sums n > 128 values as the sums of two halves, the first of n // 2
# values rounded down to a multiple of 8; so summing the halves' windows alone,
# down to windows of at most this many values (at least 128), gives np.sum's bits
PAIRWISE_WINDOW = 1 << 16


def _pairwise_sum(values: Callable[[int, int], np.ndarray], start: int, stop: int) -> float:
    """``np.sum`` of the values ``values(a, b)`` of positions [start, stop),
    formed one window at a time, so no array of them all is held."""
    n = stop - start
    if n <= PAIRWISE_WINDOW:
        return float(np.sum(values(start, stop)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values, start, start + half) + _pairwise_sum(values, start + half, stop)


def _checked_x0(x0) -> np.ndarray:
    """``x0`` as a float array holding no NaN (an infinite entry is accepted)."""
    x = np.asarray(x0, dtype=float)
    if np.isnan(x).any():
        raise ValueError(f"x0 = {x.tolist()!r} holds a NaN")
    return x


# Both solvers draw a seed's shocks this many steps at a time, so a block of
# seeds holds one chunk of them, and each generator sees the same calls of
# ``NoiseModel.draw`` in either solver.
SHOCK_CHUNK = 1024


def _spans(horizon: int) -> list:
    """The steps of each shock chunk, as slices of ``range(horizon)``."""
    return [slice(t, min(t + SHOCK_CHUNK, horizon)) for t in range(0, horizon, SHOCK_CHUNK)]


def _shocks(noise: NoiseModel, seed, spans: list, shape: tuple) -> Iterator:
    """One seed's shocks, one array per span, drawn as the iterator advances."""
    rng = np.random.default_rng(seed)
    return (noise.draw(rng, (span.stop - span.start,) + shape) for span in spans)


def rm_solve(
    problem: RootProblem,
    noise: NoiseModel,
    schedule: Schedule,
    x0,
    horizon: int,
    seed,
) -> ProcessPath:
    """Run the root-finding iteration x_n = x_{n-1} - alpha_n * sample_n.

    A scalar ``x0`` gives a scalar path; a vector one, of shape
    ``(problem.dimension,)``, a ``(horizon + 1, p)`` path.  ``x0`` must hold
    no NaN.  A vector of length 1 consumes the same shock stream as the scalar,
    so equal seeds give bit-identical trajectories.  The returned path stores
    the exact predictable mean x - alpha * g(x) of every step.
    """
    x = _checked_x0(x0)
    if x.ndim and x.shape != (problem.dimension,):
        raise ValueError(f"x0 must have shape ({problem.dimension},)")
    al = schedule.alphas(horizon)
    shape = (horizon,) + x.shape
    spans = _spans(horizon)
    steps = np.empty(shape)
    for span, shocks in zip(spans, _shocks(noise, seed, spans, x.shape)):
        steps[span] = shocks
    steps *= al.reshape((-1,) + (1,) * x.ndim)
    g = problem.g
    if not x.ndim:
        x = float(x)
        steps = steps.tolist()
        xs = [x]
        ms = []
        for i, a in enumerate(al.tolist()):
            m = x - a * float(g(x))
            x = m - steps[i]
            ms.append(m)
            xs.append(x)
        return ProcessPath(np.array(xs), np.array(ms))
    xs = np.empty((horizon + 1,) + x.shape)
    ms = np.empty(shape)
    xs[0] = x
    for i in range(horizon):
        m = ms[i]
        np.subtract(x, al[i] * np.asarray(g(x), dtype=float), out=m)
        x = xs[i + 1]
        np.subtract(m, steps[i], out=x)
    return ProcessPath(xs, ms)


# The values and means of one block of whole paths (8 bytes per value) stay
# within this budget, so a block's working set does not grow with the seed
# count; the stepper's window buffers come on top.  64 MiB of values and
# means is the 32 MiB of values the blocks held when the means were derived
# one seed at a time, so the blocks, and their step loops, are as many.
BLOCK_BYTES = 64 << 20
# A block step of the scalar sine map costs 6-15 µs for 1 to 128 seeds, about
# what 16 per-seed steps cost (2-vCPU Xeon VM); below this many seeds,
# stepping those seeds one at a time in the scalar float loop is faster.  A
# vector seed stepped alone already makes numpy calls, so vectors have no
# floor: for the p = 3 matrix map, blocks of 2 and 8 cost 4.3 and 1.4 µs per
# seed-step against 6.9 µs per step seed by seed.
MIN_BLOCK = 16


def _block_size(seeds: int, horizon: int, p: int = 1) -> int:
    """Seeds per block of :func:`rm_solve_block`, or 1 when seed by seed is faster.

    As few blocks as ``BLOCK_BYTES`` of paths (2H + 1 rows of p values a seed)
    allows, as even as possible: at 64 MiB, 100 seeds of 3e4 steps (139 fit)
    make one block, and 100 seeds of 1e5 steps at p = 3 (13 fit) blocks of
    13.  A scalar block needs ``MIN_BLOCK``.
    """
    fit = max(1, BLOCK_BYTES // (8 * p * (2 * horizon + 1)))
    size = math.ceil(seeds / math.ceil(seeds / fit)) if seeds else 1  # at most fit
    return size if size >= MIN_BLOCK or p > 1 else 1


def rm_fold(
    problem: RootProblem,
    noise: NoiseModel,
    schedule: Schedule,
    x0,
    horizon: int,
    seeds: Sequence,
    fold: Callable,
) -> Iterator:
    """Every seed's path, folded window by window, as one output per seed in seed order.

    ``fold(S)`` starts the carry of S seeds; its ``add(start, xs, ms)`` takes
    a window of them (see :mod:`contractlab.process`) whose first step is
    step ``start + 1``, and its ``outputs()`` gives one output per seed.  When
    the problem has a ``g_block`` and there are several seeds (at least
    ``MIN_BLOCK`` scalar ones), every seed steps together through
    :func:`_step_windows`, one window loop, so memory does not grow with the
    horizon.  Otherwise each seed runs alone through :func:`rm_solve`, whose
    float loop is faster, and its whole path is folded as one window; so does
    every seed once the window loop raised a floating-point error, since
    ``rm_solve``'s ``math`` calls may raise on the overflow.  ``x0`` must hold
    no NaN; paths are bit-identical to ``rm_solve``'s.
    """
    x = _checked_x0(x0)
    together = problem.g_block is not None and len(seeds) > 1
    together &= bool(x.ndim) or len(seeds) >= MIN_BLOCK

    def outputs():
        if together:
            carry = fold(len(seeds))
            with contextlib.suppress(FloatingPointError):  # then every seed runs alone
                windows = _step_windows(problem.g_block, noise, schedule, x, horizon, seeds)
                for start, xs, ms in windows:
                    carry.add(start, xs, ms)
                yield from carry.outputs()
                return
        for seed in seeds:
            carry = fold(1)
            carry.add(0, *rm_solve(problem, noise, schedule, x, horizon, seed).window())
            yield from carry.outputs()

    return outputs()


def _step_windows(g, noise, schedule, x0, horizon, seeds) -> Iterator:
    """Every seed stepped together by ``g_block``, ``SHOCK_CHUNK`` steps at a time.

    Yields ``(start, xs, ms)`` per window: the iterates xs (w + 1, S[, p]),
    the first the one before step ``start + 1``, and the means ms (w, S[, p])
    that each step fills as it goes, ``x - a * g(x)``, so no mean is derived
    twice.  The two buffers are reused: a window is valid until the next one
    is drawn, the last one for good.  Each seed draws its shocks from its own
    generator, straight into the rows of the iterates they update.  Any
    floating-point error but underflow (which is exact in both solvers) raises.
    """
    shape, rows = x0.shape, min(SHOCK_CHUNK, horizon)
    xs = np.empty((rows + 1, len(seeds)) + shape)
    ms = np.empty((rows, len(seeds)) + shape)
    xs[0] = x0
    spans = _spans(horizon)
    streams = [_shocks(noise, seed, spans, shape) for seed in seeds]
    for span in spans:
        if span.start:
            xs[0] = xs[-1]  # the last iterate of the full window before
        w = span.stop - span.start
        x, m = xs[: w + 1], ms[:w]
        al = schedule.alphas(span.stop, span.start)
        with np.errstate(all="raise", under="ignore"):  # not around the yield
            for j, stream in enumerate(streams):
                x[1:, j] = next(stream)
            x[1:] *= al.reshape((-1, 1) + (1,) * len(shape))
            for a, prev, mean, shock in zip(al.tolist(), x, m, x[1:]):
                np.subtract(prev, a * g(prev), out=mean)
                np.subtract(mean, shock, out=shock)
        yield span.start, x, m


class _Paths:
    """The fold that keeps whole paths, for :func:`rm_solve_block`."""

    def __init__(self, horizon: int, shape: tuple, seeds: int):
        self.horizon, self.shape, self.seeds = horizon, shape, seeds
        self.xs = self.ms = None

    def add(self, start: int, xs: np.ndarray, ms: np.ndarray) -> None:
        if len(ms) == self.horizon:  # a whole path, as one window
            self.xs, self.ms = xs, ms
            return
        if self.xs is None:
            self.xs = np.empty((self.horizon + 1, self.seeds) + self.shape)
            self.ms = np.empty((self.horizon, self.seeds) + self.shape)
        self.xs[start : start + len(xs)] = xs
        self.ms[start : start + len(ms)] = ms

    def outputs(self) -> Iterator[ProcessPath]:
        xs, ms, self.xs, self.ms = self.xs, self.ms, None, None
        copy = np.copy if self.seeds > 1 else np.asarray  # a lone seed's arrays are its own
        for j in range(self.seeds):
            yield ProcessPath(copy(xs[:, j]), copy(ms[:, j]))


def rm_solve_block(
    problem: RootProblem,
    noise: NoiseModel,
    schedule: Schedule,
    x0,
    horizon: int,
    seeds: Sequence,
) -> Iterator:
    """Every seed's whole path, in seed order, each bit-identical to :func:`rm_solve`'s.

    Scalar or vector by the shape of ``x0``, which must hold no NaN.  The seeds
    are cut into blocks of :func:`_block_size`, each folded by :func:`rm_fold`
    into its paths, one block's paths alive at a time; a path is handed out as
    a copy of its seed's.  A run that needs no whole path folds its checks
    with :func:`rm_fold` directly, so its memory does not grow with the horizon.
    """
    x = _checked_x0(x0)
    size = _block_size(len(seeds), horizon, x.size) if problem.g_block else 1
    keep = functools.partial(_Paths, horizon, x.shape)
    blocks = (seeds[start : start + size] for start in range(0, len(seeds), size))
    return (
        path
        for block in blocks
        for path in rm_fold(problem, noise, schedule, x, horizon, block, keep)
    )


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Grid envelope of the target map around its root.

    For scalar maps the ratio is g(x)/(x - root); for vector maps ``m_hat`` is
    the smallest normalized inner product <g(x), x>/||x||^2 and ``M_hat`` the
    largest norm ratio ||g(x)||/||x||.  Conclusions hold on the grid only.
    """

    m_hat: float
    M_hat: float
    violations: np.ndarray

    @property
    def holds(self) -> bool:
        return len(self.violations) == 0

    def covers(self, m: float, M: float) -> bool:
        """True when the declared envelope [m, M] is valid on the grid.

        A relative slack of 1e-9 absorbs grid-evaluation rounding when a
        declared bound is attained exactly.
        """
        slack = 1e-9 * max(1.0, abs(m), abs(M))
        return self.holds and m <= self.m_hat + slack and self.M_hat <= M + slack


def _grid_values(problem: RootProblem, grid: np.ndarray) -> np.ndarray:
    """g at every grid point (a row of ``grid`` for a vector map): one ``g_block``
    call, whose floating-point operations on each row are g's, or g point by point."""
    if problem.g_block is not None:
        return np.asarray(problem.g_block(grid), dtype=float)
    if grid.ndim == 2:
        return np.asarray([np.asarray(problem.g(x), dtype=float) for x in grid])
    return np.fromiter((float(problem.g(float(x))) for x in grid), dtype=float, count=len(grid))


def check_linear_envelope(
    problem: RootProblem, grid: Sequence[float], ratio_cap: float = 1e6
) -> EnvelopeReport:
    """Bound g(x)/(x - root) on a grid; flags nonpositive or capped ratios."""
    grid = np.asarray(grid, dtype=float)
    root = float(problem.root)
    offsets = grid - root
    if np.any(offsets == 0):
        raise ValueError("grid must exclude the root")
    gvals = _grid_values(problem, grid)
    ratios = gvals / offsets
    bad = ~((ratios > 0) & (ratios <= ratio_cap))  # a non-finite g value is a violation
    return EnvelopeReport(float(ratios.min()), float(ratios.max()), grid[bad])


def check_norm_envelope(
    problem: RootProblem, grid: np.ndarray, ratio_cap: float = 1e6
) -> EnvelopeReport:
    """Vector envelope: smallest <g(x),x>/||x||^2 and largest ||g(x)||/||x||."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != problem.dimension:
        raise ValueError(f"grid must have shape (k, {problem.dimension})")
    norms2 = np.einsum("ij,ij->i", grid, grid)
    if np.any(norms2 == 0):
        raise ValueError("grid must exclude the origin")
    gvals = _grid_values(problem, grid)
    inner = np.einsum("ij,ij->i", gvals, grid) / norms2
    norm_ratio = row_norms(gvals) / np.sqrt(norms2)
    bad = ~((inner > 0) & (norm_ratio <= ratio_cap))  # a non-finite g value is a violation
    return EnvelopeReport(float(inner.min()), float(norm_ratio.max()), grid[bad])


@dataclass(frozen=True)
class RegularityVerdict(ConditionVerdict):
    """Verdict for the relaxed regularity checks, carrying the annulus infima."""

    annulus_infima: Tuple[Tuple[Tuple[float, float], float], ...] = ()


K_FLOOR = 1e-12


def check_regularity(
    problem: RootProblem,
    grid: Sequence[float],
    c: float,
    d: float,
    delta_pairs: Sequence[Tuple[float, float]],
) -> RegularityVerdict:
    """Linear growth, sign agreement, and annulus-infimum checks on a grid.

    Growth: |g(x)| <= c + d|x|.  Sign: g agrees in sign with x off zero.
    Annulus: for each (d1, d2) the infimum of |g| over d1 <= |x| <= d2 must
    exceed ``K_FLOOR`` (a strict-positivity floor for floating point).  The
    verdict index is the first grid position (0-based) that breaks growth or
    sign, or is not finite; failing that, the first point of the first failing
    annulus whose |g| is at or below ``K_FLOOR``.  A failed growth or sign
    margin (or a non-finite g) is named, with x and g(x), ahead of the infima.
    """
    grid = np.asarray(grid, dtype=float)
    for d1, d2 in delta_pairs:
        if not 0 < d1 < d2 < math.inf:
            raise ValueError(f"invalid annulus pair ({d1}, {d2})")
    gvals = _grid_values(problem, grid)
    absx, absg = np.abs(grid), np.abs(gvals)

    growth = band_check(absg, c + d * absx)
    sign = band_check(np.sign(grid) * gvals, lower=0.0, mask=absx > 0)
    worst = min(growth.worst_margin, sign.worst_margin)
    steps = [b.first_violation for b in (growth, sign) if b.first_violation is not None]
    first_violation = min(steps) - 1 if steps else None  # a band counts its steps from 1
    infima, detail_bits = [], []
    if steps:
        i = first_violation
        if np.isfinite(gvals[i]):
            names = (f"growth |g(x)| <= {c:g} + {d:g}|x|", "sign x*g(x) >= 0")
            failed = [s for s, b in zip(names, (growth, sign)) if b.first_violation == i + 1]
            condition = " and ".join(failed) + (" fail" if len(failed) > 1 else " fails")
        else:
            condition = "g is not finite"
        detail_bits.append(f"{condition} at x = {grid[i]:.6g}: g(x) = {gvals[i]:.6g}")
    for d1, d2 in delta_pairs:
        ring = (absx >= d1) & (absx <= d2)
        k = float(absg[ring].min()) if ring.any() else math.inf
        infima.append(((float(d1), float(d2)), k))
        detail_bits.append(f"inf|g| on [{d1:g},{d2:g}] = {k:.6g}")
        if k <= K_FLOOR:
            worst = min(worst, k - K_FLOOR)
            if first_violation is None:
                first_violation = int(np.argmax(ring & (absg <= K_FLOOR)))
    return RegularityVerdict(
        holds=first_violation is None,
        first_violation=first_violation,
        worst_margin=worst,
        detail="; ".join(detail_bits) if detail_bits else "no annulus pairs supplied",
        annulus_infima=tuple(infima),
    )


def check_ratio_sandwich(
    path: ProcessPath,
    schedule: Schedule,
    m: float,
    M: float,
    x_star: float = 0.0,
) -> ConditionVerdict:
    """Realized mean ratios must lie in [1 - M*alpha_n, 1 - m*alpha_n].

    Checking starts at the first step with M * alpha_n <= 1 (earlier steps can
    overshoot by design) and skips steps whose predecessor equals the root.
    Exact up to ``DEFAULT_ATOL`` because the stored means are exact.
    """
    scalar_only(path, "check_ratio_sandwich")
    al = schedule.alphas(path.horizon)
    checkable = sandwich_checkable(al, m, M)
    band = sandwich_window(*path.window(), al, checkable, m, M, x_star).band(0)
    if checkable.any():
        held = f"{{checked}} steps checked from step {int(np.argmax(checkable)) + 1}"
        empty = "no checkable steps"
    else:
        held, empty = "", "step sizes never satisfy M * alpha <= 1; nothing checked"
    return band.verdict("ratio left the sandwich", held, empty)


def sandwich_checkable(alphas: np.ndarray, m: float, M: float) -> np.ndarray:
    """The steps :func:`check_ratio_sandwich` checks: from the first with M * alpha_n <= 1."""
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    return np.logical_or.accumulate(M * alphas <= 1.0)


def sandwich_window(
    xs, ms, alphas, checkable, m: float, M: float, x_star: float, scratch: Optional[Scratch] = None
) -> Bands:
    """:func:`check_ratio_sandwich`'s band of each scalar seed of a window, whose
    steps have the step sizes ``alphas`` and the mask ``checkable``; its
    arrays are formed in ``scratch`` (see :func:`band_window`), in the
    buffers "prev" and "means" besides the kernel's."""
    work = Scratch() if scratch is None else scratch
    prev = np.subtract(xs[:-1], x_star, out=work.take("prev", ms.shape))
    means = np.subtract(ms, x_star, out=work.take("means", ms.shape))
    return band_window(
        means, column(1.0 - m * alphas), column(1.0 - M * alphas),
        column(checkable) & (prev != 0), atol=DEFAULT_ATOL, over=prev, finite=finite_rows(xs, ms),
        scratch=work,
    )


@dataclass(frozen=True, eq=False)
class TruncatedPath:
    """A path zeroed wherever its predictable mean is small in magnitude.

    ``path`` carries the truncated values/means; ``n0`` is the first step
    index after which every base residual stays below the settling threshold.
    """

    base: ProcessPath
    delta: float
    tau: float
    n0: int
    path: ProcessPath


def derive_truncated(base: ProcessPath, delta: float, tau: float) -> TruncatedPath:
    """Zero out steps whose predictable mean has magnitude below delta + tau.

    The settling index n0 is the first step after which all observed
    |residual| stay below tau; a non-finite residual never counts as settled.
    Raises when residuals never settle within the horizon.
    """
    scalar_only(base, "derive_truncated")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau >= delta:
        warnings.warn("tau >= delta; the truncation guarantees assume tau < delta", stacklevel=2)
    big = np.nonzero(~(np.abs(base.eps) < tau))[0]
    n0 = 1 if len(big) == 0 else int(big[-1]) + 2
    if n0 > base.horizon:
        raise ValueError("residuals never settle below tau within the horizon")
    keep = np.abs(base.ms) >= (delta + tau)
    ms_t = np.where(keep, base.ms, 0.0)
    ms_t[~finite_steps(base)] = math.nan  # truncation must not hide a non-finite step
    xs_t = np.concatenate(([base.x0], np.where(keep, base.xs[1:], 0.0)))
    truncated = ProcessPath(xs_t, ms_t, base.zero_tol)
    return TruncatedPath(base, float(delta), float(tau), n0, truncated)


def truncated_nonexpansive_verdict(trunc: TruncatedPath) -> ConditionVerdict:
    """Nonexpansive ratio check, with no allowance, on the truncated path beyond
    the settling index.

    Steps up to and including n0 may involve an unsettled residual and are
    excluded, unless they are non-finite.  A violation is reported by its step
    on the whole path.
    """
    n0, horizon = trunc.n0, trunc.path.horizon
    band = ratio_band(trunc.path, 1.0, 0.0, np.arange(horizon) >= n0, DEFAULT_ATOL)
    if n0 == horizon and band.first_violation is None:
        return vacuous("no steps beyond the settling index")
    return _ratio_verdict(band)


def check_truncated_zero_mean_bound(trunc: TruncatedPath, kappa: float) -> ConditionVerdict:
    """Restart means of the truncated path obey |u| <= |base u| + delta + 2*tau + kappa.

    ``kappa`` bounds the base mean magnitude whenever the base state sits in
    (0, delta]; checked at every step from the settling index onward.
    """
    base, path = trunc.base, trunc.path
    u_base = np.where(zero_state_mask(base), base.ms, 0.0)
    u_t = np.where(zero_state_mask(path), path.ms, 0.0)
    allowance = np.abs(u_base) + trunc.delta + 2.0 * trunc.tau + kappa
    late = np.arange(1, base.horizon + 1) >= trunc.n0
    band = band_check(
        np.abs(u_t), allowance, mask=late, atol=DEFAULT_ATOL, finite=finite_steps(path)
    )
    return band.verdict(
        "restart mean exceeds the truncation allowance",
        f"{{checked}} steps checked from step {trunc.n0}",
        "no steps checked",
    )


def contraction_factor(alphas, m: float, M: float) -> np.ndarray:
    """Per-step norm contraction factors sqrt(1 - 2*alpha*m + alpha**2 * M**2)
    of a step size or an array of them.

    For 0 < m <= M the radicand is at least (1 - alpha*m)**2, so a negative
    one is rounding and reads as 0.
    """
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    a = np.asarray(alphas, dtype=float)
    if np.any(a < 0):
        raise ValueError("alpha must be nonnegative")
    return np.sqrt(np.maximum(1.0 - 2.0 * a * m + a * a * M * M, 0.0))


def signed_log_grid(min_abs: float, max_abs: float, per_decade: int = 10_000) -> np.ndarray:
    """Log-spaced grid points of both signs spanning [min_abs, max_abs]."""
    if not 0 < min_abs < max_abs:
        raise ValueError("need 0 < min_abs < max_abs")
    decades = math.log10(max_abs / min_abs)
    count = max(2, int(round(per_decade * decades)))
    mags = np.logspace(math.log10(min_abs), math.log10(max_abs), count)
    return np.concatenate((-mags[::-1], mags))


def sphere_grid(p: int, directions: int, radii: Sequence[float], seed: int = 0) -> np.ndarray:
    """Deterministic grid of random directions scaled by the given radii."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(directions, p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.asarray(radii, dtype=float)
    return (dirs[None, :, :] * radii[:, None, None]).reshape(-1, p)
