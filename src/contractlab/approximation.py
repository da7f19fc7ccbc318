"""Robbins-Monro root solvers and the regularity checks that justify them.

The solvers store the exact predictable mean of every step: each update first
applies the drift x - alpha * g(x) and then subtracts alpha times a zero-mean
shock, so the stored mean is the true conditional mean of the realized value
as a floating-point number, not an approximation of it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .conditions import _ratio_verdict
from .process import ProcessPath, finite_steps, ratio_band, scalar_only, zero_state_mask
from .verdict import DEFAULT_ATOL, ConditionVerdict, band_check, vacuous

__all__ = [
    "RootProblem",
    "NoiseModel",
    "Schedule",
    "EnvelopeReport",
    "RegularityVerdict",
    "TruncatedPath",
    "rm_solve",
    "rm_solve_block",
    "block_size",
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
    (shape (k,) or (k, p)), with the same floating-point operations as ``g``
    on each row; :func:`rm_solve_block` needs it for a block of two or more
    seeds, on the seeds of one step and on the steps of one seed.
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
    ``cond_var_bound`` dominates the per-coordinate conditional variance.
    """

    draw: Callable[[np.random.Generator, tuple], np.ndarray]
    cond_var_bound: float

    @classmethod
    def gaussian(cls, sd: float) -> "NoiseModel":
        if sd < 0:
            raise ValueError("sd must be nonnegative")
        return cls(lambda rng, shape: rng.normal(0.0, sd, size=shape), sd * sd)

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseModel":
        if half_width < 0:
            raise ValueError("half_width must be nonnegative")
        return cls(
            lambda rng, shape: rng.uniform(-half_width, half_width, size=shape),
            half_width * half_width / 3.0,
        )

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(lambda rng, shape: np.zeros(shape), 0.0)


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

    def alphas(self, horizon: int) -> np.ndarray:
        n = np.arange(1, horizon + 1, dtype=float)
        if self.kind == "inverse_n":
            return self.c / n
        if self.kind == "inverse_n_power":
            return self.c / n**self.gamma
        vals = self.explicit_values
        if len(vals) < horizon:
            raise ValueError(f"explicit schedule covers {len(vals)} steps < horizon {horizon}")
        return vals[:horizon].copy()

    def sum_at(self, horizon: int) -> float:
        return float(self.alphas(horizon).sum())

    def sum_sq_at(self, horizon: int) -> float:
        a = self.alphas(horizon)
        return float((a * a).sum())

    @property
    def summable(self) -> Optional[bool]:
        if self.kind == "inverse_n":
            return False
        if self.kind == "inverse_n_power":
            return self.gamma > 1.0
        return None


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


# The iterates of one block of seeds (8 bytes per value) stay within this
# budget, so a block's working set does not grow with the seeds; the shock
# chunk and the means, derived one seed at a time, come on top.
BLOCK_BYTES = 32 << 20
# A block step of the scalar sine map costs 6-15 µs for 1 to 128 seeds, about
# what 16 per-seed steps cost (2-vCPU Xeon VM); below this many seeds per block,
# stepping those seeds one at a time in the scalar float loop is faster.  A
# vector seed stepped alone already makes numpy calls, so vectors have no
# floor: for the p = 3 matrix map, blocks of 2 and 8 cost 4.3 and 1.4 µs per
# seed-step against 6.9 µs per step seed by seed.
MIN_BLOCK = 16


def block_size(seeds: int, horizon: int, p: int = 1) -> int:
    """Seeds per :func:`rm_solve_block` call, or 1 when seed by seed is faster.

    As many blocks as ``BLOCK_BYTES`` of iterates requires, as even as
    possible: at 32 MiB, 100 seeds of 3e4 steps (139 fit) run as one block,
    and 100 seeds of 1e5 steps at p = 3 (13 fit) in blocks of 13.  Only a
    scalar block needs ``MIN_BLOCK`` seeds.
    """
    fit = max(1, BLOCK_BYTES // (8 * p * (horizon + 1)))
    size = math.ceil(seeds / math.ceil(seeds / fit))  # at most fit
    return size if size >= MIN_BLOCK or p > 1 else 1


def rm_solve_block(
    problem: RootProblem,
    noise: NoiseModel,
    schedule: Schedule,
    x0,
    horizon: int,
    seeds: Sequence,
) -> Iterator:
    """Step a block of seeds together; return their paths, in seed order.

    Each path is bit-identical to :func:`rm_solve`'s for that seed, scalar or
    vector by the shape of ``x0``; one seed alone is run by :func:`rm_solve`,
    whose float loop is faster.  Each seed of a block draws its shocks from its
    own generator, ``SHOCK_CHUNK`` steps at a time into one
    (chunk, B[, p]) buffer, and ``problem.g_block`` repeats ``g``'s
    operations.  The block keeps only the time-major iterates ``xs``
    (H+1, B[, p]).  Each seed's means are derived as its path is handed out,
    ``xs[:-1] - alpha * g_block(xs[:-1])``: the operations the step loop
    applied, so they are its exact means.  Any floating-point error but
    underflow (which is exact in both solvers) raises, so a seed whose values
    overflow is left to run alone, where its ``math`` calls may raise on it.
    """
    if len(seeds) == 1:
        return iter([rm_solve(problem, noise, schedule, x0, horizon, seeds[0])])
    shape = _checked_x0(x0).shape
    xs = np.empty((horizon + 1, len(seeds)) + shape)
    xs[0] = x0
    al = schedule.alphas(horizon)
    g = problem.g_block
    spans = _spans(horizon)
    streams = [_shocks(noise, seed, spans, shape) for seed in seeds]
    buffer = np.empty((min(SHOCK_CHUNK, horizon), len(seeds)) + shape)
    with np.errstate(all="raise", under="ignore"):
        for span in spans:
            shocks = buffer[: span.stop - span.start]
            for j, stream in enumerate(streams):
                shocks[:, j] = next(stream)
            shocks *= al[span].reshape((-1, 1) + (1,) * len(shape))
            for i, a in enumerate(al[span].tolist(), span.start):
                x = xs[i]
                np.subtract(x - a * g(x), shocks[i - span.start], out=xs[i + 1])
    al = al.reshape((-1,) + (1,) * len(shape))

    def paths():
        for j in range(len(seeds)):
            path = xs[:, j].copy()
            prev = path[:-1]
            yield ProcessPath(path, prev - al * g(prev))

    return paths()


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


def check_linear_envelope(
    problem: RootProblem, grid: Sequence[float], ratio_cap: float = 1e6
) -> EnvelopeReport:
    """Bound g(x)/(x - root) on a grid; flags nonpositive or capped ratios."""
    grid = np.asarray(grid, dtype=float)
    root = float(problem.root)
    offsets = grid - root
    if np.any(offsets == 0):
        raise ValueError("grid must exclude the root")
    gvals = np.fromiter((float(problem.g(float(x))) for x in grid), dtype=float, count=len(grid))
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
    gvals = np.asarray([np.asarray(problem.g(x), dtype=float) for x in grid])
    inner = np.einsum("ij,ij->i", gvals, grid) / norms2
    norm_ratio = np.linalg.norm(gvals, axis=1) / np.sqrt(norms2)
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
    verdict index refers to a grid position.  A failed growth or sign margin
    (or a non-finite g) is named, with x and g(x), ahead of the infima.
    """
    grid = np.asarray(grid, dtype=float)
    for d1, d2 in delta_pairs:
        if not 0 < d1 < d2 < math.inf:
            raise ValueError(f"invalid annulus pair ({d1}, {d2})")
    gvals = np.fromiter((float(problem.g(float(x))) for x in grid), dtype=float, count=len(grid))
    absx = np.abs(grid)

    growth_margin = (c + d * absx) - np.abs(gvals)
    nz = absx > 0
    sign_margin = np.where(nz, np.sign(grid) * gvals, np.inf)

    margins = np.where(np.isfinite(gvals), np.minimum(growth_margin, sign_margin), -math.inf)
    infima = []
    detail_bits = []
    worst = float(margins.min()) if len(margins) else math.inf
    first_violation = None
    if worst < 0:
        first_violation = i = int(np.argmin(margins))
        if np.isfinite(gvals[i]):
            failed = [f"growth |g(x)| <= {c:g} + {d:g}|x|"] if growth_margin[i] < 0 else []
            failed += ["sign x*g(x) >= 0"] if sign_margin[i] < 0 else []
            condition = " and ".join(failed) + (" fail" if len(failed) > 1 else " fails")
        else:
            condition = "g is not finite"
        detail_bits.append(f"{condition} at x = {grid[i]:.6g}: g(x) = {gvals[i]:.6g}")
    for d1, d2 in delta_pairs:
        ring = (absx >= d1) & (absx <= d2)
        k = float(np.abs(gvals[ring]).min()) if ring.any() else math.inf
        infima.append(((float(d1), float(d2)), k))
        detail_bits.append(f"inf|g| on [{d1:g},{d2:g}] = {k:.6g}")
        if k <= K_FLOOR:
            worst = min(worst, k - K_FLOOR)
            if first_violation is None:
                ring_idx = np.nonzero(ring)[0]
                first_violation = int(ring_idx[np.argmin(np.abs(gvals[ring]))])
    holds = first_violation is None
    return RegularityVerdict(
        holds=holds,
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
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    al = schedule.alphas(path.horizon)
    checkable = np.logical_or.accumulate(M * al <= 1.0)
    prev = path.xs[:-1] - x_star
    band = band_check(
        path.ms - x_star, 1.0 - m * al, 1.0 - M * al, checkable & (prev != 0),
        atol=DEFAULT_ATOL, over=prev, finite=finite_steps(path),
    )
    if checkable.any():
        held = f"{{checked}} steps checked from step {int(np.argmax(checkable)) + 1}"
        empty = "no checkable steps"
    else:
        held, empty = "", "step sizes never satisfy M * alpha <= 1; nothing checked"
    return band.verdict("ratio left the sandwich", held, empty)


@dataclass(frozen=True, eq=False)
class TruncatedPath:
    """A path zeroed wherever its predictable mean is small in magnitude.

    ``path`` carries the truncated values/means; ``n0`` is the first step
    index after which every base residual stays below the settling threshold;
    ``zero_state_mean[n-1]`` is the truncated step mean when the truncated
    predecessor is zero-class, else 0.
    """

    base: ProcessPath
    delta: float
    tau: float
    n0: int
    path: ProcessPath
    zero_state_mean: np.ndarray


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
    zmask = np.abs(xs_t[:-1]) <= base.zero_tol
    u_t = np.where(zmask, ms_t, 0.0)
    return TruncatedPath(base, float(delta), float(tau), n0, truncated, u_t)


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
    base = trunc.base
    u_base = np.where(zero_state_mask(base), base.ms, 0.0)
    allowance = np.abs(u_base) + trunc.delta + 2.0 * trunc.tau + kappa
    late = np.arange(1, base.horizon + 1) >= trunc.n0
    band = band_check(
        np.abs(trunc.zero_state_mean), allowance, mask=late, atol=DEFAULT_ATOL,
        finite=finite_steps(trunc.path),
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
