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

from .conditions import NonexpansiveProfile, _ratio_verdict
from .process import ProcessPath, VectorProcessPath, finite_steps, ratio_band, zero_state_mask
from .verdict import ConditionVerdict, band_check, vacuous

__all__ = [
    "DomainExitError",
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


class DomainExitError(RuntimeError):
    """Raised under the "reject" domain policy when an iterate leaves the domain."""

    def __init__(self, step: int, value: float):
        super().__init__(f"iterate left the domain at step {step}: {value!r}")
        self.step = step
        self.value = value


@dataclass(frozen=True, eq=False)
class RootProblem:
    """A deterministic target map g whose root is sought from noisy evaluations.

    ``domain`` is an interval (lo, hi); for vector problems the bounds apply
    componentwise and either bound may be a per-axis array (a box).  When
    ``x_star`` is supplied it must actually be a root (|g| at most 1e-12).
    ``g_block``, when given, evaluates g on a block of iterates, one row per
    seed (shape (B,) or (B, p)), with the same floating-point operations as
    ``g`` on each row; :func:`rm_solve_block` needs it.
    """

    g: Callable
    domain: Tuple = (-math.inf, math.inf)
    x_star: Optional[float | np.ndarray] = None
    dimension: int = 1
    g_block: Optional[Callable] = None

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not np.all(np.asarray(lo) < np.asarray(hi)):
            raise ValueError("domain must be a nonempty interval or box (lo, hi)")
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
    label: str = "custom"

    @classmethod
    def gaussian(cls, sd: float) -> "NoiseModel":
        if sd < 0:
            raise ValueError("sd must be nonnegative")
        return cls(lambda rng, shape: rng.normal(0.0, sd, size=shape), sd * sd, f"gaussian(sd={sd:g})")

    @classmethod
    def uniform(cls, half_width: float) -> "NoiseModel":
        if half_width < 0:
            raise ValueError("half_width must be nonnegative")
        return cls(
            lambda rng, shape: rng.uniform(-half_width, half_width, size=shape),
            half_width * half_width / 3.0,
            f"uniform(half_width={half_width:g})",
        )

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(lambda rng, shape: np.zeros(shape), 0.0, "noiseless")


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


def _domain_step(x: float, lo: float, hi: float, policy: str, step: int) -> float:
    if lo <= x <= hi:
        return x
    if policy == "project":
        return min(max(x, lo), hi)
    raise DomainExitError(step, x)


def _checked_x0(problem: RootProblem, x0) -> np.ndarray:
    """``x0`` as a float array; every entry must lie in the domain (NaN does not)."""
    x = np.asarray(x0, dtype=float)
    lo, hi = problem.domain
    if not np.all((lo <= x) & (x <= hi)):
        raise ValueError(f"x0 = {x.tolist()!r} outside the domain")
    return x


def rm_solve(
    problem: RootProblem,
    noise: NoiseModel,
    schedule: Schedule,
    x0,
    horizon: int,
    seed,
    domain_policy: str = "unbounded",
) -> ProcessPath | VectorProcessPath:
    """Run the root-finding iteration x_n = x_{n-1} - alpha_n * sample_n.

    A scalar ``x0`` gives a :class:`ProcessPath`; a vector one, of shape
    ``(problem.dimension,)``, gives a :class:`VectorProcessPath`, and the
    domain interval then applies per axis.  A vector of length 1 consumes the
    same shock stream as the scalar, so equal seeds give bit-identical
    trajectories.  The returned path stores the exact predictable mean
    x - alpha * g(x) of every step.  ``domain_policy`` is one of "unbounded"
    (default), "project" (clip iterates to the domain; stored means then
    describe the unclipped update), or "reject" (raise
    :class:`DomainExitError` on an excursion).
    """
    if domain_policy not in ("unbounded", "project", "reject"):
        raise ValueError(f"unknown domain policy {domain_policy!r}")
    x = _checked_x0(problem, x0)
    if x.ndim and x.shape != (problem.dimension,):
        raise ValueError(f"x0 must have shape ({problem.dimension},)")
    rng = np.random.default_rng(seed)
    al = schedule.alphas(horizon)
    shape = (horizon,) + x.shape
    steps = np.asarray(noise.draw(rng, shape), dtype=float) * al.reshape((-1,) + (1,) * x.ndim)
    g = problem.g
    guarded = domain_policy != "unbounded"
    if not x.ndim:
        lo, hi = (float(b) for b in problem.domain)  # scalar solve needs interval bounds
        x = float(x)
        steps = steps.tolist()
        xs = [x]
        ms = []
        for i, a in enumerate(al.tolist()):
            m = x - a * float(g(x))
            x = m - steps[i]
            if guarded:
                x = _domain_step(x, lo, hi, domain_policy, i + 1)
            ms.append(m)
            xs.append(x)
        return ProcessPath(np.array(xs), np.array(ms))
    lo, hi = problem.domain
    xs = np.empty((horizon + 1,) + x.shape)
    ms = np.empty(shape)
    xs[0] = x
    for i in range(horizon):
        m = ms[i]
        np.subtract(x, al[i] * np.asarray(g(x), dtype=float), out=m)
        x = xs[i + 1]
        np.subtract(m, steps[i], out=x)
        if guarded and (np.any(x < lo) or np.any(x > hi)):
            if domain_policy == "project":
                np.clip(x, lo, hi, out=x)
            else:
                raise DomainExitError(i + 1, x.copy())
    return VectorProcessPath(xs, ms)


# The path arrays of one block of seeds (xs and ms, 8 bytes per value) stay
# within this budget, so a block's working set does not grow with the seeds.
BLOCK_BYTES = 32 << 20
# A block step of the sine map costs 6-15 µs for 1 to 128 seeds, about what 16
# per-seed steps cost (2-vCPU Xeon VM); below this many seeds per block,
# stepping the seeds one at a time is faster.
MIN_BLOCK = 16


def block_size(seeds: int, horizon: int, p: int = 1) -> int:
    """Seeds per :func:`rm_solve_block` call, or 0 when seed by seed is faster.

    As many blocks as ``BLOCK_BYTES`` requires, as even as possible: at 32 MiB,
    100 seeds of 3e4 steps (69 fit) run as two blocks of 50.
    """
    fit = BLOCK_BYTES // (8 * p * (2 * horizon + 1))
    if fit < MIN_BLOCK:
        return 0
    size = math.ceil(seeds / math.ceil(seeds / fit))
    return size if size >= MIN_BLOCK else 0


def rm_solve_block(
    problem: RootProblem,
    noise: NoiseModel,
    schedule: Schedule,
    x0,
    horizon: int,
    seeds: Sequence,
) -> Iterator:
    """Step a block of seeds together; return their paths, in seed order.

    Each path is bit-identical to :func:`rm_solve`'s for that seed (a
    :class:`ProcessPath` or a :class:`VectorProcessPath`, by the shape of
    ``x0``; "unbounded" domain policy).  Each seed draws its shocks from its
    own generator, and ``problem.g_block`` repeats ``g``'s operations.  The
    arrays are time-major, ``xs`` (H+1, B[, p]) and ``ms`` (H, B[, p]); the
    shocks are drawn into ``ms`` and overwritten by the means.  Any
    floating-point error but underflow (which is exact in both solvers)
    raises, so a seed whose values overflow is left to the per-seed solvers,
    whose ``math`` calls may raise on it.
    """
    shape = _checked_x0(problem, x0).shape
    xs = np.empty((horizon + 1, len(seeds)) + shape)
    ms = np.empty((horizon, len(seeds)) + shape)
    for j, seed in enumerate(seeds):
        ms[:, j] = noise.draw(np.random.default_rng(seed), (horizon,) + shape)
    xs[0] = x0
    al = schedule.alphas(horizon)
    g = problem.g_block
    with np.errstate(all="raise", under="ignore"):
        ms *= al.reshape((horizon, 1) + (1,) * len(shape))
        for i, a in enumerate(al.tolist()):
            x = xs[i]
            m = x - a * g(x)
            np.subtract(m, ms[i], out=xs[i + 1])
            ms[i] = m
    path = VectorProcessPath if shape else ProcessPath
    return (path(xs[:, j].copy(), ms[:, j].copy()) for j in range(len(seeds)))


@dataclass(frozen=True, eq=False)
class EnvelopeReport:
    """Grid envelope of the target map around its root.

    For scalar maps the ratio is g(x)/(x - root); for vector maps ``m_hat`` is
    the smallest normalized inner product <g(x), x>/||x||^2 and ``M_hat`` the
    largest norm ratio ||g(x)||/||x||.  Conclusions hold on the grid only.
    """

    m_hat: float
    M_hat: float
    grid: np.ndarray
    violations: np.ndarray
    ratio_cap: float

    @property
    def holds(self) -> bool:
        return len(self.violations) == 0

    def covers(self, m: float, M: float, rtol: float = 1e-9) -> bool:
        """True when the declared envelope [m, M] is valid on the grid.

        A relative slack absorbs grid-evaluation rounding when a declared
        bound is attained exactly.
        """
        slack = rtol * max(1.0, abs(m), abs(M))
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
    return EnvelopeReport(
        m_hat=float(ratios.min()),
        M_hat=float(ratios.max()),
        grid=grid,
        violations=grid[bad],
        ratio_cap=ratio_cap,
    )


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
    return EnvelopeReport(
        m_hat=float(inner.min()),
        M_hat=float(norm_ratio.max()),
        grid=grid,
        violations=grid[bad],
        ratio_cap=ratio_cap,
    )


@dataclass(frozen=True)
class RegularityVerdict(ConditionVerdict):
    """Verdict for the relaxed regularity checks, carrying the annulus infima."""

    annulus_infima: Tuple[Tuple[Tuple[float, float], float], ...] = ()


def check_regularity(
    problem: RootProblem,
    grid: Sequence[float],
    c: float,
    d: float,
    delta_pairs: Sequence[Tuple[float, float]],
    k_floor: float = 1e-12,
) -> RegularityVerdict:
    """Linear growth, sign agreement, and annulus-infimum checks on a grid.

    Growth: |g(x)| <= c + d|x|.  Sign: g agrees in sign with x off zero.
    Annulus: for each (d1, d2) the infimum of |g| over d1 <= |x| <= d2 must
    exceed ``k_floor`` (a strict-positivity floor for floating point).  The
    verdict index refers to a grid position.
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
        first_violation = int(np.argmin(margins))
    for d1, d2 in delta_pairs:
        ring = (absx >= d1) & (absx <= d2)
        k = float(np.abs(gvals[ring]).min()) if ring.any() else math.inf
        infima.append(((float(d1), float(d2)), k))
        detail_bits.append(f"inf|g| on [{d1:g},{d2:g}] = {k:.6g}")
        if k <= k_floor:
            worst = min(worst, k - k_floor)
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
    atol: float = 1e-12,
) -> ConditionVerdict:
    """Realized mean ratios must lie in [1 - M*alpha_n, 1 - m*alpha_n].

    Checking starts at the first step with M * alpha_n <= 1 (earlier steps can
    overshoot by design) and skips steps whose predecessor equals the root.
    Exact up to ``atol`` because the stored means are exact.
    """
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    al = schedule.alphas(path.horizon)
    checkable = np.logical_or.accumulate(M * al <= 1.0)
    prev = path.xs[:-1] - x_star
    band = band_check(
        path.ms - x_star, 1.0 - m * al, 1.0 - M * al, checkable & (prev != 0),
        atol=atol, over=prev, finite=finite_steps(path),
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


def derive_truncated(
    base: ProcessPath, delta: float, tau: float, settle_tol: Optional[float] = None
) -> TruncatedPath:
    """Zero out steps whose predictable mean has magnitude below delta + tau.

    ``settle_tol`` (default tau) defines the settling index n0: the first step
    after which all observed |residual| stay below it; a non-finite residual
    never counts as settled.  Raises when residuals never settle within the
    horizon.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if tau >= delta:
        warnings.warn("tau >= delta; the truncation guarantees assume tau < delta", stacklevel=2)
    st = tau if settle_tol is None else settle_tol
    big = np.nonzero(~(np.abs(base.eps) < st))[0]
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


def truncated_nonexpansive_verdict(
    trunc: TruncatedPath, alphas: Optional[np.ndarray] = None, atol: float = 1e-12
) -> ConditionVerdict:
    """Nonexpansive ratio check on the truncated path beyond the settling index.

    Steps up to and including n0 may involve an unsettled residual and are
    excluded, unless they are non-finite; the default allowance is zero.  A
    violation is reported by its step on the whole path.
    """
    n0, horizon = trunc.n0, trunc.path.horizon
    allowance = np.zeros(horizon)
    if alphas is not None and n0 < horizon:
        tail = NonexpansiveProfile(np.asarray(alphas, dtype=float)[n0:]).alphas
        if len(tail) < horizon - n0:
            raise ValueError("profile does not cover the path horizon")
        allowance[n0:] = tail[: horizon - n0]
    band = ratio_band(trunc.path, 1.0 + allowance, 0.0, np.arange(horizon) >= n0, atol)
    if n0 == horizon and band.first_violation is None:
        return vacuous("no steps beyond the settling index")
    return _ratio_verdict(band)


def check_truncated_zero_mean_bound(
    trunc: TruncatedPath, kappa: float, atol: float = 1e-12
) -> ConditionVerdict:
    """Restart means of the truncated path obey |u| <= |base u| + delta + 2*tau + kappa.

    ``kappa`` bounds the base mean magnitude whenever the base state sits in
    (0, delta]; checked at every step from the settling index onward.
    """
    base = trunc.base
    u_base = np.where(zero_state_mask(base), base.ms, 0.0)
    allowance = np.abs(u_base) + trunc.delta + 2.0 * trunc.tau + kappa
    late = np.arange(1, base.horizon + 1) >= trunc.n0
    band = band_check(
        np.abs(trunc.zero_state_mean), allowance, mask=late, atol=atol,
        finite=finite_steps(trunc.path),
    )
    return band.verdict(
        "restart mean exceeds the truncation allowance",
        f"{{checked}} steps checked from step {trunc.n0}",
        "no steps checked",
    )


def contraction_factor(alpha: float, m: float, M: float) -> float:
    """Per-step norm contraction factor sqrt(1 - 2*alpha*m + alpha**2 * M**2)."""
    if not 0 < m <= M:
        raise ValueError("need 0 < m <= M")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    rad = 1.0 - 2.0 * alpha * m + alpha * alpha * M * M
    if rad < 0:
        raise ValueError(f"step size {alpha:g} too large for envelope ({m:g}, {M:g})")
    return math.sqrt(rad)


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
