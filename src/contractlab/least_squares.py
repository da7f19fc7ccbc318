"""Controlled linear models, recursive least squares, and weighted score processes.

The regressor at each step may depend on everything observed so far (a
controlled design), which makes the Gram matrix random.  The estimator state
maintains its inverse by rank-one updates with periodic dense re-baselining,
and the weighted score process turns per-component consistency into the same
drift conditions checked elsewhere in this package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .process import VectorProcessPath
from .verdict import ConditionVerdict, failing, passing, vacuous

__all__ = [
    "RegressionModel",
    "DesignContext",
    "LsState",
    "LsRun",
    "GWeight",
    "DesignConditionReport",
    "IntegralBoundResult",
    "PartitionReport",
    "simulate_ls_runs",
    "z_process",
    "check_design_conditions",
    "integral_bound",
    "partition_analysis",
    "rotating_design",
    "geometric_one_design",
    "iid_gaussian_design",
    "feedback_design",
]

REBASE_EVERY = 512


def _quad_to_infinity(integrand: Callable[[float], float], lower: float) -> Optional[float]:
    """Integrate to infinity, returning None when the tail looks divergent.

    Divergent tails surface as large relative error estimates (slowly decaying
    integrands that do converge stay far below the 1e-3 threshold).
    """
    import warnings

    from scipy import integrate  # about 50 MB and 0.5 s to import; only this tail needs it

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(integrand, lower, np.inf)
    if not math.isfinite(value) or err > 1e-3 * max(1.0, abs(value)):
        return None
    return float(value)


@dataclass
class DesignContext:
    """What a controlled design may look at when choosing the next regressor."""

    n: int
    prev_x: Optional[np.ndarray]
    prev_y: Optional[float]
    prev_u: Optional[float]
    estimate: Optional[np.ndarray]


@dataclass(frozen=True)
class RegressionModel:
    """True coefficients, a (possibly controlled) design rule, and noise scale.

    ``design(rng, ctx)`` returns the next regressor and may use the context,
    which carries only information available before the new observation.
    ``noise_draw`` defaults to centered Gaussian with standard deviation
    ``sigma``; any replacement must keep conditional mean zero and conditional
    variance at most ``sigma**2``.
    """

    beta: np.ndarray
    design: Callable[[np.random.Generator, DesignContext], np.ndarray]
    sigma: float
    noise_draw: Optional[Callable[[np.random.Generator], float]] = None

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1:
            raise ValueError("beta must be a vector")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "beta", beta)

    @property
    def p(self) -> int:
        return len(self.beta)


class LsState:
    """Running least-squares state of a block of seeds.

    Each seed's inverse Gram is created by a dense solve at its first
    nonsingular step, then maintained by rank-one (Sherman-Morrison) updates
    and re-baselined by a dense solve every ``REBASE_EVERY`` steps of that
    seed to cap drift.  The Gram matrix must stay finite until it is
    nonsingular: a non-finite one raises ``ValueError`` naming the step.

    ``LsState(p, seeds)`` carries a leading seed axis: ``gram`` and
    ``gram_inv`` are (seeds, p, p), ``score``, ``energy`` and ``estimate``
    (seeds, p), ``first_nonsingular`` and ``singular`` (seeds,), and
    ``update`` takes (seeds, p) regressors and (seeds,) responses.  A seed's
    ``estimate`` row is NaN and its ``first_nonsingular`` entry 0 while its
    Gram matrix is singular.  Every seed goes through the same per-matrix
    kernels, so a block is bit-identical to its seeds run one at a time.
    """

    def __init__(self, p: int, seeds: int):
        if p < 1:
            raise ValueError("p must be positive")
        if seeds < 1:
            raise ValueError("seeds must be positive")
        self.p = p
        self.seeds = seeds
        self.n = 0
        # one accumulator per seed: the Gram matrix, then the score as column p
        # (each column energy is a diagonal entry, summed in the same order)
        self._aug = np.zeros((seeds, p, p + 1))
        self._score = self._aug[:, :, p:]
        self._inv = np.zeros((seeds, p, p))
        self._est = np.full((seeds, p), np.nan)
        self._n0 = np.zeros(seeds, dtype=int)
        self._pending = np.arange(seeds)  # seeds whose Gram matrix is still singular
        self._due = np.full(seeds, np.iinfo(int).max)  # step of each seed's next rebase
        self._next_due = int(self._due[0])

    gram = property(lambda self: self._aug[:, :, : self.p])
    gram_inv = property(lambda self: self._inv)
    score = property(lambda self: self._score[:, :, 0])
    energy = property(lambda self: np.diagonal(self._aug, axis1=1, axis2=2))
    estimate = property(lambda self: self._est)
    singular = property(lambda self: self._n0 == 0)
    first_nonsingular = property(lambda self: self._n0)

    def update(self, x, y) -> "LsState":
        """Fold one observation per seed into the state (in place; returns it)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = (self.seeds, self.p)
        if x.shape != shape or y.shape != shape[:-1]:
            raise ValueError(f"regressors must have shape {shape} and responses {shape[:-1]}")
        self._step(np.concatenate((x, y[:, None]), axis=1), np.empty(shape))
        return self

    def _step(self, xy: np.ndarray, out: np.ndarray) -> None:
        """Fold rows (x, y) of ``xy`` (S, p + 1) in and write the estimates to ``out``."""
        self.n += 1
        n = self.n
        X = xy[:, : self.p]
        self._aug += X[:, :, None] * xy[:, None, :]
        self._est = out
        pending = self._pending
        if not pending.size:  # steady phase: every seed is nonsingular
            inv = self._inv
            bx = inv @ X[:, :, None]
            inv -= bx * bx.transpose(0, 2, 1) / (1.0 + X[:, None, :] @ bx)
            if n == self._next_due:
                self._rebase(n)
            np.matmul(self._inv, self._score, out=out[:, :, None])
            return
        ready = np.flatnonzero(self._n0)
        if ready.size:
            inv, Xr = self._inv[ready], X[ready]
            bx = inv @ Xr[:, :, None]
            inv -= bx * bx.transpose(0, 2, 1) / (1.0 + Xr[:, None, :] @ bx)
            self._inv[ready] = inv
            if n == self._next_due:
                self._rebase(n)
        grams = self._aug[pending, :, : self.p]
        if not np.isfinite(grams).all():
            raise ValueError(f"non-finite gram matrix at step {n}, before it was nonsingular")
        if n >= self.p:
            full = np.linalg.matrix_rank(grams) == self.p
            if full.any():
                fresh = pending[full]
                self._inv[fresh] = np.linalg.inv(grams[full])
                self._n0[fresh] = n
                self._due[fresh] = n + REBASE_EVERY
                self._next_due = int(self._due.min())
                self._pending = pending[~full]
                ready = np.flatnonzero(self._n0)
        out[:] = np.nan
        out[ready] = (self._inv[ready] @ self._score[ready])[:, :, 0]

    def _rebase(self, n: int) -> None:
        due = self._due == n
        grams = self._aug[:, :, : self.p]
        if due.all():
            self._inv = np.linalg.inv(grams)
        else:
            self._inv[due] = np.linalg.inv(grams[due])
        self._due[due] += REBASE_EVERY
        self._next_due = int(self._due.min())


@dataclass(frozen=True, eq=False)
class GWeight:
    """A nondecreasing positive weight function with an inverse-square tail.

    ``tail(c)`` evaluates the integral of fn(x)**-2 from c to infinity,
    analytically when ``tail_integral`` is supplied and numerically otherwise.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    tail_integral: Optional[Callable[[float], float]] = None

    def __call__(self, x):
        return self.fn(x)

    def tail(self, c: float) -> float:
        if c <= 0:
            raise ValueError("tail cutoff must be positive")
        if self.tail_integral is not None:
            return float(self.tail_integral(c))
        value = _quad_to_infinity(lambda x: float(self.fn(x)) ** -2, c)
        if value is None:
            raise ValueError(f"tail integral of {self.label} did not converge beyond {c:g}")
        return value

    @classmethod
    def identity(cls) -> "GWeight":
        return cls(lambda x: np.asarray(x, dtype=float), "identity", lambda c: 1.0 / c)

    @classmethod
    def sqrt_log(cls) -> "GWeight":
        return cls(
            lambda x: np.sqrt(np.asarray(x, dtype=float)) * (1.0 + np.log1p(x)),
            "sqrt_log",
        )


@dataclass(frozen=True)
class IntegralBoundResult:
    """Partial sum sum a_n / f(A_n) and its closed-form cap a_1 / f(A_1) plus
    the tail integral of 1/f."""

    partial_sum: float
    bound: float

    @property
    def holds(self) -> bool:
        return self.partial_sum <= self.bound


def integral_bound(
    a: Sequence[float],
    f: Callable[[float], float],
    N: Optional[int] = None,
    tail_integral: Optional[float] = None,
) -> IntegralBoundResult:
    """Cap sum_{n<=N} a_n / f(A_n) by a_1/f(A_1) plus the tail integral of 1/f.

    ``f`` must be nondecreasing and positive with an integrable reciprocal
    beyond a_1; the first weight must be positive.  The tail integral is
    ``tail_integral`` when given, else computed by quadrature from a_1.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError("a must be a nonempty 1-d sequence")
    if np.any(a < 0):
        raise ValueError("weights must be nonnegative")
    if a[0] <= 0:
        raise ValueError("the first weight must be positive")
    if N is None:
        N = len(a)
    if not 1 <= N <= len(a):
        raise ValueError(f"N = {N} outside 1..{len(a)}")
    a = a[:N]
    A = np.cumsum(a)
    fvals = np.fromiter((float(f(float(x))) for x in A), dtype=float, count=N)
    if np.any(fvals <= 0):
        raise ValueError("f must be positive on the partial sums")
    s = float(np.sum(a / fvals))
    if tail_integral is None:
        tail = _quad_to_infinity(lambda x: 1.0 / float(f(x)), float(a[0]))
        if tail is None:
            raise ValueError("the tail integral of 1/f does not converge")
    else:
        tail = float(tail_integral)
        if not math.isfinite(tail):
            raise ValueError("the tail integral of 1/f does not converge")
    return IntegralBoundResult(s, float(a[0]) / float(fvals[0]) + tail)


def z_process(
    xs: np.ndarray, us: np.ndarray, gw: GWeight, zero_tol: float = 0.0
) -> VectorProcessPath:
    """Weighted score process z_n(t) = v_n(t) / g(energy_{n,t}).

    ``v`` is the running noise-weighted regressor sum and the weight matrix is
    predictable, so the recorded step means v_{n-1}(t) / g(energy_{n,t}) are
    exact.  Components are held at zero until their column energy is positive.
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if xs.ndim != 2 or us.ndim != 1 or xs.shape[0] != len(us):
        raise ValueError("xs must be (n, p) and us (n,) with matching n")
    if len(us) == 0:
        raise ValueError("history must be nonempty")
    n, p = xs.shape
    v = np.cumsum(us[:, None] * xs, axis=0)
    v_prev = np.vstack((np.zeros(p), v[:-1]))
    d2 = np.cumsum(xs * xs, axis=0)
    weights = np.ones_like(d2)
    pos = d2 > 0
    weights[pos] = gw(d2[pos])
    z = np.where(pos, v / weights, 0.0)
    m = np.where(pos, v_prev / weights, 0.0)
    return VectorProcessPath(np.vstack((np.zeros(p), z)), m, zero_tol)


@dataclass(frozen=True)
class LsRun:
    """One simulated regression run with everything the checkers need.

    ``err_sup[i]`` is the max-norm estimate error after step i + 1 (infinite
    while the gram matrix is still singular).  The arrays of a run from
    :func:`simulate_ls_runs` are views of the arrays of its block of seeds.
    """

    xs: np.ndarray
    ys: np.ndarray
    us: np.ndarray
    final_b: np.ndarray
    energy: np.ndarray
    n0: Optional[int]
    tail_b: np.ndarray  # estimates over the tail window, shape (window, p)
    tail_start: int
    checkpoint_gap: float
    err_sup: np.ndarray

    @property
    def p(self) -> int:
        return self.xs.shape[1]


def simulate_ls_runs(
    model: RegressionModel,
    horizon: int,
    seeds: Sequence,
    tail_fraction: float = 0.2,
    checkpoints: Sequence[int] = (),
) -> List[LsRun]:
    """Simulate the controlled model once per seed, all seeds through one stacked
    :class:`LsState` recursion.

    Seed ``s`` draws from ``np.random.default_rng(seeds[s])``, so its run is
    bit-identical to a run of that seed alone.  ``checkpoints`` are step
    indices at which the recursive estimate is compared against a dense
    solve; the worst max-norm gap is recorded.  A design that carries a
    ``block_draw`` (the built-in open-loop designs) with the default Gaussian
    noise draws each seed's whole regressor and noise stream up front; any
    other design is called per seed and step, since it may read the current
    estimate.  Estimates are kept for ``REBASE_EVERY`` steps at a time and for
    the tail window, never for the whole horizon, and each run's arrays are
    views of the block's arrays.  Raises ValueError for a checkpoint outside
    ``1..horizon``, and when any seed's Gram matrix is non-finite before it
    is nonsingular, or never nonsingular.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    S, p, beta = len(rngs), model.p, model.beta
    state = LsState(p, S)
    xy = np.empty((S, horizon, p + 1))  # regressors, then the response
    xs, ys = xy[:, :, :p], xy[:, :, p]
    us = np.empty((S, horizon))
    tail_start = int(horizon * (1.0 - tail_fraction))
    tail_b = np.empty((S, horizon - tail_start, p))
    window = np.empty((S, min(REBASE_EVERY, tail_start), p))
    err_sup = np.empty((S, horizon))
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints and not 1 <= checkpoints[0] <= checkpoints[-1] <= horizon:
        raise ValueError(f"checkpoints must lie in 1..{horizon}")
    gaps = [0.0] * S
    block_draw = getattr(model.design, "block_draw", None)
    closed = block_draw is None or model.noise_draw is not None
    if closed:
        ctxs = [DesignContext(1, None, None, None, None) for _ in range(S)]
    else:
        for s, rng in enumerate(rngs):
            block_draw(rng, model.sigma, xs[s], us[s])
            np.add((xs[s, :, None, :] @ beta[:, None])[:, 0, 0], us[s], out=ys[s])
    # estimates are kept per chunk of at most REBASE_EVERY steps: in a reused
    # window before the tail, then in place in tail_b
    bounds = [*range(0, tail_start, REBASE_EVERY), *range(tail_start, horizon, REBASE_EVERY)]
    for lo, hi in zip(bounds, bounds[1:] + [horizon]):
        ests = window if lo < tail_start else tail_b[:, lo - tail_start :]
        for i in range(lo, hi):
            if closed:
                _draw_step(model, rngs, ctxs, i, xy, us)
            est = ests[:, i - lo]
            state._step(xy[:, i], est)
            if checkpoints and i + 1 == checkpoints[0]:
                checkpoints.pop(0)
                for s in np.flatnonzero(state._n0):
                    dense, *_ = np.linalg.lstsq(xs[s, : i + 1], ys[s, : i + 1], rcond=None)
                    gaps[s] = max(gaps[s], float(np.max(np.abs(est[s] - dense))))
            if closed:
                for s, ctx in enumerate(ctxs):
                    ctx.estimate = est[s].copy() if state._n0[s] else None
        err_sup[:, lo:hi] = np.abs(ests[:, : hi - lo] - beta).max(axis=2)
    if state._pending.size:
        raise ValueError("design never reached a nonsingular gram matrix")
    energy = np.diagonal(state._aug, axis1=1, axis2=2)
    runs = []
    for s in range(S):
        n0 = int(state._n0[s])
        err_sup[s, : n0 - 1] = np.inf
        runs.append(
            LsRun(
                xs=xs[s],
                ys=ys[s],
                us=us[s],
                final_b=tail_b[s, -1],
                energy=energy[s],
                n0=n0,
                tail_b=tail_b[s],
                tail_start=tail_start,
                checkpoint_gap=gaps[s],
                err_sup=err_sup[s],
            )
        )
    return runs


def _draw_step(model, rngs, ctxs, i, xy, us) -> None:
    """Step ``i`` of every seed from the design callable and the noise draw."""
    p, draw, sigma = model.p, model.noise_draw, model.sigma
    for s, (rng, ctx) in enumerate(zip(rngs, ctxs)):
        ctx.n = i + 1
        x = np.asarray(model.design(rng, ctx), dtype=float)
        if x.shape != (p,):
            raise ValueError(f"regressor must have shape ({p},)")
        u = float(draw(rng)) if draw is not None else float(rng.normal(0.0, sigma))
        y = float(x @ model.beta) + u
        xy[s, i, :p], xy[s, i, p], us[s, i] = x, y, u
        ctx.prev_x, ctx.prev_y, ctx.prev_u = x, y, u


@dataclass(frozen=True)
class DesignConditionReport:
    """Verdicts for the model conditions of the controlled regression.

    ``noise_centered`` and ``noise_variance`` are statistical spot checks of
    the declared noise; the remaining verdicts are exact on the realized run.
    """

    noise_centered: ConditionVerdict
    noise_variance: ConditionVerdict
    nonsingularity: ConditionVerdict
    weight_bound: ConditionVerdict
    energy_growth: ConditionVerdict
    n0: Optional[int]
    kappa_hat: float

    @property
    def holds(self) -> bool:
        return all(
            v.holds
            for v in (
                self.noise_centered,
                self.noise_variance,
                self.nonsingularity,
                self.weight_bound,
                self.energy_growth,
            )
        )


def check_design_conditions(
    xs: np.ndarray,
    us: np.ndarray,
    gw: GWeight,
    sigma2: float,
    energy_threshold: float = 10.0,
    kappa_cap: float = 1e6,
) -> DesignConditionReport:
    """Check the noise, nonsingularity, weight-boundedness and energy conditions.

    The weight-boundedness verdict reports the realized supremum
    ``kappa_hat`` of p * max|gram_inv * weights| over every nonsingular prefix
    and also requires a finite inverse-square tail of the weight function at
    the initial energies.  Non-finite data is a violation, never skipped: a
    non-finite noise value or Gram prefix (a non-finite regressor, or one
    whose energy overflows) fails ``weight_bound`` at its first step with
    margin -inf, a non-finite column energy fails ``energy_growth`` likewise,
    a non-finite noise value also fails both noise verdicts at its step,
    and ``n0`` and ``kappa_hat`` come from the finite prefixes before it.

    All Gram prefixes are one cumulative sum of outer products, inverted in
    one batched call, so the working set is O(n * p**2) floats: one
    (n, p, p) stack at a time, updated in place (two while it is inverted).
    """
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    n, p = xs.shape

    noise_ok = np.isfinite(us)
    if not noise_ok.all():
        k = int(np.argmin(noise_ok)) + 1
        noise_centered = noise_variance = failing(k, -math.inf, f"non-finite noise at step {k}")
    elif sigma2 == 0.0:
        noise_centered = (
            passing(0.0, "noiseless run")
            if np.all(us == 0)
            else failing(1, -abs(float(us.sum())), "nonzero noise in a noiseless model")
        )
        noise_variance = passing(0.0, "noiseless run")
    else:
        mean_stat = abs(float(us.sum())) / max(math.sqrt(n * sigma2), 1e-300)
        noise_centered = (
            passing(5.0 - mean_stat, f"normalized mean {mean_stat:.3f} (limit 5)")
            if mean_stat <= 5.0
            else failing(n, 5.0 - mean_stat, f"normalized mean {mean_stat:.3f} exceeds 5")
        )
        emp_var = float(np.mean(us * us))
        var_limit = sigma2 * (1.0 + 5.0 * math.sqrt(2.0 / n))
        noise_variance = (
            passing(var_limit - emp_var, f"empirical variance {emp_var:.6g}")
            if emp_var <= var_limit
            else failing(n, var_limit - emp_var, f"empirical variance {emp_var:.6g} too large")
        )

    energies = np.cumsum(xs * xs, axis=0)
    grams = xs[:, :, None] * xs[:, None, :]
    np.cumsum(grams, axis=0, out=grams)
    ok = np.isfinite(grams).all(axis=(1, 2))
    finite = int(np.count_nonzero(ok))  # a prefix sum stays non-finite once it is
    ok &= np.isfinite(us)
    bad_step = None if ok.all() else int(np.argmin(ok)) + 1
    n0 = next(
        (i + 1 for i in range(p - 1, finite) if np.linalg.matrix_rank(grams[i]) == p), None
    )
    kappa_hat = 0.0
    if n0 is not None:
        stack = np.linalg.inv(grams[n0 - 1 : finite])
        del grams  # keep one (n, p, p) stack alive at a time
        weights = gw(energies[n0 - 1 : finite].ravel())
        stack *= np.asarray(weights, dtype=float).reshape(-1, 1, p)
        kappa_hat = float(p * np.abs(stack, out=stack).max())
        if math.isnan(kappa_hat):  # a weight or inverse entry that is not a number
            kappa_hat = math.inf
    d2 = energies[-1] if n else np.zeros(p)

    if n0 is not None:
        nonsingularity = passing(float(n - n0), f"first nonsingular at step {n0}")
    elif finite == n:
        nonsingularity = failing(n, -math.inf, "gram matrix singular through the horizon")
    else:
        nonsingularity = failing(
            finite + 1, -math.inf, f"gram matrix singular until non-finite at step {finite + 1}"
        )
    if bad_step is not None:
        weight_bound = failing(
            bad_step, -math.inf, f"non-finite regressor, gram matrix or noise at step {bad_step}"
        )
    elif n0 is None:
        weight_bound = vacuous("not evaluated: gram matrix never nonsingular")
    else:
        try:
            first_pos = np.min(np.where(d2 > 0, d2, np.inf))
            tail = gw.tail(float(min(first_pos, 1.0)))
            tail_ok = math.isfinite(tail)
        except ValueError:
            tail_ok = False
        if kappa_hat <= kappa_cap and tail_ok:
            weight_bound = passing(kappa_cap - kappa_hat, f"sup norm {kappa_hat:.6g}")
        else:
            reason = (
                f"sup norm {kappa_hat:.6g} exceeds cap {kappa_cap:g}"
                if kappa_hat > kappa_cap
                else "weight tail integral diverges"
            )
            weight_bound = failing(n, kappa_cap - kappa_hat, reason)

    worst_energy = float(d2.min())
    worst_column = int(np.argmin(d2))
    if finite < n:
        energy_growth = failing(
            finite + 1, -math.inf, f"column energy non-finite from step {finite + 1}"
        )
    elif worst_energy >= energy_threshold:
        energy_growth = passing(
            worst_energy - energy_threshold, f"min column energy {worst_energy:.6g}"
        )
    else:
        energy_growth = failing(
            worst_column,
            worst_energy - energy_threshold,
            f"column {worst_column} energy {worst_energy:.6g} below "
            f"threshold {energy_threshold:g}",
        )
    return DesignConditionReport(
        noise_centered=noise_centered,
        noise_variance=noise_variance,
        nonsingularity=nonsingularity,
        weight_bound=weight_bound,
        energy_growth=energy_growth,
        n0=n0,
        kappa_hat=kappa_hat,
    )


@dataclass(frozen=True)
class PartitionReport:
    """Per-component convergence classification of an estimator ensemble."""

    q: int
    component_classes: Tuple[str, ...]
    dispersion: Tuple[float, ...]
    detail: str


def partition_analysis(
    runs: Sequence[LsRun],
    beta: np.ndarray,
    energy_threshold: float = 10.0,
    consistency_tol: float = 0.05,
    oscillation_tol: float = 1e-3,
    dispersion_ratio: float = 3.0,
    consistency_fraction: float = 0.95,
) -> PartitionReport:
    """Split components into consistent and finite-random-limit classes.

    A component whose final column energy stays below ``energy_threshold`` on
    every seed is a candidate finite-limit component; the split must agree
    across seeds.  Divergent-energy components are declared consistent when
    the tail-window error stays within ``consistency_tol`` on at least
    ``consistency_fraction`` of seeds.  Finite-energy components are declared
    finite-random-limit when every seed's tail oscillation is at most
    ``oscillation_tol`` and their cross-seed dispersion exceeds
    ``dispersion_ratio`` times the worst consistent dispersion.
    """
    if len(runs) < 2:
        raise ValueError("need at least two runs")
    beta = np.asarray(beta, dtype=float)
    p = runs[0].p
    finite_sets = [frozenset(np.nonzero(r.energy < energy_threshold)[0].tolist()) for r in runs]
    if len(set(finite_sets)) != 1:
        raise ValueError("design not energy-stable: finite-energy components differ across seeds")
    finite = finite_sets[0]
    q = len(finite)

    finals = np.asarray([r.final_b for r in runs])
    dispersion = tuple(float(np.std(finals[:, t], ddof=1)) for t in range(p))

    classes = []
    consistent_disp = [
        dispersion[t]
        for t in range(p)
        if t not in finite
    ]
    worst_consistent = max(consistent_disp) if consistent_disp else 0.0
    for t in range(p):
        if t not in finite:
            errs = np.asarray([float(np.max(np.abs(r.tail_b[:, t] - beta[t]))) for r in runs])
            frac = float(np.mean(errs <= consistency_tol))
            classes.append("consistent" if frac >= consistency_fraction else "inconclusive")
        else:
            oscs = np.asarray(
                [float(r.tail_b[:, t].max() - r.tail_b[:, t].min()) for r in runs]
            )
            cauchy = bool(np.all(oscs <= oscillation_tol))
            spread_ok = dispersion[t] > dispersion_ratio * worst_consistent
            classes.append("finite_random_limit" if cauchy and spread_ok else "inconclusive")
    return PartitionReport(
        q=q,
        component_classes=tuple(classes),
        dispersion=dispersion,
        detail=f"finite-energy components: {sorted(finite)}",
    )


# The built-in designs read no estimate, so each also carries a ``block_draw``:
# block_draw(rng, sigma, xs, us) fills one seed's (horizon, p) regressors and
# (horizon,) Gaussian noise with exactly the values that the per-step calls
# followed by rng.normal(0.0, sigma) draw.  One rng.normal call with a scale
# per column draws them in the same order from the same stream, by the same
# formula loc + scale * z and with the same checks on the scales.


def rotating_design(jitter: float = 0.1, turns: float = 0.37) -> Callable:
    """Unit vectors rotating by a fixed angle each step, plus Gaussian jitter."""

    def design(rng: np.random.Generator, ctx: DesignContext) -> np.ndarray:
        angle = 2.0 * math.pi * turns * ctx.n
        base = np.array([math.cos(angle), math.sin(angle)])
        return base + rng.normal(0.0, jitter, size=2)

    def block_draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        steps = range(1, len(us) + 1)
        draws = rng.normal(0.0, [jitter, jitter, sigma], size=(len(us), 3))
        xs[:, 0] = np.fromiter((math.cos(2.0 * math.pi * turns * n) for n in steps), float)
        xs[:, 1] = np.fromiter((math.sin(2.0 * math.pi * turns * n) for n in steps), float)
        xs += draws[:, :2]
        us[:] = draws[:, 2]

    design.block_draw = block_draw
    return design


def geometric_one_design() -> Callable:
    """Deterministic design (2**-n, 1): bounded first-column energy."""

    def design(rng: np.random.Generator, ctx: DesignContext) -> np.ndarray:
        return np.array([2.0 ** -ctx.n, 1.0])

    def block_draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        xs[:, 0] = np.fromiter((2.0 ** -n for n in range(1, len(us) + 1)), float)
        xs[:, 1] = 1.0
        us[:] = rng.normal(0.0, sigma, size=len(us))

    design.block_draw = block_draw
    return design


def iid_gaussian_design(p: int, scale: float = 1.0) -> Callable:
    def design(rng: np.random.Generator, ctx: DesignContext) -> np.ndarray:
        return rng.normal(0.0, scale, size=p)

    def block_draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        draws = rng.normal(0.0, [scale] * p + [sigma], size=(len(us), p + 1))
        xs[:] = draws[:, :p]
        us[:] = draws[:, p]

    design.block_draw = block_draw
    return design


def feedback_design(gain: float = 0.9) -> Callable:
    """Regressor steered by the sign of the previous noise (a control loop).

    Both columns stay persistently excited; the second column leans with the
    last observed disturbance, which makes the design depend on the past.
    """

    def design(rng: np.random.Generator, ctx: DesignContext) -> np.ndarray:
        lean = 0.0 if ctx.prev_u is None else gain * math.tanh(ctx.prev_u)
        return np.array([1.0, lean + rng.normal(0.0, 0.5)])

    def block_draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        draws = rng.normal(0.0, [0.5, sigma], size=(len(us), 2))
        us[:] = draws[:, 1]
        xs[:, 0] = 1.0
        # math.tanh, not np.tanh: the two differ in the last bit on many inputs
        xs[:1, 1] = 0.0
        xs[1:, 1] = np.fromiter((gain * math.tanh(u) for u in us[:-1]), float)
        xs[:, 1] += draws[:, 0]

    design.block_draw = block_draw
    return design
