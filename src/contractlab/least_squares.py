"""Controlled linear models, recursive least squares, and weighted score processes.

The regressor at each step may depend on everything observed so far (a
controlled design), which makes the Gram matrix random.  A :class:`Design`
draws each seed's whole horizon of regressors and noise up front; its
optional feedback law then adjusts each step's regressors of every seed at
once from the estimates so far.  The estimator state maintains its inverse
by rank-one updates with periodic dense re-baselining, and the weighted
score process turns per-component consistency into the same drift
conditions checked elsewhere in this package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .harness import limit_dispersion, tail_length
from .process import ProcessPath
from .verdict import ConditionVerdict, failing, passing, vacuous

__all__ = [
    "Design",
    "RegressionModel",
    "LsState",
    "LsRun",
    "GWeight",
    "DesignConditionReport",
    "IntegralBoundResult",
    "PartitionReport",
    "PARTITION_CLASSES",
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
# the largest realized weight bound kappa_hat that check_design_conditions accepts
KAPPA_CAP = 1e6


@dataclass(frozen=True)
class Design:
    """A regressor design with ``p`` columns: a per-seed draw and an optional law.

    ``draw(rng, sigma, xs, us)`` fills one seed's (horizon, p) regressors
    ``xs`` and (horizon,) centered Gaussian noise ``us`` of standard deviation
    ``sigma`` from that seed's generator.  ``law(estimates, rows)``, when
    given, closes the loop: before step n is folded it is called once for
    every seed at once, and edits that step's drawn (seeds, p) regressor
    ``rows`` in place, given each seed's (seeds, p) estimate after step
    n - 1 (a NaN row while that seed's Gram matrix is singular), which it
    must not modify.  A law that treats each row alone keeps every seed's
    run bit-identical to that seed run alone.
    """

    p: int
    draw: Callable[[np.random.Generator, float, np.ndarray, np.ndarray], None]
    law: Optional[Callable[[np.ndarray, np.ndarray], None]] = None


@dataclass(frozen=True)
class RegressionModel:
    """True coefficients, a (possibly controlled) :class:`Design`, and noise scale.

    The noise is centered Gaussian with standard deviation ``sigma``.  Raises
    ValueError unless ``beta`` is a vector with one entry per design column.
    """

    beta: np.ndarray
    design: Design
    sigma: float

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim != 1:
            raise ValueError("beta must be a vector")
        if len(beta) != self.design.p:
            raise ValueError(
                f"beta has {len(beta)} entries but the design has {self.design.p} columns"
            )
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        object.__setattr__(self, "beta", beta)

    @property
    def p(self) -> int:
        return self.design.p


class LsState:
    """Running least-squares state of a block of seeds.

    Each seed's inverse Gram is created by a dense solve at its first
    nonsingular step, then maintained by rank-one (Sherman-Morrison) updates
    and re-baselined by a dense solve every ``REBASE_EVERY`` steps of that
    seed to cap drift.  A non-finite Gram matrix or score (a non-finite
    response, or a sum that overflows) raises ``ValueError`` naming the first
    such step, before any numpy warning and with the state left as it was.

    ``LsState(p, seeds)`` carries a leading seed axis: ``gram`` and
    ``gram_inv`` are (seeds, p, p), ``score``, ``energy`` and ``estimate``
    (seeds, p), ``first_nonsingular`` and ``singular`` (seeds,), and
    ``update`` takes (seeds, p) regressors and (seeds,) responses.  While a
    seed's Gram matrix is singular, its ``gram_inv`` and ``estimate`` are
    NaN and its ``first_nonsingular`` entry is 0.  Every seed goes through
    the same per-matrix kernels, so a block is bit-identical to its seeds
    run one at a time.

    Steps are folded a chunk at a time, and a chunk of k steps is
    bit-identical to k single steps: its Gram and score accumulators are one
    cumulative sum, which adds in step order; only the rank-one updates, the
    rank checks and the rebases run step by step; and the estimates are one
    batched product of the per-step inverses and scores.
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
        # NaN while a seed is singular: quiet NaN arithmetic raises no flag, so
        # _fold updates every seed alike and its estimates come out NaN
        self._inv = np.full((seeds, p, p), np.nan)
        self._est = np.full((seeds, p), np.nan)
        self._n0 = np.zeros(seeds, dtype=int)
        self._pending = np.arange(seeds)  # seeds whose Gram matrix is still singular
        self._due = np.full(seeds, np.iinfo(int).max)  # step of each seed's next rebase
        self._next_due = int(self._due[0])

    gram = property(lambda self: self._aug[:, :, : self.p])
    gram_inv = property(lambda self: self._inv)
    score = property(lambda self: self._aug[:, :, self.p])
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
        xy = np.concatenate((x, y[:, None]), axis=1)[:, None]
        self._fold(xy, np.empty((self.seeds, 1, self.p)))
        return self

    def _fold(self, xy: np.ndarray, out: np.ndarray) -> None:
        """Fold k steps of rows (x, y), ``xy`` (S, k, p + 1), in step order and
        write each step's estimates to ``out`` (S, k, p)."""
        p, k, first = self.p, xy.shape[1], self.n + 1
        X = xy[:, :, :p]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below, by step
            aug = X[:, :, :, None] * xy[:, :, None, :]  # (S, k, p, p + 1)
            aug[:, 0] += self._aug
            if k > 1:  # one step is its own sum, and the call loops over every entry
                np.cumsum(aug, axis=1, out=aug)
        # a running sum stays non-finite once it is, so the last step shows any
        if not np.isfinite(aug[:, -1]).all():
            j = int(np.argmin(np.isfinite(aug).all(axis=(0, 2, 3))))
            what = "gram matrix" if not np.isfinite(aug[:, j, :, :p]).all() else "score"
            raise ValueError(
                f"non-finite {what} at step {first + j}, from a non-finite or huge row"
            )
        invs = np.empty((self.seeds, k, p, p))
        for j in range(k):
            self.n = n = first + j
            x, inv = X[:, j], invs[:, j]
            bx = self._inv @ x[:, :, None]
            np.subtract(self._inv, bx * bx.transpose(0, 2, 1) / (1.0 + x[:, None, :] @ bx), out=inv)
            self._inv = inv
            if n == self._next_due:
                self._rebase(n, aug[:, j])
            pending = self._pending
            if pending.size and n >= p:
                grams = aug[pending, j, :, :p]
                full = np.linalg.matrix_rank(grams) == p
                if full.any():
                    fresh = pending[full]
                    inv[fresh] = np.linalg.inv(grams[full])
                    self._n0[fresh] = n
                    self._due[fresh] = n + REBASE_EVERY
                    self._next_due = int(self._due.min())
                    self._pending = pending[~full]
        # NaN exactly before each seed's first nonsingular step
        np.matmul(invs, aug[:, :, :, p:], out=out[:, :, :, None])
        self._aug = aug[:, -1].copy()
        self._inv = invs[:, -1].copy()
        self._est = out[:, -1]

    def _rebase(self, n: int, aug: np.ndarray) -> None:
        due = self._due == n
        self._inv[due] = np.linalg.inv(aug[due, :, : self.p])
        self._due[due] += REBASE_EVERY
        self._next_due = int(self._due.min())


@dataclass(frozen=True, eq=False)
class GWeight:
    """A nondecreasing positive weight function with an inverse-square tail.

    ``tail(c)`` is ``tail_integral(c)``: the integral of fn(x)**-2 from c to
    infinity, or a closed-form upper bound on it.  A bound serves every use,
    since the design checks read only whether the tail is finite and
    :func:`integral_bound` stays valid with a larger tail.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tail_integral: Callable[[float], float]

    def __call__(self, x):
        return self.fn(x)

    def tail(self, c: float) -> float:
        if c <= 0:
            raise ValueError("tail cutoff must be positive")
        return float(self.tail_integral(c))

    @classmethod
    def identity(cls) -> "GWeight":
        return cls(lambda x: np.asarray(x, dtype=float), lambda c: 1.0 / c)

    @classmethod
    def sqrt_log(cls) -> "GWeight":
        # fn(x)**-2 = 1 / (x (1 + log1p x)**2).  For x >= c, 1/x <= (1 + c) / (c (1 + x)),
        # and 1 / ((1 + x) (1 + log1p x)**2) integrates from c to infinity to 1 / (1 + log1p c).
        return cls(
            lambda x: np.sqrt(np.asarray(x, dtype=float)) * (1.0 + np.log1p(x)),
            lambda c: (1.0 + c) / (c * (1.0 + math.log1p(c))),
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
    tail_integral: float,
) -> IntegralBoundResult:
    """Cap sum_n a_n / f(A_n) by a_1/f(A_1) plus the tail integral of 1/f.

    ``f`` must be nondecreasing and positive with an integrable reciprocal
    beyond a_1; the first weight must be positive.  ``tail_integral`` is the
    integral of 1/f from a_1 to infinity, or an upper bound on it; a
    non-finite one means the tail diverges.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError("a must be a nonempty 1-d sequence")
    if np.any(a < 0):
        raise ValueError("weights must be nonnegative")
    if a[0] <= 0:
        raise ValueError("the first weight must be positive")
    A = np.cumsum(a)
    fvals = np.fromiter((float(f(float(x))) for x in A), dtype=float, count=len(a))
    if np.any(fvals <= 0):
        raise ValueError("f must be positive on the partial sums")
    s = float(np.sum(a / fvals))
    tail = float(tail_integral)
    if not math.isfinite(tail):
        raise ValueError("the tail integral of 1/f does not converge")
    return IntegralBoundResult(s, float(a[0]) / float(fvals[0]) + tail)


def z_process(xs: np.ndarray, us: np.ndarray, gw: GWeight) -> ProcessPath:
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
    return ProcessPath(np.vstack((np.zeros(p), z)), m)


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
    n0: int
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

    Seed ``s`` draws its whole regressor and noise stream up front from
    ``np.random.default_rng(seeds[s])``, so its run is bit-identical to a
    run of that seed alone.  ``checkpoints`` are step indices at which the
    recursive estimate is compared against a dense solve; the worst
    max-norm gap is recorded.  The state folds the draws in pieces cut every
    ``REBASE_EVERY`` steps from 0 and from the tail start, at every
    checkpoint, and, with a feedback law, at every step, whose rows first go
    through the law.  Estimates are kept for one piece at a time and for the
    tail window (the last ``tail_length(horizon, tail_fraction)`` steps,
    which ``tail_verdict`` classifies), never for the whole horizon, and each
    run's arrays are views of the block's arrays.  Raises ValueError for a
    checkpoint outside ``1..horizon``, and when any seed's Gram matrix or
    score is non-finite, or its Gram matrix is never nonsingular.
    """
    S, p, beta, law = len(seeds), model.p, model.beta, model.design.law
    state = LsState(p, S)
    xy = np.empty((S, horizon, p + 1))  # regressors, then the response
    xs, ys = xy[:, :, :p], xy[:, :, p]
    us = np.empty((S, horizon))
    tail_start = horizon - tail_length(horizon, tail_fraction)
    tail_b = np.empty((S, horizon - tail_start, p))
    window = np.empty((S, min(REBASE_EVERY, tail_start), p))
    err_sup = np.empty((S, horizon))
    checkpoints = {int(c) for c in checkpoints}
    if checkpoints and not 1 <= min(checkpoints) <= max(checkpoints) <= horizon:
        raise ValueError(f"checkpoints must lie in 1..{horizon}")
    gaps = [0.0] * S
    for s, seed in enumerate(seeds):
        model.design.draw(np.random.default_rng(seed), model.sigma, xs[s], us[s])
    # a law reads the estimates after the step before, so it folds step by step
    cuts = sorted({
        *range(0, tail_start, REBASE_EVERY), *range(tail_start, horizon, REBASE_EVERY),
        *(c for c in checkpoints if c < horizon), *(range(horizon) if law is not None else ()),
    })
    for a, b in zip(cuts, cuts[1:] + [horizon]):
        if law is not None:
            law(state.estimate, xs[:, a])
        # the responses of the piece, in place
        np.matmul(xs[:, a:b, None, :], beta[:, None], out=ys[:, a:b, None, None])
        ys[:, a:b] += us[:, a:b]
        # estimates before the tail go to a reused window, then in place in tail_b
        ests = window[:, : b - a] if a < tail_start else tail_b[:, a - tail_start : b - tail_start]
        state._fold(xy[:, a:b], ests)
        err_sup[:, a:b] = np.abs(ests - beta).max(axis=2)
        if b in checkpoints:
            for s in np.flatnonzero(state.first_nonsingular):
                dense, *_ = np.linalg.lstsq(xs[s, :b], ys[s, :b], rcond=None)
                gaps[s] = max(gaps[s], float(np.max(np.abs(state.estimate[s] - dense))))
    if state.singular.any():
        raise ValueError("design never reached a nonsingular gram matrix")
    energy = state.energy
    runs = []
    for s in range(S):
        n0 = int(state.first_nonsingular[s])
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
) -> DesignConditionReport:
    """Check the noise, nonsingularity, weight-boundedness and energy conditions.

    The weight-boundedness verdict reports the realized supremum
    ``kappa_hat`` of p * max|gram_inv * weights| over every nonsingular prefix,
    which must not exceed ``KAPPA_CAP``, and also requires a finite tail
    bound ``gw.tail(c)``, at c the smallest positive final column energy
    capped at 1.  A statistic of the whole run (the noise moments, the weight
    bound, the final column energies) that misses its limit fails at step n;
    noise in a noiseless model fails at its first nonzero step.
    Non-finite data is a violation, never skipped: a non-finite noise value
    or Gram prefix (a non-finite regressor, or one whose energy overflows)
    fails ``weight_bound`` at its first step with margin -inf, a non-finite
    column energy fails ``energy_growth`` likewise, a non-finite noise value
    also fails both noise verdicts at its step, and ``n0`` and ``kappa_hat``
    come from the finite prefixes before it.

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
        noise_centered = noise_variance = passing(0.0, "noiseless run")
        if us.any():
            k = int(np.argmax(us != 0)) + 1
            noise_centered = failing(
                k, -float(np.abs(us).max()), f"nonzero noise at step {k} in a noiseless model"
            )
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
        if kappa_hat <= KAPPA_CAP and tail_ok:
            weight_bound = passing(KAPPA_CAP - kappa_hat, f"sup norm {kappa_hat:.6g}")
        else:
            reason = (
                f"sup norm {kappa_hat:.6g} exceeds cap {KAPPA_CAP:g}"
                if kappa_hat > KAPPA_CAP
                else "weight tail integral diverges"
            )
            weight_bound = failing(n, KAPPA_CAP - kappa_hat, reason)

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
            n,
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


# The classes partition_analysis gives a component; a partition_matches assertion names them.
PARTITION_CLASSES = ("consistent", "finite_random_limit", "inconclusive")


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
) -> PartitionReport:
    """Split components into consistent and finite-random-limit classes.

    A component whose final column energy stays below ``energy_threshold`` on
    every seed is a candidate finite-limit component; the split must agree
    across seeds.  Divergent-energy components are declared consistent when
    the tail-window error stays within ``consistency_tol`` on at least 95% of
    seeds.  Finite-energy components are declared finite-random-limit when
    every seed's tail oscillation is at most
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
    dispersion = tuple(limit_dispersion(finals[:, t]) for t in range(p))

    consistent, finite_random_limit, inconclusive = PARTITION_CLASSES
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
            classes.append(consistent if frac >= 0.95 else inconclusive)
        else:
            oscs = np.asarray(
                [float(r.tail_b[:, t].max() - r.tail_b[:, t].min()) for r in runs]
            )
            cauchy = bool(np.all(oscs <= oscillation_tol))
            spread_ok = dispersion[t] > dispersion_ratio * worst_consistent
            classes.append(finite_random_limit if cauchy and spread_ok else inconclusive)
    return PartitionReport(
        q=q,
        component_classes=tuple(classes),
        dispersion=dispersion,
        detail=f"finite-energy components: {sorted(finite)}",
    )


# The built-in designs are open loop: each is one draw, which fills a seed's
# regressors and noise with exactly the values that a per-step draw of the
# regressor followed by rng.normal(0.0, sigma) gives, step by step.  One
# rng.normal call with a scale per column draws them in the same order from
# the same stream, by the same formula loc + scale * z and with the same
# checks on the scales.


def _step_columns(*columns: Callable[[int], float]) -> Callable[[int], np.ndarray]:
    """``rows(horizon)``: the read-only (horizon, len(columns)) values
    ``column(n)`` for n = 1..horizon.

    The values are the same for every seed, so they are computed once, for
    the longest horizon asked so far, by the same ``math`` calls as a
    per-step draw; a shorter horizon reads a prefix.
    """
    cache = np.empty((0, len(columns)))

    def rows(horizon: int) -> np.ndarray:
        nonlocal cache
        if len(cache) < horizon:
            cache = np.empty((horizon, len(columns)))
            for c, column in enumerate(columns):
                cache[:, c] = np.fromiter(map(column, range(1, horizon + 1)), float, horizon)
            cache.flags.writeable = False
        return cache[:horizon]

    return rows


def rotating_design(jitter: float = 0.1, turns: float = 0.37) -> Design:
    """Unit vectors rotating by a fixed angle each step, plus Gaussian jitter."""
    units = _step_columns(
        lambda n: math.cos(2.0 * math.pi * turns * n),
        lambda n: math.sin(2.0 * math.pi * turns * n),
    )

    def draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        draws = rng.normal(0.0, [jitter, jitter, sigma], size=(len(us), 3))
        np.add(units(len(us)), draws[:, :2], out=xs)
        us[:] = draws[:, 2]

    return Design(2, draw)


def geometric_one_design() -> Design:
    """Deterministic design (2**-n, 1): bounded first-column energy."""
    halvings = _step_columns(lambda n: 2.0 ** -n)

    def draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        xs[:, :1] = halvings(len(us))
        xs[:, 1] = 1.0
        us[:] = rng.normal(0.0, sigma, size=len(us))

    return Design(2, draw)


def iid_gaussian_design(p: int, scale: float = 1.0) -> Design:
    def draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        draws = rng.normal(0.0, [scale] * p + [sigma], size=(len(us), p + 1))
        xs[:] = draws[:, :p]
        us[:] = draws[:, p]

    return Design(p, draw)


def feedback_design(gain: float = 0.9) -> Design:
    """Regressor that leans with ``gain * tanh`` of the previous noise (a control loop).

    Both columns stay persistently excited; the second column leans with the
    last observed disturbance, which makes the design depend on the past.
    """

    def draw(rng: np.random.Generator, sigma: float, xs: np.ndarray, us: np.ndarray):
        draws = rng.normal(0.0, [0.5, sigma], size=(len(us), 2))
        us[:] = draws[:, 1]
        xs[:, 0] = 1.0
        # math.tanh, not np.tanh: the two differ in the last bit on many inputs
        xs[:1, 1] = 0.0
        xs[1:, 1] = np.fromiter((gain * math.tanh(u) for u in us[:-1]), float)
        xs[:, 1] += draws[:, 0]

    return Design(2, draw)
