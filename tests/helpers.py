"""Shared path builders and brute-force reference implementations for tests."""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from contractlab import LsState, ProcessPath
from contractlab import least_squares

# scalar family -> (a shock at step 2 that overflows a block of seeds stepped
# with slope 2 and step sizes 4/n, the notes of its seeds run alone)
OVERFLOWS = {
    "sine_perturbed": (5e307, {"", "ValueError: math domain error"}),
    "linear": (1e308, {""}),
}


def halving_noise_path(
    horizon: int, seed, x0: float = 1.0, sd0: float = 0.5
) -> ProcessPath:
    """Mean-halving path with Gaussian residuals whose sd decays like 1/n."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=horizon)
    xs = np.empty(horizon + 1)
    ms = np.empty(horizon)
    x = float(x0)
    xs[0] = x
    for i in range(horizon):
        m = 0.5 * x
        x = m + (sd0 / (i + 1)) * z[i]
        ms[i] = m
        xs[i + 1] = x
    return ProcessPath(xs, ms)


def ar_path(horizon: int, seed, x0: float = 1.0, rho: float = 0.9, sd: float = 1.0):
    """AR(1)-style (xs, ms) pair with exact means rho * previous value."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, sd, size=horizon)
    xs = np.empty(horizon + 1)
    ms = np.empty(horizon)
    x = float(x0)
    xs[0] = x
    for i in range(horizon):
        m = rho * x
        x = m + z[i]
        ms[i] = m
        xs[i + 1] = x
    return xs, ms


def brute_crossings(xs, zero_tol: float = 0.0):
    """Single-pass reference: classes, crossing times, per-segment peaks."""

    def cls(v: float) -> int:
        if abs(v) <= zero_tol:
            return 0
        return 1 if v > 0 else -1

    classes = [cls(float(v)) for v in xs]
    times = [n for n in range(1, len(xs)) if classes[n] != classes[n - 1]]
    peaks = []
    for j, s in enumerate(times):
        e = times[j + 1] if j + 1 < len(times) else len(xs)
        peaks.append(max(abs(float(v)) for v in xs[s:e]))
    return classes, times, peaks


# The per-step regressor rules of the built-in least-squares designs, as
# they were before each became one whole-horizon draw: design(rng, ctx)
# returns the regressor of step ctx.n, and the step's noise is then
# rng.normal(0.0, sigma).  They are the reference stream for each draw.


def rotating_steps(jitter: float = 0.1, turns: float = 0.37):
    def design(rng, ctx):
        angle = 2.0 * math.pi * turns * ctx.n
        base = np.array([math.cos(angle), math.sin(angle)])
        return base + rng.normal(0.0, jitter, size=2)

    return design


def geometric_one_steps():
    def design(rng, ctx):
        return np.array([2.0 ** -ctx.n, 1.0])

    return design


def iid_gaussian_steps(p: int, scale: float = 1.0):
    def design(rng, ctx):
        return rng.normal(0.0, scale, size=p)

    return design


def feedback_steps(gain: float = 0.9):
    def design(rng, ctx):
        lean = 0.0 if ctx.prev_u is None else gain * math.tanh(ctx.prev_u)
        return np.array([1.0, lean + rng.normal(0.0, 0.5)])

    return design


def per_step_stream(design, rng, sigma: float, horizon: int):
    """(xs, us): ``horizon`` steps of a per-step rule and its Gaussian noise."""
    ctx = SimpleNamespace(n=0, prev_u=None)
    xs, us = [], []
    for n in range(1, horizon + 1):
        ctx.n = n
        xs.append(np.asarray(design(rng, ctx), dtype=float))
        us.append(float(rng.normal(0.0, sigma)))
        ctx.prev_u = us[-1]
    return np.array(xs), np.array(us)


# The built-in designs' draws as they were when each drew a seed's whole
# horizon at once, draw(rng, sigma, xs, us): the reference for a piecewise draw.


def _columns(horizon: int, *columns) -> np.ndarray:
    out = np.empty((horizon, len(columns)))
    for c, column in enumerate(columns):
        out[:, c] = np.fromiter(map(column, range(1, horizon + 1)), float, horizon)
    return out


def rotating_whole(jitter: float = 0.1, turns: float = 0.37):
    def draw(rng, sigma, xs, us):
        draws = rng.normal(0.0, [jitter, jitter, sigma], size=(len(us), 3))
        units = _columns(
            len(us),
            lambda n: math.cos(2.0 * math.pi * turns * n),
            lambda n: math.sin(2.0 * math.pi * turns * n),
        )
        np.add(units, draws[:, :2], out=xs)
        us[:] = draws[:, 2]

    return draw


def geometric_one_whole():
    def draw(rng, sigma, xs, us):
        xs[:, :1] = _columns(len(us), lambda n: 2.0 ** -n)
        xs[:, 1] = 1.0
        us[:] = rng.normal(0.0, sigma, size=len(us))

    return draw


def iid_gaussian_whole(p: int, scale: float = 1.0):
    def draw(rng, sigma, xs, us):
        draws = rng.normal(0.0, [scale] * p + [sigma], size=(len(us), p + 1))
        xs[:] = draws[:, :p]
        us[:] = draws[:, p]

    return draw


def feedback_whole(gain: float = 0.9):
    def draw(rng, sigma, xs, us):
        draws = rng.normal(0.0, [0.5, sigma], size=(len(us), 2))
        us[:] = draws[:, 1]
        xs[:, 0] = 1.0
        xs[:1, 1] = 0.0
        xs[1:, 1] = np.fromiter((gain * math.tanh(u) for u in us[:-1]), float)
        xs[:, 1] += draws[:, 0]

    return draw


def fixed_run(xs, us=None, gw=None, beta=None, tail_fraction=0.2):
    """The run of one seed whose design draws exactly the regressors ``xs``
    and the noise ``us`` (default zero), with ``beta`` (default zero) and
    weight ``gw`` (default the identity)."""
    xs = np.asarray(xs, dtype=float)
    us = np.zeros(len(xs)) if us is None else np.asarray(us, dtype=float)

    def draw(rng, sigma, start, out_xs, out_us, carry):
        out_xs[:] = xs[start : start + len(out_us)]
        out_us[:] = us[start : start + len(out_us)]

    p = xs.shape[1]
    beta = np.zeros(p) if beta is None else beta
    model = least_squares.RegressionModel(beta, least_squares.Design(p, draw), 0.0)
    gw = least_squares.GWeight.identity() if gw is None else gw
    return least_squares.simulate_ls_runs(model, len(xs), [0], tail_fraction, gw=gw)[0]


def stepped_estimates(xs, ys):
    """(n, p): the estimate of ``LsState.update`` after each of the rows
    ``xs`` and responses ``ys``, stepped one row at a time."""
    state = LsState(xs.shape[1], 1)
    return np.array(
        [state.update(xs[i : i + 1], ys[i : i + 1]).estimate[0].copy() for i in range(len(ys))]
    )


def stepped_n0_kappa(xs, gw):
    """(n0, kappa_hat) of ``LsState.update`` stepped one row at a time: the
    supremum of p * max|gram_inv * gw(energy)| read after every step from
    the first nonsingular one on; None and 0.0 while it never is."""
    n, p = xs.shape
    state = LsState(p, 1)
    kappa_hat = 0.0
    for i in range(n):
        state.update(xs[i : i + 1], np.zeros(1))
        if not state.singular[0]:
            weights = np.asarray(gw(state.energy), dtype=float)
            kappa_hat = max(kappa_hat, float(p * np.abs(state.gram_inv * weights[:, None]).max()))
    return (None if state.singular[0] else int(state.first_nonsingular[0])), kappa_hat
