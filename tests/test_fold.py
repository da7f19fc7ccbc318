"""An untraced SA run folds its checks window by window; the folds must be exact.

Such a run steps every seed together and folds each window, vectorised
across seeds, into the ratio band, the tail verdict and the curve samples.
These tests run ``sa`` and ``sa_nd`` documents through the runner and compare
each seed's flag, verdict and samples with the whole-path checks on that
seed's ``rm_solve`` path: with envelopes that some seeds fail, a NaN shock
(a non-finite step the window loop runs through), a shock that overflows the
window loop (every seed then runs alone, and some raise) and any shock chunk.
The band merge is checked on its own against ``band_check`` of whole paths,
and the run's memory against the horizon.
"""
from __future__ import annotations

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import approximation, experiments, harness
from contractlab.approximation import (
    NoiseModel,
    Schedule,
    check_ratio_sandwich,
    contraction_factor,
    rm_solve,
)
from contractlab.config import parse_config_text
from contractlab.harness import child_seed, tail_length
from contractlab.process import ratio_band
from contractlab.verdict import DEFAULT_ATOL, Bands, Scratch, band_check, band_window
from helpers import OVERFLOWS

SEEDS, HORIZON = 20, 60

SA = """
kind: sa
problem: {family: sine_perturbed, slope: 1.0, amplitude: 0.3, root: 0.5}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 4.0}
x0: 2.0
envelope: {m: 0.98, M: 1.3, grid_min_abs: 1.0e-2, grid_per_decade: 20}
assertions: {sandwich_zero_violations: true}
"""

SA_ND = """
kind: sa_nd
problem: {family: matrix, entries: [[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: [0.2, -0.1, 1.5]
envelope: {m: 1.0001, M: 1.4142135623730951, directions: 8}
assertions: {contraction_zero_violations: true}
"""

# slope 2 and step sizes 4/n turn OVERFLOWS' shock at step 2 into an overflow
OVERFLOW = """
kind: sa
problem: {{family: {family}, slope: 2.0, {amplitude}root: 0.0}}
schedule: {{family: inverse_n, c: 4.0}}
noise: {{family: gaussian, sd: 0.1}}
x0: 1.0
envelope: {{m: 1.0, M: 2.5, grid_min_abs: 1.0e-2, grid_per_decade: 20}}
assertions: {{sandwich_zero_violations: true}}
"""


def shock_noise(value: float, step: int, sd: float) -> NoiseModel:
    """Gaussian shocks, and in some seeds' draws ``value`` at ``step`` of the draw."""

    def draw(rng, shape):
        z = rng.normal(0.0, sd, size=shape)
        if rng.random() < 0.3:
            z[min(step, len(z) - 1)] = value
        return z

    return NoiseModel(draw)


# case -> (document, the noise that replaces the document's, or None)
CASES = {
    "sa": (SA, None),
    "sa_nd": (SA_ND, None),
    "sa_nan_shock": (SA, shock_noise(math.nan, 3, 4.0)),
    "sa_nd_nan_shock": (SA_ND, shock_noise(math.nan, 3, 0.1)),
    "sa_nd_inf_shock": (SA_ND, shock_noise(math.inf, 1, 0.1)),
    **{
        f"overflow_{family}": (
            OVERFLOW.format(family=family, amplitude="amplitude: 0.3, " * (family != "linear")),
            shock_noise(shock, 1, 0.1),
        )
        for family, (shock, _) in OVERFLOWS.items()
    },
}


def naive_tail(values: np.ndarray, config) -> tuple:
    """(tail sup, oscillation, final) of a seed's values, from its whole tail window."""
    tail = values[-tail_length(len(values), config.tail_fraction) :]
    return float(np.abs(tail).max()), float(tail.max() - tail.min()), float(tail[-1])


def same(a, b) -> bool:
    return np.array_equal(np.asarray(a, float), np.asarray(b, float), equal_nan=True)


def run_folded(case: str, monkeypatch):
    """The config, the runner's stats, each reduced seed's (verdict, samples), and
    the seed counts of the window loops that raised a floating-point error."""
    doc, noise = CASES[case]
    ensemble = f"ensemble: {{seeds: {SEEDS}, root_seed: 3, horizon: {HORIZON}}}\n"
    config = parse_config_text(doc + ensemble)
    if noise is not None:
        build = config.build
        monkeypatch.setattr(config, "build", lambda g, *a: noise if g == "noise" else build(g, *a))
    reduced = []
    reduce_one = harness._reduce_one

    def recorded(*args):
        reduced.append(reduce_one(*args))
        return reduced[-1]

    monkeypatch.setattr(harness, "_reduce_one", recorded)
    raised = []
    step_windows = approximation._step_windows

    def stepped(*args):
        try:
            yield from step_windows(*args)
        except FloatingPointError:
            raised.append(len(args[-1]))
            raise

    monkeypatch.setattr(approximation, "_step_windows", stepped)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rm_solve's overflow, run alone
        _, _, stats, _ = experiments._run_sa(config)
    return config, stats, reduced, raised


@pytest.mark.parametrize("chunk", [None, *range(1, 10)])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fold_equals_the_whole_path_checks(case, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(approximation, "SHOCK_CHUNK", chunk)
    config, stats, reduced, raised = run_folded(case, monkeypatch)
    model, ens = config.model, config.ensemble
    x0 = np.asarray(model["x0"], dtype=float)
    vector = x0.ndim == 1
    problem = config.build("problem", *x0.shape)
    schedule, noise = config.build("schedule"), config.build("noise")
    env, root = model["envelope"], float(model["problem"].get("root", 0.0))
    ks = contraction_factor(schedule.alphas(HORIZON), env["m"], env["M"])
    flag = "contraction_zero_violations" if vector else "sandwich_zero_violations"
    grid = experiments._grid(HORIZON + 1, config.curve_points)
    reduced = iter(reduced)
    outcomes = []
    for i, verdict in enumerate(stats.per_seed):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                path = rm_solve(problem, noise, schedule, x0, HORIZON, child_seed(3, i))
        except ValueError as exc:  # the seed errored in the ensemble too
            assert verdict.note == f"ValueError: {exc}"
            assert stats.payloads[i] is None
            outcomes.append(None)
            continue
        got, samples = next(reduced)
        assert got is verdict and verdict.note == ""
        values = path.norms() if vector else path.xs - root
        want = naive_tail(values, ens)
        assert same((verdict.tail_sup, verdict.tail_oscillation, verdict.final_value), want)
        assert same(samples, np.abs(values[grid]))
        if vector:
            holds = ratio_band(path, ks, atol=DEFAULT_ATOL).first_violation is None
        else:
            holds = check_ratio_sandwich(path, schedule, env["m"], env["M"], x_star=root).holds
        assert stats.payloads[i] == {flag: holds}
        outcomes.append(holds)
    assert next(reduced, None) is None
    if case in ("sa", "sa_nd"):  # the envelope holds on some seeds and fails on others
        assert set(outcomes) == {True, False}
    if "shock" in case:  # some seed's path holds a non-finite value
        assert False in outcomes
    # a NaN runs through the window loop; inf and the overflow make it raise,
    # and then every seed runs alone, where sine_perturbed's math.sin raises
    overflows = case.startswith("overflow") or case.endswith("inf_shock")
    assert raised == ([SEEDS] if overflows else [])
    assert (None in outcomes) == (case == "overflow_sine_perturbed")


@pytest.mark.parametrize("case", ["sa", "overflow_sine_perturbed"])
def test_untraced_runs_step_every_seed_in_one_window_loop(case, monkeypatch):
    loops = []
    step_windows = approximation._step_windows

    def counted(*args):
        loops.append(len(args[-1]))
        return step_windows(*args)

    monkeypatch.setattr(approximation, "_step_windows", counted)
    monkeypatch.setattr(experiments, "rm_solve_block", None)  # no whole path is kept
    run_folded(case, monkeypatch)
    assert loops == [SEEDS]  # and once the loop raised, no other


@st.composite
def windowed_bands(draw):
    """A path's band arguments, with NaN, +-inf, zero divisors and masks, and a
    split of its steps into windows."""
    n = draw(st.integers(0, 30))
    special = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
    entry = st.floats(-10.0, 10.0, allow_nan=False) | special
    array = st.lists(entry, min_size=n, max_size=n).map(np.array)
    values = draw(array)
    over = draw(st.none() | array)
    flags = st.lists(st.booleans(), min_size=n, max_size=n).map(lambda f: np.array(f, bool))
    mask = draw(st.none() | flags)
    finite = draw(st.none() | flags)
    upper = draw(st.none() | entry | array)
    lower = draw((entry | array) if upper is None else (st.none() | entry | array))
    atol = draw(st.sampled_from([0.0, 1e-12, 0.5]))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return (values, upper, lower, mask, atol, over, finite), cuts


def as_tuple(band) -> tuple:
    """A band's fields, by repr: NaN equals NaN, and -0.0 is not 0.0."""
    fields = ("first_violation", "worst_margin", "checked", "value", "worst_value")
    return tuple(repr(getattr(band, f)) for f in fields)


@given(windowed_bands())
@settings(max_examples=400, deadline=None)
def test_merged_window_bands_equal_the_whole_path_band(case):
    (values, upper, lower, mask, atol, over, finite), cuts = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in a checked step
        whole = band_check(values, upper, lower, mask, atol, over=over, finite=finite)
        merged = Bands.empty(1)
        for a, b in zip([0, *cuts], [*cuts, len(values)]):
            piece = lambda x: x[a:b, None] if np.ndim(x) == 1 else x  # noqa: E731
            args = (piece(x) for x in (values, upper, lower, mask))
            window = band_window(*args, atol=atol, over=piece(over), finite=piece(finite))
            merged = merged.then(window)
    assert merged.steps == len(values)
    assert as_tuple(merged.band(0)) == as_tuple(whole)


@given(windowed_bands())
@settings(max_examples=200, deadline=None)
def test_window_bands_in_a_reused_scratch_equal_fresh_ones(case):
    # one scratch through every window, its buffers dirty from a larger window
    # before: each window's band is the band of fresh buffers, field by field
    (values, upper, lower, mask, atol, over, finite), cuts = case
    scratch = Scratch()
    for name in ("checked", "margins", "low"):
        scratch.take(name, (len(values) + 3, 2)).fill(math.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf in a checked step
        for a, b in zip([0, *cuts], [*cuts, len(values)]):
            piece = lambda x: x[a:b, None] if np.ndim(x) == 1 else x  # noqa: E731
            args = [piece(x) for x in (values, upper, lower, mask)]
            fresh = band_window(*args, atol=atol, over=piece(over), finite=piece(finite))
            reused = band_window(
                *args, atol=atol, over=piece(over), finite=piece(finite), scratch=scratch
            )
            assert as_tuple(reused.band(0)) == as_tuple(fresh.band(0))


def test_bands_of_seeds_are_their_columns():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(50, 6))
    values[7, 2], values[30, 4] = math.nan, math.inf
    upper = rng.normal(1.0, 0.5, size=(50, 1))
    masks = rng.random((50, 6)) < 0.8
    bands = band_window(values, upper, -1.0, mask=masks, atol=1e-12)
    for j in range(6):
        one = band_check(values[:, j], upper[:, 0], -1.0, masks[:, j], 1e-12)
        assert as_tuple(bands.band(j)) == as_tuple(one)


SA_MEMORY = (
    "kind: sa\n"
    "problem: {family: sine_perturbed, slope: 1.0, amplitude: 0.3}\n"
    "schedule: {family: inverse_n, c: 1.0}\n"
    "noise: {family: gaussian, sd: 0.1}\n"
    "x0: 5.0\n"
    "envelope: {m: 0.7, M: 1.3, grid_min_abs: 1.0e-4, grid_max_abs: 10.0, grid_per_decade: 200}\n"
    "assertions: {sandwich_zero_violations: true}\n"
)


def test_untraced_memory_does_not_grow_with_the_horizon():
    # 200 seeds at H and 4H: a block of whole paths would grow by 8 * 200 * 3H
    # bytes of iterates (24 MB), the windows grow by nothing; what is left is
    # the schedule's per-step arrays, a few bytes a step
    peaks = []
    for horizon in (5000, 20000):
        config = parse_config_text(
            SA_MEMORY + f"ensemble: {{seeds: 200, root_seed: 1, horizon: {horizon}}}\n"
        )
        tracemalloc.start()
        try:
            experiments._run_sa(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 << 20, peaks


def test_schedule_memory_does_not_grow_with_the_horizon():
    # untraced sa_convergence at 34 seeds, 2e5 and 8e5 steps: each window
    # takes its own step sizes and the sandwich carries one flag from window to
    # window, and the report sums the step sizes window by window; the whole
    # horizon's step sizes and sandwich mask took 20 bytes a step (+8 MB here)
    shipped = Path(__file__).resolve().parent.parent / "configs" / "sa_convergence.yaml"
    text = shipped.read_text().split("ensemble:")[0]

    def peak(horizon):
        config = parse_config_text(
            text + f"ensemble: {{seeds: 34, root_seed: 1, horizon: {horizon}, tol_zero: 0.05}}\n"
        )
        tracemalloc.start()
        try:
            experiments._run_sa(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # lazy imports and caches
    short, long = peak(200_000), peak(800_000)
    assert long - short < 1 << 20, (short, long)


SCHEDULES = st.one_of(
    st.builds(Schedule.inverse_n, st.floats(0.01, 10.0)),
    st.builds(Schedule.inverse_n_power, st.floats(0.01, 10.0), st.floats(0.1, 3.0)),
    st.builds(
        Schedule.explicit, st.lists(st.floats(0.0, 10.0), min_size=3000, max_size=3000)
    ),
)


@given(
    schedule=SCHEDULES,
    horizon=st.integers(1, 3000),
    start=st.integers(0, 3000),
    window=st.integers(128, 700),
)
@settings(max_examples=80, deadline=None)
def test_schedule_windows_and_sums_are_the_whole_horizons_bits(schedule, horizon, start, window):
    # a window's step sizes are the whole horizon's slice, and the sums formed
    # window by window (down to any window of at least 128) are np.sum's
    whole = schedule.alphas(horizon)
    start = min(start, horizon)
    assert schedule.alphas(horizon, start).tobytes() == whole[start:].tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(approximation, "PAIRWISE_WINDOW", window)
        sums = schedule.sum_at(horizon), schedule.sum_sq_at(horizon)
    assert [repr(v) for v in sums] == [repr(float(whole.sum())), repr(float((whole * whole).sum()))]
