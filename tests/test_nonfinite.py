"""A NaN or infinite entry anywhere in a path makes every pathwise check fail.

Each property starts from a path on which the check holds, puts one
non-finite value into ``xs`` or ``ms`` and requires ``holds=False`` with
``first_violation`` at the first step the entry belongs to: ``xs[j]`` is the
realized value of step ``j`` (the initial value belongs to step 1) and
``ms[i]`` is the mean of step ``i + 1``.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import (
    ContractiveProfile,
    Design,
    GWeight,
    LsState,
    NonexpansiveProfile,
    ProcessPath,
    Schedule,
    check_contractive,
    check_design_conditions,
    check_nonexpansive,
    check_ratio_sandwich,
    check_segment_peak_bound,
    check_truncated_zero_mean_bound,
    check_zero_state_decay,
    EnsembleConfig,
    RegressionModel,
    derive_truncated,
    run_ensemble,
    simulate_ls_runs,
    truncated_nonexpansive_verdict,
)
from contractlab.harness import child_seed
from helpers import fixed_run

BAD = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def corruptions(draw):
    """(horizon, x0, array name, index, bad value) for one injected entry."""
    horizon = draw(st.integers(1, 30))
    x0 = draw(st.sampled_from([1.0, -3.0, 0.25]))
    name = draw(st.sampled_from(["xs", "ms"]))
    index = draw(st.integers(0, horizon if name == "xs" else horizon - 1))
    return horizon, x0, name, index, draw(BAD)


def halving(horizon, x0, name, index, bad, p=None):
    """Noiseless halving path (ratio exactly 1/2) with one entry replaced."""
    shape = (horizon + 1,) if p is None else (horizon + 1, p)
    xs = x0 * 0.5 ** np.arange(horizon + 1).reshape((-1,) + (1,) * (len(shape) - 1))
    xs = np.broadcast_to(xs, shape).copy()
    ms = 0.5 * xs[:-1]
    target = xs if name == "xs" else ms
    if p is None:
        target[index] = bad
    else:
        target[index, index % p] = bad
    step = max(index, 1) if name == "xs" else index + 1
    return xs, ms, step


def assert_fails_at(verdict, step):
    assert not verdict.holds
    assert verdict.first_violation == step


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_nonexpansive(case):
    xs, ms, step = halving(*case)
    path = ProcessPath(xs, ms)
    assert_fails_at(check_nonexpansive(path, NonexpansiveProfile.zero(path.horizon)), step)


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_contractive(case):
    xs, ms, step = halving(*case)
    path = ProcessPath(xs, ms)
    profile = ContractiveProfile.constant(0.5, path.horizon, divergence_target=0.0)
    assert_fails_at(check_contractive(path, profile), step)


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_zero_state_decay_whole_path(case):
    xs, ms, step = halving(*case)
    path = ProcessPath(xs, ms)
    assert_fails_at(check_zero_state_decay(path, tail_window=1, tol=1.0), step)


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_segment_peak_bound(case):
    xs, ms, step = halving(*case)
    path = ProcessPath(xs, ms)
    assert_fails_at(check_segment_peak_bound(path, np.zeros(path.horizon)), step)


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_ratio_sandwich(case):
    # alpha = 1/2 with m = M = 1 pins every ratio to exactly 1/2
    xs, ms, step = halving(*case)
    path = ProcessPath(xs, ms)
    schedule = Schedule.explicit(np.full(path.horizon, 0.5))
    assert_fails_at(check_ratio_sandwich(path, schedule, 1.0, 1.0), step)


@given(corruptions(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_norm_conditions(case, p):
    xs, ms, step = halving(*case, p=p)
    path = ProcessPath(xs, ms)
    ratio = check_nonexpansive(path, NonexpansiveProfile.zero(path.horizon))
    zero_state = check_zero_state_decay(path, tail_window=1, tol=1.0)
    assert_fails_at(ratio, step)
    assert_fails_at(zero_state, step)
    assert repr(ratio.worst_margin) == repr(zero_state.worst_margin) == "-inf"


def _truncate(case):
    xs, ms, step = halving(*case)
    base = ProcessPath(xs, ms)
    try:
        return derive_truncated(base, delta=1e-30, tau=1e-31), step
    except ValueError as exc:
        # a non-finite final value is an unsettled residual at the horizon
        assert "never settle" in str(exc)
        return None, step


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_truncated_nonexpansive(case):
    trunc, step = _truncate(case)
    if trunc is not None:
        assert_fails_at(truncated_nonexpansive_verdict(trunc), step)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_residual_is_unsettled(bad):
    xs, ms, _ = halving(6, 1.0, "ms", 2, bad)  # the residual of step 3 is non-finite
    trunc = derive_truncated(ProcessPath(xs, ms), delta=1e-30, tau=1e-31)
    assert trunc.n0 == 4
    xs, ms, _ = halving(6, 1.0, "ms", 5, bad)  # ... and at the horizon it never settles
    with pytest.raises(ValueError, match="never settle"):
        derive_truncated(ProcessPath(xs, ms), delta=1e-30, tau=1e-31)


@given(corruptions())
@settings(max_examples=60, deadline=None)
def test_truncated_zero_mean_bound(case):
    trunc, step = _truncate(case)
    if trunc is not None:
        assert_fails_at(check_truncated_zero_mean_bound(trunc, kappa=0.0), step)


@pytest.mark.parametrize(
    "check",
    [
        lambda p: check_nonexpansive(p, NonexpansiveProfile.zero(p.horizon)),
        lambda p: check_contractive(p, ContractiveProfile.constant(0.5, p.horizon, 0.0)),
        lambda p: check_zero_state_decay(p, tol=1.0),
        lambda p: check_segment_peak_bound(p, np.zeros(p.horizon)),
        lambda p: check_ratio_sandwich(p, Schedule.explicit(np.full(p.horizon, 0.5)), 1.0, 1.0),
    ],
)
def test_clean_halving_path_holds(check):
    xs, ms, _ = halving(12, 1.0, "xs", 0, 1.0)  # x0 replaced by itself: no corruption
    assert check(ProcessPath(xs, ms)).holds


def test_overflowing_solver_path_fails():
    # the iterate overflows at step 3, and inf - inf makes every later mean NaN
    xs = np.array([1.0, 0.5, 0.25, math.inf, math.nan])
    ms = np.array([0.5, 0.25, 0.125, math.nan])
    verdict = check_nonexpansive(ProcessPath(xs, ms), NonexpansiveProfile.zero(4))
    assert not verdict.holds
    assert verdict.first_violation == 3
    assert verdict.worst_margin == -math.inf


@st.composite
def design_corruptions(draw):
    """(xs, us, step) for a Gaussian design with one regressor or noise entry
    replaced by a non-finite value at the given 1-indexed step."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    xs = rng.normal(size=(n, p))
    us = rng.normal(size=n)
    row = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        xs[row, draw(st.integers(0, p - 1))] = draw(BAD)
    else:
        us[row] = draw(BAD)
    return xs, us, row + 1


@given(design_corruptions())
@settings(max_examples=100, deadline=None)
def test_design_conditions(case):
    # a non-finite regressor or noise value never reaches the design check:
    # the run raises at its step, whether or not the Gram matrix is singular yet
    xs, us, step = case
    what = "score" if np.isfinite(xs).all() else "gram matrix"
    with np.errstate(invalid="ignore"):  # inf * 0 in the responses of beta = 0
        with pytest.raises(ValueError, match=f"non-finite {what} at step {step},"):
            fixed_run(xs, us)


def test_design_conditions_overflowing_energy_fails():
    xs = np.random.default_rng(0).normal(size=(50, 2))
    xs[20, 1] = 1e200  # finite, but its square overflows the gram matrix
    with pytest.raises(ValueError, match="non-finite gram matrix at step 21,"):
        fixed_run(xs)


def test_design_conditions_nan_weight_is_unbounded():
    # a weight that is NaN below energy 1 must not be skipped in the supremum
    gw = GWeight(lambda x: np.sqrt(np.asarray(x, dtype=float) - 1.0), lambda c: 1.0)
    xs = np.random.default_rng(1).normal(size=(50, 2))
    with np.errstate(invalid="ignore"):
        run = fixed_run(xs, gw=gw)
    report = check_design_conditions(run, gw, sigma2=0.0)
    assert run.kappa_hat == report.kappa_hat == math.inf
    assert not report.weight_bound.holds
    assert report.weight_bound.worst_margin == -math.inf


def test_design_conditions_overflowing_inverse_is_unbounded():
    # diag(1e-320, 1e-320) is finite and of full rank from step 2, but its
    # inverse overflows: the elimination gives non-finite entries, which make
    # kappa_hat infinite, so weight_bound fails instead of holding
    xs = np.array([[1e-160, 0.0], [0.0, 1e-160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = fixed_run(xs)
    report = check_design_conditions(run, GWeight.identity(), sigma2=0.0)
    assert run.n0 == report.n0 == 2
    assert run.kappa_hat == report.kappa_hat == math.inf
    assert (report.weight_bound.holds, report.weight_bound.worst_margin) == (False, -math.inf)
    assert not report.holds


@pytest.mark.parametrize("field", ["kappa_hat", "energy"])
def test_design_conditions_nan_run_statistic_fails(field):
    # a hand-built run whose supremum or column energy is NaN, on a run that
    # otherwise holds every condition
    run = fixed_run(np.ones((500, 1)), np.random.default_rng(7).normal(size=500))
    assert check_design_conditions(run, GWeight.identity(), sigma2=1.0).holds
    nan = math.nan if field == "kappa_hat" else np.full(1, math.nan)
    report = check_design_conditions(
        dataclasses.replace(run, **{field: nan}), GWeight.identity(), sigma2=1.0
    )
    assert not report.holds
    verdict = report.weight_bound if field == "kappa_hat" else report.energy_growth
    assert (verdict.holds, verdict.first_violation) == (False, 500)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
@pytest.mark.parametrize("step", [1, 2, 3])
def test_ls_run_non_finite_gram_before_full_rank_names_the_step(bad, step):
    def draw(rng, sigma, start, xs, us, carry):
        steps = np.arange(start + 1, start + len(us) + 1)
        xs[:] = [1.0, 0.0]
        xs[steps <= 3, 1] = 1.0  # full rank from step 4
        xs[steps == step, 0] = bad
        us[:] = rng.normal(0.0, sigma, size=len(us))

    model = RegressionModel(np.array([1.0, 0.5]), Design(2, draw), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=f"non-finite gram matrix at step {step},"):
            simulate_ls_runs(model, 50, [0])


def test_ls_state_infinite_regressor_before_full_rank_names_the_step():
    # the singular seed's inverse meets inf before the Gram check: no warning
    # may come first
    state = LsState(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite gram matrix at step 1,"):
            state.update([[1.0, 0.0], [math.inf, 1.0]], [1.0, 1.0])


def test_ls_state_infinite_response_before_full_rank_names_the_step():
    # the Gram matrix stays finite and the score does not: the fold stops at
    # that step, with no warning first and the state as it was
    state = LsState(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state.update([[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
        before = state.score.tobytes(), state.gram_inv.tobytes()
        with pytest.raises(ValueError, match="non-finite score at step 2,"):
            state.update([[0.0, 1.0], [0.0, 1.0]], [1.0, math.inf])
    assert state.n == 1
    assert (state.score.tobytes(), state.gram_inv.tobytes()) == before


@pytest.mark.parametrize(
    "row, what",
    [
        ([1.0, 1.0, math.nan], "score"),
        ([1.0, 1.0, -math.inf], "score"),
        ([1e154, 0.0, 1e155], "score"),  # x * y overflows, x * x does not
        ([1e155, 1.0, 1.0], "gram matrix"),
        ([math.inf, 1.0, 1.0], "gram matrix"),
    ],
)
def test_ls_state_non_finite_after_full_rank_names_the_step(row, what):
    # both seeds are nonsingular from step 2; seed 1's row of step 5 is bad
    xy = np.ones((2, 8, 3))
    xy[:, ::2, 1] = 0.0
    xy[1, 4] = row
    state = LsState(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"non-finite {what} at step 5,"):
            state._fold(xy)
    assert state.n == 0


def test_ls_state_overflowing_sum_names_the_step():
    # each product is finite; the running score overflows at step 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = LsState(1, 1)
        state.update([[1.0]], [1e308])
        with pytest.raises(ValueError, match="non-finite score at step 2,"):
            state.update([[1.0]], [1e308])


def test_ls_block_errors_only_the_non_finite_seed():
    def draw(rng, sigma, start, xs, us, carry):  # about a third of the seeds draw a NaN row at step 1
        draws = rng.normal(0.0, [1.0, 1.0, sigma], size=(len(us), 3))
        xs[:], us[:] = draws[:, :2], draws[:, 2]
        if start == 0 and xs[0, 0] > 0.4:
            xs[0] = [math.nan, 1.0]

    model = RegressionModel(np.array([1.0, 0.5]), Design(2, draw), 1.0)
    config = EnsembleConfig(seeds=10, root_seed=2, horizon=200)
    expected = []
    for index in range(config.seeds):
        try:
            simulate_ls_runs(model, 200, [child_seed(2, index)])
            expected.append("")
        except ValueError as exc:
            expected.append(f"ValueError: {exc}")
    assert 0 < sum(map(bool, expected)) < config.seeds
    assert all("step 1," in note for note in expected if note)

    def solve(seed_sequences):
        return [(run.err_sup, run) for run in simulate_ls_runs(model, 200, seed_sequences)]

    stats = run_ensemble(solve, config)
    assert [v.note for v in stats.per_seed] == expected
    assert [run is None for run in stats.payloads] == [bool(note) for note in expected]
