import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contractlab import (
    GWeight,
    LsState,
    NonexpansiveProfile,
    RegressionModel,
    check_design_conditions,
    check_nonexpansive,
    integral_bound,
    partition_analysis,
    simulate_ls_runs,
    z_process,
)
from contractlab import EnsembleConfig, least_squares
from contractlab.harness import tail_length, tail_verdict
from contractlab.least_squares import (
    PIECE_STEPS,
    Design,
    LsRun,
    Noise,
    feedback_design,
    geometric_one_design,
    iid_gaussian_design,
    rotating_design,
)
from contractlab.process import zero_state_mask
from helpers import (
    feedback_steps,
    feedback_whole,
    fixed_run,
    geometric_one_steps,
    geometric_one_whole,
    iid_gaussian_steps,
    iid_gaussian_whole,
    per_step_stream,
    rotating_steps,
    rotating_whole,
    stepped_estimates,
    stepped_n0_kappa,
)


class TestLsState:
    def test_constant_design_recovers_mean(self):
        state = LsState(1, 1)
        us = [0.5, -0.5, 1.0, 0.0]
        beta = 2.0
        for u in us:
            state.update([[1.0]], [beta + u])
        assert state.estimate[0, 0] == pytest.approx(beta + np.mean(us))

    def test_noiseless_exact(self):
        state = LsState(1, 1)
        for _ in range(10):
            state.update([[1.0]], [3.0])
        assert state.estimate[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_rank_one_updates_match_dense_solve(self):
        rng = np.random.default_rng(0)
        p = 5
        state = LsState(p, 1)
        X, Y = [], []
        worst = 0.0
        for i in range(600):
            x = rng.normal(size=p)
            y = rng.normal()
            X.append(x)
            Y.append(y)
            state.update([x], [y])
            if not state.singular[0] and (i + 1) % 50 == 0:
                dense, *_ = np.linalg.lstsq(np.asarray(X), np.asarray(Y), rcond=None)
                worst = max(worst, float(np.max(np.abs(state.estimate[0] - dense))))
        assert worst <= 1e-8

    def test_inverse_consistency(self):
        rng = np.random.default_rng(1)
        state = LsState(3, 1)
        for _ in range(100):
            state.update([rng.normal(size=3)], [rng.normal()])
        # the scaled entrywise norm p * max|c_ij| of the residual matrix
        gap = 3 * np.abs(state.gram[0] @ state.gram_inv[0] - np.eye(3)).max()
        assert gap <= 1e-8

    def test_singularity_flips_at_full_rank(self):
        state = LsState(3, 1)
        state.update([[1.0, 0.0, 0.0]], [1.0])
        assert state.singular[0] and np.isnan(state.estimate).all()
        state.update([[0.0, 1.0, 0.0]], [1.0])
        assert state.singular[0]
        state.update([[0.0, 0.0, 1.0]], [1.0])
        assert not state.singular[0]
        assert state.first_nonsingular[0] == 3

    def test_energy_tracks_column_sums(self):
        state = LsState(2, 1)
        state.update([[1.0, 2.0]], [0.0])
        state.update([[3.0, 0.5]], [0.0])
        assert state.energy.tolist() == [[10.0, 4.25]]

    def test_shape_validation(self):
        state = LsState(2, 1)
        with pytest.raises(ValueError):
            state.update([1.0], 0.0)

    def test_seed_axis_matches_lone_states(self):
        rng = np.random.default_rng(3)
        seeds, p = 4, 3
        block = LsState(p, seeds)
        alone = [LsState(p, 1) for _ in range(seeds)]
        for step in range(2 * PIECE_STEPS + 20):
            X = rng.normal(size=(seeds, p))
            X[step < np.array([0, 5, 9, 40])] = 0.0  # full rank at different steps
            Y = rng.normal(size=seeds)
            block.update(X, Y)
            for s, state in enumerate(alone):
                state.update(X[s : s + 1], Y[s : s + 1])
        assert block.gram.shape == block.gram_inv.shape == (seeds, p, p)
        assert block.estimate.shape == block.energy.shape == block.score.shape == (seeds, p)
        for s, state in enumerate(alone):
            for name in ("gram", "gram_inv", "score", "energy", "estimate"):
                assert getattr(block, name)[s].tobytes() == getattr(state, name)[0].tobytes(), name
            assert block.first_nonsingular[s] == state.first_nonsingular[0]
        assert len(set(block.first_nonsingular.tolist())) > 1

    def test_seed_axis_shape_validation(self):
        with pytest.raises(ValueError):
            LsState(2, 3).update(np.zeros((2, 2)), np.zeros(2))

    def test_chunk_fold_equals_single_updates(self):
        # the seeds reach full rank at steps 3, 7, 10 and 14, all inside the
        # second chunk
        rng = np.random.default_rng(5)
        seeds, p, horizon = 4, 3, 40
        X = rng.normal(size=(seeds, horizon, p))
        X[np.arange(horizon) < np.array([[0], [4], [7], [11]])] = 0.0
        Y = rng.normal(size=(seeds, horizon))
        stepped = LsState(p, seeds)
        estimates = np.stack(
            [stepped.update(X[:, i], Y[:, i]).estimate.copy() for i in range(horizon)], axis=1
        )
        folded = LsState(p, seeds)
        xy = np.concatenate((X, Y[:, :, None]), axis=2)
        out = np.concatenate(
            [folded._fold(xy[:, lo:hi])[0] for lo, hi in [(0, 2), (2, 17), (17, 40)]], axis=2
        )
        assert folded.first_nonsingular.tolist() == [3, 7, 10, 14]
        assert np.moveaxis(out, 0, -1).tobytes() == estimates.tobytes()
        for name in ("gram", "gram_inv", "score", "energy", "estimate", "first_nonsingular"):
            assert getattr(folded, name).tobytes() == getattr(stepped, name).tobytes(), name
        assert folded.n == stepped.n == horizon

    def test_chunk_fold_names_the_non_finite_step(self):
        xy = np.ones((2, 6, 3))
        xy[:, :, 1] = 0.0  # singular throughout
        xy[1, 4, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite gram matrix at step 5,"):
            LsState(2, 2)._fold(xy)


@given(
    p=st.integers(1, 4),
    prefixes=st.lists(st.integers(0, 30), min_size=1, max_size=4),
    chunks=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    data_seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_fold_matches_each_steps_dense_solve(p, prefixes, chunks, data_seed):
    # zero-row prefixes make the seeds nonsingular at different steps, inside
    # a piece or at its ends, or never.  The oracle sums each seed's Gram
    # matrix and score row by row, finds the first step n >= p of rank p,
    # and from there inverts and solves every step's normal equations
    # densely.  The elimination errs by about eps * cond(G), relative.
    seeds, horizon = len(prefixes), sum(chunks)
    rng = np.random.default_rng(data_seed)
    xy = rng.normal(size=(seeds, horizon, p + 1))
    xy[np.arange(horizon) < np.array(prefixes)[:, None], :p] = 0.0
    state = LsState(p, seeds)
    bounds = np.cumsum([0, *chunks])
    folds = [state._fold(xy[:, lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    estimates, columns = (np.concatenate([f[i] for f in folds], axis=2) for i in (0, 1))
    for s in range(seeds):
        gram, score, n0 = np.zeros((p, p)), np.zeros(p), 0
        for n in range(1, horizon + 1):
            x, y = xy[s, n - 1, :p], xy[s, n - 1, p]
            gram += np.outer(x, x)
            score += x * y
            if not n0 and n >= p and np.linalg.matrix_rank(gram) == p:
                n0 = n
            got = estimates[:, s, n - 1], columns[:, s, n - 1]
            if not n0:
                assert np.isnan(got).all(), n
                continue
            inv, solution = np.linalg.inv(gram), np.linalg.solve(gram, score)
            tol = 16 * np.finfo(float).eps * np.linalg.cond(gram)
            assert np.abs(got[0] - solution).max() <= tol * np.abs(solution).max(), n
            want = np.abs(inv).max(axis=0)
            assert np.abs(got[1] - want).max() <= tol * want.max(), n
        assert state.first_nonsingular[s] == n0
        assert np.isnan(state.estimate[s]).all() == (n0 == 0)


class TestIntegralBound:
    def test_p_series(self):
        res = integral_bound(np.ones(10_000), lambda x: x * x, tail_integral=1.0)
        assert 1.6448 <= res.partial_sum <= 1.6450
        assert res.bound == pytest.approx(2.0)
        assert res.holds

    def test_single_term(self):
        res = integral_bound([1.0], lambda x: x * x, tail_integral=1.0)
        assert res.partial_sum == pytest.approx(1.0)
        assert res.bound - res.partial_sum >= 0

    def test_random_sequences_never_violate(self):
        f = lambda x: x * x
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0.0, 1.0, size=500)
            a[0] = 0.5
            res = integral_bound(a, f, tail_integral=1 / a[0])
            assert res.holds
            assert res.bound == pytest.approx(0.5 / 0.25 + 2.0)

    def test_head_forms_differ(self):
        res = integral_bound([2.0, 1.0], lambda x: x * x, tail_integral=0.5)
        # the head term is a_1 / f(A_1) = 2 / 4, not a_1 / A_1 = 1
        assert res.bound == pytest.approx(2.0 / 4.0 + 0.5)

    def test_first_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="first weight"):
            integral_bound([0.0, 1.0], lambda x: x * x, tail_integral=math.inf)

    def test_divergent_tail_rejected(self):
        with pytest.raises(ValueError, match="converge"):
            integral_bound([1.0, 1.0], lambda x: x, tail_integral=math.inf)

    def test_prefix_length(self):
        full = integral_bound(np.ones(100), lambda x: x * x, tail_integral=1.0)
        half = integral_bound(np.ones(50), lambda x: x * x, tail_integral=1.0)
        assert half.partial_sum < full.partial_sum


class TestGWeight:
    def test_identity_tail(self):
        gw = GWeight.identity()
        assert gw.tail(2.0) == pytest.approx(0.5)

    def test_sqrt_log_tail_finite(self):
        gw = GWeight.sqrt_log()
        tail = gw.tail(1.0)
        assert math.isfinite(tail) and tail > 0

    @given(st.floats(1e-3, 1e3))
    @example(1e-3)  # the integral is 6.54 here, 6.5 times the bound without its (1 + c) / c
    @settings(max_examples=50, deadline=None)
    def test_sqrt_log_tail_bounds_the_integral(self, c):
        # fn(x)**-2 decreases, so its right-endpoint sum on any grid from c is below the integral
        gw = GWeight.sqrt_log()
        x = c * np.logspace(0, 8, 4001)
        below = float(np.sum(np.diff(x) / gw(x[1:]) ** 2))
        tail = gw.tail(c)
        assert math.isfinite(tail) and tail >= below

    def test_nondecreasing_on_grid(self):
        grid = np.logspace(-3, 6, 200)
        for name in ("identity", "sqrt_log"):
            assert np.all(np.diff(getattr(GWeight, name)()(grid)) >= 0), name

    def test_sqrt_growth_factorization(self):
        # g(x) = sqrt(x) * h(x) with h nondecreasing and growing at least 5-fold
        grid = np.logspace(0, 8, 100)
        for name in ("identity", "sqrt_log"):
            h = getattr(GWeight, name)()(grid) / np.sqrt(grid)
            assert np.all(np.diff(h) >= -1e-12) and h[-1] / h[0] >= 5.0, name


class TestZProcess:
    def test_constant_design_is_weighted_average(self):
        rng = np.random.default_rng(3)
        n = 200
        us = rng.normal(size=n)
        xs = np.ones((n, 1))
        z = z_process(xs, us, GWeight.identity())
        expected = np.cumsum(us) / np.arange(1, n + 1)
        assert np.allclose(z.xs[1:, 0], expected, rtol=1e-13)
        comp = z.component(0)
        prev = comp.xs[1:-1]
        ratios = comp.ms[1:] / prev
        expected_ratio = np.arange(1, n) / np.arange(2, n + 1)
        assert np.allclose(ratios, expected_ratio, rtol=1e-12)

    def test_noiseless_score_is_zero(self):
        xs = np.ones((50, 2))
        z = z_process(xs, np.zeros(50), GWeight.identity())
        assert np.all(z.xs == 0.0)

    def test_componentwise_nonexpansive_exact(self):
        rng = np.random.default_rng(4)
        n = 2000
        xs = np.column_stack([2.0 ** -np.arange(1, n + 1), np.ones(n)])
        us = rng.normal(size=n)
        z = z_process(xs, us, GWeight.identity())
        for t in range(2):
            verdict = check_nonexpansive(z.component(t), NonexpansiveProfile.zero(n), atol=0.0)
            assert verdict.holds

    def test_zero_score_restarts_have_zero_mean(self):
        rng = np.random.default_rng(5)
        n = 100
        xs = rng.normal(size=(n, 2))
        us = rng.normal(size=n)
        z = z_process(xs, us, GWeight.identity())
        for t in range(2):
            comp = z.component(t)
            assert np.all(comp.ms[zero_state_mask(comp)] == 0.0)

    def test_deferred_components_until_excited(self):
        xs = np.zeros((10, 2))
        xs[:, 1] = 1.0
        xs[5:, 0] = 1.0  # first column wakes up at step 6
        us = np.ones(10)
        z = z_process(xs, us, GWeight.identity())
        assert np.all(z.xs[:6, 0] == 0.0)
        assert z.xs[6, 0] != 0.0

    def test_variance_budget_bounded(self):
        rng = np.random.default_rng(6)
        n = 1000
        xs = rng.normal(size=(n, 2))
        gw = GWeight.identity()
        # sum_{n,t} x_nt^2 / g(energy_nt)^2 against the per-column cap of
        # integral_bound with f = g**2 (the noise variance scales both sides)
        total = float(np.sum(xs * xs / gw(np.cumsum(xs * xs, axis=0)) ** 2))
        bound = sum(
            integral_bound(a, lambda x: float(gw(x)) ** 2, tail_integral=gw.tail(a[0])).bound
            for a in (xs * xs).T
        )
        assert total <= bound

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            z_process(np.zeros((0, 2)), np.zeros(0), GWeight.identity())


class TestSimulateAndDecomposition:
    def test_checkpoint_gap_small(self):
        model = RegressionModel(
            beta=np.array([1.0, -0.5]), design=rotating_design(), sigma=1.0
        )
        run = simulate_ls_runs(model, 2000, [0], checkpoints=[10, 100, 1000, 2000])[0]
        assert run.checkpoint_gap <= 1e-8

    @pytest.mark.parametrize("checkpoints", [[0, 3], [-1], [3, 7]])
    def test_checkpoint_outside_horizon_rejected(self, checkpoints):
        model = RegressionModel(
            beta=np.array([1.0, -0.5]), design=rotating_design(), sigma=1.0
        )
        with pytest.raises(ValueError, match=r"checkpoints must lie in 1\.\.6"):
            simulate_ls_runs(model, 6, [0, 1], checkpoints=checkpoints)

    def test_weighted_decomposition_identity(self):
        model = RegressionModel(
            beta=np.array([1.0, -0.5]), design=rotating_design(), sigma=1.0
        )
        run = simulate_ls_runs(model, 500, [1])[0]
        gw = GWeight.identity()
        z = z_process(run.xs, run.us, gw)
        # b_n - beta = gram^-1 diag(g(column energies)) z_n at every step n
        for n in (50, 200, 500):
            X = run.xs[:n]
            gram = X.T @ X
            b_err = np.linalg.solve(gram, X.T @ run.ys[:n]) - model.beta
            rhs = np.linalg.solve(gram, gw(np.sum(X * X, axis=0)) * z.xs[n])
            assert np.max(np.abs(b_err - rhs)) <= 1e-8

    def test_beta_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="beta has 3 entries but the design has 2 columns"):
            RegressionModel(beta=np.zeros(3), design=rotating_design(), sigma=1.0)

    def test_run_shapes(self):
        model = RegressionModel(
            beta=np.array([0.0, 2.0]), design=iid_gaussian_design(2), sigma=0.5
        )
        run = simulate_ls_runs(model, 300, [2], tail_fraction=0.1)[0]
        assert run.xs.shape == (300, 2)
        assert run.tail_err.shape == run.tail_osc.shape == run.final_b.shape == (2,)
        assert run.n0 is not None and run.n0 <= 10

    @pytest.mark.parametrize(
        "horizon, tail_fraction, window", [(11, 0.2, 2), (9, 0.25, 2), (14, 0.1, 1), (3, 0.1, 1)]
    )
    def test_tail_estimates_are_the_window_the_verdict_reads(self, horizon, tail_fraction, window):
        model = RegressionModel(beta=np.array([1.0, -0.5]), design=rotating_design(), sigma=1.0)
        run = simulate_ls_runs(model, horizon, [0], tail_fraction)[0]
        assert tail_length(horizon, tail_fraction) == window
        config = EnsembleConfig(seeds=1, root_seed=0, horizon=horizon, tail_fraction=tail_fraction)
        assert tail_verdict(run.err_sup, config).tail_sup == run.tail_err.max()


class TestDesignConditions:
    def test_constant_scalar_design(self):
        n = 500
        xs = np.ones((n, 1))
        rng = np.random.default_rng(7)
        us = rng.normal(size=n)
        report = check_design_conditions(fixed_run(xs, us), GWeight.identity(), sigma2=1.0)
        assert report.holds
        assert report.kappa_hat == pytest.approx(1.0)
        assert report.n0 == 1

    def test_geometric_column_fails_energy_growth(self):
        n = 200
        xs = (2.0 ** -np.arange(1, n + 1))[:, None]
        report = check_design_conditions(fixed_run(xs), GWeight.identity(), sigma2=0.0)
        assert not report.energy_growth.holds
        assert report.energy_growth.first_violation == n  # a whole-run statistic
        assert report.energy_growth.detail.startswith("column 0 energy")
        assert report.nonsingularity.holds

    def test_noise_in_a_noiseless_model_fails_at_its_first_step(self):
        us = np.array([0.0, 0.0, 0.5, -0.5, 0.0])  # sums to zero
        report = check_design_conditions(fixed_run(np.ones((5, 1)), us), GWeight.identity(), 0.0)
        verdict = report.noise_centered
        assert (verdict.first_violation, verdict.worst_margin) == (3, -0.5)
        assert verdict.detail == "nonzero noise at step 3 in a noiseless model"

    def test_feedback_design_across_seeds(self):
        model = RegressionModel(
            beta=np.array([1.0, 0.5]), design=feedback_design(), sigma=1.0
        )
        for seed, run in enumerate(simulate_ls_runs(model, 500, range(100))):
            report = check_design_conditions(run, GWeight.identity(), sigma2=1.0)
            assert report.nonsingularity.holds, f"seed {seed}"
            assert report.weight_bound.holds, f"seed {seed}"
            assert report.energy_growth.holds, f"seed {seed}"

    def test_inflated_noise_fails_variance_check(self):
        n = 2000
        rng = np.random.default_rng(8)
        us = rng.normal(0.0, 1.0, size=n)
        xs = np.ones((n, 1))
        report = check_design_conditions(fixed_run(xs, us), GWeight.identity(), sigma2=0.25)
        assert not report.noise_variance.holds

    def test_diverging_weight_tail_fails_weight_bound(self):
        gw = GWeight(lambda x: np.asarray(x, dtype=float), lambda c: math.inf)
        run = fixed_run(np.ones((50, 1)), gw=gw)
        verdict = check_design_conditions(run, gw, sigma2=0.0).weight_bound
        assert (verdict.holds, verdict.first_violation) == (False, 50)
        assert verdict.detail == "weight tail integral diverges"


# ---------------------------------------------------------------------------
# Seed-batched runs: a block of seeds is bit-identical to its seeds run alone.


def hesitant_draw(rng, sigma, start, xs, us, zeros):
    """Gaussian rows after a zero prefix whose length differs per seed: seeds
    reach full rank at different steps, often inside a piece.  The prefix
    length is drawn first and carried from piece to piece."""
    if zeros is None:
        zeros = int(rng.integers(0, 40))
    draws = rng.normal(0.0, [1.0, 1.0, sigma], size=(len(us), 3))
    xs[:] = draws[:, :2]
    xs[: max(zeros - start, 0)] = 0.0
    us[:] = draws[:, 2]
    return zeros


def steered_draw(rng, sigma, start, xs, us, carry):
    draws = rng.normal(0.0, [0.5, 0.5, sigma], size=(len(us), 3))
    xs[:] = draws[:, :2]
    xs[:, 0] += 1.0
    us[:] = draws[:, 2]


def steer(estimates, rows):
    """A closed loop: the second column leans against the current estimate."""
    rows[:, 1] += np.nan_to_num(-0.3 * np.tanh(estimates[:, 1]))


BLOCK_MODELS = {
    "rotating": RegressionModel(np.array([1.0, -0.5]), rotating_design(), 1.0),
    "geometric_one": RegressionModel(np.array([1.0, -0.5]), geometric_one_design(), 0.01),
    "iid_gaussian": RegressionModel(np.array([0.5, 1.0, -1.0]), iid_gaussian_design(3, 0.7), 0.5),
    "feedback": RegressionModel(np.array([1.0, 0.5]), feedback_design(), 1.0),
    "hesitant": RegressionModel(np.array([1.0, -0.5]), Design(2, hesitant_draw), 1.0),
    "steered": RegressionModel(np.array([1.0, -0.5]), Design(2, steered_draw, steer), 1.0),
}
RUN_FIELDS = (
    "xs", "ys", "us", "final_b", "energy", "n0", "kappa_hat", "tail_err", "tail_osc",
    "checkpoint_gap", "err_sup",
)


def assert_same_run(a, b):
    """Bit for bit: arrays by shape and bytes (so NaN rows compare), the rest by ==."""
    for field in RUN_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), field
        else:
            assert x == y, field


@given(
    name=st.sampled_from(sorted(BLOCK_MODELS)),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True),
    horizon=st.one_of(
        st.integers(1, 40), st.integers(2 * PIECE_STEPS + 1, 2 * PIECE_STEPS + 80)
    ),
    tail_fraction=st.sampled_from([0.05, 0.2, 0.5]),
    checkpoints=st.lists(st.integers(1, 2 * PIECE_STEPS + 80), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_block_equals_seed_by_seed(name, seeds, horizon, tail_fraction, checkpoints):
    model = BLOCK_MODELS[name]
    checkpoints = [c for c in checkpoints if c <= horizon]  # others are rejected
    try:
        alone = [simulate_ls_runs(model, horizon, [s], tail_fraction, checkpoints)[0] for s in seeds]
    except ValueError as exc:  # some seed never reaches full rank: the block fails too
        with pytest.raises(ValueError, match=str(exc)):
            simulate_ls_runs(model, horizon, seeds, tail_fraction, checkpoints)
        return
    block = simulate_ls_runs(model, horizon, seeds, tail_fraction, checkpoints)
    assert len(block) == len(seeds)
    for a, b in zip(alone, block):
        assert_same_run(a, b)


PER_STEP_RULES = {
    "rotating": rotating_steps(),
    "geometric_one": geometric_one_steps(),
    "iid_gaussian": iid_gaussian_steps(3, 0.7),
    "feedback": feedback_steps(),
}


@pytest.mark.parametrize("name", sorted(PER_STEP_RULES))
@pytest.mark.parametrize("sigma", [0.0, 0.7, -0.0])
def test_block_draw_reproduces_per_step_stream(name, sigma):
    # a run's whole-horizon draw is the per-step stream, and its chunked fold
    # equals single steps; a shorter horizon after a longer one reads a prefix
    # of the cached seed-independent columns
    model = dataclasses.replace(BLOCK_MODELS[name], sigma=sigma)
    rule = PER_STEP_RULES[name]
    if math.copysign(1.0, sigma) < 0:  # -0.0 is rejected like a per-step draw
        with pytest.raises(ValueError, match="scale < 0"):
            per_step_stream(rule, np.random.default_rng(0), sigma, 10)
        with pytest.raises(ValueError, match="scale < 0"):
            simulate_ls_runs(model, 10, [0])
        return
    no_op = dataclasses.replace(model.design, law=lambda estimates, rows: None)
    stepwise = dataclasses.replace(model, design=no_op)
    for horizon in (700, 300, 700):
        run, stepped = (
            simulate_ls_runs(m, horizon, [horizon], checkpoints=[9, horizon])[0]
            for m in (model, stepwise)
        )
        assert_same_run(run, stepped)
        xs, us = per_step_stream(rule, np.random.default_rng(horizon), sigma, horizon)
        assert run.xs.tobytes() == xs.tobytes() and run.us.tobytes() == us.tobytes()
        run.xs[:] = math.nan  # a caller that reuses its regressors must not reach the cache


@pytest.mark.parametrize("name", ["rotating", "geometric_one"])
def test_cached_design_columns_match_the_per_step_values(name):
    # the draw itself, outside a run: a shorter horizon after a longer one
    # reads a prefix of the cached columns, and overwriting a drawn block
    # leaves the cache alone
    model = BLOCK_MODELS[name]
    for horizon in (700, 300, 700):
        xs, us = np.empty((horizon, model.p)), np.empty(horizon)
        model.design.draw(np.random.default_rng(horizon), model.sigma, 0, xs, us, None)
        want_xs, want_us = per_step_stream(
            PER_STEP_RULES[name], np.random.default_rng(horizon), model.sigma, horizon
        )
        assert xs.tobytes() == want_xs.tobytes() and us.tobytes() == want_us.tobytes()
        xs[:] = math.nan  # a caller that reuses its regressors must not reach the cache


WHOLE_DRAWS = {
    "rotating": rotating_whole(),
    "geometric_one": geometric_one_whole(),
    "iid_gaussian": iid_gaussian_whole(3, 0.7),
    "feedback": feedback_whole(),
}


@given(
    name=st.sampled_from(sorted(WHOLE_DRAWS)),
    sigma=st.sampled_from([0.0, 0.7, 1.0]),
    horizon=st.integers(1, 1200),
    cuts=st.lists(st.integers(1, 1199), max_size=6),
    singles=st.lists(st.integers(0, 1199), max_size=4),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_piecewise_draws_equal_the_whole_horizon_draw(name, sigma, horizon, cuts, singles, seeds):
    # each built-in design, drawn piece by piece at any cuts (a single step
    # after each of ``singles``), gives each seed the bytes of its draw of
    # the whole horizon at once; as in a run, the seeds draw each piece in
    # turn, into a fresh buffer whose regressors are a strided view
    design = BLOCK_MODELS[name].design
    p = design.p
    cuts = sorted(c for c in {0, *cuts, *singles, *(n + 1 for n in singles)} if c < horizon)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    carries = [None] * len(seeds)
    got = [(np.empty((horizon, p)), np.empty(horizon)) for _ in seeds]
    for a, b in zip(cuts, cuts[1:] + [horizon]):
        for s, rng in enumerate(rngs):
            rows, us = np.full((b - a, p + 1), math.nan), np.full(b - a, math.nan)
            carries[s] = design.draw(rng, sigma, a, rows[:, :p], us, carries[s])
            got[s][0][a:b], got[s][1][a:b] = rows[:, :p], us
    for seed, (xs, us) in zip(seeds, got):
        want_xs, want_us = np.empty((horizon, p)), np.empty(horizon)
        WHOLE_DRAWS[name](np.random.default_rng(seed), sigma, want_xs, want_us)
        assert xs.tobytes() == want_xs.tobytes() and us.tobytes() == want_us.tobytes()


LS_RUN = """
kind: ls
design: {{family: {family}}}
beta: [1.0, -0.5]
sigma: 1.0
gweight: {{family: identity}}
checkpoints: 5
ensemble: {{seeds: 8, root_seed: 5, horizon: 100}}
assertions: {{design_conditions_hold: true, max_checkpoint_gap: 1.0e-8}}
output: {{dir: {out}}}
"""


def test_untraced_run_memory_does_not_grow_with_the_horizon(tmp_path):
    # an untraced run holds one piece of its seeds' rows, noise and errors,
    # whatever the horizon; whole-horizon arrays took 40 bytes a seed-step
    # (+3.8 MB from H to 4H here)
    from contractlab.cli import main

    cfg = tmp_path / "ls.yaml"
    cfg.write_text(LS_RUN.format(family="rotating", out=tmp_path / "out"))

    def peak(horizon):
        tracemalloc.start()
        try:
            assert main(["run", str(cfg), "--horizon", str(horizon)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # lazy imports and caches
    short, long = peak(4000), peak(16000)
    piece = 8 * 8 * PIECE_STEPS * (2 + 3)  # S * PIECE_STEPS rows of x, y, u and the error
    assert long - short < piece, (short, long)


@pytest.mark.parametrize("family", ["rotating", "feedback", "geometric_one"])
def test_traced_and_untraced_runs_write_the_same_summary(tmp_path, family):
    # the traced run reduces its whole error arrays, the untraced one folds
    # them piece by piece: the same exit code, verdicts, curves and report
    # (geometric_one fails its energy growth either way)
    from contractlab.cli import main

    outs = []
    for traced in (False, True):
        out = tmp_path / f"out{traced:d}"
        cfg = tmp_path / f"ls{traced:d}.yaml"
        cfg.write_text(LS_RUN.format(family=family, out=out))
        code = main(["run", str(cfg), "--horizon", "1300"] + ["--traces"] * traced)
        summary = json.loads((out / "summary.json").read_text())
        del summary["config"]["output_dir"], summary["config"]["traces"]
        outs.append((code, summary, (out / "quantiles.csv").read_bytes()))
    assert (tmp_path / "out1" / "traces.csv").exists()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", sorted(BLOCK_MODELS))
def test_checkpoint_gap_stays_at_rounding(name):
    # every built-in design, the test designs and the steered closed loop,
    # with checkpoints inside pieces, at their ends and at the horizon: the
    # normal equations agree with the streaming QR, and the QR of rows fed in
    # those pieces with a dense lstsq, to 1e-12
    model = BLOCK_MODELS[name]
    checkpoints = [5, 37, 511, 512, 700, 1024, 1999, 2000]
    p = model.p
    for run in simulate_ls_runs(model, 2000, range(4), checkpoints=checkpoints):
        assert run.checkpoint_gap <= 1e-12
        rows, tri = np.column_stack((run.xs, run.ys))[None], np.empty((1, 0, p + 1))
        for a, b in zip([0, *checkpoints], checkpoints):
            tri = least_squares._qr_triangle(tri, rows[:, a:b])
            if b >= run.n0:
                dense, *_ = np.linalg.lstsq(run.xs[:b], run.ys[:b], rcond=None)
                assert np.abs(least_squares._solve_triangle(tri, p)[0] - dense).max() <= 1e-12


@given(
    name=st.sampled_from(["rotating", "geometric_one", "iid_gaussian", "feedback"]),
    piece_steps=st.integers(1, 9),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
    horizon=st.integers(3, 60),
    tail_fraction=st.sampled_from([0.05, 0.2, 0.5]),
    checkpoints=st.lists(st.integers(1, 60), max_size=4),
)
# seeds 0-3 of hesitant turn nonsingular at steps 21, 34, 16 and 36, in
# different pieces: each seed's kappa_hat reads its steps from its own on
@example(
    name="hesitant", piece_steps=4, seeds=[0, 1, 2, 3], horizon=80, tail_fraction=0.2,
    checkpoints=[],
)
@settings(max_examples=60, deadline=None)
def test_chunk_bounds_keep_the_single_step_runs(
    name, piece_steps, seeds, horizon, tail_fraction, checkpoints
):
    # short chunks put checkpoints and the tail start inside and at the ends of
    # chunks; a no-op law folds one step at a time
    model = BLOCK_MODELS[name]
    no_op = dataclasses.replace(model.design, law=lambda estimates, rows: None)
    stepwise = dataclasses.replace(model, design=no_op)
    checkpoints = [c for c in checkpoints if c <= horizon]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "PIECE_STEPS", piece_steps)
        folded = simulate_ls_runs(model, horizon, seeds, tail_fraction, checkpoints)
        stepped = simulate_ls_runs(stepwise, horizon, seeds, tail_fraction, checkpoints)
        alone = [simulate_ls_runs(model, horizon, [s], tail_fraction, checkpoints)[0] for s in seeds]
        gaps = [single_step_gap(run, checkpoints) for run in folded]
    for a, b, c, gap in zip(folded, stepped, alone, gaps):
        assert_same_run(a, b)
        assert_same_run(a, c)
        assert a.checkpoint_gap == gap


@given(
    gain=st.floats(-2.0, 2.0),
    piece_steps=st.integers(1, 9),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4, unique=True),
    horizon=st.integers(40, 120),
    checkpoints=st.lists(st.integers(1, 120), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_law_block_equals_its_seeds_run_alone(gain, piece_steps, seeds, horizon, checkpoints):
    # the seeds leave their zero prefixes at different steps, so one call of
    # the law sees estimates for some seeds and NaN rows for others
    def law(estimates, rows):
        rows += gain * np.tanh(np.nan_to_num(estimates))

    model = RegressionModel(np.array([1.0, -0.5]), Design(2, hesitant_draw, law), 1.0)
    checkpoints = [c for c in checkpoints if c <= horizon]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "PIECE_STEPS", piece_steps)
        try:
            alone = [simulate_ls_runs(model, horizon, [s], 0.2, checkpoints)[0] for s in seeds]
        except ValueError as exc:  # some seed never reaches full rank: the block fails too
            with pytest.raises(ValueError, match=str(exc)):
                simulate_ls_runs(model, horizon, seeds, 0.2, checkpoints)
            return
        block = simulate_ls_runs(model, horizon, seeds, 0.2, checkpoints)
    for a, b in zip(alone, block):
        assert_same_run(a, b)


def test_law_reads_the_estimate_after_the_step_before():
    seen = []
    model = RegressionModel(
        np.array([1.0, -0.5]), Design(2, hesitant_draw, lambda e, rows: seen.append(e.copy())), 1.0
    )
    run = simulate_ls_runs(model, 60, [7])[0]
    assert len(seen) == 60 and np.isnan(seen[0]).all()
    estimates = stepped_estimates(run.xs, run.ys)
    assert np.array(seen[1:])[:, 0].tobytes() == estimates[:-1].tobytes()
    assert 1 < run.n0 < 60


def single_step_gap(run, checkpoints):
    """The checkpoint gap of one seed's run, refolded one update at a time,
    against the QR triangle of its rows [x | y] factored in the run's cuts:
    every ``PIECE_STEPS`` steps and at every checkpoint, up to the last one,
    and solved by back substitution."""
    p, cut = run.p, least_squares.PIECE_STEPS
    rows = np.column_stack((run.xs, run.ys))
    state, gap, tri, factored = LsState(p, 1), 0.0, np.empty((0, p + 1)), 0
    for n in range(1, len(run) + 1):
        state.update(run.xs[n - 1 : n], run.ys[n - 1 : n])
        if factored < max(checkpoints, default=0) and (n in checkpoints or n % cut == 0):
            tri, factored = np.linalg.qr(np.vstack((tri, rows[factored:n])), mode="r"), n
        if n in checkpoints and not state.singular[0]:
            dense = np.empty(p)
            for i in reversed(range(p)):
                dense[i] = (tri[i, p] - np.sum(tri[i, i + 1 : p] * dense[i + 1 :])) / tri[i, i]
            gap = max(gap, float(np.max(np.abs(state.estimate[0] - dense))))
    return gap


def _draw_in_place(rng, sigma, start, xs, us, carry):
    """Regressors (1, u) with no array of the horizon's length besides the outputs."""
    rng.standard_normal(out=us)
    xs[:, 0] = 1.0
    xs[:, 1] = us


@pytest.mark.parametrize("piece_steps", [128, 512])
def test_fold_memory_stays_within_chunks(monkeypatch, piece_steps):
    # beyond its outputs, a run holds a few chunks of PIECE_STEPS steps per
    # seed (accumulators, inverses, estimates), whatever the horizon
    monkeypatch.setattr(least_squares, "PIECE_STEPS", piece_steps)
    seeds, p = 8, 2
    model = RegressionModel(np.array([1.0, -0.5]), Design(2, _draw_in_place), 1.0)
    simulate_ls_runs(model, 100, range(seeds))  # lazy imports and caches

    def beyond_outputs(horizon):
        tracemalloc.start()
        try:
            runs = simulate_ls_runs(model, horizon, range(seeds))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = 8 * seeds * horizon * (p + 3)
        return peak - outputs

    chunk = 8 * piece_steps * seeds * p * (p + 1)
    short, long = beyond_outputs(2000), beyond_outputs(8000)
    assert short <= 3 * chunk + 2**15
    assert long <= short + chunk // 8


def naive_n0_kappa(xs, gw):
    """One dense prefix at a time: the Gram matrix summed row by row, its rank
    and its inverse formed afresh at every step."""
    n, p = xs.shape
    gram = np.zeros((p, p))
    d2 = np.zeros(p)
    n0 = None
    kappa_hat = 0.0
    for i in range(n):
        x = xs[i]
        gram += np.outer(x, x)
        d2 += x * x
        if n0 is None:
            if i + 1 >= p and np.linalg.matrix_rank(gram) == p:
                n0 = i + 1
            else:
                continue
        inv = np.linalg.inv(gram)
        weights = np.asarray(gw(d2), dtype=float)
        kappa_hat = max(kappa_hat, float(p * np.abs(inv * weights[None, :]).max()))
    return n0, kappa_hat


ENTRY = st.floats(-100, 100, allow_subnormal=False).filter(lambda v: v == 0 or abs(v) > 1e-3)


@st.composite
def designs(draw):
    """Regressor rows with leading zero rows and a repeated first row, so that
    the first nonsingular step often comes after step p."""
    p = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(ENTRY, min_size=p, max_size=p), min_size=1, max_size=30))
    zeros = draw(st.integers(0, 4))
    repeats = draw(st.integers(0, 4))
    xs = np.array([[0.0] * p] * zeros + [rows[0]] * repeats + rows, dtype=float)
    return xs, draw(st.sampled_from([GWeight.identity, GWeight.sqrt_log]))()


@given(designs(), st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_run_kappa_matches_step_by_step_state(case, piece_steps):
    # the run reduces each folded piece of inverses; the oracle reads the
    # state's gram_inv and energy after every single update
    xs, gw = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "PIECE_STEPS", piece_steps)
        n0, kappa_hat = stepped_n0_kappa(xs, gw)
        if n0 is None:
            with pytest.raises(ValueError, match="never reached a nonsingular gram matrix"):
                fixed_run(xs, gw=gw)
            return
        run = fixed_run(xs, gw=gw)
    assert (run.n0, run.kappa_hat) == (n0, kappa_hat)
    report = check_design_conditions(run, gw, sigma2=0.0)
    assert (report.n0, report.kappa_hat) == (n0, kappa_hat)


def assert_same_bits_or_nan(got, want):
    """NaN exactly where ``want`` is, and the same bits everywhere else."""
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@given(designs(), st.integers(1, 9), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_tail_reductions_match_step_by_step_estimates(case, piece_steps, tail_fraction, seed):
    # the run reduces each folded piece's tail steps into a running max and
    # min; the oracle keeps every single update's estimate, NaN before the
    # first nonsingular step, which may fall inside the tail
    xs, gw = case
    rng = np.random.default_rng(seed)
    beta, us = rng.normal(size=xs.shape[1]), rng.normal(size=len(xs))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "PIECE_STEPS", piece_steps)
        try:
            run = fixed_run(xs, us, gw, beta, tail_fraction)
        except ValueError as exc:  # the oracle's state ends singular too
            assert "never reached a nonsingular gram matrix" in str(exc)
            assert np.isnan(stepped_estimates(xs, us)[-1]).all()
            return
        estimates = stepped_estimates(run.xs, run.ys)
    tail = estimates[-tail_length(len(xs), tail_fraction) :]
    assert_same_bits_or_nan(run.tail_err, np.abs(tail - beta).max(axis=0))
    assert_same_bits_or_nan(run.tail_osc, tail.max(axis=0) - tail.min(axis=0))
    assert_same_bits_or_nan(run.final_b, estimates[-1])


@pytest.mark.parametrize("gweight", ["identity", "sqrt_log"])
@pytest.mark.parametrize("name", ["rotating", "iid_gaussian"])
def test_run_kappa_matches_dense_inverses(name, gweight):
    # on well-conditioned designs each step's elimination and a fresh dense
    # inverse of every prefix agree to within a few rounding errors
    gw = getattr(GWeight, gweight)()
    for run in simulate_ls_runs(BLOCK_MODELS[name], 2000, range(3), gw=gw):
        n0, kappa_hat = naive_n0_kappa(run.xs, gw)
        assert run.n0 == n0
        assert run.kappa_hat == pytest.approx(kappa_hat, rel=1e-12, abs=0.0)


def test_design_check_first_nonsingular_after_p():
    xs = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [1.0, -1.0], [0.5, 3.0]])
    report = check_design_conditions(fixed_run(xs), GWeight.identity(), sigma2=0.0)
    assert (report.n0, report.kappa_hat) == stepped_n0_kappa(xs, GWeight.identity())
    assert report.n0 == 4
    assert report.kappa_hat == pytest.approx(naive_n0_kappa(xs, GWeight.identity())[1])


@pytest.fixture(scope="module")
def geometric_runs():
    model = RegressionModel(
        beta=np.array([1.0, -0.5]), design=geometric_one_design(), sigma=0.01
    )
    return model, simulate_ls_runs(model, 2000, range(40))


class TestPartitionAnalysis:
    def test_intermediate_case(self, geometric_runs):
        model, runs = geometric_runs
        report = partition_analysis(
            runs,
            model.beta,
            energy_threshold=10.0,
            consistency_tol=0.05,
            oscillation_tol=1e-3,
        )
        assert report.q == 1
        assert report.component_classes == ("finite_random_limit", "consistent")
        assert report.dispersion[0] > 3.0 * report.dispersion[1]

    def test_first_component_limit_is_random(self, geometric_runs):
        # the bounded-energy component settles per seed but disagrees across seeds
        _, runs = geometric_runs
        finals = np.array([r.final_b[0] for r in runs])
        assert np.std(finals, ddof=1) > 1e-3

    def test_persistent_excitation_all_consistent(self):
        model = RegressionModel(
            beta=np.array([2.0, 1.0]), design=rotating_design(), sigma=1.0
        )
        runs = simulate_ls_runs(model, 2000, range(30))
        report = partition_analysis(runs, model.beta, consistency_tol=0.2)
        assert report.q == 0
        assert report.component_classes == ("consistent", "consistent")

    def test_noiseless_runs_have_zero_dispersion(self):
        model = RegressionModel(
            beta=np.array([1.5, -1.0]), design=rotating_design(jitter=0.2), sigma=0.0
        )
        runs = simulate_ls_runs(model, 200, range(5))
        for run in runs:
            assert np.max(np.abs(run.final_b - model.beta)) <= 1e-9
        report = partition_analysis(runs, model.beta, consistency_tol=1e-9)
        assert report.component_classes == ("consistent", "consistent")
        assert max(report.dispersion) <= 1e-9

    def test_mixed_energy_split_rejected(self):
        def dummy_run(energy):
            return LsRun(
                final_b=np.zeros(2),
                energy=np.asarray(energy, dtype=float),
                n0=2,
                kappa_hat=1.0,
                tail_err=np.zeros(2),
                tail_osc=np.zeros(2),
                checkpoint_gap=0.0,
                horizon=4,
                noise=Noise(0.0, 0.0, 0.0, 0),
            )

        runs = [dummy_run([1.0, 100.0]), dummy_run([50.0, 100.0])]
        with pytest.raises(ValueError, match="energy-stable"):
            partition_analysis(runs, np.zeros(2))


# Behaviour lock: values recorded before the least-squares layer was vectorised.
# Each built-in design is run for 2 seeds x 3000 steps with checkpoints; every
# array field of the LsRun is locked by the sha256 of its shape and bytes, and
# the design-condition report of seed 0 is locked field by field for both
# weights.  A value that changes on purpose must be re-recorded and declared.
LOCK_DESIGNS = {
    "rotating": (rotating_design, (1.0, -0.5), 1.0),
    "geometric_one": (geometric_one_design, (1.0, -0.5), 0.01),
    "iid_gaussian": (lambda: iid_gaussian_design(3), (0.5, -1.0, 2.0), 0.5),
    "feedback": (feedback_design, (1.0, 0.5), 1.0),
}
LOCK_HORIZON = 3000
LOCK_CHECKPOINTS = (10, 750, 1500, 3000)

# (design, seed) -> (n0, checkpoint_gap, {field: sha256})
LOCKED_RUNS = {
    ("rotating", 0): (
        2, 1.5543122344752192e-15,
        {
            "xs": "2bc26218bc0b139ce286cc408b2d5020f8f166ae392051e9f77c0c39f889ab4b",
            "ys": "b43697bf23b4559ca146625fb05c1f719d064d5aa4e3549ff4729699e626d8fe",
            "us": "5b0a198647a76694c7ec0a410a9badb9d7106359c9dc12ef46100e2f017cd495",
            "final_b": "208154ea5654ffe5b405603590a4cdb9affdf5c3bde6c6018fe8bb3d8ecd6d9f",
            "energy": "86bc5f619c0023cd2c0f27db4b08558d8ec557c0b5ffdaa2f85b03d18bb49063",
            "tail_err": "0b7edc23a5722d6cd0f5244625e76378adad3cfc9698171b2bd8ed3398b714f6",
            "tail_osc": "ace921312ed238fc9d3570ffb8007c74322c97443bea981e9566a2c04b46b462",
            "err_sup": "062106158e4f02dd9b6e298732e25e151c4f380884446851a1cb271289a65883",
        },
    ),
    ("rotating", 1): (
        2, 2.6645352591003757e-15,
        {
            "xs": "bda0028ba1a002d503376e6a6a47848891b55d6f495a8dee1f1314fad2de8fb2",
            "ys": "703d5b1949b731ac87d1ec684e9ff9bd7f97b4e4c5fb7decf961255bb31ac680",
            "us": "2c5a4982382745a66a26c66f2ef9f99061e1eb91a41189e43a10b94f7c3edd05",
            "final_b": "e1d8e6b41bd4dbad8889868678b6cbc2fa62460425ef7d49da623cc42456b624",
            "energy": "2a4ad476cdd208f2af3a4c71c7858c42abf18b3454ec196cd3062146d9751707",
            "tail_err": "4f0765449691f8b3704405cf88cabaf7973260962785e9c4019775067536075c",
            "tail_osc": "225ab7c0d000d5273f19bf335a19327188fc5e524815aab11d59194bd3d9ccd2",
            "err_sup": "4d823982bbb2156d10b8cba0d4b5cc0fd24dae7a46d9e5304a2ec75bfd23decd",
        },
    ),
    ("geometric_one", 0): (
        2, 3.3306690738754696e-15,
        {
            "xs": "54e35082e9c122fa8cd55282be2b5abf7f46011a8119455d70b0e287d548cea1",
            "ys": "0efedf3b90bda7a9d879451cc74f5bcedd94d182baf7916ed8c1bcf48faa9889",
            "us": "3a9a57e9b5e11e7064a6c0931b50f469e7663e7918bfcad89bf33936babc5de3",
            "final_b": "693056a0a4446964cf60f790263ec3cfbd8c0709831fe224d207df5528be7c1e",
            "energy": "793d45e812ff7ea380524a42fb6ea8072647ac30b78104edee170e50c3cfece5",
            "tail_err": "199b5ead93aeced69ccf5a6fc9602bf7b6ab366b13c301809982c38f5b5b0301",
            "tail_osc": "05f1f2d0c8536223b1e92244077f28c97e355feb7ce414a234c63613ab5e94cb",
            "err_sup": "f3b4ddc1ade69522c4cd60b2a382cc0f87a9cc2400b375bdd03ab3d66ff7888d",
        },
    ),
    ("geometric_one", 1): (
        2, 2.220446049250313e-15,
        {
            "xs": "54e35082e9c122fa8cd55282be2b5abf7f46011a8119455d70b0e287d548cea1",
            "ys": "07dfa33466e7f6924c94372d87d936e5ff4e43180a58b822730ee7a5a778ac17",
            "us": "d6b759966c9f613ca94c5f0272cc8b1857453e231595c2a262b9f9df93762845",
            "final_b": "ab4874fbfda272db0df22ada82df4b7ab0bf168dd9c0f62ee46ba92b574b40ab",
            "energy": "793d45e812ff7ea380524a42fb6ea8072647ac30b78104edee170e50c3cfece5",
            "tail_err": "9a9c0c2df233e0984dddb7f682ab27aef0afc0dbfbb8a354518aed8d08dd9976",
            "tail_osc": "a87217812f11252766466600b2b2b04bef9ef102cb777e2a6c2f11bf24a79a48",
            "err_sup": "e0bb0c3fec114f24d661740b775b91679bc969d47131c1c62e8b65672d8dfac0",
        },
    ),
    ("iid_gaussian", 0): (
        3, 2.886579864025407e-15,
        {
            "xs": "1fff44208910b97928c24780e0b2b72f1c4c4ca9ba0ae4d24462cbb80ecb028d",
            "ys": "012506ffdbda266e04c5b6d08153502765c6b39a942328a7da2e083ca73d3f9b",
            "us": "3f5c8a6dfd40a0399fea39531301b9a4a69543f996d1eef22ddf157d69f3cc90",
            "final_b": "476eafe47fb883ef31dfcc4927a68f63f34fc9d9f993e5cbaf751f9c0cf58455",
            "energy": "6765d6441107d311191fef905b15fa31dde70a9cff1e8e28ab710c2339295054",
            "tail_err": "5b3fd6a9e71798cf66782026a2df9f086c8d96fdd3df573d34c141a6d9b284aa",
            "tail_osc": "3c64a7b15d6145865893fade4ce89b4333fadd64660445906318ddb11db96fd1",
            "err_sup": "c1e86515e94d590a776f9ab9947c1bfa1348575f14ee67c067dcc0643ce626d1",
        },
    ),
    ("iid_gaussian", 1): (
        3, 3.4416913763379853e-15,
        {
            "xs": "f058a9476e1c011d06cee3e666ff28572240d59fe25d9d97b2278243bbe3bcb3",
            "ys": "ae4397924cc9d068f3b32bd914f4c688b2f5e8b8dc3987e23739b65ae179e039",
            "us": "ac2cb444e40de908301cede97761d7076299df0038a7c2537863e7b1dd4699b6",
            "final_b": "db886b9f814dcca0d1f20b2731bc3da6b09d6da1adfb39d9bcf92ae341e496b3",
            "energy": "d29fa9543f19eb37ae8abb9bcb60eac2dcee00d3c096459a271cbf4aa8d8a499",
            "tail_err": "92ce6abd862288a2bd78e786f6046f674d8b06453ec5f6747c26b05f5d2a97e2",
            "tail_osc": "696f60b8a77561b932774a8c4746e246c379287b462216b8caf9b5db9c6873ac",
            "err_sup": "4b64d4bd676e5cc2e2d0362bbcc1e6892e56ed4ea2fc374fa34a12ab15cce0d0",
        },
    ),
    ("feedback", 0): (
        2, 1.7763568394002505e-15,
        {
            "xs": "b65b3363cc003dad6f22825847e3b336d995f86b747074b2fc224c78d83349e7",
            "ys": "1c4f01411b9c32883362aa99ba47bb63fe1af6f1fa486362aedbece758e3d469",
            "us": "48baef07c55a769e45d68cbaf784ecf4e358dc1af3b81fa01565dcd5b3a11624",
            "final_b": "d862adb09e868dd413d5921709a64cc308622fcf4f8321d0d356a27c11e2740a",
            "energy": "3b1e70fd223322167ae9eea523c61f7ed3368a14498d467a8ec26e31aa9ef227",
            "tail_err": "6093e89374bc82d72d2cc1c0f4409a35966a6da50f7bf1f224b3ca31a721a4d4",
            "tail_osc": "de6dc84e242ed59be75c412e7005ed06443d0c09ad83138ed17650bdca5cfd33",
            "err_sup": "f4b5ab4e6b4b413d7ee8106ad484bb5959261c3069020c4c9a9deb1bffeb3dcb",
        },
    ),
    ("feedback", 1): (
        2, 3.6637359812630166e-15,
        {
            "xs": "c78ed8fa510a3bd2e577d79f101739b750a55e2824865bcd776b3840e3909fcd",
            "ys": "9f998271652c0137c6898484ddfde850b162d3f65bb83500106f236a3309dc70",
            "us": "eb6a8a4a5e0a2e9a0df75c1dae1f60974482d86305d29f5bca21bd1850a6b867",
            "final_b": "c153a8a768fca4afa8c7cec895da280e74c33aa9dc97eb28522af351a77c9642",
            "energy": "e6b54d2278b59402522b81c4d7b6d5b06507e332395473e8ed01948836740cd7",
            "tail_err": "e2a742e3662766bb006c4bcfb66907841647889e69e39751fc2da6d9d38fd9fb",
            "tail_osc": "344ef0ea1bdd9def765a9ffc3ad288b3805d8cc8e5755a688d30c60d4698e4be",
            "err_sup": "88e185bbd965cd69385bccdeac417e5125fd955d3297ce360d1cd4f037f13f83",
        },
    ),
}

# (design, gweight) -> (n0, repr(kappa_hat), {verdict: (holds, first_violation,
#     repr(worst_margin), detail)})
LOCKED_REPORTS = {
    ("rotating", "identity"): (
        2, "2.6554733111693922",
        {
            "noise_centered": (True, None, "3.3726220683975807", "normalized mean 1.627 (limit 5)"),
            "noise_variance": (True, None, "0.12674196817668282", "empirical variance 1.00236"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999997.3445266888", "sup norm 2.65547"),
            "energy_growth": (True, None, "1517.76727451749", "min column energy 1527.77"),
        },
    ),
    ("rotating", "sqrt_log"): (
        2, "5.415357775060052",
        {
            "noise_centered": (True, None, "3.3726220683975807", "normalized mean 1.627 (limit 5)"),
            "noise_variance": (True, None, "0.12674196817668282", "empirical variance 1.00236"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999994.584642225", "sup norm 5.41536"),
            "energy_growth": (True, None, "1517.76727451749", "min column energy 1527.77"),
        },
    ),
    ("geometric_one", "identity"): (
        2, "48.00000000000008",
        {
            "noise_centered": (True, None, "3.1393257946928133", "normalized mean 1.861 (limit 5)"),
            "noise_variance": (True, None, "1.3963610033724993e-05", "empirical variance 9.89463e-05"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999952.0", "sup norm 48"),
            "energy_growth": (False, 3000, "-9.666666666666666", "column 0 energy 0.333333 below threshold 10"),
        },
    ),
    ("geometric_one", "sqrt_log"): (
        2, "71.22926305913488",
        {
            "noise_centered": (True, None, "3.1393257946928133", "normalized mean 1.861 (limit 5)"),
            "noise_variance": (True, None, "1.3963610033724993e-05", "empirical variance 9.89463e-05"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999928.7707369409", "sup norm 71.2293"),
            "energy_growth": (False, 3000, "-9.666666666666666", "column 0 energy 0.333333 below threshold 10"),
        },
    ),
    ("iid_gaussian", "identity"): (
        3, "11.616097724741653",
        {
            "noise_centered": (True, None, "4.460610095657152", "normalized mean 0.539 (limit 5)"),
            "noise_variance": (True, None, "0.02981065237344188", "empirical variance 0.252464"),
            "nonsingularity": (True, None, "2997.0", "first nonsingular at step 3"),
            "weight_bound": (True, None, "999988.3839022752", "sup norm 11.6161"),
            "energy_growth": (True, None, "2925.3973851895776", "min column energy 2935.4"),
        },
    ),
    ("iid_gaussian", "sqrt_log"): (
        3, "17.66469380365291",
        {
            "noise_centered": (True, None, "4.460610095657152", "normalized mean 0.539 (limit 5)"),
            "noise_variance": (True, None, "0.02981065237344188", "empirical variance 0.252464"),
            "nonsingularity": (True, None, "2997.0", "first nonsingular at step 3"),
            "weight_bound": (True, None, "999982.3353061964", "sup norm 17.6647"),
            "energy_growth": (True, None, "2925.3973851895776", "min column energy 2935.4"),
        },
    ),
    ("feedback", "identity"): (
        2, "54.72618887190626",
        {
            "noise_centered": (True, None, "4.748354324684001", "normalized mean 0.252 (limit 5)"),
            "noise_variance": (True, None, "0.15027490940942867", "empirical variance 0.978825"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999945.2738111281", "sup norm 54.7262"),
            "energy_growth": (True, None, "1748.9455482108058", "min column energy 1758.95"),
        },
    ),
    ("feedback", "sqrt_log"): (
        2, "81.21054382043552",
        {
            "noise_centered": (True, None, "4.748354324684001", "normalized mean 0.252 (limit 5)"),
            "noise_variance": (True, None, "0.15027490940942867", "empirical variance 0.978825"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999918.7894561796", "sup norm 81.2105"),
            "energy_growth": (True, None, "1748.9455482108058", "min column energy 1758.95"),
        },
    ),
}


def _lock_model(name):
    make, beta, sigma = LOCK_DESIGNS[name]
    return RegressionModel(beta=np.array(beta), design=make(), sigma=sigma), sigma


def _digest(a):
    a = np.ascontiguousarray(a, dtype=float)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


@pytest.mark.parametrize("key", sorted(LOCKED_RUNS))
def test_locked_ls_run(key):
    name, seed = key
    model, _ = _lock_model(name)
    run = simulate_ls_runs(model, LOCK_HORIZON, [seed], checkpoints=LOCK_CHECKPOINTS)[0]
    n0, gap, digests = LOCKED_RUNS[key]
    assert (run.n0, run.checkpoint_gap) == (n0, gap)
    assert {field: _digest(getattr(run, field)) for field in digests} == digests


@pytest.mark.parametrize("key", sorted(LOCKED_REPORTS))
def test_locked_design_report(key):
    name, gweight = key
    model, sigma = _lock_model(name)
    gw = getattr(GWeight, gweight)()
    run = simulate_ls_runs(model, LOCK_HORIZON, [0], gw=gw)[0]
    report = check_design_conditions(run, gw, sigma * sigma)
    n0, kappa, verdicts = LOCKED_REPORTS[key]
    assert (report.n0, repr(report.kappa_hat)) == (n0, kappa)
    got = {}
    for field in verdicts:
        v = getattr(report, field)
        got[field] = (v.holds, v.first_violation, repr(v.worst_margin), v.detail)
    assert got == verdicts
