import dataclasses
import hashlib
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
from contractlab.harness import tail_verdict
from contractlab.least_squares import (
    REBASE_EVERY,
    Design,
    LsRun,
    feedback_design,
    geometric_one_design,
    iid_gaussian_design,
    rotating_design,
)
from contractlab.process import zero_state_mask
from helpers import (
    ReferenceLsState,
    feedback_steps,
    geometric_one_steps,
    iid_gaussian_steps,
    per_step_stream,
    rotating_steps,
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
        for step in range(2 * REBASE_EVERY + 20):
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

    def test_chunk_fold_equals_single_updates(self, monkeypatch):
        # the seeds reach full rank at steps 3, 7, 10 and 14, all inside the
        # second chunk, and a rebase every 4 steps of a seed puts the seeds'
        # rebases out of phase inside every later chunk
        monkeypatch.setattr(least_squares, "REBASE_EVERY", 4)
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
        out = np.empty((seeds, horizon, p))
        for lo, hi in [(0, 2), (2, 17), (17, 40)]:
            folded._fold(xy[:, lo:hi], out[:, lo:hi])
        assert folded.first_nonsingular.tolist() == [3, 7, 10, 14]
        assert out.tobytes() == estimates.tobytes()
        for name in ("gram", "gram_inv", "score", "energy", "estimate", "first_nonsingular"):
            assert getattr(folded, name).tobytes() == getattr(stepped, name).tobytes(), name
        assert folded.n == stepped.n == horizon

    def test_chunk_fold_names_the_non_finite_step(self):
        xy = np.ones((2, 6, 3))
        xy[:, :, 1] = 0.0  # singular throughout
        xy[1, 4, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite gram matrix at step 5,"):
            LsState(2, 2)._fold(xy, np.empty((2, 6, 2)))

    @given(
        p=st.integers(1, 3),
        prefixes=st.lists(st.integers(0, 30), min_size=1, max_size=4),
        chunks=st.lists(st.integers(1, 12), min_size=1, max_size=8),
        rebase_every=st.integers(1, 9),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_fold_matches_the_masked_reference_fold(
        self, p, prefixes, chunks, rebase_every, data_seed
    ):
        # zero-row prefixes make the seeds nonsingular at different steps,
        # inside a chunk or at its ends, or never; a seed's estimates are NaN
        # before its first nonsingular step, as in the reference
        seeds, horizon = len(prefixes), sum(chunks)
        rng = np.random.default_rng(data_seed)
        xy = rng.normal(size=(seeds, horizon, p + 1))
        xy[np.arange(horizon) < np.array(prefixes)[:, None], :p] = 0.0
        states = [LsState(p, seeds), ReferenceLsState(p, seeds)]
        outs = [np.empty((seeds, horizon, p)) for _ in states]
        bounds = np.cumsum([0, *chunks])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(least_squares, "REBASE_EVERY", rebase_every)
            for state, out in zip(states, outs):
                for lo, hi in zip(bounds, bounds[1:]):
                    state._fold(xy[:, lo:hi], out[:, lo:hi])
        new, ref = states
        assert outs[0].tobytes() == outs[1].tobytes()
        assert new.first_nonsingular.tolist() == ref.first_nonsingular.tolist()
        ready = ~ref.singular
        assert new.gram_inv[ready].tobytes() == ref.gram_inv[ready].tobytes()
        assert np.isnan(new.gram_inv[~ready]).all()


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
        assert run.tail_b.shape == (30, 2)
        assert run.n0 is not None and run.n0 <= 10

    @pytest.mark.parametrize(
        "horizon, tail_fraction, window", [(11, 0.2, 2), (9, 0.25, 2), (14, 0.1, 1), (3, 0.1, 1)]
    )
    def test_tail_estimates_are_the_window_the_verdict_reads(self, horizon, tail_fraction, window):
        model = RegressionModel(beta=np.array([1.0, -0.5]), design=rotating_design(), sigma=1.0)
        run = simulate_ls_runs(model, horizon, [0], tail_fraction)[0]
        assert len(run.tail_b) == horizon - run.tail_start == window
        config = EnsembleConfig(seeds=1, root_seed=0, horizon=horizon, tail_fraction=tail_fraction)
        verdict = tail_verdict(run.err_sup, config)
        errors = np.abs(run.tail_b - model.beta).max(axis=1)
        assert verdict.tail_sup == errors.max()
        assert verdict.tail_oscillation == errors.max() - errors.min()


class TestDesignConditions:
    def test_constant_scalar_design(self):
        n = 500
        xs = np.ones((n, 1))
        rng = np.random.default_rng(7)
        us = rng.normal(size=n)
        report = check_design_conditions(xs, us, GWeight.identity(), sigma2=1.0)
        assert report.holds
        assert report.kappa_hat == pytest.approx(1.0)
        assert report.n0 == 1

    def test_geometric_column_fails_energy_growth(self):
        n = 200
        xs = (2.0 ** -np.arange(1, n + 1))[:, None]
        us = np.zeros(n)
        report = check_design_conditions(xs, us, GWeight.identity(), sigma2=0.0)
        assert not report.energy_growth.holds
        assert report.nonsingularity.holds

    def test_feedback_design_across_seeds(self):
        model = RegressionModel(
            beta=np.array([1.0, 0.5]), design=feedback_design(), sigma=1.0
        )
        for seed, run in enumerate(simulate_ls_runs(model, 500, range(100))):
            report = check_design_conditions(run.xs, run.us, GWeight.identity(), sigma2=1.0)
            assert report.nonsingularity.holds, f"seed {seed}"
            assert report.weight_bound.holds, f"seed {seed}"
            assert report.energy_growth.holds, f"seed {seed}"

    def test_inflated_noise_fails_variance_check(self):
        n = 2000
        rng = np.random.default_rng(8)
        us = rng.normal(0.0, 1.0, size=n)
        xs = np.ones((n, 1))
        report = check_design_conditions(xs, us, GWeight.identity(), sigma2=0.25)
        assert not report.noise_variance.holds


# ---------------------------------------------------------------------------
# Seed-batched runs: a block of seeds is bit-identical to its seeds run alone.


def hesitant_draw(rng, sigma, xs, us):
    """Gaussian rows after a zero prefix whose length differs per seed: seeds
    reach full rank at different steps, so their rebase steps fall out of phase."""
    xs[:] = rng.normal(size=xs.shape)
    xs[: rng.integers(0, 40)] = 0.0
    us[:] = rng.normal(0.0, sigma, size=len(us))


def steered_draw(rng, sigma, xs, us):
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
    "xs", "ys", "us", "final_b", "energy", "n0", "tail_b", "tail_start", "checkpoint_gap", "err_sup"
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
        st.integers(1, 40), st.integers(2 * REBASE_EVERY + 1, 2 * REBASE_EVERY + 80)
    ),
    tail_fraction=st.sampled_from([0.05, 0.2, 0.5]),
    checkpoints=st.lists(st.integers(1, 2 * REBASE_EVERY + 80), max_size=4),
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
        model.design.draw(np.random.default_rng(horizon), model.sigma, xs, us)
        want_xs, want_us = per_step_stream(
            PER_STEP_RULES[name], np.random.default_rng(horizon), model.sigma, horizon
        )
        assert xs.tobytes() == want_xs.tobytes() and us.tobytes() == want_us.tobytes()
        xs[:] = math.nan  # a caller that reuses its regressors must not reach the cache


@given(
    name=st.sampled_from(["rotating", "geometric_one", "iid_gaussian", "feedback"]),
    rebase_every=st.integers(1, 9),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
    horizon=st.integers(3, 60),
    tail_fraction=st.sampled_from([0.05, 0.2, 0.5]),
    checkpoints=st.lists(st.integers(1, 60), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_chunk_bounds_keep_the_single_step_runs(
    name, rebase_every, seeds, horizon, tail_fraction, checkpoints
):
    # short chunks put checkpoints and the tail start inside and at the ends of
    # chunks; a no-op law folds one step at a time
    model = BLOCK_MODELS[name]
    no_op = dataclasses.replace(model.design, law=lambda estimates, rows: None)
    stepwise = dataclasses.replace(model, design=no_op)
    checkpoints = [c for c in checkpoints if c <= horizon]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "REBASE_EVERY", rebase_every)
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
    rebase_every=st.integers(1, 9),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4, unique=True),
    horizon=st.integers(40, 120),
    checkpoints=st.lists(st.integers(1, 120), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_law_block_equals_its_seeds_run_alone(gain, rebase_every, seeds, horizon, checkpoints):
    # the seeds leave their zero prefixes at different steps, so one call of
    # the law sees estimates for some seeds and NaN rows for others
    def law(estimates, rows):
        rows += gain * np.tanh(np.nan_to_num(estimates))

    model = RegressionModel(np.array([1.0, -0.5]), Design(2, hesitant_draw, law), 1.0)
    checkpoints = [c for c in checkpoints if c <= horizon]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(least_squares, "REBASE_EVERY", rebase_every)
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
    run = simulate_ls_runs(model, 60, [7], tail_fraction=1.0)[0]  # the tail is every step
    assert len(seen) == 60 and np.isnan(seen[0]).all()
    assert np.array(seen[1:])[:, 0].tobytes() == run.tail_b[:-1].tobytes()
    assert 1 < run.n0 < 60


def single_step_gap(run, checkpoints):
    """The checkpoint gap of one seed's run, refolded one update at a time."""
    state, gap = LsState(run.p, 1), 0.0
    for i in range(len(run.us)):
        state.update(run.xs[i : i + 1], run.ys[i : i + 1])
        if i + 1 in checkpoints and not state.singular[0]:
            dense, *_ = np.linalg.lstsq(run.xs[: i + 1], run.ys[: i + 1], rcond=None)
            gap = max(gap, float(np.max(np.abs(state.estimate[0] - dense))))
    return gap


def _draw_in_place(rng, sigma, xs, us):
    """Regressors (1, u) with no array of the horizon's length besides the outputs."""
    rng.standard_normal(out=us)
    xs[:, 0] = 1.0
    xs[:, 1] = us


@pytest.mark.parametrize("rebase_every", [128, 512])
def test_fold_memory_stays_within_chunks(monkeypatch, rebase_every):
    # beyond its outputs, a run holds a few chunks of REBASE_EVERY steps per
    # seed (accumulators, inverses, estimates), whatever the horizon
    monkeypatch.setattr(least_squares, "REBASE_EVERY", rebase_every)
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
        outputs = 8 * seeds * horizon * (p + 3) + seeds * runs[0].tail_b.nbytes
        return peak - outputs

    chunk = 8 * rebase_every * seeds * p * (p + 1)
    short, long = beyond_outputs(2000), beyond_outputs(8000)
    assert short <= 3 * chunk + 2**15
    assert long <= short + chunk // 8


def naive_n0_kappa(xs, gw):
    """One prefix at a time: the reference the batched checker must match."""
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


@given(designs())
@settings(max_examples=300, deadline=None)
def test_batched_design_check_matches_naive_loop(case):
    xs, gw = case
    report = check_design_conditions(xs, np.zeros(len(xs)), gw, sigma2=0.0)
    n0, kappa_hat = naive_n0_kappa(xs, gw)
    assert report.n0 == n0
    assert report.kappa_hat == kappa_hat


def test_design_check_first_nonsingular_after_p():
    xs = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [1.0, -1.0], [0.5, 3.0]])
    report = check_design_conditions(xs, np.zeros(5), GWeight.identity(), sigma2=0.0)
    assert (report.n0, report.kappa_hat) == naive_n0_kappa(xs, GWeight.identity())
    assert report.n0 == 4

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
                xs=np.zeros((4, 2)),
                ys=np.zeros(4),
                us=np.zeros(4),
                final_b=np.zeros(2),
                energy=np.asarray(energy, dtype=float),
                n0=2,
                tail_b=np.zeros((2, 2)),
                tail_start=2,
                checkpoint_gap=0.0,
                err_sup=np.zeros(4),
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

# (design, seed) -> (n0, tail_start, checkpoint_gap, {field: sha256})
LOCKED_RUNS = {
    ("rotating", 0): (
        2, 2400, 1.7763568394002505e-15,
        {
            "xs": "2bc26218bc0b139ce286cc408b2d5020f8f166ae392051e9f77c0c39f889ab4b",
            "ys": "b43697bf23b4559ca146625fb05c1f719d064d5aa4e3549ff4729699e626d8fe",
            "us": "5b0a198647a76694c7ec0a410a9badb9d7106359c9dc12ef46100e2f017cd495",
            "final_b": "60887a5099ab030a54aaf34aa4539cf07ea0ffa3282884669ce32d8f178d5882",
            "energy": "86bc5f619c0023cd2c0f27db4b08558d8ec557c0b5ffdaa2f85b03d18bb49063",
            "tail_b": "50a1e999096069850b24131eaf39022f1f723a3d7d142913c5a209770bf5971c",
            "err_sup": "3bd9202cabd4980518add2a50c958d58a527c2d7e8694a31c07b93e7a936a347",
        },
    ),
    ("rotating", 1): (
        2, 2400, 1.9984014443252818e-15,
        {
            "xs": "bda0028ba1a002d503376e6a6a47848891b55d6f495a8dee1f1314fad2de8fb2",
            "ys": "703d5b1949b731ac87d1ec684e9ff9bd7f97b4e4c5fb7decf961255bb31ac680",
            "us": "2c5a4982382745a66a26c66f2ef9f99061e1eb91a41189e43a10b94f7c3edd05",
            "final_b": "73f01146641d20a23953ff4c674e2e6965eae1fcd5a7e8f7dd1dce2e3769abeb",
            "energy": "2a4ad476cdd208f2af3a4c71c7858c42abf18b3454ec196cd3062146d9751707",
            "tail_b": "8715157459e3497583d4b35875a5e59d5bf9cd256743d5954e921d66900abb26",
            "err_sup": "78cb6ee545f105ae543b1c35ef6a59a7f3f280ddd9d8d99069f01d07c57ae1ae",
        },
    ),
    ("geometric_one", 0): (
        2, 2400, 8.748557434046234e-14,
        {
            "xs": "54e35082e9c122fa8cd55282be2b5abf7f46011a8119455d70b0e287d548cea1",
            "ys": "0efedf3b90bda7a9d879451cc74f5bcedd94d182baf7916ed8c1bcf48faa9889",
            "us": "3a9a57e9b5e11e7064a6c0931b50f469e7663e7918bfcad89bf33936babc5de3",
            "final_b": "f71aa982ef803b5226621797605a99211543df89871039ec1a970c3209953d9d",
            "energy": "793d45e812ff7ea380524a42fb6ea8072647ac30b78104edee170e50c3cfece5",
            "tail_b": "2137d195ffb3c7513df69380c4eecb114c869d8203221c207846f66444ab13a2",
            "err_sup": "010172869ce57985fa467e9a2ce062ed6937f1f0b8717a9bcd020ad3731b9ffc",
        },
    ),
    ("geometric_one", 1): (
        2, 2400, 9.281464485866309e-14,
        {
            "xs": "54e35082e9c122fa8cd55282be2b5abf7f46011a8119455d70b0e287d548cea1",
            "ys": "07dfa33466e7f6924c94372d87d936e5ff4e43180a58b822730ee7a5a778ac17",
            "us": "d6b759966c9f613ca94c5f0272cc8b1857453e231595c2a262b9f9df93762845",
            "final_b": "fcd632ae2e17492462dd0fef4153dc334cbcf3aa904a9f8d2dd1c9f5a19f749c",
            "energy": "793d45e812ff7ea380524a42fb6ea8072647ac30b78104edee170e50c3cfece5",
            "tail_b": "509a33e851617ee12b95f82179b2cbfa42c2a30879969115bfb8b4d19860577a",
            "err_sup": "47eccdaeb8765376641fe5211128d7949afa9c04f57f2a86a438841c06107bd5",
        },
    ),
    ("iid_gaussian", 0): (
        3, 2400, 3.9968028886505635e-15,
        {
            "xs": "1fff44208910b97928c24780e0b2b72f1c4c4ca9ba0ae4d24462cbb80ecb028d",
            "ys": "012506ffdbda266e04c5b6d08153502765c6b39a942328a7da2e083ca73d3f9b",
            "us": "3f5c8a6dfd40a0399fea39531301b9a4a69543f996d1eef22ddf157d69f3cc90",
            "final_b": "11ad0d24352cca8d1347b38de7629e9f6d7c788d4c3a77af44c38f97f8930e92",
            "energy": "6765d6441107d311191fef905b15fa31dde70a9cff1e8e28ab710c2339295054",
            "tail_b": "21c3dbeb126d9f42ef08cd65c8c64afece6962b62db4d63f0a7a5b2c76dcfcd6",
            "err_sup": "02060ac9476d94e463079a972c2b343065bca35ef11beb8be0eabbfc52dd5eed",
        },
    ),
    ("iid_gaussian", 1): (
        3, 2400, 3.9968028886505635e-15,
        {
            "xs": "f058a9476e1c011d06cee3e666ff28572240d59fe25d9d97b2278243bbe3bcb3",
            "ys": "ae4397924cc9d068f3b32bd914f4c688b2f5e8b8dc3987e23739b65ae179e039",
            "us": "ac2cb444e40de908301cede97761d7076299df0038a7c2537863e7b1dd4699b6",
            "final_b": "c437a3e833b6299c22b348687794df5b6875053e8319e45e4a657c9440604e8e",
            "energy": "d29fa9543f19eb37ae8abb9bcb60eac2dcee00d3c096459a271cbf4aa8d8a499",
            "tail_b": "c14efb3cebe7397b639529babb3f3852b8062abd2c88b485ebb60a63bdd85f99",
            "err_sup": "a0c61d9de622a549f7b685faa1b3854c9d0bf5b2f8c150629a35289f271ebe15",
        },
    ),
    ("feedback", 0): (
        2, 2400, 1.3877787807814457e-15,
        {
            "xs": "b65b3363cc003dad6f22825847e3b336d995f86b747074b2fc224c78d83349e7",
            "ys": "1c4f01411b9c32883362aa99ba47bb63fe1af6f1fa486362aedbece758e3d469",
            "us": "48baef07c55a769e45d68cbaf784ecf4e358dc1af3b81fa01565dcd5b3a11624",
            "final_b": "625b3b6b2d7f8d5670f672fbfe08c7f944b6b0577afd5764d7700923bab4955c",
            "energy": "3b1e70fd223322167ae9eea523c61f7ed3368a14498d467a8ec26e31aa9ef227",
            "tail_b": "94b2724640e8c3e897033d9b24734fb931503060fd3a06d63afc633145abb9e0",
            "err_sup": "cfe717402db062be76539c57fb547e3e2985073a3e5bcd183a55521e4a837ecb",
        },
    ),
    ("feedback", 1): (
        2, 2400, 1.6653345369377348e-15,
        {
            "xs": "c78ed8fa510a3bd2e577d79f101739b750a55e2824865bcd776b3840e3909fcd",
            "ys": "9f998271652c0137c6898484ddfde850b162d3f65bb83500106f236a3309dc70",
            "us": "eb6a8a4a5e0a2e9a0df75c1dae1f60974482d86305d29f5bca21bd1850a6b867",
            "final_b": "bfd16e429c4e2bf88c023f90c28e54509e4a03952c432234add53b954febcb53",
            "energy": "e6b54d2278b59402522b81c4d7b6d5b06507e332395473e8ed01948836740cd7",
            "tail_b": "6320eb7ba6b33f4d444a3e76538510485a276e764ba8c6ffa9d1ffd4e366c3ae",
            "err_sup": "769490063d64efdd7de926d3f2c128f86544faf6ed34600a85dba93e5a5f391c",
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
        2, "48.000000000000036",
        {
            "noise_centered": (True, None, "3.139325794692813", "normalized mean 1.861 (limit 5)"),
            "noise_variance": (True, None, "1.3963610033724993e-05", "empirical variance 9.89463e-05"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999952.0", "sup norm 48"),
            "energy_growth": (False, 0, "-9.666666666666666", "column 0 energy 0.333333 below threshold 10"),
        },
    ),
    ("geometric_one", "sqrt_log"): (
        2, "71.22926305913482",
        {
            "noise_centered": (True, None, "3.139325794692813", "normalized mean 1.861 (limit 5)"),
            "noise_variance": (True, None, "1.3963610033724993e-05", "empirical variance 9.89463e-05"),
            "nonsingularity": (True, None, "2998.0", "first nonsingular at step 2"),
            "weight_bound": (True, None, "999928.7707369409", "sup norm 71.2293"),
            "energy_growth": (False, 0, "-9.666666666666666", "column 0 energy 0.333333 below threshold 10"),
        },
    ),
    ("iid_gaussian", "identity"): (
        3, "11.61609772474165",
        {
            "noise_centered": (True, None, "4.460610095657152", "normalized mean 0.539 (limit 5)"),
            "noise_variance": (True, None, "0.02981065237344188", "empirical variance 0.252464"),
            "nonsingularity": (True, None, "2997.0", "first nonsingular at step 3"),
            "weight_bound": (True, None, "999988.3839022752", "sup norm 11.6161"),
            "energy_growth": (True, None, "2925.3973851895776", "min column energy 2935.4"),
        },
    ),
    ("iid_gaussian", "sqrt_log"): (
        3, "17.664693803652906",
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
    n0, tail_start, gap, digests = LOCKED_RUNS[key]
    assert (run.n0, run.tail_start, run.checkpoint_gap) == (n0, tail_start, gap)
    assert {field: _digest(getattr(run, field)) for field in digests} == digests


@pytest.mark.parametrize("key", sorted(LOCKED_REPORTS))
def test_locked_design_report(key):
    name, gweight = key
    model, sigma = _lock_model(name)
    run = simulate_ls_runs(model, LOCK_HORIZON, [0])[0]
    report = check_design_conditions(run.xs, run.us, getattr(GWeight, gweight)(), sigma * sigma)
    n0, kappa, verdicts = LOCKED_REPORTS[key]
    assert (report.n0, repr(report.kappa_hat)) == (n0, kappa)
    got = {}
    for field in verdicts:
        v = getattr(report, field)
        got[field] = (v.holds, v.first_violation, repr(v.worst_margin), v.detail)
    assert got == verdicts
