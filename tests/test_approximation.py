import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contractlab import (
    NoiseModel,
    NonexpansiveProfile,
    RootProblem,
    Schedule,
    check_linear_envelope,
    check_norm_envelope,
    check_ratio_sandwich,
    check_regularity,
    check_truncated_zero_mean_bound,
    contraction_factor,
    derive_truncated,
    rm_solve,
    truncated_nonexpansive_verdict,
)
from contractlab import approximation
from contractlab.approximation import (
    BLOCK_BYTES,
    MIN_BLOCK,
    _block_size,
    rm_solve_block,
    signed_log_grid,
    sphere_grid,
)
from contractlab.config import PROBLEM, PROBLEM_ND
from contractlab.harness import EnsembleConfig, child_seed, run_ensemble
from contractlab.process import ProcessPath
from helpers import OVERFLOWS


def sqrt_sign(x):
    return math.copysign(math.sqrt(abs(x)), x)


class TestSchedule:
    def test_inverse_n(self):
        s = Schedule.inverse_n(2.0)
        assert s.alphas(4).tolist() == [2.0, 1.0, 2 / 3, 0.5]
        assert s.summable is False

    def test_power_summability(self):
        assert Schedule.inverse_n_power(1.0, 1.5).summable is True
        assert Schedule.inverse_n_power(1.0, 0.7).summable is False

    def test_explicit(self):
        s = Schedule.explicit([0.5, 0.25])
        assert s.summable is None
        with pytest.raises(ValueError, match="covers"):
            s.alphas(3)
        with pytest.raises(ValueError):
            Schedule.explicit([0.1, -0.2])

    def test_sums(self):
        s = Schedule.inverse_n(1.0)
        assert s.sum_at(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
        assert s.sum_sq_at(2) == pytest.approx(1.25)


class TestNoiseModel:
    def test_gaussian_is_conditionally_unbiased(self):
        noise = NoiseModel.gaussian(0.3)
        rng = np.random.default_rng(0)
        draws = noise.draw(rng, (20_000,))
        assert abs(draws.mean()) <= 5 * 0.3 / math.sqrt(20_000)
        assert draws.var() <= 0.3 ** 2 * 1.1

    def test_uniform_variance_bound(self):
        noise = NoiseModel.uniform(0.6)
        rng = np.random.default_rng(1)
        draws = noise.draw(rng, (20_000,))
        assert draws.var() <= 0.6 ** 2 / 3 * 1.1
        assert np.all(np.abs(draws) <= 0.6)

    def test_noiseless(self):
        rng = np.random.default_rng(2)
        assert np.all(NoiseModel.noiseless().draw(rng, (5,)) == 0)


class TestRootProblem:
    def test_root_must_be_root(self):
        with pytest.raises(ValueError, match="not a root"):
            RootProblem(lambda x: x + 1.0, x_star=0.0)

    def test_default_root_is_origin(self):
        assert RootProblem(lambda x: x).root == 0.0
        assert np.array_equal(RootProblem(lambda x: x, dimension=3).root, np.zeros(3))


class TestRmSolve:
    def test_noiseless_telescoping(self):
        horizon = 1000
        schedule = Schedule.explicit(1.0 / np.arange(2.0, horizon + 2.0))
        path = rm_solve(
            RootProblem(lambda x: x), NoiseModel.noiseless(), schedule, 1.0, horizon, 0
        )
        n = np.arange(1, horizon + 1)
        assert np.max(np.abs(path.xs[1:] * (n + 1) - 1.0)) <= 1e-12
        assert np.all(path.eps == 0.0)

    def test_noiseless_matches_running_product(self):
        horizon = 500
        lam = 0.7
        schedule = Schedule.inverse_n(1.0)
        path = rm_solve(
            RootProblem(lambda x: lam * x), NoiseModel.noiseless(), schedule, 2.0, horizon, 0
        )
        prod = 2.0 * np.cumprod(1.0 - lam * schedule.alphas(horizon))
        scale = np.maximum(np.abs(prod), 1e-300)
        assert np.max(np.abs(path.xs[1:] - prod) / scale) <= 1e-12

    def test_gaussian_ensemble_converges(self):
        hits = 0
        for seed in range(20):
            path = rm_solve(
                RootProblem(lambda x: x),
                NoiseModel.gaussian(0.1),
                Schedule.inverse_n(1.0),
                1.0,
                20_000,
                seed,
            )
            hits += abs(path.xs[-1]) < 0.05
        assert hits >= 19

    def test_stored_means_are_exact(self):
        # the update applies drift then shock, so m is the exact conditional mean
        path = rm_solve(
            RootProblem(lambda x: 2.0 * x),
            NoiseModel.gaussian(0.5),
            Schedule.inverse_n(0.3),
            1.5,
            200,
            42,
        )
        ratios = path.ms / path.xs[:-1]
        expected = 1.0 - 0.6 / np.arange(1, 201)
        assert np.allclose(ratios, expected, rtol=0, atol=1e-13)

    def test_envelope_ratio_bound(self):
        # envelope (1, 2): every ratio lies in [1 - 2a, 1 - a]
        g = lambda x: x * (1.5 + 0.5 * math.sin(7.0 * x))
        path = rm_solve(
            RootProblem(g), NoiseModel.gaussian(0.05), Schedule.inverse_n(0.4), 3.0, 5000, 7
        )
        verdict = check_ratio_sandwich(path, Schedule.inverse_n(0.4), 1.0, 2.0)
        assert verdict.holds

    def test_sandwich_with_shifted_root(self):
        # centering the ratio at a nonzero root amplifies rounding once the
        # path sits near it, so declare a nondegenerate envelope
        problem = RootProblem(lambda x: x - 2.0, x_star=2.0)
        path = rm_solve(problem, NoiseModel.gaussian(0.1), Schedule.inverse_n(1.0), 5.0, 2000, 3)
        verdict = check_ratio_sandwich(path, Schedule.inverse_n(1.0), 0.9, 1.1, x_star=2.0)
        assert verdict.holds

    def test_sandwich_catches_violation(self):
        # declaring too narrow an envelope must fail
        g = lambda x: 2.0 * x
        path = rm_solve(RootProblem(g), NoiseModel.noiseless(), Schedule.inverse_n(0.4), 1.0, 50, 0)
        verdict = check_ratio_sandwich(path, Schedule.inverse_n(0.4), 1.0, 1.0)
        assert not verdict.holds

    def test_seed_determinism(self):
        kwargs = dict(
            problem=RootProblem(lambda x: x),
            noise=NoiseModel.gaussian(0.2),
            schedule=Schedule.inverse_n(1.0),
            x0=1.0,
            horizon=500,
            seed=123,
        )
        a = rm_solve(**kwargs)
        b = rm_solve(**kwargs)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ms, b.ms)


class TestLinearEnvelope:
    def test_linear_map(self):
        report = check_linear_envelope(RootProblem(lambda x: 2.0 * x), [-2.0, -1.0, 1.0, 3.0])
        assert report.m_hat == pytest.approx(2.0)
        assert report.M_hat == pytest.approx(2.0)
        assert report.holds

    def test_sqrt_blows_up_near_zero(self):
        grid = np.array([-1.0, -0.01, 1e-6, 0.5, 2.0])
        report = check_linear_envelope(RootProblem(sqrt_sign), grid)
        assert report.M_hat == pytest.approx(1000.0)
        capped = check_linear_envelope(RootProblem(sqrt_sign), grid, ratio_cap=100.0)
        assert not capped.holds
        assert 1e-6 in capped.violations

    def test_discontinuous_map_inside_envelope_passes(self):
        def g(x):
            return (1.0 if math.sin(5.0 * x) > 0 else 2.0) * x

        report = check_linear_envelope(RootProblem(g), signed_log_grid(1e-3, 10.0, 200))
        assert report.holds
        assert report.covers(1.0, 2.0)
        assert not report.covers(1.5, 2.0)

    def test_nan_value_is_a_violation(self):
        g = lambda x: math.nan if x == 2.0 else x
        report = check_linear_envelope(RootProblem(g), [-1.0, 1.0, 2.0])
        assert not report.holds
        assert list(report.violations) == [2.0]

    def test_grid_containing_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            check_linear_envelope(RootProblem(lambda x: x), [0.0, 1.0])
        with pytest.raises(ValueError, match="root"):
            check_linear_envelope(RootProblem(lambda x: x - 2.0, x_star=2.0), [2.0, 3.0])


class TestNormEnvelope:
    def test_rotation_scaling_matrix(self):
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        problem = RootProblem(lambda x: A @ x, dimension=2)
        grid = sphere_grid(2, directions=32, radii=[0.1, 1.0, 10.0])
        report = check_norm_envelope(problem, grid)
        assert report.m_hat == pytest.approx(1.0, abs=1e-12)
        assert report.M_hat == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert report.holds

    def test_pure_scaling(self):
        problem = RootProblem(lambda x: 2.0 * x, dimension=3)
        report = check_norm_envelope(problem, sphere_grid(3, 16, [1.0, 5.0]))
        assert report.m_hat == pytest.approx(2.0)
        assert report.M_hat == pytest.approx(2.0)

    def test_repelling_map_fails(self):
        problem = RootProblem(lambda x: -x, dimension=2)
        report = check_norm_envelope(problem, sphere_grid(2, 8, [1.0]))
        assert report.m_hat == pytest.approx(-1.0)
        assert not report.holds

    def test_nan_value_is_a_violation(self):
        problem = RootProblem(lambda x: x if x[0] > 0 else np.full(2, math.nan), dimension=2)
        report = check_norm_envelope(problem, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert not report.holds
        assert report.violations.tolist() == [[-1.0, 0.0]]

    def test_origin_rejected(self):
        problem = RootProblem(lambda x: x, dimension=2)
        with pytest.raises(ValueError, match="origin"):
            check_norm_envelope(problem, np.array([[0.0, 0.0], [1.0, 0.0]]))


@st.composite
def regularity_cases(draw):
    """A grid with g tabulated on it: zeros, values at the floor, NaN and finite
    values, and annuli that may miss the grid."""
    grid = draw(st.lists(st.floats(-5.0, 5.0), max_size=20, unique=True))
    g = st.sampled_from([0.0, -0.0, approximation.K_FLOOR, 1e-13, math.nan]) | st.floats(-20.0, 20.0)
    values = draw(st.lists(g, min_size=len(grid), max_size=len(grid)))
    pair = st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 6.0)).filter(lambda p: p[0] < p[1])
    pairs = draw(st.lists(pair, max_size=3))
    return grid, values, draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 3.0)), pairs


def brute_regularity(grid, values, c, d, pairs):
    """Point by point, in order: the first index breaking growth or sign (or not
    finite), else the first point at or below the floor in the first failing
    annulus; and the smallest margin."""
    first, worst = None, math.inf
    for i, (x, g) in enumerate(zip(grid, values)):
        margin = (c + d * abs(x)) - abs(g) if math.isfinite(g) else -math.inf
        if x != 0:
            margin = min(margin, math.copysign(1.0, x) * g)
        worst = min(worst, margin)
        if first is None and margin < 0:
            first = i
    for d1, d2 in pairs:
        ring = [i for i, x in enumerate(grid) if d1 <= abs(x) <= d2]
        k = float(np.min(np.abs([values[i] for i in ring]))) if ring else math.inf
        if k <= approximation.K_FLOOR:
            worst = min(worst, k - approximation.K_FLOOR)
            if first is None:
                first = next(i for i in ring if abs(values[i]) <= approximation.K_FLOOR)
    return first, worst


@pytest.mark.parametrize("family", sorted(PROBLEM.families) + sorted(PROBLEM_ND.families))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_grid_checks_with_g_block_equal_the_point_loop(family, data):
    """Each grid check evaluates g by one ``g_block`` call; its report must be
    the point-by-point loop's, bit for bit, for every built-in family."""
    problem, p = _family_problem(data, family)
    alone = RootProblem(problem.g, x_star=problem.x_star, dimension=problem.dimension)
    cap = data.draw(st.sampled_from([1.2, 1e6]))
    if p:
        grid = sphere_grid(p, 16, [1e-3, 0.5, 7.0], seed=data.draw(st.integers(0, 99)))
        reports = [check_norm_envelope(q, grid, cap) for q in (problem, alone)]
    else:
        grid = signed_log_grid(1e-3, 30.0, 50) + float(problem.root)
        reports = [check_linear_envelope(q, grid, cap) for q in (problem, alone)]
        c, d = data.draw(st.floats(0.0, 2.0)), data.draw(st.floats(0.0, 2.0))
        pairs = [(0.01, 0.5), (1.0, 20.0)]
        verdicts = [check_regularity(q, grid, c, d, pairs) for q in (problem, alone)]
        assert repr(verdicts[0]) == repr(verdicts[1])
    got, want = reports
    assert (repr(got.m_hat), repr(got.M_hat)) == (repr(want.m_hat), repr(want.M_hat))
    assert got.violations.tobytes() == want.violations.tobytes()


class TestRegularity:
    @given(regularity_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_in_order_scan(self, case):
        grid, values, c, d, pairs = case
        table = dict(zip(grid, values))
        verdict = check_regularity(RootProblem(lambda x: table[x]), grid, c, d, pairs)
        first, worst = brute_regularity(*case)
        assert (verdict.holds, verdict.first_violation) == (first is None, first)
        assert verdict.worst_margin == worst

    def test_first_annulus_point_at_the_floor(self):
        grid = [0.5, 1.0, 1.5, 2.0]
        table = dict(zip(grid, [0.5, 1e-13, 1.5, 0.0]))  # the smallest |g| comes later
        verdict = check_regularity(
            RootProblem(lambda x: table[x]), grid, c=1.0, d=1.0, delta_pairs=[(0.25, 3.0)]
        )
        assert (verdict.first_violation, verdict.worst_margin) == (1, -approximation.K_FLOOR)

    def test_sqrt_case(self):
        grid = np.concatenate([-np.linspace(0.25, 4.0, 1000), np.linspace(0.25, 4.0, 1000)])
        verdict = check_regularity(
            RootProblem(sqrt_sign), grid, c=1.0, d=1.0, delta_pairs=[(0.25, 4.0)]
        )
        assert verdict.holds
        assert verdict.annulus_infima[0][1] == pytest.approx(0.5)

    def test_oscillating_map_fails_straddling_pair(self):
        def g(x):
            return x * math.sin(1.0 / x) ** 2 if x != 0 else 0.0

        grid = np.concatenate([np.linspace(0.05, 0.8, 2000), [1.0 / math.pi]])
        bad = check_regularity(RootProblem(g), grid, c=1.0, d=1.0, delta_pairs=[(0.1, 0.5)])
        assert not bad.holds
        ok = check_regularity(RootProblem(g), grid, c=1.0, d=1.0, delta_pairs=[(0.5, 0.6)])
        assert ok.holds

    def test_identity_map(self):
        grid = np.concatenate([-np.linspace(0.1, 5.0, 500), np.linspace(0.1, 5.0, 500)])
        verdict = check_regularity(
            RootProblem(lambda x: x), grid, c=0.0, d=1.0, delta_pairs=[(0.1, 5.0)]
        )
        assert verdict.holds
        assert verdict.annulus_infima[0][1] == pytest.approx(0.1)
        assert verdict.detail == "inf|g| on [0.1,5] = 0.1"

    def test_growth_violation(self):
        verdict = check_regularity(
            RootProblem(lambda x: 10.0 * x), [1.0, 2.0], c=1.0, d=1.0, delta_pairs=[]
        )
        assert not verdict.holds
        assert verdict.first_violation == 0  # the first violating point, not the worst
        assert verdict.worst_margin == -17.0  # at x = 2
        assert verdict.detail == "growth |g(x)| <= 1 + 1|x| fails at x = 1: g(x) = 10"

    def test_sign_violation_named_ahead_of_the_infima(self):
        verdict = check_regularity(
            RootProblem(lambda x: -x), [-1.0, 0.5], c=1.0, d=1.0, delta_pairs=[(0.25, 2.0)]
        )
        assert not verdict.holds
        assert verdict.first_violation == 0
        assert verdict.detail == (
            "sign x*g(x) >= 0 fails at x = -1: g(x) = 1; inf|g| on [0.25,2] = 0.5"
        )
        both = check_regularity(RootProblem(lambda x: -10.0 * x), [3.0], 1.0, 1.0, [])
        assert both.detail == (
            "growth |g(x)| <= 1 + 1|x| and sign x*g(x) >= 0 fail at x = 3: g(x) = -30"
        )

    def test_nan_value_is_a_violation(self):
        g = lambda x: math.nan if x == 2.0 else x
        verdict = check_regularity(
            RootProblem(g), [1.0, 2.0, 3.0], c=0.0, d=1.0, delta_pairs=[(0.5, 4.0)]
        )
        assert not verdict.holds
        assert verdict.first_violation == 1
        assert verdict.worst_margin == -math.inf
        assert verdict.detail == "g is not finite at x = 2: g(x) = nan; inf|g| on [0.5,4] = nan"

    def test_invalid_pair(self):
        with pytest.raises(ValueError, match="annulus"):
            check_regularity(RootProblem(lambda x: x), [1.0], c=1.0, d=1.0, delta_pairs=[(2.0, 1.0)])


class TestTruncation:
    def make_base(self, xs, ms):
        return ProcessPath(np.asarray(xs, float), np.asarray(ms, float))

    def test_noiseless_large_means_identity(self):
        xs = [3.0, 2.7, 2.43, 2.187]
        ms = [0.9 * v for v in xs[:-1]]
        base = self.make_base(xs, ms)
        trunc = derive_truncated(base, delta=1.0, tau=0.5)
        assert trunc.n0 == 1
        assert np.array_equal(trunc.path.xs, base.xs)
        assert np.array_equal(trunc.path.ms, base.ms)

    def test_small_means_zero_out(self):
        xs = [0.5, 0.4, 0.3]
        ms = [0.45, 0.35]
        base = self.make_base(xs, ms)
        trunc = derive_truncated(base, delta=1.0, tau=0.5)
        assert np.all(trunc.path.xs[1:] == 0.0)
        assert np.all(trunc.path.ms == 0.0)

    def test_unsettled_residuals_error(self):
        xs = [1.0, 1.5, 3.0]
        ms = [1.0, 1.0]
        with pytest.raises(ValueError, match="settle"):
            derive_truncated(self.make_base(xs, ms), delta=1.0, tau=0.5)

    def test_tau_above_delta_warns(self):
        base = self.make_base([3.0, 2.7], [2.7])
        with pytest.warns(UserWarning, match="tau"):
            derive_truncated(base, delta=0.5, tau=0.6)

    def test_residual_domination(self):
        rng = np.random.default_rng(8)
        xs = 5.0 * 0.95 ** np.arange(101) + rng.normal(scale=0.05, size=101)
        ms = xs[:-1] * 0.95
        base = ProcessPath(xs, ms)
        trunc = derive_truncated(base, delta=0.5, tau=0.4)
        assert trunc.n0 == 1 and np.any(trunc.path.ms == 0.0) and np.any(trunc.path.ms != 0.0)
        # truncated residual magnitudes never exceed the base ones (exact)
        assert np.all(np.abs(trunc.path.eps) <= np.abs(base.eps))

    def test_nonexpansive_verdict_reports_the_absolute_step(self):
        # a large residual at step 1 settles at n0 = 2; the mean expands at step 4
        base = self.make_base([1.0, 0.9, 0.8, 0.7, 0.9, 0.8], [0.5, 0.8, 0.7, 0.9, 0.8])
        trunc = derive_truncated(base, delta=0.2, tau=0.1)
        assert trunc.n0 == 2
        verdict = truncated_nonexpansive_verdict(trunc)
        assert verdict.first_violation == 4
        assert verdict.detail.endswith("at step 4")

    @pytest.mark.parametrize("seed", range(20))
    def test_sa_truncation_nonexpansive_beyond_settling(self, seed):
        path = rm_solve(
            RootProblem(sqrt_sign),
            NoiseModel.gaussian(0.1),
            Schedule.inverse_n(1.0),
            2.0,
            2000,
            seed,
        )
        trunc = derive_truncated(path, delta=0.25, tau=0.1)
        verdict = truncated_nonexpansive_verdict(trunc)
        assert verdict.holds, f"seed {seed}: step {verdict.first_violation}"

    @pytest.mark.parametrize("seed", range(20))
    def test_sa_truncated_zero_mean_bound(self, seed):
        path = rm_solve(
            RootProblem(sqrt_sign),
            NoiseModel.gaussian(0.1),
            Schedule.inverse_n(1.0),
            2.0,
            2000,
            seed,
        )
        delta = 0.25
        trunc = derive_truncated(path, delta=delta, tau=0.1)
        verdict = check_truncated_zero_mean_bound(trunc, kappa=delta)
        assert verdict.holds

    def test_zero_mean_bound_constructed_violation(self):
        # x jumps from a truncated-zero state to a mean far above the allowance
        base = self.make_base([1.0, 0.05, 0.52], [0.04, 0.5])
        trunc = derive_truncated(base, delta=0.1, tau=0.05)
        verdict = check_truncated_zero_mean_bound(trunc, kappa=0.1)
        assert not verdict.holds
        assert verdict.first_violation == 2

    def test_zero_mean_bound_trivial_on_zero_path(self):
        xs = [0.5, 0.4, 0.3]
        ms = [0.45, 0.35]
        trunc = derive_truncated(self.make_base(xs, ms), delta=1.0, tau=0.5)
        verdict = check_truncated_zero_mean_bound(trunc, kappa=0.0)
        assert verdict.holds


class TestMultivariateSolve:
    def test_identity_telescoping(self):
        horizon = 500
        schedule = Schedule.explicit(1.0 / np.arange(2.0, horizon + 2.0))
        problem = RootProblem(lambda x: x, dimension=3)
        path = rm_solve(problem, NoiseModel.noiseless(), schedule, [3.0, -1.0, 2.0], horizon, 0)
        norms = path.norms()
        n = np.arange(0, horizon + 1)
        assert np.allclose(norms, norms[0] / (n + 1), rtol=1e-12)

    def test_rotation_scaling_converges(self):
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        problem = RootProblem(lambda x: A @ x, dimension=2)
        hits = 0
        for seed in range(20):
            path = rm_solve(
                problem, NoiseModel.gaussian(0.1), Schedule.inverse_n(1.0), [2.0, 1.0], 10_000, seed
            )
            hits += np.linalg.norm(path.xs[-1]) < 0.1
        assert hits >= 19

    def test_dimension_one_matches_scalar(self):
        scalar = rm_solve(
            RootProblem(lambda x: x),
            NoiseModel.gaussian(0.2),
            Schedule.inverse_n(1.0),
            1.0,
            300,
            99,
        )
        vector = rm_solve(
            RootProblem(lambda x: x, dimension=1),
            NoiseModel.gaussian(0.2),
            Schedule.inverse_n(1.0),
            [1.0],
            300,
            99,
        )
        assert np.array_equal(vector.xs[:, 0], scalar.xs)
        assert np.array_equal(vector.ms[:, 0], scalar.ms)

    def test_contraction_factor_bounds_mean_norms(self):
        A = np.array([[1.0, 1.0], [-1.0, 1.0]])
        problem = RootProblem(lambda x: A @ x, dimension=2)
        path = rm_solve(
            problem, NoiseModel.gaussian(0.1), Schedule.inverse_n(1.0), [2.0, 1.0], 5000, 5
        )
        alphas = Schedule.inverse_n(1.0).alphas(5000)
        ks = contraction_factor(alphas, 1.0, math.sqrt(2.0))
        prev = np.linalg.norm(path.xs[:-1], axis=1)
        ratios = path.mean_norms() / prev
        assert np.all(ratios <= ks + 1e-12)


class TestContractionFactor:
    def test_reference_value(self):
        assert contraction_factor(0.1, 1.0, 2.0) == pytest.approx(math.sqrt(0.84))
        assert contraction_factor(0.1, 1.0, 2.0) == pytest.approx(0.91652, abs=5e-6)

    def test_zero_step(self):
        assert contraction_factor(0.0, 1.0, 2.0) == 1.0

    def test_one_step_kill(self):
        assert contraction_factor(1.0, 1.0, 1.0) == 0.0

    def test_radicand_rounded_below_zero_reads_as_zero(self):
        # 1 - 2*alpha*m + alpha**2 * M**2 >= (1 - alpha*m)**2 = 0 here; it rounds to -2.2e-16
        M = 5.540977507963289
        assert contraction_factor(1.0 / M, M, M) == 0.0

    @pytest.mark.parametrize("m, M", [(1.0, math.sqrt(2.0)), (0.7, 1.3), (0.9, 1.25)])
    def test_schedule_matches_the_per_step_form(self, m, M):
        alphas = Schedule.inverse_n(1.0).alphas(20_000)
        per_step = [math.sqrt(1.0 - 2.0 * a * m + a * a * M * M) for a in alphas.tolist()]
        assert contraction_factor(alphas, m, M).tobytes() == np.array(per_step).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            contraction_factor(0.1, 2.0, 1.0)
        with pytest.raises(ValueError):
            contraction_factor(-0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            contraction_factor(0.1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Seed blocks: rm_solve_block against the per-seed solvers


def _family_problem(data, family):
    """A built-in family's problem with drawn parameters, and its dimension (0 = scalar)."""

    def num(lo, hi):
        return data.draw(st.floats(lo, hi))

    if family in PROBLEM.families:
        values = {"root": num(-1.0, 1.0), "slope": num(0.2, 2.0)}
        values["amplitude"] = num(0.0, 0.9) * values["slope"]
        return PROBLEM.families[family].build(values), 0
    p = data.draw(st.integers(1, 3))
    if family == "matrix":
        entries = [[num(-1.5, 1.5) for _ in range(p)] for _ in range(p)]
        return PROBLEM_ND.families[family].build({"entries": entries}, p), p
    return PROBLEM_ND.families[family].build({"scale": num(0.2, 2.0)}, p), p


BLOCK_NOISES = {
    "gaussian": NoiseModel.gaussian(0.3),
    "uniform": NoiseModel.uniform(0.5),
    "none": NoiseModel.noiseless(),
}


def _assert_block_equals_per_seed(problem, noise, schedule, x0, horizon, sequences):
    """Every path of :func:`rm_solve_block` is byte for byte its seed's :func:`rm_solve`
    path; ``MIN_BLOCK`` is lifted, so scalar seeds of any count step as one block."""
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        patch.setattr(approximation, "MIN_BLOCK", 1)
        paths = list(rm_solve_block(problem, noise, schedule, x0, horizon, sequences))
    assert caught == []
    assert len(paths) == len(sequences)
    for seed, path in zip(sequences, paths):
        ref = rm_solve(problem, noise, schedule, x0, horizon, seed)
        assert type(path) is type(ref)
        for got, want in ((path.xs, ref.xs), (path.ms, ref.ms), (path.eps, ref.eps)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got, want)


class TestBlockSolver:
    @given(
        data=st.data(),
        family=st.sampled_from(sorted(PROBLEM.families) + sorted(PROBLEM_ND.families)),
        noise=st.sampled_from(sorted(BLOCK_NOISES)),
        seeds=st.sampled_from([1, 2, 7, 50]),
        horizon=st.integers(1, 80),
        root_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_paths_equal_per_seed(self, data, family, noise, seeds, horizon, root_seed):
        problem, p = _family_problem(data, family)
        schedule = Schedule.inverse_n(data.draw(st.floats(0.1, 2.0)))
        x0 = data.draw(st.floats(-5.0, 5.0)) if p == 0 else np.linspace(-2.0, 3.0, p)
        sequences = [child_seed(root_seed, i) for i in range(seeds)]
        noise = BLOCK_NOISES[noise]
        _assert_block_equals_per_seed(problem, noise, schedule, x0, horizon, sequences)

    @pytest.mark.parametrize("noise", sorted(BLOCK_NOISES))
    @pytest.mark.parametrize("family", sorted(PROBLEM.families) + sorted(PROBLEM_ND.families))
    @given(
        data=st.data(),
        chunk=st.integers(1, 9),
        seeds=st.sampled_from([1, 2, 7, 50]),
        horizon=st.integers(1, 80),
        root_seed=st.integers(0, 2**32),
    )
    @settings(max_examples=8, deadline=None)
    def test_block_paths_equal_per_seed_across_shock_chunks(
        self, family, noise, data, chunk, seeds, horizon, root_seed
    ):
        # several chunks per path, the last one usually ragged
        problem, p = _family_problem(data, family)
        schedule = Schedule.inverse_n(data.draw(st.floats(0.1, 2.0)))
        x0 = data.draw(st.floats(-5.0, 5.0)) if p == 0 else np.linspace(-2.0, 3.0, p)
        sequences = [child_seed(root_seed, i) for i in range(seeds)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(approximation, "SHOCK_CHUNK", chunk)
            _assert_block_equals_per_seed(
                problem, BLOCK_NOISES[noise], schedule, x0, horizon, sequences
            )

    def test_custom_draw_gives_the_per_seed_paths(self):
        # the draw consumes one extra number per call, so the two solvers
        # agree only when they split the horizon into the same draw calls
        def draw(rng, shape):
            return rng.normal(0.0, 0.3, size=shape) * (1.0 + rng.random())

        problem = PROBLEM.families["sine_perturbed"].build(
            {"slope": 1.0, "amplitude": 0.3, "root": 0.5}
        )
        horizon = 3 * approximation.SHOCK_CHUNK + 5
        sequences = [child_seed(4, i) for i in range(MIN_BLOCK)]
        args = (problem, NoiseModel(draw), Schedule.inverse_n(1.0), 2.0, horizon)
        _assert_block_equals_per_seed(*args, sequences)

    @pytest.mark.parametrize("family", ["sine_perturbed", "matrix"])
    @pytest.mark.parametrize("seeds", [2, 17])
    def test_problem_without_g_block_runs_seed_by_seed(self, family, seeds):
        if family in PROBLEM.families:
            built = PROBLEM.families[family].build({"slope": 1.0, "amplitude": 0.3, "root": 0.5})
            x0 = 2.0
        else:
            built = PROBLEM_ND.families[family].build({"entries": [[1.0, 0.2], [0.0, 0.8]]}, 2)
            x0 = np.array([2.0, -1.0])
        problem = RootProblem(built.g, x_star=built.x_star, dimension=built.dimension)
        sequences = [child_seed(6, i) for i in range(seeds)]
        args = (problem, NoiseModel.gaussian(0.3), Schedule.inverse_n(1.0), x0, 300)
        _assert_block_equals_per_seed(*args, sequences)

    def test_block_memory_stays_within_the_budget(self, monkeypatch):
        # 96 seeds whose paths (values and means) fill three budgets: each
        # block of 32 seeds runs within one budget plus the stepper's two
        # window buffers, and the next block is allocated only once the last
        # one's paths are freed (a second block alive would add a whole
        # budget).  On top come the block's generators, the path handed out,
        # the one the loop still holds: half a block at most
        seeds, horizon, per_block = 96, 4095, 32
        seed_bytes = 8 * (2 * horizon + 1)
        monkeypatch.setattr(approximation, "BLOCK_BYTES", per_block * seed_bytes)
        assert _block_size(seeds, horizon) == per_block
        problem = PROBLEM.families["sine_perturbed"].build(
            {"slope": 1.0, "amplitude": 0.3, "root": 0.5}
        )
        sequences = [child_seed(5, i) for i in range(seeds)]
        args = (problem, NoiseModel.gaussian(0.3), Schedule.inverse_n(1.0), 2.0, horizon)
        blocks = []
        step_windows = approximation._step_windows

        def counted(*args):
            blocks.append(len(args[-1]))
            return step_windows(*args)

        monkeypatch.setattr(approximation, "_step_windows", counted)
        tracemalloc.start()
        try:
            handed = sum(1 for _ in rm_solve_block(*args, sequences))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert handed == seeds
        assert blocks == [per_block] * 3
        buffers = 8 * (2 * approximation.SHOCK_CHUNK + 1) * per_block
        assert peak <= approximation.BLOCK_BYTES + buffers + per_block // 2 * seed_bytes

    @pytest.mark.parametrize(
        "family, seeds",
        [("sine_perturbed", n) for n in (2, 7, 50)] + [("linear", n) for n in (2, 7, 50)],
        ids=["2", "7", "50", "linear-2", "linear-7", "linear-50"],
    )
    def test_overflowing_seed_errors_alone(self, family, seeds, monkeypatch):
        # slope 2 with c = 4 turns a huge shock at step 2 into an overflow in
        # the block, which then runs its seeds through rm_solve.  There,
        # sine_perturbed's math.sin(inf) raises one step later (5e307), and the
        # ensemble reruns that seed and every later one alone; the linear
        # map's float loop runs on through inf and NaN without an error (1e308,
        # which alpha_2 = 2 scales past the largest float, with numpy's
        # overflow warning)
        shock, seed_notes = OVERFLOWS[family]
        problem = PROBLEM.families[family].build({"slope": 2.0, "amplitude": 0.3, "root": 0.0})

        def draw(rng, shape):
            z = rng.normal(0.0, 0.1, size=shape)
            if rng.random() < 0.3:
                z[1] = shock
            return z

        noise = NoiseModel(draw)
        schedule = Schedule.inverse_n(4.0)
        config = EnsembleConfig(seeds=seeds, root_seed=9, horizon=60)
        monkeypatch.setattr(approximation, "MIN_BLOCK", 1)  # 2 and 7 seeds make a block
        raised = []
        step_windows = approximation._step_windows

        def recorded(*args):
            try:
                yield from step_windows(*args)
            except FloatingPointError:
                raised.append(len(args[-1]))
                raise

        monkeypatch.setattr(approximation, "_step_windows", recorded)
        chunks = []

        def solve(seed_sequences):
            chunks.append(len(seed_sequences))
            paths = rm_solve_block(problem, noise, schedule, 1.0, 60, seed_sequences)
            return ((path.xs, path) for path in paths)

        def seed_by_seed(seed_sequences):
            for seed in seed_sequences:
                path = rm_solve(problem, noise, schedule, 1.0, 60, seed)
                yield path.xs, path

        with warnings.catch_warnings(record=True) as caught_blocked:
            warnings.simplefilter("always")
            blocked = run_ensemble(solve, config, [0, 30, 60])
        with warnings.catch_warnings(record=True) as caught_alone:
            warnings.simplefilter("always")
            alone = run_ensemble(seed_by_seed, config, [0, 30, 60])
        assert raised == [seeds]  # the block's window loop overflowed
        notes = [v.note for v in blocked.per_seed]
        assert set(notes) == seed_notes
        # one call of every seed; from the first seed that raised alone, each
        # later seed reruns alone, solved once
        first = next((i for i, note in enumerate(notes) if note), seeds)
        assert chunks == [seeds] + [1] * (seeds - first)
        # the block adds no warning of its own to those of the seeds alone
        assert [str(w.message) for w in caught_blocked] == [str(w.message) for w in caught_alone]
        if family == "sine_perturbed":
            assert caught_blocked == []
        assert json.dumps(blocked.to_dict()) == json.dumps(alone.to_dict())
        assert json.dumps(blocked.curves) == json.dumps(alone.curves)
        for got, want in zip(blocked.payloads, alone.payloads):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.xs.tobytes() == want.xs.tobytes()
                assert got.ms.tobytes() == want.ms.tobytes()

    @pytest.mark.parametrize("x0", [math.nan, [0.5, math.nan], [math.nan, math.nan]])
    @pytest.mark.parametrize("block", [False, True])
    def test_nan_x0_is_outside_the_domain(self, x0, block):
        problem = RootProblem(lambda x: x, dimension=np.size(x0), g_block=lambda x: x)
        args = (problem, NoiseModel.noiseless(), Schedule.inverse_n(), x0, 5)
        with pytest.raises(ValueError, match=r"x0 = .* holds a NaN"):
            if block:
                rm_solve_block(*args, [child_seed(0, 0)])
            else:
                rm_solve(*args, 0)

    def test_block_size_follows_the_budget(self):
        assert _block_size(100, 30_000) == 100  # 139 fit: one block
        assert _block_size(20, 20_000, 3) == 20
        assert _block_size(15, 100) == 1  # fewer than MIN_BLOCK seeds: seed by seed
        assert _block_size(100, 10**7) == 1  # fewer than MIN_BLOCK fit
        # a vector block of any size beats stepping its seeds alone
        assert _block_size(15, 100, 2) == 15
        assert _block_size(100, 100_000, 3) == 13  # 13 fit
        assert _block_size(20, 10**7, 3) == 1  # not one seed fits
        assert _block_size(0, 100, 3) == 1  # no seeds: no block to size
        for seeds in (2, 16, 37, 100, 1000, 10**6):
            for horizon, p in ((2_000, 1), (30_000, 1), (20_000, 3), (100_000, 2), (10**6, 3)):
                size = _block_size(seeds, horizon, p)
                assert 1 <= size <= seeds
                assert size == 1 or p > 1 or size >= MIN_BLOCK
                # a seed's path holds 2H + 1 rows of p values
                assert size * 8 * p * (2 * horizon + 1) <= BLOCK_BYTES
