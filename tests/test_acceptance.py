"""Acceptance gate: statistical and pathwise checks at their stated tolerances.

Each test prints one ACCEPTANCE line.  These runs are desk-scale Monte Carlo
ensembles (up to 100 seeds at horizon 1e5), so this module dominates the
suite's runtime.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from contractlab import (
    ConvergenceClass,
    EnsembleConfig,
    NoiseModel,
    RegressionModel,
    RootProblem,
    Schedule,
    check_linear_envelope,
    check_norm_envelope,
    check_ratio_sandwich,
    check_segment_peak_bound,
    check_truncated_zero_mean_bound,
    contraction_factor,
    derive_truncated,
    integral_bound,
    kronecker_path,
    limit_dispersion,
    partition_analysis,
    rm_solve_block,
    run_ensemble,
    simulate_ls_runs,
    truncated_nonexpansive_verdict,
)
from contractlab.approximation import signed_log_grid, sphere_grid
from contractlab.cli import main as cli_main
from contractlab.least_squares import geometric_one_design, rotating_design
from helpers import halving_noise_path

SEEDS = 100
HORIZON = 100_000


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def sine_problem() -> RootProblem:
    return RootProblem(
        lambda x: x + 0.3 * math.sin(x), x_star=0.0, g_block=lambda x: x + 0.3 * np.sin(x)
    )


def rm_ensemble(problem, noise, schedule, x0, config, check):
    """``check`` every seed's path, the seeds stepped by :func:`rm_solve_block`."""

    def solve(seed_sequences):
        paths = rm_solve_block(problem, noise, schedule, x0, config.horizon, seed_sequences)
        return map(check, paths)

    return run_ensemble(solve, config)


@pytest.fixture(scope="module")
def sa_reference_ensemble():
    """Criterion-1 ensemble, shared with the sandwich criterion."""
    schedule = Schedule.inverse_n(1.0)
    config = EnsembleConfig(
        seeds=SEEDS, root_seed=20_240_601, horizon=HORIZON, tol_zero=0.05, tol_cauchy=1e-3
    )
    return rm_ensemble(
        sine_problem(),
        NoiseModel.gaussian(0.1),
        schedule,
        5.0,
        config,
        lambda path: (path.xs, {"sandwich": check_ratio_sandwich(path, schedule, 0.7, 1.3)}),
    )


class TestCriterion1UnivariateConvergence:
    def test_sine_perturbed_map_converges(self, sa_reference_ensemble):
        stats = sa_reference_ensemble
        frac = stats.fraction(ConvergenceClass.CONVERGED_TO_ZERO)
        median = stats.final_abs_quantiles["q50"]

        env = check_linear_envelope(sine_problem(), signed_log_grid(1e-4, 10.0, 10_000))
        env_ok = env.covers(0.7, 1.3)

        # control: summable step sizes stall far from the root
        control = rm_ensemble(
            sine_problem(),
            NoiseModel.gaussian(0.1),
            Schedule.inverse_n_power(1.0, 2.0),
            5.0,
            EnsembleConfig(seeds=SEEDS, root_seed=20_240_601, horizon=HORIZON, tol_zero=0.05),
            lambda path: (path.xs, None),
        )
        control_frac = control.fraction(ConvergenceClass.CONVERGED_TO_ZERO)

        ok = frac >= 0.95 and median < 0.02 and env_ok and control_frac <= frac - 0.5
        report(
            "criterion-1 univariate convergence",
            ok,
            f"fraction={frac:.3f} median={median:.4g} envelope_ok={env_ok} "
            f"control_fraction={control_frac:.3f}",
        )


class TestCriterion2RatioSandwich:
    def test_every_path_stays_in_sandwich(self, sa_reference_ensemble):
        verdicts = [p["sandwich"] for p in sa_reference_ensemble.payloads]
        violations = sum(not v.holds for v in verdicts)
        worst = min(v.worst_margin for v in verdicts)
        report(
            "criterion-2 ratio sandwich",
            violations == 0,
            f"violations={violations} worst_margin={worst:.3g} over {len(verdicts)} paths",
        )


class TestCriterion3NonuniformContraction:
    def test_square_root_map(self):
        problem = RootProblem(
            lambda x: math.copysign(math.sqrt(abs(x)), x),
            x_star=0.0,
            g_block=lambda x: np.copysign(np.sqrt(np.abs(x)), x),
        )
        delta, tau = 0.25, 0.1

        def check(path):
            trunc = derive_truncated(path, delta, tau)
            return path.xs, {
                "nonexpansive": truncated_nonexpansive_verdict(trunc),
                "bound": check_truncated_zero_mean_bound(trunc, kappa=delta),
            }

        stats = rm_ensemble(
            problem,
            NoiseModel.gaussian(0.1),
            Schedule.inverse_n(1.0),
            2.0,
            EnsembleConfig(seeds=SEEDS, root_seed=31_415, horizon=HORIZON, tol_zero=0.1),
            check,
        )
        frac = stats.fraction(ConvergenceClass.CONVERGED_TO_ZERO)
        nonexpansive_fails = sum(not p["nonexpansive"].holds for p in stats.payloads)
        bound_fails = sum(not p["bound"].holds for p in stats.payloads)
        ok = frac >= 0.90 and nonexpansive_fails == 0 and bound_fails == 0
        report(
            "criterion-3 nonuniform contraction",
            ok,
            f"fraction={frac:.3f} truncated_ratio_fails={nonexpansive_fails} "
            f"mean_bound_fails={bound_fails}",
        )


class TestCriterion4MultivariateConvergence:
    def test_rotation_lifted_map(self):
        A = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        problem = RootProblem(
            lambda x: A @ x,
            x_star=np.zeros(3),
            dimension=3,
            g_block=lambda X: (A @ X[:, :, None])[:, :, 0],
        )
        schedule = Schedule.inverse_n(1.0)
        noise = NoiseModel.gaussian(0.1)
        m_decl, M_decl = 1.0, math.sqrt(2.0)
        alphas = schedule.alphas(HORIZON)
        ks = np.sqrt(1.0 - 2.0 * alphas * m_decl + (alphas * M_decl) ** 2)

        env = check_norm_envelope(
            problem, sphere_grid(3, directions=128, radii=[0.01, 0.1, 1.0, 10.0])
        )
        env_ok = env.covers(m_decl, M_decl)
        assert contraction_factor(alphas[10], m_decl, M_decl) == pytest.approx(ks[10])

        def check(path):
            prev = np.linalg.norm(path.xs[:-1], axis=1)
            mask = prev > 0
            ratios = path.mean_norms()[mask] / prev[mask]
            violations = int(np.sum(ratios > ks[mask] + 1e-12))
            return path.norms(), {"violations": violations}

        stats = rm_ensemble(
            problem,
            noise,
            schedule,
            np.array([2.0, -1.0, 1.5]),
            EnsembleConfig(seeds=SEEDS, root_seed=2_718, horizon=HORIZON, tol_zero=0.1),
            check,
        )
        finals = np.array([v.final_value for v in stats.per_seed])
        frac_final = float(np.mean(np.abs(finals) < 0.1))
        total_violations = sum(p["violations"] for p in stats.payloads)
        ok = frac_final >= 0.95 and total_violations == 0 and env_ok
        report(
            "criterion-4 multivariate convergence",
            ok,
            f"final_norm_fraction={frac_final:.3f} contraction_violations={total_violations} "
            f"envelope_ok={env_ok}",
        )


class TestCriterion5SegmentPeakBound:
    def test_pathwise_bound_over_seeds(self):
        violations = 0
        worst = math.inf
        for seed in range(SEEDS):
            path = halving_noise_path(200, seed, x0=1.0, sd0=0.5)
            verdict = check_segment_peak_bound(path, np.zeros(200))
            if not verdict.holds:
                violations += 1
            worst = min(worst, verdict.worst_margin)
        report(
            "criterion-5 segment peak bound",
            violations == 0,
            f"violations={violations} worst_margin={worst:.3g} over {SEEDS} paths",
        )


class TestCriterion6WeightedAverages:
    def test_random_signs_average_out(self):
        def solve(seed_sequences):
            for seed_sequence in seed_sequences:
                rng = np.random.default_rng(seed_sequence)
                ys = rng.integers(0, 2, size=HORIZON) * 2.0 - 1.0
                yield kronecker_path(ys, np.arange(1.0, HORIZON + 1.0)).xs, None

        stats = run_ensemble(
            solve,
            EnsembleConfig(seeds=SEEDS, root_seed=86_028, horizon=HORIZON, tol_zero=0.05),
        )
        finals = np.array([v.final_value for v in stats.per_seed])
        frac = float(np.mean(np.abs(finals) < 0.05))

        ys = (-1.0) ** np.arange(1, HORIZON + 1)
        det = kronecker_path(ys, np.arange(1.0, HORIZON + 1.0))
        n = np.arange(1, HORIZON + 1)
        det_ok = bool(np.all(np.abs(det.xs[1:]) <= 1.0 / n))
        ok = frac >= 0.95 and det_ok
        report(
            "criterion-6 weighted averages",
            ok,
            f"fraction={frac:.3f} deterministic_bound={det_ok}",
        )


class TestCriterion7EstimatorSufficiency:
    def test_persistently_excited_design(self):
        model = RegressionModel(
            beta=np.array([1.0, -0.5]), design=rotating_design(jitter=0.1), sigma=1.0
        )
        horizon = 10_000
        checkpoints = [100, 1_000, 5_000, 10_000]
        runs = simulate_ls_runs(model, horizon, range(SEEDS), checkpoints=checkpoints)
        errs = [float(np.max(np.abs(run.final_b - model.beta))) for run in runs]
        gaps = [run.checkpoint_gap for run in runs]
        frac = float(np.mean(np.array(errs) < 0.1))
        worst_gap = max(gaps)
        ok = frac >= 0.95 and worst_gap <= 1e-8
        report(
            "criterion-7 estimator sufficiency",
            ok,
            f"fraction={frac:.3f} worst_oracle_gap={worst_gap:.3g}",
        )


class TestCriterion8IntermediateCase:
    def test_bounded_energy_component_is_random(self):
        model = RegressionModel(
            beta=np.array([1.0, -0.5]), design=geometric_one_design(), sigma=0.01
        )
        horizon = 10_000
        runs = simulate_ls_runs(model, horizon, range(SEEDS))
        part = partition_analysis(
            runs,
            model.beta,
            energy_threshold=10.0,
            consistency_tol=0.05,
            oscillation_tol=1e-3,
            dispersion_ratio=3.0,
        )
        disp1 = limit_dispersion([r.final_b[0] for r in runs])
        disp2 = limit_dispersion([r.final_b[1] for r in runs])
        consistent_frac = float(np.mean([r.tail_err[1] <= 0.05 for r in runs]))
        oscillations = [float(r.tail_osc[0]) for r in runs]
        ok = (
            part.q == 1
            and part.component_classes == ("finite_random_limit", "consistent")
            and consistent_frac >= 0.95
            and max(oscillations) <= 1e-3
            and disp1 > 3.0 * disp2
        )
        report(
            "criterion-8 intermediate case",
            ok,
            f"q={part.q} classes={part.component_classes} "
            f"max_oscillation={max(oscillations):.3g} dispersion_ratio={disp1 / disp2:.1f}",
        )


class TestCriterion9IntegralBound:
    def test_partial_sum_and_randomized_bounds(self):
        res = integral_bound(np.ones(10_000), lambda x: x * x, tail_integral=1.0)
        exact_ok = 1.6448 <= res.partial_sum <= 1.6450 and res.partial_sum <= res.bound <= 2.0

        violations = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0.0, 1.0, size=1_000)
            a[0] = 0.5
            trial = integral_bound(a, lambda x: x * x, tail_integral=2.0)
            if not trial.holds or trial.bound > 4.0 + 1e-12:
                violations += 1
        ok = exact_ok and violations == 0
        report(
            "criterion-9 integral bound",
            ok,
            f"partial_sum={res.partial_sum:.5f} bound={res.bound} violations={violations}",
        )


DETERMINISM_SA = """
kind: sa
problem: {{family: sine_perturbed, slope: 1.0, amplitude: 0.3}}
schedule: {{family: inverse_n, c: 1.0}}
noise: {{family: gaussian, sd: 0.1}}
x0: 5.0
envelope: {{m: 0.7, M: 1.3, grid_min_abs: 1.0e-3, grid_max_abs: 10.0, grid_per_decade: 500}}
ensemble: {{seeds: 6, root_seed: 99, horizon: 2000, tol_zero: 0.05, parallelism: {par}}}
assertions:
  sandwich_zero_violations: true
  envelope_valid: true
output: {{dir: {out}, traces: true}}
"""

DETERMINISM_KRONECKER = """
kind: kronecker
increments: {{family: rademacher}}
weights: {{family: linear}}
ensemble: {{seeds: 4, root_seed: 5, horizon: 5000, tol_zero: 0.05}}
assertions: {{alternating_bound: true}}
output: {{dir: {out}, traces: true}}
"""


class TestCriterion10Determinism:
    MACHINE_FILES = ("summary.json", "quantiles.csv", "traces.csv")

    def _run_twice(self, tmp_path, text, name):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text)
        assert cli_main(["run", str(cfg)]) == 0
        first = {f: (out / f).read_bytes() for f in self.MACHINE_FILES if (out / f).exists()}
        assert cli_main(["run", str(cfg)]) == 0
        second = {f: (out / f).read_bytes() for f in self.MACHINE_FILES if (out / f).exists()}
        return first, second

    def test_byte_identical_reruns(self, tmp_path):
        sa_first, sa_second = self._run_twice(
            tmp_path, DETERMINISM_SA.format(out=tmp_path / "sa", par=1), "sa"
        )
        kron_first, kron_second = self._run_twice(
            tmp_path, DETERMINISM_KRONECKER.format(out=tmp_path / "kron"), "kron"
        )
        sa_ok = sa_first == sa_second and set(sa_first) == set(self.MACHINE_FILES)
        kron_ok = kron_first == kron_second and set(kron_first) == set(self.MACHINE_FILES)
        report(
            "criterion-10 determinism",
            sa_ok and kron_ok,
            f"sa_files_identical={sa_ok} kronecker_files_identical={kron_ok}",
        )
