"""Experiment runners: build models from a validated config, run, assert, emit.

Each runner returns the machine-readable report, the evaluated assertion
results, optional ensemble statistics, and optionally its trace width with a
function from a seed's payload to the path that seed simulated.  The
orchestrator writes the artifacts and maps assertion failures to exit code 1
and environment problems to exit code 2.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from .approximation import (
    check_linear_envelope,
    check_norm_envelope,
    check_ratio_sandwich,
    check_regularity,
    check_truncated_zero_mean_bound,
    contraction_factor,
    derive_truncated,
    rm_solve,
    rm_solve_nd,
    signed_log_grid,
    sphere_grid,
    truncated_nonexpansive_verdict,
)
from .conditions import (
    ContractiveProfile,
    NonexpansiveProfile,
    check_contractive,
    check_nonexpansive,
    check_zero_state_decay,
)
from .config import ExperimentConfig
from .harness import (
    ConvergenceClass,
    EnsembleStats,
    convergence_verdict,
    run_ensemble,
)
from .least_squares import (
    RegressionModel,
    check_design_conditions,
    partition_analysis,
    simulate_ls_runs,
    z_process,
)
from .process import ProcessPath, check_segment_peak_bound, crossing_report, kronecker_path, ratio_band
from .reporting import (
    read_trace_csv,
    write_quantiles_csv,
    write_summary_json,
    write_summary_text,
    write_traces_csv,
)
from .verdict import ConditionVerdict

__all__ = ["AssertionResult", "ExperimentOutcome", "run_experiment"]


@dataclass(frozen=True)
class AssertionResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ExperimentOutcome:
    exit_code: int
    summary: Dict[str, Any]
    assertions: List[AssertionResult]
    out_dir: Optional[Path]

    @property
    def failed_assertions(self) -> List[str]:
        return [a.name for a in self.assertions if not a.passed]


def _verdict_dict(v: ConditionVerdict) -> Dict[str, Any]:
    return {
        "holds": v.holds,
        "first_violation": v.first_violation,
        "worst_margin": v.worst_margin,
        "detail": v.detail,
    }


def _grid(length: int, points: int) -> np.ndarray:
    return np.unique(np.linspace(0, length - 1, min(points, length)).astype(int))


def _finite_finals(stats: EnsembleStats) -> np.ndarray:
    vals = [v.final_value for v in stats.per_seed if math.isfinite(v.final_value)]
    return np.asarray(vals, dtype=float)


def _eval_fraction_assertions(
    assertions: Dict[str, Any], stats: EnsembleStats, results: List[AssertionResult]
) -> None:
    if "min_fraction_converged_to_zero" in assertions:
        want = float(assertions["min_fraction_converged_to_zero"])
        frac = stats.fraction(ConvergenceClass.CONVERGED_TO_ZERO)
        results.append(
            AssertionResult(
                "min_fraction_converged_to_zero",
                frac >= want,
                f"fraction {frac:.4f}, required {want:.4f}",
            )
        )
    if "max_median_final_abs" in assertions:
        want = float(assertions["max_median_final_abs"])
        got = stats.final_abs_quantiles["q50"]
        results.append(
            AssertionResult(
                "max_median_final_abs", got <= want, f"median |final| {got:.6g}, limit {want:.6g}"
            )
        )
    if "min_fraction_final_below" in assertions:
        params = assertions["min_fraction_final_below"]
        finals = np.abs(_finite_finals(stats))
        frac = float(np.mean(finals < float(params["value"]))) if finals.size else 0.0
        results.append(
            AssertionResult(
                "min_fraction_final_below",
                frac >= float(params["fraction"]),
                f"fraction {frac:.4f} below {params['value']}, required {params['fraction']}",
            )
        )


def _payload_flag_assertion(
    name: str, stats: EnsembleStats, key: str, results: List[AssertionResult]
) -> None:
    bad = [
        i
        for i, payload in enumerate(stats.payloads)
        if payload is None or not payload.get(key, False)
    ]
    results.append(
        AssertionResult(
            name,
            not bad,
            "all seeds pass" if not bad else f"{len(bad)} seeds fail (first: seed {bad[0]})",
        )
    )


# the path an SA or Kronecker factory kept in its payload under --traces
_stored_path = itemgetter("path")


def _run_sa(config: ExperimentConfig, nonuniform: bool):
    model = config.model
    problem = config.build("problem")
    schedule = config.build("schedule")
    noise = config.build("noise")
    x0 = float(model["x0"])
    root = float(model["problem"]["root"])
    ens = config.ensemble
    horizon = ens.horizon

    report: Dict[str, Any] = {
        "problem": model["problem"],
        "schedule_sum": schedule.sum_at(horizon),
        "schedule_sum_sq": schedule.sum_sq_at(horizon),
        "schedule_summable": schedule.summable,
    }

    env = model.get("envelope")
    env_report = None
    if env is not None:
        grid = signed_log_grid(env["grid_min_abs"], env["grid_max_abs"], env["grid_per_decade"])
        env_report = check_linear_envelope(problem, grid + root, env["ratio_cap"])
        report["envelope"] = {
            "m_declared": env["m"],
            "M_declared": env["M"],
            "m_hat": env_report.m_hat,
            "M_hat": env_report.M_hat,
            "holds_on_grid": env_report.holds,
            "declared_valid": env_report.covers(env["m"], env["M"]),
        }

    reg = model.get("regularity") if nonuniform else None
    if reg is not None:
        grid = signed_log_grid(reg["grid_min_abs"], reg["grid_max_abs"], reg["grid_per_decade"])
        reg_verdict = check_regularity(
            problem,
            grid + root,
            c=reg["c"],
            d=reg["d"],
            delta_pairs=[tuple(p) for p in reg["pairs"]],
        )
        report["regularity"] = _verdict_dict(reg_verdict)
        report["regularity"]["annulus_infima"] = [
            {"pair": list(pair), "inf": k} for pair, k in reg_verdict.annulus_infima
        ]

    trunc_spec = model.get("truncation") if nonuniform else None
    if trunc_spec is not None:
        kappa = (
            float(trunc_spec["delta"])
            if trunc_spec["kappa"] == "delta"
            else float(trunc_spec["kappa"])
        )
        report["truncation"] = {
            "delta": trunc_spec["delta"],
            "tau": trunc_spec["tau"],
            "kappa": kappa,
        }

    def factory(seed_sequence):
        path = rm_solve(problem, noise, schedule, x0, horizon, seed_sequence)
        payload: Dict[str, Any] = {"path": path} if config.traces else {}
        if env is not None:
            sandwich = check_ratio_sandwich(path, schedule, env["m"], env["M"], x_star=root)
            payload["sandwich_ok"] = sandwich.holds
            payload["sandwich_margin"] = sandwich.worst_margin
        if trunc_spec is not None:
            try:
                trunc = derive_truncated(
                    path, float(trunc_spec["delta"]), float(trunc_spec["tau"])
                )
                payload["n0"] = trunc.n0
                payload["trunc_nonexpansive_ok"] = truncated_nonexpansive_verdict(trunc).holds
                payload["trunc_bound_ok"] = check_truncated_zero_mean_bound(trunc, kappa).holds
            except ValueError as exc:
                payload["n0"] = None
                payload["trunc_nonexpansive_ok"] = False
                payload["trunc_bound_ok"] = False
                payload["trunc_error"] = str(exc)
        return path.xs - root, payload

    stats = run_ensemble(factory, ens, _grid(horizon + 1, config.curve_points))

    results: List[AssertionResult] = []
    _eval_fraction_assertions(config.assertions, stats, results)
    if config.assertions.get("envelope_valid"):
        ok = env_report is not None and env_report.covers(env["m"], env["M"])
        results.append(
            AssertionResult(
                "envelope_valid",
                ok,
                f"grid ratios in [{env_report.m_hat:.6g}, {env_report.M_hat:.6g}], "
                f"declared [{env['m']:g}, {env['M']:g}]",
            )
        )
    if config.assertions.get("sandwich_zero_violations"):
        _payload_flag_assertion("sandwich_zero_violations", stats, "sandwich_ok", results)
    if config.assertions.get("truncated_nonexpansive_all_seeds"):
        _payload_flag_assertion(
            "truncated_nonexpansive_all_seeds", stats, "trunc_nonexpansive_ok", results
        )
    if config.assertions.get("truncated_mean_bound_all_seeds"):
        _payload_flag_assertion("truncated_mean_bound_all_seeds", stats, "trunc_bound_ok", results)
    if config.assertions.get("regularity_holds"):
        ok = bool(report.get("regularity", {}).get("holds"))
        results.append(AssertionResult("regularity_holds", ok, report["regularity"]["detail"]))

    return report, results, stats, (1, _stored_path)


def _run_sa_nd(config: ExperimentConfig):
    model = config.model
    x0 = np.asarray(model["x0"], dtype=float)
    p = len(x0)
    problem = config.build("problem", p)
    schedule = config.build("schedule")
    noise = config.build("noise")
    ens = config.ensemble
    horizon = ens.horizon

    report: Dict[str, Any] = {
        "dimension": p,
        "schedule_sum": schedule.sum_at(horizon),
        "schedule_summable": schedule.summable,
    }
    env = model.get("envelope")
    env_report = None
    ks = None
    if env is not None:
        grid = sphere_grid(p, int(env["directions"]), env["radii"], int(env["grid_seed"]))
        env_report = check_norm_envelope(problem, grid, env["ratio_cap"])
        report["envelope"] = {
            "m_declared": env["m"],
            "M_declared": env["M"],
            "m_hat": env_report.m_hat,
            "M_hat": env_report.M_hat,
            "holds_on_grid": env_report.holds,
            "declared_valid": env_report.covers(env["m"], env["M"]),
        }
        alphas = schedule.alphas(horizon)
        ks = np.array([contraction_factor(a, env["m"], env["M"]) for a in alphas])
        report["contraction_factor_final"] = float(ks[-1])

    def factory(seed_sequence):
        path = rm_solve_nd(problem, noise, schedule, x0, horizon, seed_sequence)
        payload: Dict[str, Any] = {"path": path} if config.traces else {}
        if ks is not None:
            payload["contraction_ok"] = ratio_band(path, ks, atol=1e-12).first_violation is None
        return path.norms(), payload

    stats = run_ensemble(factory, ens, _grid(horizon + 1, config.curve_points))

    results: List[AssertionResult] = []
    _eval_fraction_assertions(config.assertions, stats, results)
    if config.assertions.get("envelope_valid"):
        ok = env_report is not None and env_report.covers(env["m"], env["M"])
        results.append(
            AssertionResult(
                "envelope_valid",
                ok,
                f"grid gives [{env_report.m_hat:.6g}, {env_report.M_hat:.6g}]",
            )
        )
    if config.assertions.get("contraction_zero_violations"):
        _payload_flag_assertion("contraction_zero_violations", stats, "contraction_ok", results)

    return report, results, stats, (p, _stored_path)


def _run_kronecker(config: ExperimentConfig):
    model = config.model
    ens = config.ensemble
    horizon = ens.horizon
    weights = config.build("weights", horizon)
    increments = config.build("increments", horizon)

    def factory(seed_sequence):
        path = kronecker_path(increments(seed_sequence), weights)
        return path.xs, ({"path": path} if config.traces else {})

    stats = run_ensemble(factory, ens, _grid(horizon + 1, config.curve_points))
    report: Dict[str, Any] = {"weights": model["weights"], "increments": model["increments"]}

    results: List[AssertionResult] = []
    _eval_fraction_assertions(config.assertions, stats, results)
    if config.assertions.get("alternating_bound"):
        ys = (-1.0) ** np.arange(1, horizon + 1)
        path = kronecker_path(ys, np.arange(1.0, horizon + 1.0))
        n = np.arange(1, horizon + 1)
        ok = bool(np.all(np.abs(path.xs[1:]) <= 1.0 / n))
        worst = float(np.max(np.abs(path.xs[1:]) * n))
        report["alternating_bound_sup"] = worst
        results.append(
            AssertionResult("alternating_bound", ok, f"sup of n * |mean| = {worst:.6g} (<= 1)")
        )

    return report, results, stats, (1, _stored_path)


def _run_ls(config: ExperimentConfig):
    model = config.model
    ens = config.ensemble
    horizon = ens.horizon
    design, p = config.build("design")
    beta = np.asarray(model["beta"], dtype=float)
    sigma = float(model["sigma"])
    reg_model = RegressionModel(beta=beta, design=design, sigma=sigma)
    gw = config.build("gweight")
    ncp = int(model["checkpoints"])
    # ncp steps spread over 1..horizon (fewer when horizon < ncp)
    checkpoints = (
        sorted(set(np.linspace(horizon / ncp, horizon, ncp).astype(int).clip(1).tolist()))
        if ncp
        else []
    )

    def block(seed_sequences):
        runs = simulate_ls_runs(reg_model, horizon, seed_sequences, ens.tail_fraction, checkpoints)
        return [(run.err_sup, run) for run in runs]

    stats = run_ensemble(block, ens, _grid(horizon, config.curve_points), batched=True)
    runs = [r for r in stats.payloads if r is not None]

    report: Dict[str, Any] = {
        "design": model["design"],
        "gweight": model["gweight"]["family"],
        "checkpoints": checkpoints,
    }
    results: List[AssertionResult] = []

    partition = None
    partition_error = None
    if len(runs) >= 2:
        try:
            partition = partition_analysis(
                runs,
                beta,
                energy_threshold=float(model["energy_threshold"]),
                consistency_tol=float(model["partition"]["consistency_tol"]),
                oscillation_tol=float(model["partition"]["oscillation_tol"]),
                dispersion_ratio=float(model["partition"]["dispersion_ratio"]),
            )
            report["partition"] = {
                "q": partition.q,
                "component_classes": list(partition.component_classes),
                "dispersion": list(partition.dispersion),
                "detail": partition.detail,
            }
        except ValueError as exc:
            partition_error = str(exc)
            report["partition"] = {"error": partition_error}

    design_frac = None
    if runs:
        design_reports = [
            check_design_conditions(
                run.xs, run.us, gw, sigma * sigma, float(model["energy_threshold"])
            )
            for run in runs
        ]
        design_frac = float(np.mean([r.holds for r in design_reports]))
        first = design_reports[0]
        report["design_conditions"] = {
            "fraction_holding": design_frac,
            "first_seed": {
                "noise_centered": _verdict_dict(first.noise_centered),
                "noise_variance": _verdict_dict(first.noise_variance),
                "nonsingularity": _verdict_dict(first.nonsingularity),
                "weight_bound": _verdict_dict(first.weight_bound),
                "energy_growth": _verdict_dict(first.energy_growth),
                "n0": first.n0,
                "kappa_hat": first.kappa_hat,
            },
        }
        report["max_checkpoint_gap"] = float(max(run.checkpoint_gap for run in runs))

    assertions = config.assertions
    if "min_fraction_final_error_below" in assertions:
        params = assertions["min_fraction_final_error_below"]
        errs = np.asarray([float(np.max(np.abs(r.final_b - beta))) for r in runs])
        frac = float(np.mean(errs < float(params["value"]))) if errs.size else 0.0
        results.append(
            AssertionResult(
                "min_fraction_final_error_below",
                frac >= float(params["fraction"]),
                f"fraction {frac:.4f} below {params['value']}, required {params['fraction']}",
            )
        )
    if "max_checkpoint_gap" in assertions:
        want = float(assertions["max_checkpoint_gap"])
        got = report.get("max_checkpoint_gap", math.inf)
        results.append(
            AssertionResult(
                "max_checkpoint_gap", got <= want, f"worst recursive-vs-dense gap {got:.3g}"
            )
        )
    if "partition_matches" in assertions:
        params = assertions["partition_matches"]
        if partition is None:
            results.append(
                AssertionResult(
                    "partition_matches", False, partition_error or "partition unavailable"
                )
            )
        else:
            ok = True
            bits = []
            if "q" in params:
                ok &= partition.q == params["q"]
                bits.append(f"q = {partition.q} (want {params['q']})")
            if "classes" in params:
                ok &= list(partition.component_classes) == list(params["classes"])
                bits.append(f"classes = {list(partition.component_classes)}")
            results.append(AssertionResult("partition_matches", bool(ok), "; ".join(bits)))
    if assertions.get("design_conditions_hold"):
        ok = design_frac is not None and design_frac == 1.0
        results.append(
            AssertionResult(
                "design_conditions_hold",
                ok,
                f"fraction of seeds holding: {design_frac}",
            )
        )

    return report, results, stats, (p, lambda run: z_process(run.xs, run.us, gw))


def _run_custom(config: ExperimentConfig):
    model = config.model
    ens = config.ensemble
    paths = read_trace_csv(Path(model["input"]["path"]))
    zero_tol = float(model["input"]["zero_tol"])
    checks = model["checks"]

    per_seed: Dict[str, Any] = {}
    all_hold = True
    for seed in sorted(paths):
        xs, ms = paths[seed]
        path = ProcessPath(xs, ms, zero_tol)
        horizon = path.horizon
        entry: Dict[str, Any] = {"horizon": horizon}
        if checks["nonexpansive_alpha"] is not None:
            profile = NonexpansiveProfile.constant(checks["nonexpansive_alpha"], horizon)
            entry["nonexpansive"] = _verdict_dict(check_nonexpansive(path, profile))
        if checks["contractive_k"] is not None:
            profile = ContractiveProfile.constant(
                checks["contractive_k"], horizon, checks["divergence_target"]
            )
            entry["contractive"] = _verdict_dict(check_contractive(path, profile))
        if checks["zero_state_tol"] is not None:
            entry["zero_state"] = _verdict_dict(
                check_zero_state_decay(path, tol=checks["zero_state_tol"])
            )
        if checks["segment_bound"]:
            alpha = checks["nonexpansive_alpha"] or 0.0
            entry["segment_bound"] = _verdict_dict(
                check_segment_peak_bound(path, np.full(horizon, alpha))
            )
        if checks["crossings"]:
            rep = crossing_report(path)
            entry["crossings"] = {
                "n_t": rep.n_t,
                "crossing_times": list(rep.crossing_times[:100]),
                "last_segment_open": rep.last_segment_open,
            }
        tail_len = max(1, int(round((horizon + 1) * ens.tail_fraction)))
        verdict = convergence_verdict(
            path.xs[-tail_len:], ens.tol_zero, ens.tol_cauchy, ens.divergence_cap
        )
        entry["classification"] = verdict.to_dict()
        seed_ok = all(
            entry[k]["holds"]
            for k in ("nonexpansive", "contractive", "zero_state", "segment_bound")
            if k in entry
        )
        entry["all_hold"] = seed_ok
        all_hold &= seed_ok
        per_seed[str(seed)] = entry

    report = {"paths_checked": len(per_seed), "per_seed": per_seed, "all_hold": all_hold}
    results: List[AssertionResult] = []
    if config.assertions.get("all_checks_hold"):
        results.append(
            AssertionResult(
                "all_checks_hold", all_hold, f"{len(per_seed)} paths checked"
            )
        )
    return report, results, None, None


_RUNNERS = {
    "sa": lambda cfg: _run_sa(cfg, nonuniform=False),
    "sa_nonuniform": lambda cfg: _run_sa(cfg, nonuniform=True),
    "sa_nd": _run_sa_nd,
    "kronecker": _run_kronecker,
    "ls": _run_ls,
    "custom_path_check": _run_custom,
}


def _config_echo(config: ExperimentConfig) -> Dict[str, Any]:
    return {
        "kind": config.kind,
        "ensemble": asdict(config.ensemble),
        "output_dir": config.output_dir,
        "traces": config.traces,
        "plots": config.plots,
        "curve_points": config.curve_points,
        "model": config.model,
        "assertions": config.assertions,
    }


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Execute one configured experiment and write its artifacts.

    Exit code 0 when every configured assertion passes, 1 when any fails,
    2 when the output directory is unusable.
    """
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        return ExperimentOutcome(
            2, {"error": f"output directory not writable: {exc}"}, [], None
        )

    report, assertion_results, stats, traces = _RUNNERS[config.kind](config)

    exit_code = 0 if all(a.passed for a in assertion_results) else 1
    summary: Dict[str, Any] = {
        "kind": config.kind,
        "config": _config_echo(config),
        "warnings": list(config.warnings),
        "report": report,
        "assertions": [asdict(a) for a in assertion_results],
        "exit_code": exit_code,
    }
    if stats is not None:
        summary["ensemble"] = stats.to_dict()

    try:
        write_summary_json(out_dir / "summary.json", summary)
        lines = [f"contractlab experiment: {config.kind}", ""]
        for warning in config.warnings:
            lines.append(f"WARNING: {warning}")
        if config.warnings:
            lines.append("")
        if stats is not None:
            lines.append("classification fractions:")
            for name, frac in sorted(stats.fraction_by_class.items()):
                lines.append(f"  {name}: {frac:.4f}")
            lines.append(
                "final |value| quantiles: "
                + ", ".join(
                    f"{k}={v:.6g}" for k, v in sorted(stats.final_abs_quantiles.items())
                )
            )
            lines.append("")
        for a in assertion_results:
            lines.append(f"{'PASS' if a.passed else 'FAIL'} {a.name}: {a.detail}")
        if not assertion_results:
            lines.append("no assertions configured")
        lines.append("")
        lines.append(f"exit code: {exit_code}")
        write_summary_text(out_dir / "summary.txt", lines)
        if config.plots and stats is not None and stats.curves is not None:
            write_quantiles_csv(out_dir / "quantiles.csv", stats.curves)
        if config.traces and traces is not None:
            p, path_of = traces
            paths = (
                (seed, path_of(payload))
                for seed, payload in enumerate(stats.payloads)
                if payload is not None
            )
            write_traces_csv(out_dir / "traces.csv", p, paths)
    except OSError as exc:
        return ExperimentOutcome(
            2, {"error": f"failed writing artifacts: {exc}"}, assertion_results, out_dir
        )

    return ExperimentOutcome(exit_code, summary, assertion_results, out_dir)
