"""Experiment runners: build models from a validated config, run, assert, emit.

Each runner returns the machine-readable report, the outcomes of the
assertions it measured, optional ensemble statistics, and optionally its trace
width with a function from a seed's payload to the path that seed simulated.
The orchestrator evaluates the configured assertions, writes the artifacts and
maps assertion failures to exit code 1 and environment problems to exit code 2.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

import numpy as np

from .approximation import (
    block_size,
    check_linear_envelope,
    check_norm_envelope,
    check_ratio_sandwich,
    check_regularity,
    check_truncated_zero_mean_bound,
    contraction_factor,
    derive_truncated,
    rm_solve_block,
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
from .config import KINDS, ExperimentConfig
from .harness import (
    ConvergenceClass,
    EnsembleStats,
    run_ensemble,
    tail_verdict,
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
from .verdict import DEFAULT_ATOL

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

    @property
    def failed_assertions(self) -> List[str]:
        return [a.name for a in self.assertions if not a.passed]


def _grid(length: int, points: int) -> np.ndarray:
    return np.unique(np.linspace(0, length - 1, min(points, length)).astype(int))


# An assertion's outcome, (passed, detail), or a function from its configured value to one.
Outcome = Union[Tuple[bool, str], Callable[[Any], Tuple[bool, str]]]


def _evaluate(config: ExperimentConfig, outcomes: Dict[str, Outcome]) -> List[AssertionResult]:
    """The results of the configured assertions, in the order of the kind's table.

    An assertion the document does not set, or sets to false, is skipped; one
    that it sets must have an outcome.
    """
    results = []
    for name in KINDS[config.kind].assertions:
        value = config.assertions.get(name, False)
        if value is False:
            continue
        outcome = outcomes[name]
        passed, detail = outcome(value) if callable(outcome) else outcome
        results.append(AssertionResult(name, passed, detail))
    return results


def _fraction_below(values: np.ndarray) -> Outcome:
    """The ``{value, fraction}`` rule over every seed; NaN, an errored seed's value,
    is never below the limit."""

    def outcome(params):
        frac = float(np.mean(values < float(params["value"])))
        return (
            frac >= float(params["fraction"]),
            f"fraction {frac:.4f} below {params['value']}, required {params['fraction']}",
        )

    return outcome


def _final_value_outcomes(stats: EnsembleStats) -> Dict[str, Outcome]:
    """The assertions on the seeds' classes and final values; the median is NaN
    when a seed errored."""
    finals = np.abs([v.final_value for v in stats.per_seed])
    frac = stats.fraction(ConvergenceClass.CONVERGED_TO_ZERO)
    median = float(np.quantile(finals, 0.5))
    return {
        "min_fraction_converged_to_zero": lambda want: (
            frac >= float(want),
            f"fraction {frac:.4f}, required {float(want):.4f}",
        ),
        "max_median_final_abs": lambda want: (
            median <= float(want),
            f"median |final| {median:.6g}, limit {float(want):.6g}",
        ),
        "min_fraction_final_below": _fraction_below(finals),
    }


# the path an SA or Kronecker solver kept in its payload under --traces
_stored_path = itemgetter("path")

# the assertions that every seed's payload flag of the same name must pass
_PAYLOAD_FLAGS = (
    "sandwich_zero_violations",
    "contraction_zero_violations",
    "truncated_nonexpansive_all_seeds",
    "truncated_mean_bound_all_seeds",
)


def _run_sa(config: ExperimentConfig):
    """Robbins-Monro ensembles of ``sa`` and ``sa_nonuniform`` (scalar ``x0``) and ``sa_nd``.

    The checks that run follow from the groups the model holds.  A vector run
    checks its envelope on norms and bounds each step by the contraction
    factor; a scalar one checks a linear envelope around the root and bounds
    each mean ratio by the step-size sandwich.
    """
    model = config.model
    x0 = np.asarray(model["x0"], dtype=float)
    vector = x0.ndim == 1
    problem = config.build("problem", *x0.shape)
    schedule = config.build("schedule")
    noise = config.build("noise")
    root = float(model["problem"].get("root", 0.0))
    ens = config.ensemble
    horizon = ens.horizon

    report: Dict[str, Any] = {
        "schedule_sum": schedule.sum_at(horizon),
        "schedule_summable": schedule.summable,
    }
    if vector:
        report["dimension"] = x0.size
    else:
        report["problem"] = model["problem"]
        report["schedule_sum_sq"] = schedule.sum_sq_at(horizon)

    outcomes: Dict[str, Outcome] = {}
    env = model.get("envelope")
    if env is not None:
        if vector:
            grid = sphere_grid(x0.size, env["directions"], env["radii"], env["grid_seed"])
            env_report = check_norm_envelope(problem, grid, env["ratio_cap"])
            alphas = schedule.alphas(horizon)
            ks = contraction_factor(alphas, env["m"], env["M"])
            report["contraction_factor_final"] = float(ks[-1])
        else:
            grid = signed_log_grid(
                env["grid_min_abs"], env["grid_max_abs"], env["grid_per_decade"]
            )
            env_report = check_linear_envelope(problem, grid + root, env["ratio_cap"])
        report["envelope"] = {
            "m_declared": env["m"],
            "M_declared": env["M"],
            "m_hat": env_report.m_hat,
            "M_hat": env_report.M_hat,
            "holds_on_grid": env_report.holds,
            "declared_valid": env_report.covers(env["m"], env["M"]),
        }
        got = f"[{env_report.m_hat:.6g}, {env_report.M_hat:.6g}]"
        outcomes["envelope_valid"] = (
            report["envelope"]["declared_valid"],
            f"grid gives {got}"
            if vector
            else f"grid ratios in {got}, declared [{env['m']:g}, {env['M']:g}]",
        )

    reg = model.get("regularity")
    if reg is not None:
        grid = signed_log_grid(reg["grid_min_abs"], reg["grid_max_abs"], reg["grid_per_decade"])
        reg_verdict = check_regularity(
            problem,
            grid + root,
            c=reg["c"],
            d=reg["d"],
            delta_pairs=[tuple(p) for p in reg["pairs"]],
        )
        report["regularity"] = asdict(reg_verdict)
        report["regularity"]["annulus_infima"] = [
            {"pair": list(pair), "inf": k} for pair, k in reg_verdict.annulus_infima
        ]
        outcomes["regularity_holds"] = (bool(reg_verdict.holds), reg_verdict.detail)

    trunc_spec = model.get("truncation")
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

    # the payload flags that an assertion reads; no other check runs
    wanted = {name for name in _PAYLOAD_FLAGS if config.assertions.get(name)}
    truncated = {"truncated_nonexpansive_all_seeds", "truncated_mean_bound_all_seeds"} & wanted

    def check(path):
        payload: Dict[str, Any] = {"path": path} if config.traces else {}
        if "contraction_zero_violations" in wanted:
            band = ratio_band(path, ks, atol=DEFAULT_ATOL)
            payload["contraction_zero_violations"] = band.first_violation is None
        if "sandwich_zero_violations" in wanted:
            sandwich = check_ratio_sandwich(path, schedule, env["m"], env["M"], x_star=root)
            payload["sandwich_zero_violations"] = sandwich.holds
        if trunc_spec is not None and truncated:
            try:
                trunc = derive_truncated(
                    path, float(trunc_spec["delta"]), float(trunc_spec["tau"])
                )
                if "truncated_nonexpansive_all_seeds" in truncated:
                    verdict = truncated_nonexpansive_verdict(trunc)
                    payload["truncated_nonexpansive_all_seeds"] = verdict.holds
                if "truncated_mean_bound_all_seeds" in truncated:
                    verdict = check_truncated_zero_mean_bound(trunc, kappa)
                    payload["truncated_mean_bound_all_seeds"] = verdict.holds
            except ValueError:  # the residuals never settle below tau: both checks fail
                payload.update(dict.fromkeys(truncated, False))
        return (path.norms() if vector else path.xs - root), payload

    def solve(seed_sequences):
        return map(check, rm_solve_block(problem, noise, schedule, x0, horizon, seed_sequences))

    # a built-in family steps its seeds in blocks, unless block_size finds
    # seed by seed faster; a problem without a block g runs one seed at a time
    size = block_size(ens.seeds, horizon, x0.size) if problem.g_block else 1
    stats = run_ensemble(solve, ens, _grid(horizon + 1, config.curve_points), size)

    outcomes.update(_final_value_outcomes(stats))
    for name in _PAYLOAD_FLAGS:
        bad = [i for i, out in enumerate(stats.payloads) if out is None or not out.get(name)]
        detail = f"{len(bad)} seeds fail (first: seed {bad[0]})" if bad else "all seeds pass"
        outcomes[name] = (not bad, detail)
    return report, outcomes, stats, (x0.size, _stored_path)


def _run_kronecker(config: ExperimentConfig):
    model = config.model
    ens = config.ensemble
    horizon = ens.horizon
    weights = config.build("weights", horizon)
    increments = config.build("increments", horizon)

    def solve(seed_sequences):
        paths = (kronecker_path(increments(ss), weights) for ss in seed_sequences)
        return [(path.xs, {"path": path} if config.traces else {}) for path in paths]

    # one seed per call: a seed's values are held only while it is reduced
    stats = run_ensemble(solve, ens, _grid(horizon + 1, config.curve_points), 1)
    report: Dict[str, Any] = {"weights": model["weights"], "increments": model["increments"]}

    outcomes = _final_value_outcomes(stats)
    if config.assertions.get("alternating_bound"):
        ys = (-1.0) ** np.arange(1, horizon + 1)
        path = kronecker_path(ys, np.arange(1.0, horizon + 1.0))
        n = np.arange(1, horizon + 1)
        ok = bool(np.all(np.abs(path.xs[1:]) <= 1.0 / n))
        worst = float(np.max(np.abs(path.xs[1:]) * n))
        report["alternating_bound_sup"] = worst
        outcomes["alternating_bound"] = (ok, f"sup of n * |mean| = {worst:.6g} (<= 1)")

    return report, outcomes, stats, (1, _stored_path)


def _run_ls(config: ExperimentConfig):
    model = config.model
    ens = config.ensemble
    horizon = ens.horizon
    beta = np.asarray(model["beta"], dtype=float)
    sigma = float(model["sigma"])
    reg_model = RegressionModel(beta=beta, design=config.build("design"), sigma=sigma)
    gw = config.build("gweight")
    ncp = int(model["checkpoints"])
    # ncp steps spread over 1..horizon (fewer when horizon < ncp)
    checkpoints = (
        sorted(set(np.linspace(horizon / ncp, horizon, ncp).astype(int).clip(1).tolist()))
        if ncp
        else []
    )

    def solve(seed_sequences):
        runs = simulate_ls_runs(reg_model, horizon, seed_sequences, ens.tail_fraction, checkpoints)
        return [(run.err_sup, run) for run in runs]

    stats = run_ensemble(solve, ens, _grid(horizon, config.curve_points))
    runs = [r for r in stats.payloads if r is not None]

    report: Dict[str, Any] = {
        "design": model["design"],
        "gweight": model["gweight"]["family"],
        "checkpoints": checkpoints,
    }

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
            report["partition"] = asdict(partition)
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
        design_frac = sum(r.holds for r in design_reports) / ens.seeds
        report["design_conditions"] = {
            "fraction_holding": design_frac,
            "first_seed": asdict(design_reports[0]),
        }
        report["max_checkpoint_gap"] = float(max(run.checkpoint_gap for run in runs))

    def partition_matches(params):
        if partition is None:
            return False, partition_error or "partition unavailable"
        ok = True
        bits = []
        if "q" in params:
            ok &= partition.q == params["q"]
            bits.append(f"q = {partition.q} (want {params['q']})")
        if "classes" in params:
            ok &= list(partition.component_classes) == list(params["classes"])
            bits.append(f"classes = {list(partition.component_classes)}")
        return bool(ok), "; ".join(bits)

    final_errors = np.array(
        [math.nan if r is None else np.max(np.abs(r.final_b - beta)) for r in stats.payloads]
    )
    gap = report.get("max_checkpoint_gap", math.inf)
    outcomes: Dict[str, Outcome] = {
        "min_fraction_final_error_below": _fraction_below(final_errors),
        "max_checkpoint_gap": lambda want: (
            gap <= float(want),
            f"worst recursive-vs-dense gap {gap:.3g}",
        ),
        "partition_matches": partition_matches,
        "design_conditions_hold": (
            design_frac is not None and design_frac == 1.0,
            f"fraction of seeds holding: {design_frac}",
        ),
    }
    return report, outcomes, stats, (reg_model.p, lambda run: z_process(run.xs, run.us, gw))


class InputError(Exception):
    """An input file the experiment cannot use (exit code 2)."""


def _run_custom(config: ExperimentConfig):
    model = config.model
    ens = config.ensemble
    try:
        paths = read_trace_csv(Path(model["input"]["path"]))
    except (OSError, ValueError) as exc:
        raise InputError(f"unusable trace file: {exc}") from exc
    zero_tol = float(model["input"]["zero_tol"])
    checks = model["checks"]
    vector = next(iter(paths.values()))[0].ndim == 2
    for name in ("segment_bound", "crossings"):  # sign-based: no meaning on a vector path
        if vector and checks[name]:
            raise InputError(f"checks.{name} needs a scalar trace; set it to false for this one")

    per_seed: Dict[str, Any] = {}
    first_failure = ""
    for seed in sorted(paths):
        xs, ms = paths[seed]
        path = ProcessPath(xs, ms, zero_tol)
        horizon = path.horizon
        entry: Dict[str, Any] = {"horizon": horizon}
        if checks["nonexpansive_alpha"] is not None:
            profile = NonexpansiveProfile.constant(checks["nonexpansive_alpha"], horizon)
            entry["nonexpansive"] = asdict(check_nonexpansive(path, profile))
        if checks["contractive_k"] is not None:
            profile = ContractiveProfile.constant(
                checks["contractive_k"], horizon, checks["divergence_target"]
            )
            entry["contractive"] = asdict(check_contractive(path, profile))
        if checks["zero_state_tol"] is not None:
            entry["zero_state"] = asdict(check_zero_state_decay(path, tol=checks["zero_state_tol"]))
        if checks["segment_bound"]:
            alpha = checks["nonexpansive_alpha"] or 0.0
            entry["segment_bound"] = asdict(check_segment_peak_bound(path, np.full(horizon, alpha)))
        if checks["crossings"]:
            rep = crossing_report(path)
            entry["crossings"] = {
                "n_t": rep.n_t,
                "crossing_times": list(rep.crossing_times[:100]),
                "last_segment_open": rep.last_segment_open,
            }
        entry["classification"] = asdict(tail_verdict(path.norms() if vector else path.xs, ens))
        failed = [
            k
            for k in ("nonexpansive", "contractive", "zero_state", "segment_bound")
            if k in entry and not entry[k]["holds"]
        ]
        entry["all_hold"] = not failed
        if failed and not first_failure:
            first_failure = f"; first failure: seed {seed}, {failed[0]}: "
            first_failure += entry[failed[0]]["detail"]
        per_seed[str(seed)] = entry

    all_hold = not first_failure
    report = {"paths_checked": len(per_seed), "per_seed": per_seed, "all_hold": all_hold}
    outcomes = {"all_checks_hold": (all_hold, f"{len(per_seed)} paths checked{first_failure}")}
    return report, outcomes, None, None


_RUNNERS = {
    "sa": _run_sa,
    "sa_nonuniform": _run_sa,
    "sa_nd": _run_sa,
    "kronecker": _run_kronecker,
    "ls": _run_ls,
    "custom_path_check": _run_custom,
}


def run_experiment(config: ExperimentConfig) -> ExperimentOutcome:
    """Execute one configured experiment and write its artifacts.

    Exit code 0 when every configured assertion passes, 1 when any fails,
    2 when the output directory or an input file is unusable.
    """
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        return ExperimentOutcome(2, {"error": f"output directory not writable: {exc}"}, [])

    try:
        report, outcomes, stats, traces = _RUNNERS[config.kind](config)
    except InputError as exc:
        return ExperimentOutcome(2, {"error": str(exc)}, [])
    assertion_results = _evaluate(config, outcomes)

    exit_code = 0 if all(a.passed for a in assertion_results) else 1
    summary: Dict[str, Any] = {
        "kind": config.kind,
        "config": {k: v for k, v in asdict(config).items() if k != "warnings"},
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
            2, {"error": f"failed writing artifacts: {exc}"}, assertion_results
        )

    return ExperimentOutcome(exit_code, summary, assertion_results)
