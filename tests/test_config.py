import copy
import inspect
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest
import yaml

from contractlab import approximation as approx
from contractlab import conditions, config, harness
from contractlab import least_squares as ls
from contractlab.process import ProcessPath
from contractlab.config import ConfigError, parse_config_text

MINIMAL_SA = """
kind: sa
problem: {family: linear, slope: 1.0}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 5.0
ensemble: {seeds: 100, root_seed: 7, horizon: 100000}
"""


class TestParseConfig:
    def test_minimal_sa_valid(self):
        cfg = parse_config_text(MINIMAL_SA)
        assert cfg.kind == "sa"
        assert cfg.ensemble.seeds == 100
        assert cfg.ensemble.horizon == 100000
        assert cfg.ensemble.tail_fraction == 0.2
        assert cfg.warnings == []
        assert cfg.output_dir == "out"

    def test_summable_schedule_warns(self):
        cfg = parse_config_text(
            MINIMAL_SA.replace(
                "schedule: {family: inverse_n, c: 1.0}",
                "schedule: {family: inverse_n_power, c: 1.0, gamma: 1.5}",
            )
        )
        assert any("summable" in w for w in cfg.warnings)

    def test_negative_horizon_lists_field(self):
        bad = MINIMAL_SA.replace("horizon: 100000", "horizon: -5")
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("ensemble.horizon" in e for e in err.value.errors)

    def test_all_errors_aggregated(self):
        bad = """
kind: sa
problem: {family: linear, slope: 1.0, bogus: 3}
schedule: {family: inverse_n, c: 1.0}
x0: 5.0
ensemble: {seeds: 0, root_seed: 7, horizon: -5}
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        joined = "\n".join(err.value.errors)
        assert "problem.bogus" in joined
        assert "ensemble.seeds" in joined
        assert "ensemble.horizon" in joined
        assert "noise" in joined  # missing required group
        assert len(err.value.errors) >= 4

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL_SA + "\nmystery: 1\n")
        assert any("mystery" in e for e in err.value.errors)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL_SA.replace("kind: sa", "kind: frobnicate"))
        assert any("kind" in e for e in err.value.errors)

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config_text("kind: [unclosed")

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config_text("- a\n- b\n")

    def test_unknown_assertion_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL_SA + "\nassertions: {levitate: true}\n")
        assert any("levitate" in e for e in err.value.errors)

    def test_threshold_fraction_shape(self):
        with pytest.raises(ConfigError):
            parse_config_text(
                MINIMAL_SA + "\nassertions: {min_fraction_final_below: {value: 1.0}}\n"
            )
        cfg = parse_config_text(
            MINIMAL_SA
            + "\nassertions: {min_fraction_final_below: {value: 1.0, fraction: 0.9}}\n"
        )
        assert cfg.assertions["min_fraction_final_below"]["fraction"] == 0.9

    def test_envelope_requires_consistent_bounds(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL_SA + "\nenvelope: {m: 2.0, M: 1.0}\n")
        assert any("m <= M" in e for e in err.value.errors)

    def test_sandwich_assertion_requires_envelope(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL_SA + "\nassertions: {sandwich_zero_violations: true}\n")
        assert any("envelope" in e for e in err.value.errors)

    def test_sine_amplitude_below_slope(self):
        bad = MINIMAL_SA.replace(
            "problem: {family: linear, slope: 1.0}",
            "problem: {family: sine_perturbed, slope: 1.0, amplitude: 1.5}",
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("amplitude" in e for e in err.value.errors)


    @pytest.mark.parametrize("gamma", ["gamma: -1", "gamma: x", ""])
    def test_bad_schedule_gamma_is_an_error_not_a_crash(self, gamma):
        bad = MINIMAL_SA.replace(
            "schedule: {family: inverse_n, c: 1.0}",
            f"schedule: {{family: inverse_n_power, c: 1.0, {gamma}}}",
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith("schedule.gamma: ")

    def test_explicit_schedule_must_cover_the_horizon(self):
        text = MINIMAL_SA.replace(
            "schedule: {family: inverse_n, c: 1.0}", "schedule: {family: explicit, values: [1, 1]}"
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(text.replace("horizon: 100000", "horizon: 3"))
        assert err.value.errors == ["schedule.values: 2 step sizes do not cover ensemble.horizon 3"]
        assert parse_config_text(text.replace("horizon: 100000", "horizon: 2")).model[
            "schedule"
        ] == {"family": "explicit", "values": [1.0, 1.0]}

    def test_ensemble_overrides_are_validated(self):
        cfg = parse_config_text(MINIMAL_SA, {"seeds": 3, "horizon": 7})
        assert (cfg.ensemble.seeds, cfg.ensemble.horizon) == (3, 7)
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL_SA, {"horizon": 0})
        assert err.value.errors == ["ensemble.horizon: must be >= 1"]


KRONECKER = """
kind: kronecker
increments: {family: alternating}
weights: {family: linear}
ensemble: {seeds: 3, root_seed: 1, horizon: 100}
"""


class TestOtherKinds:
    def test_kronecker_valid(self):
        cfg = parse_config_text(KRONECKER)
        assert cfg.model["weights"]["family"] == "linear"

    def test_alternating_bound_needs_linear_weights(self):
        bad = KRONECKER.replace(
            "weights: {family: linear}", "weights: {family: power, gamma: 0.5}"
        )
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad + "\nassertions: {alternating_bound: true}\n")
        assert any("linear weights" in e for e in err.value.errors)

    def test_sa_nd_dimension_mismatch(self):
        bad = """
kind: sa_nd
problem: {family: matrix, entries: [[1.0, 1.0], [-1.0, 1.0]]}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: [1.0, 2.0, 3.0]
ensemble: {seeds: 2, root_seed: 1, horizon: 50}
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("does not match" in e for e in err.value.errors)

    def test_ls_beta_length_checked(self):
        bad = """
kind: ls
design: {family: rotating}
beta: [1.0, 2.0, 3.0]
sigma: 1.0
ensemble: {seeds: 2, root_seed: 1, horizon: 50}
"""
        with pytest.raises(ConfigError) as err:
            parse_config_text(bad)
        assert any("beta" in e for e in err.value.errors)

    def test_custom_valid(self):
        cfg = parse_config_text(
            """
kind: custom_path_check
input: {path: traces.csv}
checks: {nonexpansive_alpha: 0.0, segment_bound: true}
ensemble: {seeds: 1, root_seed: 1, horizon: 10}
"""
        )
        assert cfg.model["checks"]["segment_bound"] is True
        assert cfg.model["checks"]["crossings"] is True


# ---------------------------------------------------------------------------
# Parse lock.  One minimal valid document per family of every family group
# (with each optional group present and absent) and one malformed document
# per validation rule.  The expected values are literals recorded from the
# hand-written validators that preceded the schema table, so these cases
# prove that the table normalises and rejects exactly as before.

ENS = {"seeds": 2, "root_seed": 7, "horizon": 5}
DROP = object()
BASE = {
    "sa": {
        "kind": "sa",
        "problem": {"family": "linear"},
        "schedule": {"family": "inverse_n"},
        "noise": {"family": "none"},
        "x0": 1.0,
        "ensemble": ENS,
    },
    "sa_nd": {
        "kind": "sa_nd",
        "problem": {"family": "identity"},
        "schedule": {"family": "inverse_n"},
        "noise": {"family": "none"},
        "x0": [1.0, 2.0],
        "ensemble": ENS,
    },
    "kronecker": {
        "kind": "kronecker",
        "increments": {"family": "rademacher"},
        "weights": {"family": "linear"},
        "ensemble": ENS,
    },
    "ls": {
        "kind": "ls",
        "design": {"family": "rotating"},
        "beta": [1.0, -0.5],
        "sigma": 1.0,
        "ensemble": ENS,
    },
    "custom_path_check": {
        "kind": "custom_path_check",
        "input": {"path": "traces.csv"},
        "checks": {},
        "ensemble": ENS,
    },
}
BASE["sa_nonuniform"] = {
    **BASE["sa"],
    "kind": "sa_nonuniform",
    "truncation": {"delta": 0.25, "tau": 0.1},
}


def doc(base, **changes):
    """The base document of kind ``base`` with top-level keys replaced (DROP deletes)."""
    out = copy.deepcopy(BASE[base])
    for key, value in changes.items():
        if value is DROP:
            del out[key]
        else:
            out[key] = value
    return out


def ens(**changes):
    return {**ENS, **changes}


def parse_doc(document):
    return parse_config_text(yaml.safe_dump(document, sort_keys=False))


ENSEMBLE_DEFAULTS = {"seeds": 2,
 "root_seed": 7,
 "horizon": 5,
 "tail_fraction": 0.2,
 "tol_zero": 0.001,
 "tol_cauchy": 0.001,
 "parallelism": 1,
 "divergence_cap": 1000000.0}
OUTPUT_DEFAULTS = ["out", False, 200]

VALID = [
    pytest.param(
        doc("sa"),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-linear-minimal",
    ),
    pytest.param(
        doc("sa", problem={"family": "linear", "slope": 2, "root": 1}, x0=5),
        {"problem": {"family": "linear", "root": 1, "slope": 2},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 5,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-linear-int-values",
    ),
    pytest.param(
        doc("sa", problem={"family": "sine_perturbed"}),
        {"problem": {"family": "sine_perturbed", "root": 0.0, "slope": 1.0, "amplitude": 0.3},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-sine-defaults",
    ),
    pytest.param(
        doc("sa", problem={"family": "sine_perturbed", "slope": 2.0, "amplitude": 0.5, "root": -1.0}),
        {"problem": {"family": "sine_perturbed", "root": -1.0, "slope": 2.0, "amplitude": 0.5},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-sine-full",
    ),
    pytest.param(
        doc("sa", problem={"family": "sqrt_sign", "root": 0.5}),
        {"problem": {"family": "sqrt_sign", "root": 0.5},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-sqrt-sign",
    ),
    pytest.param(
        doc("sa", schedule={"family": "inverse_n", "c": 2}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 2},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-schedule-inverse-n-c",
    ),
    pytest.param(
        doc("sa", schedule={"family": "inverse_n_power", "gamma": 0.6}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n_power", "c": 1.0, "gamma": 0.6},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-schedule-power",
    ),
    pytest.param(
        doc("sa", schedule={"family": "inverse_n_power", "c": 0.5, "gamma": 1.5}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n_power", "c": 0.5, "gamma": 1.5},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        ["schedule: step sizes are summable (gamma > 1); the divergence requirement on their sum "
         "is unmet and convergence may stall"],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-schedule-power-summable",
    ),
    pytest.param(
        doc("sa", schedule={"family": "explicit", "values": [1, 0.5, 0.25, 0.125, 0.0625, 0.03]}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "explicit", "values": [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03]},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-schedule-explicit",
    ),
    pytest.param(
        doc("sa", noise={"family": "gaussian", "sd": 0.1}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "gaussian", "sd": 0.1},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-noise-gaussian",
    ),
    pytest.param(
        doc("sa", noise={"family": "uniform", "half_width": 0}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "uniform", "half_width": 0},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-noise-uniform",
    ),
    pytest.param(
        doc("sa", envelope={"m": 0.5, "M": 2}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": {"m": 0.5,
                      "M": 2,
                      "grid_min_abs": 0.0001,
                      "grid_max_abs": 10.0,
                      "grid_per_decade": 10000,
                      "ratio_cap": 1000000.0}},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-envelope-minimal",
    ),
    pytest.param(
        doc("sa", envelope={"m": 1.0, "M": 1.0, "grid_min_abs": 0.001, "grid_max_abs": 5.0, "grid_per_decade": 100, "ratio_cap": 1000.0}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": {"m": 1.0,
                      "M": 1.0,
                      "grid_min_abs": 0.001,
                      "grid_max_abs": 5.0,
                      "grid_per_decade": 100,
                      "ratio_cap": 1000.0}},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-envelope-full",
    ),
    pytest.param(
        doc("sa", envelope={"m": 0.5, "M": 2.0}, assertions={"min_fraction_converged_to_zero": 1, "max_median_final_abs": 0, "min_fraction_final_below": {"value": 0.1, "fraction": 0.9}, "envelope_valid": True, "sandwich_zero_violations": True}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": {"m": 0.5,
                      "M": 2.0,
                      "grid_min_abs": 0.0001,
                      "grid_max_abs": 10.0,
                      "grid_per_decade": 10000,
                      "ratio_cap": 1000000.0}},
        {"min_fraction_converged_to_zero": 1,
         "max_median_final_abs": 0,
         "min_fraction_final_below": {"value": 0.1, "fraction": 0.9},
         "envelope_valid": True,
         "sandwich_zero_violations": True},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-assertions-all",
    ),
    pytest.param(
        doc("sa", assertions={"envelope_valid": False, "sandwich_zero_violations": False}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {"envelope_valid": False, "sandwich_zero_violations": False},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-assertion-false-needs-no-group",
    ),
    pytest.param(
        doc("sa", assertions={}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-assertions-empty",
    ),
    pytest.param(
        doc("sa", ensemble=ens(seeds=3, root_seed=0, horizon=1, tail_fraction=0.5, tol_zero=0, tol_cauchy=0.01, parallelism=2, divergence_cap=10)),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        ["ensemble.parallelism = 2 is ignored: seeds run in one thread"],
        {"seeds": 3,
         "root_seed": 0,
         "horizon": 1,
         "tail_fraction": 0.5,
         "tol_zero": 0,
         "tol_cauchy": 0.01,
         "parallelism": 2,
         "divergence_cap": 10},
        OUTPUT_DEFAULTS,
        id="sa-ensemble-full",
    ),
    pytest.param(
        doc("sa", ensemble=ens(tail_fraction=1e-9)),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        {"seeds": 2,
         "root_seed": 7,
         "horizon": 5,
         "tail_fraction": 1e-09,
         "tol_zero": 0.001,
         "tol_cauchy": 0.001,
         "parallelism": 1,
         "divergence_cap": 1000000.0},
        OUTPUT_DEFAULTS,
        id="sa-tail-fraction-tiny",
    ),
    pytest.param(
        doc("sa", output={}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-output-empty",
    ),
    pytest.param(
        doc("sa", output={"dir": "runs/x", "traces": True, "curve_points": 2}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        ["runs/x", True, 2],
        id="sa-output-full",
    ),
    pytest.param(
        doc("sa_nonuniform"),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None,
         "truncation": {"delta": 0.25, "tau": 0.1, "kappa": "delta"},
         "regularity": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="nonuniform-minimal",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 1, "tau": 0.5, "kappa": 2}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None,
         "truncation": {"delta": 1, "tau": 0.5, "kappa": 2},
         "regularity": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="nonuniform-kappa-number",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 0.1, "tau": 0.2, "kappa": "delta"}, schedule={"family": "inverse_n_power", "gamma": 2}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n_power", "c": 1.0, "gamma": 2},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None,
         "truncation": {"delta": 0.1, "tau": 0.2, "kappa": "delta"},
         "regularity": None},
        {},
        ["truncation.tau >= truncation.delta: guarantees assume tau < delta",
         "schedule: step sizes are summable (gamma > 1); the divergence requirement on their sum "
         "is unmet and convergence may stall"],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="nonuniform-tau-above-delta-and-summable",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": 1, "d": 0.0, "pairs": [[0.25, 4]]}),
        {"problem": {"family": "linear", "root": 0.0, "slope": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": None,
         "truncation": {"delta": 0.25, "tau": 0.1, "kappa": "delta"},
         "regularity": {"c": 1,
                        "d": 0.0,
                        "pairs": [[0.25, 4.0]],
                        "grid_min_abs": 0.001,
                        "grid_max_abs": 10.0,
                        "grid_per_decade": 2000}},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="nonuniform-regularity-minimal",
    ),
    pytest.param(
        doc("sa_nonuniform", problem={"family": "sqrt_sign"}, envelope={"m": 0.1, "M": 10.0}, regularity={"c": 1.0, "d": 2.0, "pairs": [[0.1, 1.0], [1, 2]], "grid_min_abs": 0.01, "grid_max_abs": 3, "grid_per_decade": 10}, assertions={"min_fraction_converged_to_zero": 0.5, "min_fraction_final_below": {"value": 1, "fraction": 0}, "truncated_nonexpansive_all_seeds": True, "truncated_mean_bound_all_seeds": False, "regularity_holds": True}),
        {"problem": {"family": "sqrt_sign", "root": 0.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": 1.0,
         "envelope": {"m": 0.1,
                      "M": 10.0,
                      "grid_min_abs": 0.0001,
                      "grid_max_abs": 10.0,
                      "grid_per_decade": 10000,
                      "ratio_cap": 1000000.0},
         "truncation": {"delta": 0.25, "tau": 0.1, "kappa": "delta"},
         "regularity": {"c": 1.0,
                        "d": 2.0,
                        "pairs": [[0.1, 1.0], [1.0, 2.0]],
                        "grid_min_abs": 0.01,
                        "grid_max_abs": 3,
                        "grid_per_decade": 10}},
        {"min_fraction_converged_to_zero": 0.5,
         "min_fraction_final_below": {"value": 1, "fraction": 0},
         "truncated_nonexpansive_all_seeds": True,
         "truncated_mean_bound_all_seeds": False,
         "regularity_holds": True},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="nonuniform-regularity-full",
    ),
    pytest.param(
        doc("sa_nd"),
        {"problem": {"family": "identity", "scale": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": [1.0, 2.0],
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-identity-minimal",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "identity", "scale": 3}),
        {"problem": {"family": "identity", "scale": 3},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": [1.0, 2.0],
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-identity-scale",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": [[1, 0], [0.5, 2.0]]}, x0=[1, 2]),
        {"problem": {"family": "matrix", "entries": [[1, 0], [0.5, 2.0]]},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": [1.0, 2.0],
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-matrix",
    ),
    pytest.param(
        doc("sa_nd", envelope={"m": 1, "M": 1.5}),
        {"problem": {"family": "identity", "scale": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": [1.0, 2.0],
         "envelope": {"m": 1,
                      "M": 1.5,
                      "directions": 64,
                      "radii": [0.01, 0.1, 1.0, 10.0],
                      "grid_seed": 0,
                      "ratio_cap": 1000000.0}},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-envelope-minimal",
    ),
    pytest.param(
        doc("sa_nd", envelope={"m": 2.0, "M": 1.0, "directions": 8, "radii": [1, 2.5], "grid_seed": 3, "ratio_cap": 50.0}, assertions={"min_fraction_converged_to_zero": 0.5, "min_fraction_final_below": {"value": 0.1, "fraction": 0.5}, "envelope_valid": True, "contraction_zero_violations": True}),
        {"problem": {"family": "identity", "scale": 1.0},
         "schedule": {"family": "inverse_n", "c": 1.0},
         "noise": {"family": "none"},
         "x0": [1.0, 2.0],
         "envelope": {"m": 2.0,
                      "M": 1.0,
                      "directions": 8,
                      "radii": [1.0, 2.5],
                      "grid_seed": 3,
                      "ratio_cap": 50.0}},
        {"min_fraction_converged_to_zero": 0.5,
         "min_fraction_final_below": {"value": 0.1, "fraction": 0.5},
         "envelope_valid": True,
         "contraction_zero_violations": True},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-envelope-full",
    ),
    pytest.param(
        doc("sa_nd", schedule={"family": "explicit", "values": [0.5, 0.5, 0.5, 0.5, 0.5]}, noise={"family": "uniform", "half_width": 0.2}),
        {"problem": {"family": "identity", "scale": 1.0},
         "schedule": {"family": "explicit", "values": [0.5, 0.5, 0.5, 0.5, 0.5]},
         "noise": {"family": "uniform", "half_width": 0.2},
         "x0": [1.0, 2.0],
         "envelope": None},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-explicit-summable-noise",
    ),
    pytest.param(
        doc("sa_nd", schedule={"family": "inverse_n_power", "gamma": 1.01}, noise={"family": "gaussian", "sd": 0}),
        {"problem": {"family": "identity", "scale": 1.0},
         "schedule": {"family": "inverse_n_power", "c": 1.0, "gamma": 1.01},
         "noise": {"family": "gaussian", "sd": 0},
         "x0": [1.0, 2.0],
         "envelope": None},
        {},
        ["schedule: step sizes are summable (gamma > 1); the divergence requirement on their sum "
         "is unmet and convergence may stall"],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="sa-nd-summable",
    ),
    pytest.param(
        doc("kronecker", assertions={"alternating_bound": True, "min_fraction_converged_to_zero": 0.5, "min_fraction_final_below": {"value": 0.05, "fraction": 0.95}}),
        {"increments": {"family": "rademacher"}, "weights": {"family": "linear"}},
        {"alternating_bound": True,
         "min_fraction_converged_to_zero": 0.5,
         "min_fraction_final_below": {"value": 0.05, "fraction": 0.95}},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="kronecker-rademacher-linear",
    ),
    pytest.param(
        doc("kronecker", increments={"family": "alternating"}, weights={"family": "power", "gamma": 0.5}),
        {"increments": {"family": "alternating"}, "weights": {"family": "power", "gamma": 0.5}},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="kronecker-alternating-power",
    ),
    pytest.param(
        doc("kronecker", weights={"family": "power", "gamma": 2}, assertions={"alternating_bound": False}),
        {"increments": {"family": "rademacher"}, "weights": {"family": "power", "gamma": 2}},
        {"alternating_bound": False},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="kronecker-power-alternating-bound-off",
    ),
    pytest.param(
        doc("ls"),
        {"design": {"family": "rotating", "jitter": 0.1, "turns": 0.37},
         "beta": [1.0, -0.5],
         "sigma": 1.0,
         "gweight": {"family": "identity"},
         "energy_threshold": 10.0,
         "partition": {"consistency_tol": 0.05, "oscillation_tol": 0.001, "dispersion_ratio": 3.0},
         "checkpoints": 8},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-rotating-defaults",
    ),
    pytest.param(
        doc("ls", design={"family": "rotating", "jitter": 0, "turns": -0.5}, gweight={"family": "sqrt_log"}, partition={"oscillation_tol": 0.01}, energy_threshold=0, checkpoints=0),
        {"design": {"family": "rotating", "jitter": 0, "turns": -0.5},
         "beta": [1.0, -0.5],
         "sigma": 1.0,
         "gweight": {"family": "sqrt_log"},
         "energy_threshold": 0,
         "partition": {"consistency_tol": 0.05, "oscillation_tol": 0.01, "dispersion_ratio": 3.0},
         "checkpoints": 0},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-rotating-full",
    ),
    pytest.param(
        doc("ls", design={"family": "geometric_one"}, sigma=0, gweight={"family": "identity"}, partition={"consistency_tol": 0.1, "oscillation_tol": 0.001, "dispersion_ratio": 0}),
        {"design": {"family": "geometric_one"},
         "beta": [1.0, -0.5],
         "sigma": 0,
         "gweight": {"family": "identity"},
         "energy_threshold": 10.0,
         "partition": {"consistency_tol": 0.1, "oscillation_tol": 0.001, "dispersion_ratio": 0},
         "checkpoints": 8},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-geometric-one",
    ),
    pytest.param(
        doc("ls", design={"family": "iid_gaussian"}),
        {"design": {"family": "iid_gaussian", "p": 2, "scale": 1.0},
         "beta": [1.0, -0.5],
         "sigma": 1.0,
         "gweight": {"family": "identity"},
         "energy_threshold": 10.0,
         "partition": {"consistency_tol": 0.05, "oscillation_tol": 0.001, "dispersion_ratio": 3.0},
         "checkpoints": 8},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-iid-default-p",
    ),
    pytest.param(
        doc("ls", design={"family": "iid_gaussian", "p": 3, "scale": 2}, beta=[1, 2, 3]),
        {"design": {"family": "iid_gaussian", "p": 3, "scale": 2},
         "beta": [1.0, 2.0, 3.0],
         "sigma": 1.0,
         "gweight": {"family": "identity"},
         "energy_threshold": 10.0,
         "partition": {"consistency_tol": 0.05, "oscillation_tol": 0.001, "dispersion_ratio": 3.0},
         "checkpoints": 8},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-iid-p3",
    ),
    pytest.param(
        doc("ls", design={"family": "feedback", "gain": 0.5}, partition={}, checkpoints=3, assertions={"min_fraction_final_error_below": {"value": 0.1, "fraction": 1}, "max_checkpoint_gap": 1e-8, "partition_matches": {"q": 0, "classes": ["consistent", "inconclusive"]}, "design_conditions_hold": True}),
        {"design": {"family": "feedback", "gain": 0.5},
         "beta": [1.0, -0.5],
         "sigma": 1.0,
         "gweight": {"family": "identity"},
         "energy_threshold": 10.0,
         "partition": {"consistency_tol": 0.05, "oscillation_tol": 0.001, "dispersion_ratio": 3.0},
         "checkpoints": 3},
        {"min_fraction_final_error_below": {"value": 0.1, "fraction": 1},
         "max_checkpoint_gap": 1e-08,
         "partition_matches": {"q": 0, "classes": ["consistent", "inconclusive"]},
         "design_conditions_hold": True},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-feedback",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": 1}}),
        {"design": {"family": "rotating", "jitter": 0.1, "turns": 0.37},
         "beta": [1.0, -0.5],
         "sigma": 1.0,
         "gweight": {"family": "identity"},
         "energy_threshold": 10.0,
         "partition": {"consistency_tol": 0.05, "oscillation_tol": 0.001, "dispersion_ratio": 3.0},
         "checkpoints": 8},
        {"partition_matches": {"q": 1}},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="ls-partition-q-only",
    ),
    pytest.param(
        doc("custom_path_check"),
        {"input": {"path": "traces.csv", "zero_tol": 0.0},
         "checks": {"nonexpansive_alpha": None,
                    "contractive_k": None,
                    "divergence_target": 5.0,
                    "zero_state_tol": None,
                    "segment_bound": False,
                    "crossings": True}},
        {},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="custom-minimal",
    ),
    pytest.param(
        doc("custom_path_check", input={"path": "a/b.csv", "zero_tol": 1e-9}, checks={"nonexpansive_alpha": 0, "contractive_k": 1, "divergence_target": 2, "zero_state_tol": 0.5, "segment_bound": True, "crossings": False}, assertions={"all_checks_hold": True}),
        {"input": {"path": "a/b.csv", "zero_tol": 1e-09},
         "checks": {"nonexpansive_alpha": 0,
                    "contractive_k": 1,
                    "divergence_target": 2,
                    "zero_state_tol": 0.5,
                    "segment_bound": True,
                    "crossings": False}},
        {"all_checks_hold": True},
        [],
        ENSEMBLE_DEFAULTS,
        OUTPUT_DEFAULTS,
        id="custom-full",
    ),
    pytest.param(
        doc("custom_path_check", ensemble=DROP),
        {"input": {"path": "traces.csv", "zero_tol": 0.0},
         "checks": {"nonexpansive_alpha": None,
                    "contractive_k": None,
                    "divergence_target": 5.0,
                    "zero_state_tol": None,
                    "segment_bound": False,
                    "crossings": True}},
        {},
        [],
        {**ENSEMBLE_DEFAULTS, "seeds": None, "root_seed": None, "horizon": None},
        OUTPUT_DEFAULTS,
        id="custom-no-ensemble",
    ),
    pytest.param(
        doc("custom_path_check", ensemble={"tol_zero": 0.05}),
        {"input": {"path": "traces.csv", "zero_tol": 0.0},
         "checks": {"nonexpansive_alpha": None,
                    "contractive_k": None,
                    "divergence_target": 5.0,
                    "zero_state_tol": None,
                    "segment_bound": False,
                    "crossings": True}},
        {},
        [],
        {**ENSEMBLE_DEFAULTS, "seeds": None, "root_seed": None, "horizon": None, "tol_zero": 0.05},
        OUTPUT_DEFAULTS,
        id="custom-ensemble-tail-only",
    ),
]

ERRORS = [
    pytest.param(
        doc("sa", problem={"family": "linear", "amplitude": "x"}, schedule={"family": "inverse_n", "gamma": -3, "values": "x"}, noise={"family": "none", "sd": "abc", "half_width": -1}),
        ["noise.half_width: unknown key",
         "noise.sd: unknown key",
         "problem.amplitude: unknown key",
         "schedule.gamma: unknown key",
         "schedule.values: unknown key"],
        id="sa-other-family-keys-rejected",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": [[1.0]], "scale": -1}, x0=[3.0]),
        ["problem.scale: unknown key"],
        id="sa-nd-matrix-rejects-scale",
    ),
    pytest.param(
        doc("sa", kind=DROP),
        ["kind: required value is missing (one of sa, sa_nd, sa_nonuniform, kronecker, ls, "
         "custom_path_check)"],
        id="kind-missing",
    ),
    pytest.param(
        doc("sa", kind="frobnicate", mystery=1, problem=3, assertions={"levitate": True}),
        ["kind: must be one of sa, sa_nd, sa_nonuniform, kronecker, ls, custom_path_check"],
        id="kind-invalid-skips-kind-checks",
    ),
    pytest.param(
        doc("sa", kind=["sa"]),
        ["kind: must be one of sa, sa_nd, sa_nonuniform, kronecker, ls, custom_path_check"],
        id="kind-not-string",
    ),
    pytest.param(doc("sa", mystery=1), ["mystery: unknown key"], id="top-unknown-key-sa"),
    pytest.param(
        doc("sa", truncation={"delta": 1, "tau": 0.5}),
        ["truncation: unknown key"],
        id="top-unknown-truncation-in-sa",
    ),
    pytest.param(
        doc("kronecker", problem={"family": "linear"}),
        ["problem: unknown key"],
        id="top-unknown-key-kronecker",
    ),
    pytest.param(doc("ls", x0=1.0), ["x0: unknown key"], id="top-unknown-key-ls"),
    pytest.param(
        doc("custom_path_check", schedule={}),
        ["schedule: unknown key"],
        id="top-unknown-key-custom",
    ),
    pytest.param(
        doc("sa", ensemble=DROP),
        ["ensemble: required group is missing"],
        id="ensemble-missing",
    ),
    pytest.param(
        doc("custom_path_check", ensemble={"seeds": 0, "horizon": "x", "tail_fraction": 1}),
        ["ensemble.horizon: must be an integer",
         "ensemble.seeds: must be >= 1",
         "ensemble.tail_fraction: must be < 1"],
        id="custom-ensemble-values-checked",
    ),
    pytest.param(
        doc("sa", ensemble=[1, 2]),
        ["ensemble: must be a mapping"],
        id="ensemble-not-mapping",
    ),
    pytest.param(
        doc("sa", ensemble=ens(workers=2)),
        ["ensemble.workers: unknown key"],
        id="ensemble-unknown-key",
    ),
    pytest.param(
        doc("sa", ensemble={}),
        ["ensemble.horizon: required value is missing",
         "ensemble.root_seed: required value is missing",
         "ensemble.seeds: required value is missing"],
        id="ensemble-required-missing",
    ),
    pytest.param(
        doc("sa", ensemble=ens(seeds=0)),
        ["ensemble.seeds: must be >= 1"],
        id="ensemble-seeds-zero",
    ),
    pytest.param(
        doc("sa", ensemble=ens(seeds=1.5)),
        ["ensemble.seeds: must be an integer"],
        id="ensemble-seeds-float",
    ),
    pytest.param(
        doc("sa", ensemble=ens(seeds=True)),
        ["ensemble.seeds: must be an integer"],
        id="ensemble-seeds-bool",
    ),
    pytest.param(
        doc("sa", ensemble=ens(seeds="3")),
        ["ensemble.seeds: must be an integer"],
        id="ensemble-seeds-string",
    ),
    pytest.param(
        doc("sa", ensemble=ens(root_seed=-1)),
        ["ensemble.root_seed: must be >= 0"],
        id="ensemble-root-seed-negative",
    ),
    pytest.param(
        doc("sa", ensemble=ens(horizon=0)),
        ["ensemble.horizon: must be >= 1"],
        id="ensemble-horizon-zero",
    ),
    pytest.param(
        doc("sa", ensemble=ens(horizon=5.0)),
        ["ensemble.horizon: must be an integer"],
        id="ensemble-horizon-float",
    ),
    pytest.param(
        doc("sa", ensemble=ens(tail_fraction=0)),
        ["ensemble.tail_fraction: must be > 0.0"],
        id="ensemble-tail-fraction-zero",
    ),
    pytest.param(
        doc("sa", ensemble=ens(tail_fraction=1.0)),
        ["ensemble.tail_fraction: must be < 1"],
        id="ensemble-tail-fraction-one",
    ),
    pytest.param(
        doc("sa", ensemble=ens(tail_fraction=1.5)),
        ["ensemble.tail_fraction: must be < 1"],
        id="ensemble-tail-fraction-above-one",
    ),
    pytest.param(
        doc("sa", ensemble=ens(tail_fraction="x")),
        ["ensemble.tail_fraction: must be a number"],
        id="ensemble-tail-fraction-string",
    ),
    pytest.param(
        doc("sa", ensemble=ens(tol_zero=-1, tol_cauchy=-0.1)),
        ["ensemble.tol_cauchy: must be >= 0.0", "ensemble.tol_zero: must be >= 0.0"],
        id="ensemble-tolerances-negative",
    ),
    pytest.param(
        doc("sa", ensemble=ens(parallelism=0)),
        ["ensemble.parallelism: must be >= 1"],
        id="ensemble-parallelism-zero",
    ),
    pytest.param(
        doc("sa", ensemble=ens(divergence_cap=0)),
        ["ensemble.divergence_cap: must be > 0.0"],
        id="ensemble-divergence-cap-zero",
    ),
    pytest.param(doc("sa", output="out"), ["output: must be a mapping"], id="output-not-mapping"),
    pytest.param(
        doc("sa", output={"format": "png"}),
        ["output.format: unknown key"],
        id="output-unknown-key",
    ),
    pytest.param(
        doc("sa", output={"dir": 3, "traces": "yes", "curve_points": 2.5}),
        ["output.curve_points: must be an integer",
         "output.dir: must be a string",
         "output.traces: must be true or false"],
        id="output-types",
    ),
    pytest.param(
        doc("sa", output={"plots": True}),
        ["output.plots: unknown key"],
        id="output-plots-unknown-key",
    ),
    pytest.param(
        doc("sa", output={"curve_points": 1}),
        ["output.curve_points: must be >= 2"],
        id="output-curve-points-low",
    ),
    pytest.param(
        doc("sa", assertions=[1]),
        ["assertions: must be a mapping"],
        id="assertions-not-mapping",
    ),
    pytest.param(
        doc("sa", assertions={"levitate": True}),
        ["assertions.levitate: unknown key"],
        id="assertions-unknown",
    ),
    pytest.param(
        doc("sa", assertions={"min_fraction_converged_to_zero": 1.5}),
        ["assertions.min_fraction_converged_to_zero: must be <= 1.0"],
        id="assertions-fraction",
    ),
    pytest.param(
        doc("kronecker", assertions={"min_fraction_converged_to_zero": "x"}),
        ["assertions.min_fraction_converged_to_zero: must be a number"],
        id="assertions-fraction-type",
    ),
    pytest.param(
        doc("sa", assertions={"max_median_final_abs": -1}),
        ["assertions.max_median_final_abs: must be >= 0.0"],
        id="assertions-number",
    ),
    pytest.param(
        doc("ls", assertions={"max_checkpoint_gap": True}),
        ["assertions.max_checkpoint_gap: must be a number"],
        id="assertions-number-type",
    ),
    pytest.param(
        doc("custom_path_check", assertions={"all_checks_hold": "yes"}),
        ["assertions.all_checks_hold: must be true or false"],
        id="assertions-flag",
    ),
    pytest.param(
        doc("sa", assertions={"min_fraction_final_below": {"value": 1.0}}),
        ["assertions.min_fraction_final_below.fraction: required value is missing"],
        id="assertions-threshold-missing-key",
    ),
    pytest.param(
        doc("sa", assertions={"min_fraction_final_below": {"value": 1.0, "fraction": 0.5, "x": 1}}),
        ["assertions.min_fraction_final_below.x: unknown key"],
        id="assertions-threshold-extra-key",
    ),
    pytest.param(
        doc("ls", assertions={"min_fraction_final_error_below": {"value": 1.0, "fraction": 2}}),
        ["assertions.min_fraction_final_error_below.fraction: must be <= 1.0"],
        id="assertions-threshold-fraction-range",
    ),
    pytest.param(
        doc("sa_nd", assertions={"min_fraction_final_below": 0.5}),
        ["assertions.min_fraction_final_below: must be a mapping"],
        id="assertions-threshold-not-mapping",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": 1}),
        ["assertions.partition_matches: must be a mapping"],
        id="assertions-partition-not-mapping",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": 1, "p": 2}}),
        ["assertions.partition_matches.p: unknown key"],
        id="assertions-partition-extra-key",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": -1, "classes": ["consistent", "bogus"]}}),
        ["assertions.partition_matches.classes: must be a list of values from consistent, "
         "finite_random_limit, inconclusive",
         "assertions.partition_matches.q: must be >= 0"],
        id="assertions-partition-q",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": 1.5, "classes": "consistent"}}),
        ["assertions.partition_matches.classes: must be a list of values from consistent, "
         "finite_random_limit, inconclusive",
         "assertions.partition_matches.q: must be an integer"],
        id="assertions-partition-q-float",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": True}}),
        ["assertions.partition_matches.q: must be an integer"],
        id="assertions-partition-q-bool",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {}}),
        ["assertions.partition_matches: must set at least one of q, classes"],
        id="ls-partition-empty",
    ),
    pytest.param(
        doc("ls", assertions={"min_fraction_final_error_below": {}}),
        ["assertions.min_fraction_final_error_below.fraction: required value is missing",
         "assertions.min_fraction_final_error_below.value: required value is missing"],
        id="assertions-threshold-empty",
    ),
    pytest.param(
        doc("ls", assertions={"min_fraction_final_error_below": {"value": True, "fraction": -0.5, "limit": 1}}),
        ["assertions.min_fraction_final_error_below.fraction: must be >= 0.0",
         "assertions.min_fraction_final_error_below.limit: unknown key",
         "assertions.min_fraction_final_error_below.value: must be a number"],
        id="assertions-threshold-every-key",
    ),
    pytest.param(
        doc("sa", assertions={"envelope_valid": "yes"}),
        ["assertions.envelope_valid: must be true or false"],
        id="assertions-invalid-flag-draws-one-error",
    ),
    pytest.param(
        doc("sa", assertions={"envelope_valid": True, "sandwich_zero_violations": True}),
        ["assertions.envelope_valid: requires the envelope group",
         "assertions.sandwich_zero_violations: requires the envelope group"],
        id="assertions-requires-envelope-sa",
    ),
    pytest.param(
        doc("sa_nd", assertions={"envelope_valid": True, "contraction_zero_violations": True}),
        ["assertions.contraction_zero_violations: requires the envelope group",
         "assertions.envelope_valid: requires the envelope group"],
        id="assertions-requires-envelope-sa-nd",
    ),
    pytest.param(
        doc("sa_nonuniform", assertions={"regularity_holds": True}),
        ["assertions.regularity_holds: requires the regularity group"],
        id="assertions-requires-regularity",
    ),
    pytest.param(
        doc("sa_nonuniform", envelope={"m": 1, "M": 2}, assertions={"envelope_valid": True}),
        ["assertions.envelope_valid: unknown key"],
        id="assertions-envelope-valid-unknown-in-nonuniform",
    ),
    pytest.param(
        doc("kronecker", weights={"family": "power", "gamma": 0.5}, assertions={"alternating_bound": True}),
        ["assertions.alternating_bound: requires linear weights"],
        id="assertions-alternating-needs-linear",
    ),
    pytest.param(
        doc("kronecker", weights=DROP, assertions={"alternating_bound": True}),
        ["assertions.alternating_bound: requires linear weights",
         "weights: required group is missing"],
        id="assertions-alternating-weights-missing",
    ),
    pytest.param(
        doc("kronecker", weights={"family": "cubic"}, assertions={"alternating_bound": True}),
        ["assertions.alternating_bound: requires linear weights",
         "weights.family: must be one of linear, power"],
        id="assertions-alternating-weights-invalid",
    ),
    pytest.param(
        doc("sa", problem=DROP),
        ["problem: required group is missing"],
        id="problem-missing",
    ),
    pytest.param(
        doc("sa", problem="linear"),
        ["problem: must be a mapping"],
        id="problem-not-mapping",
    ),
    pytest.param(
        doc("sa", problem={"family": "linear", "bogus": 3}),
        ["problem.bogus: unknown key"],
        id="problem-unknown-key",
    ),
    pytest.param(
        doc("sa", problem={"slope": 1.0}),
        ["problem.family: required value is missing (one of linear, sine_perturbed, sqrt_sign)"],
        id="problem-family-missing",
    ),
    pytest.param(
        doc("sa", problem={"family": "cubic", "slope": -1, "root": "x"}),
        ["problem.family: must be one of linear, sine_perturbed, sqrt_sign",
         "problem.root: must be a number"],
        id="problem-family-invalid-skips-fields",
    ),
    pytest.param(
        doc("sa", problem={"family": "linear", "slope": 0}),
        ["problem.slope: must be > 0.0"],
        id="problem-linear-slope-zero",
    ),
    pytest.param(
        doc("sa", problem={"family": "linear", "slope": "x"}),
        ["problem.slope: must be a number"],
        id="problem-linear-slope-string",
    ),
    pytest.param(
        doc("sa", problem={"family": "sine_perturbed", "amplitude": -1}),
        ["problem.amplitude: must be >= 0.0"],
        id="problem-sine-amplitude-negative",
    ),
    pytest.param(
        doc("sa", problem={"family": "sine_perturbed", "slope": 1.0, "amplitude": 1.0}),
        ["problem.amplitude: must be smaller than slope to keep the map rootward"],
        id="problem-sine-amplitude-not-below-slope",
    ),
    pytest.param(
        doc("sa", problem={"family": "sine_perturbed", "slope": 0.2}),
        ["problem.amplitude: must be smaller than slope to keep the map rootward"],
        id="problem-sine-amplitude-default-vs-slope",
    ),
    pytest.param(
        doc("sa", problem={"family": "sine_perturbed", "slope": -1, "amplitude": 1.5}),
        ["problem.slope: must be > 0.0"],
        id="problem-sine-bad-slope-uses-default",
    ),
    pytest.param(
        doc("sa_nonuniform", problem={"family": "sqrt_sign", "root": "x", "slope": -1}),
        ["problem.root: must be a number", "problem.slope: unknown key"],
        id="problem-sqrt-root-string",
    ),
    pytest.param(
        doc("sa", schedule=DROP),
        ["schedule: required group is missing"],
        id="schedule-missing",
    ),
    pytest.param(
        doc("sa_nd", schedule=1),
        ["schedule: must be a mapping"],
        id="schedule-not-mapping",
    ),
    pytest.param(
        doc("sa", schedule={"family": "inverse_n", "d": 1}),
        ["schedule.d: unknown key"],
        id="schedule-unknown-key",
    ),
    pytest.param(
        doc("sa", schedule={"family": "constant", "c": -1}),
        ["schedule.family: must be one of inverse_n, inverse_n_power, explicit"],
        id="schedule-family-invalid",
    ),
    pytest.param(
        doc("sa", schedule={"family": "inverse_n", "c": 0}),
        ["schedule.c: must be > 0.0"],
        id="schedule-c-zero",
    ),
    pytest.param(
        doc("sa_nd", schedule={"family": "inverse_n_power", "c": -1, "gamma": 0.5}),
        ["schedule.c: must be > 0.0"],
        id="schedule-power-c-negative",
    ),
    pytest.param(
        doc("sa", schedule={"family": "explicit", "c": 1}),
        ["schedule.c: unknown key", "schedule.values: required list is missing"],
        id="schedule-explicit-values-missing",
    ),
    pytest.param(
        doc("sa", schedule={"family": "explicit", "values": []}),
        ["schedule.values: must be a list of at least 1 numbers"],
        id="schedule-explicit-values-empty",
    ),
    pytest.param(
        doc("sa", schedule={"family": "explicit", "values": [1, "a", 1, 1, 1]}),
        ["schedule.values: must be a list of at least 1 numbers"],
        id="schedule-explicit-values-not-numbers",
    ),
    pytest.param(
        doc("sa", schedule={"family": "explicit", "values": 0.5}),
        ["schedule.values: must be a list of at least 1 numbers"],
        id="schedule-explicit-values-not-list",
    ),
    pytest.param(
        doc("sa_nd", schedule={"family": "explicit", "values": [1, -0.5, 1, 1, 1]}),
        ["schedule.values: step sizes must be nonnegative"],
        id="schedule-explicit-values-negative",
    ),
    pytest.param(doc("sa", noise=DROP), ["noise: required group is missing"], id="noise-missing"),
    pytest.param(
        doc("sa", noise={"family": "none", "mean": 0}),
        ["noise.mean: unknown key"],
        id="noise-unknown-key",
    ),
    pytest.param(
        doc("sa", noise={"family": "cauchy", "sd": -1}),
        ["noise.family: must be one of gaussian, uniform, none"],
        id="noise-family-invalid",
    ),
    pytest.param(
        doc("sa", noise={"family": "gaussian"}),
        ["noise.sd: required value is missing"],
        id="noise-gaussian-sd-missing",
    ),
    pytest.param(
        doc("sa_nd", noise={"family": "gaussian", "sd": -0.1}),
        ["noise.sd: must be >= 0.0"],
        id="noise-gaussian-sd-negative",
    ),
    pytest.param(
        doc("sa", noise={"family": "uniform", "sd": 1}),
        ["noise.half_width: required value is missing", "noise.sd: unknown key"],
        id="noise-uniform-half-width-missing",
    ),
    pytest.param(
        doc("sa", noise={"family": "uniform", "half_width": -1}),
        ["noise.half_width: must be >= 0.0"],
        id="noise-uniform-half-width-negative",
    ),
    pytest.param(doc("sa", x0=DROP), ["x0: required value is missing"], id="x0-missing-sa"),
    pytest.param(doc("sa", x0="a"), ["x0: must be a number"], id="x0-string-sa"),
    pytest.param(doc("sa", x0=[1.0]), ["x0: must be a number"], id="x0-list-sa"),
    pytest.param(doc("sa_nd", x0=DROP), ["x0: required list is missing"], id="x0-missing-sa-nd"),
    pytest.param(
        doc("sa_nd", x0=1.0),
        ["x0: must be a list of at least 1 numbers"],
        id="x0-scalar-sa-nd",
    ),
    pytest.param(
        doc("sa_nd", x0=[]),
        ["x0: must be a list of at least 1 numbers"],
        id="x0-empty-sa-nd",
    ),
    pytest.param(
        doc("sa", envelope=True),
        ["envelope: must be a mapping"],
        id="envelope-not-mapping",
    ),
    pytest.param(
        doc("sa", envelope={"m": 1, "M": 2, "directions": 3}),
        ["envelope.directions: unknown key"],
        id="envelope-unknown-key",
    ),
    pytest.param(
        doc("sa", envelope={}),
        ["envelope.M: required value is missing", "envelope.m: required value is missing"],
        id="envelope-required-missing",
    ),
    pytest.param(
        doc("sa", envelope={"m": 0, "M": -1, "grid_min_abs": 0, "grid_max_abs": -1, "grid_per_decade": 0, "ratio_cap": 0}),
        ["envelope.M: must be > 0.0",
         "envelope.grid_max_abs: must be > 0.0",
         "envelope.grid_min_abs: must be > 0.0",
         "envelope.grid_per_decade: must be >= 1",
         "envelope.m: must be > 0.0",
         "envelope.ratio_cap: must be > 0.0"],
        id="envelope-bounds",
    ),
    pytest.param(
        doc("sa", envelope={"m": 2.0, "M": 1.0}),
        ["envelope.m: must satisfy m <= M"],
        id="envelope-m-above-M",
    ),
    pytest.param(
        doc("sa", envelope={"m": "2", "M": 1.0}),
        ["envelope.m: must be a number"],
        id="envelope-bad-m-skips-order",
    ),
    pytest.param(
        doc("sa_nonuniform", envelope={"m": 1, "M": 1, "grid_per_decade": 10.5}),
        ["envelope.grid_per_decade: must be an integer"],
        id="envelope-grid-per-decade-float",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation=DROP),
        ["truncation: required group is missing"],
        id="truncation-missing",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation=0.5),
        ["truncation: must be a mapping"],
        id="truncation-not-mapping",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 1, "tau": 0.5, "eta": 1}),
        ["truncation.eta: unknown key"],
        id="truncation-unknown-key",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={}),
        ["truncation.delta: required value is missing",
         "truncation.tau: required value is missing"],
        id="truncation-required-missing",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 0, "tau": -1}),
        ["truncation.delta: must be > 0.0", "truncation.tau: must be > 0.0"],
        id="truncation-bounds",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 1, "tau": 0.5, "kappa": "tau"}),
        ['truncation.kappa: must be a number or the string "delta"'],
        id="truncation-kappa-string",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 1, "tau": 0.5, "kappa": True}),
        ['truncation.kappa: must be a number or the string "delta"'],
        id="truncation-kappa-bool",
    ),
    pytest.param(
        doc("sa_nonuniform", truncation={"delta": 0.1, "tau": "x"}),
        ["truncation.tau: must be a number"],
        id="truncation-bad-tau-with-warning-rule",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity=[1]),
        ["regularity: must be a mapping"],
        id="regularity-not-mapping",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": 1, "d": 1, "pairs": [[1, 2]], "e": 1}),
        ["regularity.e: unknown key"],
        id="regularity-unknown-key",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={}),
        ["regularity.c: required value is missing",
         "regularity.d: required value is missing",
         "regularity.pairs: must be a list of [d1, d2] pairs"],
        id="regularity-required-missing",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": -1, "d": "x", "pairs": [[1, 2]], "grid_min_abs": 0, "grid_max_abs": 0, "grid_per_decade": 0}),
        ["regularity.c: must be >= 0.0",
         "regularity.d: must be a number",
         "regularity.grid_max_abs: must be > 0.0",
         "regularity.grid_min_abs: must be > 0.0",
         "regularity.grid_per_decade: must be >= 1"],
        id="regularity-bounds",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": 1, "d": 1, "pairs": [[1]]}),
        ["regularity.pairs: must be a list of [d1, d2] pairs"],
        id="regularity-pairs-shape",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": 1, "d": 1, "pairs": []}),
        ["regularity.pairs: must be a list of [d1, d2] pairs"],
        id="regularity-pairs-empty",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": 1, "d": 1, "pairs": [["a", 2]]}),
        ["regularity.pairs: must be a list of [d1, d2] pairs"],
        id="regularity-pairs-strings",
    ),
    pytest.param(
        doc("sa_nonuniform", regularity={"c": 1, "d": 1, "pairs": [[0.5, 1], [3, 2], [0, 1], [1, 1]]}),
        ["regularity.pairs: invalid pair [0.0, 1.0]",
         "regularity.pairs: invalid pair [1.0, 1.0]",
         "regularity.pairs: invalid pair [3.0, 2.0]"],
        id="regularity-pairs-invalid",
    ),
    pytest.param(
        doc("sa_nd", problem=DROP),
        ["problem: required group is missing"],
        id="nd-problem-missing",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "identity", "slope": 1}),
        ["problem.slope: unknown key"],
        id="nd-problem-unknown-key",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "diagonal", "scale": -1}),
        ["problem.family: must be one of matrix, identity", "problem.scale: must be > 0.0"],
        id="nd-problem-family-invalid-checks-scale",
    ),
    pytest.param(
        doc("sa_nd", problem={"scale": 0}),
        ["problem.family: required value is missing (one of matrix, identity)",
         "problem.scale: must be > 0.0"],
        id="nd-problem-family-missing-checks-scale",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "identity", "scale": "x"}),
        ["problem.scale: must be a number"],
        id="nd-problem-identity-scale",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix"}),
        ["problem.entries: must be a square matrix of numbers"],
        id="nd-matrix-entries-missing",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": [[1, 0, 0], [0, 1, 0]]}),
        ["problem.entries: must be a square matrix of numbers"],
        id="nd-matrix-not-square",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": []}),
        ["problem.entries: must be a square matrix of numbers"],
        id="nd-matrix-empty",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": [[1, "a"], [0, 1]]}),
        ["problem.entries: must be a square matrix of numbers"],
        id="nd-matrix-strings",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": [[1, 1], [-1, 1]]}, x0=[1.0, 2.0, 3.0]),
        ["x0: length 3 does not match the 2-d problem"],
        id="nd-matrix-x0-length",
    ),
    pytest.param(
        doc("sa_nd", problem={"family": "matrix", "entries": [[1, 1], [-1, 1]]}, x0="x"),
        ["x0: must be a list of at least 1 numbers"],
        id="nd-matrix-bad-x0-skips-length",
    ),
    pytest.param(
        doc("sa_nd", envelope={"m": 1, "M": 2, "grid_min_abs": 0.1}),
        ["envelope.grid_min_abs: unknown key"],
        id="nd-envelope-unknown-key",
    ),
    pytest.param(
        doc("sa_nd", envelope={"radii": [1]}),
        ["envelope.M: required value is missing", "envelope.m: required value is missing"],
        id="nd-envelope-required-missing",
    ),
    pytest.param(
        doc("sa_nd", envelope={"m": 0, "M": 0, "directions": 0, "radii": [], "grid_seed": -1, "ratio_cap": 0}),
        ["envelope.M: must be > 0.0",
         "envelope.directions: must be >= 1",
         "envelope.grid_seed: must be >= 0",
         "envelope.m: must be > 0.0",
         "envelope.radii: must be a list of at least 1 numbers",
         "envelope.ratio_cap: must be > 0.0"],
        id="nd-envelope-bounds",
    ),
    pytest.param(
        doc("sa_nd", envelope={"m": 1, "M": 2, "directions": 2.5, "radii": ["a"], "grid_seed": 1.5}),
        ["envelope.directions: must be an integer",
         "envelope.grid_seed: must be an integer",
         "envelope.radii: must be a list of at least 1 numbers"],
        id="nd-envelope-types",
    ),
    pytest.param(
        doc("kronecker", increments=DROP),
        ["increments: required group is missing"],
        id="increments-missing",
    ),
    pytest.param(
        doc("kronecker", increments={"family": "rademacher", "p": 0.5}),
        ["increments.p: unknown key"],
        id="increments-unknown-key",
    ),
    pytest.param(
        doc("kronecker", increments={"family": "gaussian"}),
        ["increments.family: must be one of rademacher, alternating"],
        id="increments-family-invalid",
    ),
    pytest.param(
        doc("kronecker", weights=DROP),
        ["weights: required group is missing"],
        id="weights-missing",
    ),
    pytest.param(
        doc("kronecker", weights="linear"),
        ["weights: must be a mapping"],
        id="weights-not-mapping",
    ),
    pytest.param(
        doc("kronecker", weights={"family": "linear", "c": 1}),
        ["weights.c: unknown key"],
        id="weights-unknown-key",
    ),
    pytest.param(
        doc("kronecker", weights={"gamma": 1}),
        ["weights.family: required value is missing (one of linear, power)"],
        id="weights-family-missing",
    ),
    pytest.param(
        doc("kronecker", weights={"family": "power"}),
        ["weights.gamma: required value is missing"],
        id="weights-power-gamma-missing",
    ),
    pytest.param(
        doc("kronecker", weights={"family": "power", "gamma": 0}),
        ["weights.gamma: must be > 0.0"],
        id="weights-power-gamma-zero",
    ),
    pytest.param(
        doc("ls", design=DROP),
        ["design: required group is missing"],
        id="design-missing",
    ),
    pytest.param(
        doc("ls", design=DROP, beta=[1, 2, 3]),
        ["design: required group is missing"],
        id="design-missing-skips-beta-length",
    ),
    pytest.param(
        doc("ls", design={"family": "rotating", "phase": 1}),
        ["design.phase: unknown key"],
        id="design-unknown-key",
    ),
    pytest.param(
        doc("ls", design={"family": "spiral", "p": 3}, beta=[1.0]),
        ["design.family: must be one of rotating, geometric_one, iid_gaussian, feedback"],
        id="design-family-invalid-skips-beta-length",
    ),
    pytest.param(
        doc("ls", design={"family": "rotating", "jitter": -1, "turns": "x"}),
        ["design.jitter: must be >= 0.0", "design.turns: must be a number"],
        id="design-rotating-bounds",
    ),
    pytest.param(
        doc("ls", design={"family": "iid_gaussian", "p": 0, "scale": 0}, beta=[1.0, 2.0, 3.0]),
        ["design.p: must be >= 1",
         "design.scale: must be > 0.0"],
        id="design-iid-bounds",
    ),
    pytest.param(
        doc("ls", design={"family": "iid_gaussian", "p": 2.0}),
        ["design.p: must be an integer"],
        id="design-iid-p-float",
    ),
    pytest.param(
        doc("ls", design={"family": "iid_gaussian", "p": 3}),
        ["beta: length 2 does not match the 3-column design"],
        id="design-iid-beta-length",
    ),
    pytest.param(
        doc("ls", design={"family": "feedback", "gain": -0.1}),
        ["design.gain: must be >= 0.0"],
        id="design-feedback-gain",
    ),
    pytest.param(
        doc("ls", design={"family": "geometric_one"}, beta=[1.0]),
        ["beta: length 1 does not match the 2-column design"],
        id="design-geometric-beta-length",
    ),
    pytest.param(
        doc("ls", design={"family": "feedback"}, beta=[1.0, 2.0, 3.0]),
        ["beta: length 3 does not match the 2-column design"],
        id="design-feedback-beta-length",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"classes": ["consistent"]}}),
        ["assertions.partition_matches.classes: length 1 does not match the 2-column design"],
        id="partition-classes-length",
    ),
    pytest.param(
        doc("ls", design={"family": "iid_gaussian", "p": 3}, beta=[1.0, 2.0, 3.0],
            assertions={"partition_matches": {"q": 4, "classes": ["consistent"] * 4}}),
        ["assertions.partition_matches.classes: length 4 does not match the 3-column design",
         "assertions.partition_matches.q: must be <= 3 for the 3-column design"],
        id="partition-q-and-classes-exceed-design",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": 0, "classes": ["consistent", "finite_random_limit"]}}),
        ["assertions.partition_matches.classes: must list finite_random_limit at most 0 times "
         "when q = 0"],
        id="partition-classes-exceed-q",
    ),
    pytest.param(
        doc("ls", assertions={"partition_matches": {"q": 1, "classes": ["consistent"] * 2}}),
        ["assertions.partition_matches.classes: must list consistent at most 1 times when q = 1"],
        id="partition-classes-exceed-p-minus-q",
    ),
    pytest.param(
        doc("ls", design={"family": "geometric_one"}, beta=[1.0],
            assertions={"partition_matches": {"q": 3}}),
        ["assertions.partition_matches.q: must be <= 2 for the 2-column design",
         "beta: length 1 does not match the 2-column design"],
        id="partition-q-and-beta-exceed-design",
    ),
    pytest.param(
        doc("ls", design={"family": "spiral"}, assertions={"partition_matches": {"q": 9}}),
        ["design.family: must be one of rotating, geometric_one, iid_gaussian, feedback"],
        id="design-family-invalid-skips-partition-fit",
    ),
    pytest.param(doc("ls", beta=DROP), ["beta: required list is missing"], id="beta-missing"),
    pytest.param(
        doc("ls", beta=1.0),
        ["beta: must be a list of at least 1 numbers"],
        id="beta-not-list",
    ),
    pytest.param(doc("ls", sigma=DROP), ["sigma: required value is missing"], id="sigma-missing"),
    pytest.param(doc("ls", sigma=-1), ["sigma: must be >= 0.0"], id="sigma-negative"),
    pytest.param(
        doc("ls", gweight="identity"),
        ["gweight: must be a mapping"],
        id="gweight-not-mapping",
    ),
    pytest.param(
        doc("ls", gweight={"family": "identity", "power": 2}),
        ["gweight.power: unknown key"],
        id="gweight-unknown-key",
    ),
    pytest.param(
        doc("ls", gweight={}),
        ["gweight.family: required value is missing (one of identity, sqrt_log)"],
        id="gweight-family-missing",
    ),
    pytest.param(
        doc("ls", gweight={"family": "log"}),
        ["gweight.family: must be one of identity, sqrt_log"],
        id="gweight-family-invalid",
    ),
    pytest.param(
        doc("ls", energy_threshold=-1),
        ["energy_threshold: must be >= 0.0"],
        id="energy-threshold-negative",
    ),
    pytest.param(
        doc("ls", partition=[]),
        ["partition: must be a mapping"],
        id="partition-not-mapping",
    ),
    pytest.param(
        doc("ls", partition={"q": 1}),
        ["partition.q: unknown key"],
        id="partition-unknown-key",
    ),
    pytest.param(
        doc("ls", partition={"consistency_tol": 0, "oscillation_tol": -1, "dispersion_ratio": -1}),
        ["partition.consistency_tol: must be > 0.0",
         "partition.dispersion_ratio: must be >= 0.0",
         "partition.oscillation_tol: must be > 0.0"],
        id="partition-bounds",
    ),
    pytest.param(
        doc("ls", checkpoints=-1),
        ["checkpoints: must be >= 0"],
        id="checkpoints-negative",
    ),
    pytest.param(
        doc("ls", checkpoints=1.5),
        ["checkpoints: must be an integer"],
        id="checkpoints-float",
    ),
    pytest.param(
        doc("custom_path_check", input=DROP),
        ["input: required group is missing"],
        id="input-missing",
    ),
    pytest.param(
        doc("custom_path_check", input="traces.csv"),
        ["input: must be a mapping"],
        id="input-not-mapping",
    ),
    pytest.param(
        doc("custom_path_check", input={"path": "a", "format": "csv"}),
        ["input.format: unknown key"],
        id="input-unknown-key",
    ),
    pytest.param(
        doc("custom_path_check", input={"zero_tol": -1}),
        ["input.path: required value is missing", "input.zero_tol: must be >= 0.0"],
        id="input-path-missing",
    ),
    pytest.param(
        doc("custom_path_check", input={"path": 3}),
        ["input.path: must be a string"],
        id="input-path-not-string",
    ),
    pytest.param(
        doc("custom_path_check", checks=DROP),
        ["checks: required group is missing"],
        id="checks-missing",
    ),
    pytest.param(
        doc("custom_path_check", checks=None),
        ["checks: must be a mapping"],
        id="checks-not-mapping",
    ),
    pytest.param(
        doc("custom_path_check", checks={"growth": 1}),
        ["checks.growth: unknown key"],
        id="checks-unknown-key",
    ),
    pytest.param(
        doc("custom_path_check", checks={"nonexpansive_alpha": -1, "contractive_k": 1.5, "divergence_target": -1, "zero_state_tol": "x"}),
        ["checks.contractive_k: must be <= 1.0",
         "checks.divergence_target: must be >= 0.0",
         "checks.nonexpansive_alpha: must be >= 0.0",
         "checks.zero_state_tol: must be a number"],
        id="checks-bounds",
    ),
    pytest.param(
        doc("custom_path_check", checks={"contractive_k": -0.1}),
        ["checks.contractive_k: must be >= 0.0"],
        id="checks-contractive-k-negative",
    ),
    pytest.param(
        doc("custom_path_check", checks={"segment_bound": "yes", "crossings": 1}),
        ["checks.crossings: must be true or false", "checks.segment_bound: must be true or false"],
        id="checks-flags",
    ),
    pytest.param(
        doc("sa", problem={"family": "linear", "slope": 1.0, "bogus": 3}, noise=DROP, ensemble=ens(seeds=0, horizon=-5)),
        ["ensemble.horizon: must be >= 1",
         "ensemble.seeds: must be >= 1",
         "noise: required group is missing",
         "problem.bogus: unknown key"],
        id="many-errors-aggregated",
    ),
    pytest.param(
        doc("sa", problem={"family": "linear", "slope": math.nan},
            schedule={"family": "inverse_n", "c": math.nan},
            noise={"family": "gaussian", "sd": math.nan}, x0=math.nan,
            ensemble=ens(tol_zero=math.nan)),
        ["ensemble.tol_zero: must be a number",
         "noise.sd: must be a number",
         "problem.slope: must be a number",
         "schedule.c: must be a number",
         "x0: must be a number"],
        id="nan-is-not-a-number",
    ),
    pytest.param(
        doc("sa_nd", x0=[1.0, math.nan]),
        ["x0: must be a list of at least 1 numbers"],
        id="sa-nd-x0-nan",
    ),
]


@pytest.mark.parametrize("document, model, assertions, warnings, ensemble, output", VALID)
def test_parse_lock_valid(document, model, assertions, warnings, ensemble, output):
    cfg = parse_doc(document)
    assert cfg.model == model
    assert cfg.assertions == assertions
    assert cfg.warnings == warnings
    assert asdict(cfg.ensemble) == ensemble
    assert [cfg.output_dir, cfg.traces, cfg.curve_points] == output


@pytest.mark.parametrize("document, expected", ERRORS)
def test_parse_lock_errors(document, expected):
    with pytest.raises(ConfigError) as err:
        parse_doc(document)
    assert err.value.errors == expected


# ---------------------------------------------------------------------------
# The README configuration reference is the schema table, rendered.

README = Path(__file__).resolve().parent.parent / "README.md"
# Fields of type "any" are checked by a rule; the table cannot describe them.
ANY_FIELD_TYPES = {
    "kappa": 'number or `"delta"`',
    "pairs": "list of `[d1, d2]` pairs",
    "entries": "square matrix of numbers",
}


def _cell(value):
    if isinstance(value, bool):
        return f"`{str(value).lower()}`"
    return "—" if value is None else f"`{value}`"


def _row(f, label):
    kind = ANY_FIELD_TYPES.get(f.name) if f.type == "any" else f.type
    bounds = [
        f"> {f.gt}" if f.gt is not None else "",
        f">= {f.ge}" if f.ge is not None else "",
        f"<= {f.le}" if f.le is not None else "",
        f"< {f.lt}" if f.lt is not None else "",
    ]
    if f.type == "mapping" and not any(s.required for s in f.fields):
        bounds.append("sets at least one of " + ", ".join(f"`{s.name}`" for s in f.fields))
    cells = ([label] if label is not None else []) + [
        f"`{f.name}`",
        {
            "numbers": "number list",
            "choices": "list of " + ", ".join(f"`{c}`" for c in f.choices),
        }.get(kind, kind),
        "required" if f.required else _cell(f.default),
        ", ".join(b for b in bounds if b),
    ]
    return "| " + " | ".join(cells) + " |"


def render_reference():
    """The README configuration reference, rendered from the schema table."""
    lines = ["| kind | groups | assertions |", "| --- | --- | --- |"]
    uses = {}
    for name, kind in config.KINDS.items():
        own = (kind.ensemble,) if kind.ensemble else ()  # a kind's own ensemble reading
        groups = ", ".join(
            f"`{g.name}`" + ("" if g.absent == "required" else " (optional)")
            for g in own + kind.groups
        )
        lines.append(f"| `{name}` | {groups} | {', '.join(f'`{a}`' for a in kind.assertions)} |")
        for g in own + kind.groups:
            uses.setdefault(id(g), (g, []))[1].append(name)
    lines += ["", "| kind | top-level value | type | default | bounds |", "| --- | --- | --- | --- | --- |"]
    lines += [_row(f, f"`{name}`") for name, kind in config.KINDS.items() for f in kind.fields]
    lines += ["", "| assertion | type | default | bounds |", "| --- | --- | --- | --- |"]
    for f in config.ASSERTIONS.values():
        lines.append(_row(f, None))
        lines += [_row(replace(s, name=f"{f.name}.{s.name}"), None) for s in f.fields]
    absent = {
        "required": "required",
        "none": "optional",
        "defaults": "optional, defaults when absent",
    }
    for g, kinds in [(config.ENSEMBLE, []), (config.OUTPUT, [])] + list(uses.values()):
        where = f" ({', '.join(f'`{k}`' for k in kinds)})" if kinds else ""
        lines += ["", f"`{g.name}`{where}, {absent[g.absent]}:", ""]
        if not g.families:
            lines += ["| field | type | default | bounds |", "| --- | --- | --- | --- |"]
            lines += [_row(f, None) for f in g.fields]
            continue
        lines += ["| family | field | type | default | bounds |", "| --- | --- | --- | --- | --- |"]
        lines += [_row(f, "all") for f in g.fields]
        for name, family in g.families.items():
            label = f"`{name}`" + (" (fallback)" if name == g.fallback else "")
            lines += [_row(f, label) for f in family.fields] or [f"| {label} | — | | | |"]
    return "\n".join(lines)


def test_readme_reference_matches_schema():
    text = README.read_text()
    start = text.index("<!-- config-reference:start -->\n") + len("<!-- config-reference:start -->\n")
    end = text.index("\n<!-- config-reference:end -->")
    assert text[start:end] == render_reference(), "re-render it:\n" + render_reference()


# A default written both in the config table and in the library function that
# a run passes the value to: (fields, name, function, parameter).  The two
# copies must agree, or a library call and a config run would differ.
_ENSEMBLE, _ENVELOPE = config.ENSEMBLE.fields, config.ENVELOPE.fields
_ENVELOPE_ND = config.ENVELOPE_ND.fields
_DESIGNS = config.DESIGN.families
DUPLICATED_DEFAULTS = [
    *((_ENSEMBLE, name, harness.EnsembleConfig, name) for name in (
        "tail_fraction", "tol_zero", "tol_cauchy", "parallelism", "divergence_cap",
    )),
    (_ENSEMBLE, "divergence_cap", harness.convergence_verdict, "divergence_cap"),
    *((config.PARTITION.fields, name, ls.partition_analysis, name) for name in (
        "consistency_tol", "oscillation_tol", "dispersion_ratio",
    )),
    (config.KINDS["ls"].fields, "energy_threshold", ls.check_design_conditions, "energy_threshold"),
    (_DESIGNS["rotating"].fields, "jitter", ls.rotating_design, "jitter"),
    (_DESIGNS["rotating"].fields, "turns", ls.rotating_design, "turns"),
    (_DESIGNS["iid_gaussian"].fields, "scale", ls.iid_gaussian_design, "scale"),
    (_DESIGNS["feedback"].fields, "gain", ls.feedback_design, "gain"),
    (config.SCHEDULE.families["inverse_n"].fields, "c", approx.Schedule.inverse_n, "c"),
    (_ENVELOPE, "ratio_cap", approx.check_linear_envelope, "ratio_cap"),
    (_ENVELOPE_ND, "ratio_cap", approx.check_norm_envelope, "ratio_cap"),
    (_ENVELOPE, "grid_per_decade", approx.signed_log_grid, "per_decade"),
    (_ENVELOPE_ND, "grid_seed", approx.sphere_grid, "seed"),
    (config.CHECKS.fields, "divergence_target",
     conditions.ContractiveProfile.constant, "divergence_target"),
    (config.INPUT.fields, "zero_tol", ProcessPath, "zero_tol"),
]


@pytest.mark.parametrize(
    "fields, name, function, parameter",
    DUPLICATED_DEFAULTS,
    ids=[f"{name}-{function.__qualname__}" for _, name, function, _ in DUPLICATED_DEFAULTS],
)
def test_config_defaults_match_the_library(fields, name, function, parameter):
    (field,) = [f for f in fields if f.name == name]
    default = inspect.signature(function).parameters[parameter].default
    assert field.default is not None and field.default == default
