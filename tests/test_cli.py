import csv
import json
from pathlib import Path

import numpy as np
import pytest

from contractlab.cli import main
from contractlab.config import KINDS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SA_TEMPLATE = """
kind: sa
problem: {{family: linear, slope: 1.0}}
schedule: {{family: inverse_n, c: 1.0}}
noise: {{family: gaussian, sd: 0.1}}
x0: 2.0
envelope: {{m: 1.0, M: 1.0, grid_min_abs: 1.0e-3, grid_max_abs: 10.0, grid_per_decade: 100}}
ensemble: {{seeds: 4, root_seed: 11, horizon: 500, tol_zero: 0.1}}
assertions:
  min_fraction_converged_to_zero: 0.75
  envelope_valid: true
  sandwich_zero_violations: true
output: {{dir: {out}, traces: {traces}}}
"""


def write_config(tmp_path: Path, text: str, name: str = "config.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


class TestCheckCommand:
    def test_valid_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=tmp_path / "out", traces="false"))
        assert main(["check", str(cfg)]) == 0
        assert "config OK: kind=sa" in capsys.readouterr().out

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=tmp_path / "out", traces="false"))
        proc = subprocess.run(
            [sys.executable, "-m", "contractlab", "check", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "config OK" in proc.stdout

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "kind: sa\nensemble: {seeds: 0}\n")
        assert main(["check", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err
        assert "ensemble.seeds" in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["check", "/no/such/config.yaml"]) == 2

    @pytest.mark.parametrize("seeds", [3, 20])  # seed by seed, and one block
    def test_nan_x0_run_exit_2(self, tmp_path, capsys, seeds):
        text = SA_TEMPLATE.format(out=tmp_path / "out", traces="false")
        text = text.replace("x0: 2.0", "x0: .nan").replace("seeds: 4", f"seeds: {seeds}")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "x0: must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()


class TestRunCommand:
    def test_run_writes_artifacts_and_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=out, traces="false"))
        assert main(["run", str(cfg)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "summary.txt").exists()
        assert (out / "quantiles.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 0
        assert summary["kind"] == "sa"
        assert summary["ensemble"]["fraction_by_class"]["converged_to_zero"] >= 0.75

    def test_trace_schema_is_pinned(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=out, traces="true"))
        assert main(["run", str(cfg)]) == 0
        with open(out / "traces.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["seed", "n", "x", "m", "eps", "u_flag"]
        assert rows[1][:3] == ["0", "0", "2.0"]
        assert rows[1][3:] == ["", "", ""]
        assert len(rows) == 1 + 4 * 501

    def test_traces_skip_errored_seeds(self, tmp_path):
        # c = 1e6 overflows the sine map: every seed errors with a math domain error
        text = (CONFIGS / "sa_convergence.yaml").read_text()
        text = text.replace("c: 1.0}", "c: 1000000.0}").split("assertions:")[0]
        cfg = write_config(tmp_path, text)
        summaries = []
        for flags in ([], ["--traces"]):
            out = tmp_path / f"out{len(flags)}"
            argv = ["run", str(cfg), "--seeds", "3", "--horizon", "2000", "--out", str(out)]
            assert main(argv + flags) == 0
            summaries.append(json.loads((out / "summary.json").read_text())["ensemble"])
        notes = [seed["note"] for seed in summaries[0]["per_seed"]]
        assert notes == ["ValueError: math domain error"] * 3
        assert summaries[0] == summaries[1]
        assert (out / "traces.csv").read_text() == "seed,n,x,m,eps,u_flag\n"

    def test_quantiles_schema_is_pinned(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=out, traces="false"))
        main(["run", str(cfg)])
        header = (out / "quantiles.csv").read_text().splitlines()[0]
        assert header == "n,q05,q25,q50,q75,q95"

    def test_misdeclared_envelope_fails_with_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = SA_TEMPLATE.format(out=out, traces="false").replace(
            "envelope: {m: 1.0, M: 1.0,", "envelope: {m: 2.0, M: 2.0,"
        )
        cfg = write_config(tmp_path, text)
        assert main(["run", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "FAIL envelope_valid" in captured.out
        assert "failed assertions" in captured.err

    def test_unwritable_output_dir_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, SA_TEMPLATE.format(out="/proc/contractlab_forbidden", traces="false")
        )
        assert main(["run", str(cfg)]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_overrides(self, tmp_path):
        out = tmp_path / "ignored"
        real_out = tmp_path / "real"
        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=out, traces="false"))
        assert (
            main(
                [
                    "run",
                    str(cfg),
                    "--seeds",
                    "2",
                    "--horizon",
                    "200",
                    "--out",
                    str(real_out),
                ]
            )
            == 0
        )
        summary = json.loads((real_out / "summary.json").read_text())
        assert summary["config"]["ensemble"]["seeds"] == 2
        assert summary["config"]["ensemble"]["horizon"] == 200
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seeds", "--horizon"])
    def test_override_below_one_is_a_config_error(self, tmp_path, capsys, flag):
        cfg = write_config(tmp_path, SA_TEMPLATE.format(out=tmp_path / "out", traces="false"))
        assert main(["run", str(cfg), flag, "0"]) == 2
        err = capsys.readouterr().err
        assert "invalid config (1 error(s)):" in err
        assert f"ensemble.{flag[2:]}: must be >= 1" in err
        assert not (tmp_path / "out").exists()

    def test_parallelism_ignored_with_warning(self, tmp_path, capsys):
        one, eight = tmp_path / "one", tmp_path / "eight"
        line = "ensemble: {seeds: 4, root_seed: 11, horizon: 500, tol_zero: 0.1}"
        cfg_one = write_config(tmp_path, SA_TEMPLATE.format(out=one, traces="false"), "one.yaml")
        text = SA_TEMPLATE.format(out=eight, traces="false").replace(
            line, line[:-1] + ", parallelism: 8}"
        )
        cfg_eight = write_config(tmp_path, text, "eight.yaml")
        assert main(["run", str(cfg_one)]) == 0
        assert main(["run", str(cfg_eight)]) == 0
        warning = "ensemble.parallelism = 8 is ignored: seeds run in one thread"
        assert f"warning: {warning}" in capsys.readouterr().out
        a = json.loads((one / "summary.json").read_text())
        b = json.loads((eight / "summary.json").read_text())
        assert (a["warnings"], b["warnings"]) == ([], [warning])
        assert b["config"]["ensemble"]["parallelism"] == 8
        for key in ("report", "assertions", "ensemble"):
            assert a[key] == b[key]

    def test_ls_block_equals_per_seed_ensemble(self, tmp_path):
        from contractlab.harness import EnsembleConfig, run_ensemble
        from contractlab.least_squares import RegressionModel, feedback_design, simulate_ls_runs
        from contractlab.reporting import write_summary_json

        out = tmp_path / "ls"
        cfg = write_config(
            tmp_path,
            f"""
kind: ls
design: {{family: feedback, gain: 0.9}}
beta: [1.0, 0.5]
sigma: 1.0
checkpoints: 3
ensemble: {{seeds: 5, root_seed: 3, horizon: 1200}}
output: {{dir: {out}}}
""",
        )
        assert main(["run", str(cfg)]) == 0
        model = RegressionModel(np.array([1.0, 0.5]), feedback_design(0.9), 1.0)

        def solve(seed_sequences):
            runs = simulate_ls_runs(model, 1200, seed_sequences, 0.2, [400, 800, 1200])
            return [(run.err_sup, run) for run in runs]

        grid = np.unique(np.linspace(0, 1199, 200).astype(int))
        stats = run_ensemble(solve, EnsembleConfig(5, 3, 1200), grid, 1)  # seed by seed
        write_summary_json(tmp_path / "per_seed.json", {"ensemble": stats.to_dict()})
        per_seed = json.loads((tmp_path / "per_seed.json").read_text())["ensemble"]
        assert json.loads((out / "summary.json").read_text())["ensemble"] == per_seed

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, SA_TEMPLATE.format(out=out_a, traces="true"), "a.yaml")
        cfg_b = write_config(tmp_path, SA_TEMPLATE.format(out=out_b, traces="true"), "b.yaml")
        assert main(["run", str(cfg_a)]) == 0
        assert main(["run", str(cfg_b)]) == 0
        for name in ("quantiles.csv", "traces.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        # summaries differ only in the echoed output dir
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa["config"]["output_dir"] = sb["config"]["output_dir"] = ""
        assert sa == sb


KRONECKER = """
kind: kronecker
increments: {{family: rademacher}}
weights: {{family: linear}}
ensemble: {{seeds: 5, root_seed: 3, horizon: 2000, tol_zero: 0.05}}
assertions:
  min_fraction_converged_to_zero: 0.8
  alternating_bound: true
output: {{dir: {out}}}
"""

SA_ND = """
kind: sa_nd
problem: {{family: matrix, entries: [[1.0, 1.0], [-1.0, 1.0]]}}
schedule: {{family: inverse_n, c: 1.0}}
noise: {{family: gaussian, sd: 0.1}}
x0: [2.0, 1.0]
envelope: {{m: 1.0, M: 1.4142135623730951, directions: 16, radii: [0.1, 1.0, 10.0]}}
ensemble: {{seeds: 4, root_seed: 5, horizon: 2000, tol_zero: 0.1}}
assertions:
  min_fraction_final_below: {{value: 0.1, fraction: 0.75}}
  envelope_valid: true
  contraction_zero_violations: true
output: {{dir: {out}}}
"""

SA_NONUNIFORM = """
kind: sa_nonuniform
problem: {{family: sqrt_sign}}
schedule: {{family: inverse_n, c: 1.0}}
noise: {{family: gaussian, sd: 0.1}}
x0: 2.0
truncation: {{delta: 0.25, tau: 0.1, kappa: delta}}
regularity: {{c: 1.0, d: 1.0, pairs: [[0.25, 4.0]], grid_per_decade: 500}}
ensemble: {{seeds: 4, root_seed: 9, horizon: 2000, tol_zero: 0.2}}
assertions:
  min_fraction_converged_to_zero: 0.75
  truncated_nonexpansive_all_seeds: true
  truncated_mean_bound_all_seeds: true
  regularity_holds: true
output: {{dir: {out}}}
"""

LS = """
kind: ls
design: {{family: geometric_one}}
beta: [1.0, -0.5]
sigma: 0.01
gweight: {{family: identity}}
partition: {{consistency_tol: 0.05, oscillation_tol: 0.01, dispersion_ratio: 3.0}}
checkpoints: 4
ensemble: {{seeds: 12, root_seed: 21, horizon: 1000}}
assertions:
  max_checkpoint_gap: 1.0e-8
  partition_matches: {{q: 1, classes: [finite_random_limit, consistent]}}
output: {{dir: {out}}}
"""


class TestShortExplicitSchedule:
    """An explicit schedule must cover the horizon, also after --horizon."""

    def config(self, tmp_path, kind, values, horizon):
        if kind == "sa":
            text = SA_TEMPLATE.format(out=tmp_path / "out", traces="false")
        else:
            text = SA_ND.format(out=tmp_path / "out")
        text = text.replace("{family: inverse_n, c: 1.0}", f"{{family: explicit, values: {values}}}")
        text = text.replace("horizon: 500", f"horizon: {horizon}")
        text = text.replace("horizon: 2000", f"horizon: {horizon}")
        return write_config(tmp_path, text)

    @pytest.mark.parametrize("kind", ["sa", "sa_nd"])
    def test_short_schedule_is_a_config_error(self, tmp_path, capsys, kind):
        cfg = self.config(tmp_path, kind, [0.5, 0.25, 0.125], 10)
        assert main(["check", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "schedule.values: 3 step sizes do not cover ensemble.horizon 10" in err
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("kind", ["sa", "sa_nd"])
    def test_horizon_override_is_checked_against_the_schedule(self, tmp_path, capsys, kind):
        cfg = self.config(tmp_path, kind, [0.5, 0.25, 0.125], 3)
        assert main(["check", str(cfg)]) == 0
        assert main(["run", str(cfg), "--horizon", "50"]) == 2
        err = capsys.readouterr().err
        assert "schedule.values: 3 step sizes do not cover ensemble.horizon 50" in err
        assert not (tmp_path / "out").exists()
        assert main(["run", str(cfg), "--horizon", "2"]) in (0, 1)
        assert (tmp_path / "out" / "summary.json").exists()


class TestOtherKindsEndToEnd:
    def test_kronecker(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, KRONECKER.format(out=out))
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["alternating_bound_sup"] <= 1.0

    def test_sa_nd(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SA_ND.format(out=out))
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["envelope"]["declared_valid"] is True

    def test_sa_nd_trace_header(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SA_ND.format(out=out))
        assert main(["run", str(cfg), "--traces", "--horizon", "50"]) == 0
        header = (out / "traces.csv").read_text().splitlines()[0]
        assert header == "seed,n,x_1,x_2,m_1,m_2,eps_1,eps_2,u_flag"

    def test_sa_nonuniform(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SA_NONUNIFORM.format(out=out))
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["regularity"]["holds"] is True
        assert summary["report"]["truncation"]["kappa"] == 0.25

    def test_ls(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, LS.format(out=out))
        assert main(["run", str(cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["report"]["partition"]["q"] == 1
        assert summary["report"]["max_checkpoint_gap"] <= 1e-8

    def test_ls_checkpoints_within_short_horizon(self, tmp_path):
        out = tmp_path / "out"
        text = LS.format(out=out).replace("checkpoints: 4", "checkpoints: 8")
        text = text.replace("design: {family: geometric_one}", "design: {family: rotating}")
        cfg = write_config(tmp_path, text.split("assertions:")[0] + f"output: {{dir: {out}}}\n")
        assert main(["run", str(cfg), "--horizon", "6"]) == 0
        report = json.loads((out / "summary.json").read_text())["report"]
        assert report["checkpoints"] == [1, 2, 3, 4, 5, 6]
        # the dense solves ran: their rounding differs from the recursion's
        assert report["max_checkpoint_gap"] > 0.0

    def test_ls_checkpoint_gap_of_zero_fails_with_exit_1(self, tmp_path, capsys):
        # a negative control: the dense solves round differently from the
        # recursion, so a run that compares them never reads a gap of 0.0
        out = tmp_path / "out"
        text = LS.format(out=out).replace("family: geometric_one", "family: rotating")
        text = text.replace("seeds: 12", "seeds: 4").replace("horizon: 1000", "horizon: 300")
        text = text.split("assertions:")[0] + "assertions:\n  max_checkpoint_gap: 0.0\n"
        text += f"output: {{dir: {out}}}\n"
        assert main(["run", str(write_config(tmp_path, text))]) == 1
        detail = "worst recursive-vs-dense gap 1.68e-14"
        assert f"FAIL max_checkpoint_gap: {detail}" in capsys.readouterr().out.splitlines()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["assertions"] == [
            {"name": "max_checkpoint_gap", "passed": False, "detail": detail}
        ]

    def test_custom_path_check_round_trip(self, tmp_path):
        sa_out = tmp_path / "sa_out"
        sa_cfg = write_config(tmp_path, SA_TEMPLATE.format(out=sa_out, traces="true"), "sa.yaml")
        assert main(["run", str(sa_cfg)]) == 0
        custom = f"""
kind: custom_path_check
input: {{path: {sa_out / 'traces.csv'}}}
checks: {{nonexpansive_alpha: 0.0, zero_state_tol: 1.0e-9, segment_bound: true}}
ensemble: {{seeds: 1, root_seed: 1, horizon: 10, tol_zero: 0.1}}
assertions: {{all_checks_hold: true}}
output: {{dir: {tmp_path / 'custom_out'}}}
"""
        custom_cfg = write_config(tmp_path, custom, "custom.yaml")
        assert main(["run", str(custom_cfg)]) == 0
        summary = json.loads((tmp_path / "custom_out" / "summary.json").read_text())
        assert summary["report"]["paths_checked"] == 4
        assert summary["report"]["all_hold"] is True

    def test_custom_path_check_fails_on_nan_mean(self, tmp_path, capsys):
        sa_out = tmp_path / "sa_out"
        sa_cfg = write_config(tmp_path, SA_TEMPLATE.format(out=sa_out, traces="true"), "sa.yaml")
        assert main(["run", str(sa_cfg)]) == 0
        trace = sa_out / "traces.csv"
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        # seed 1, step 7: the mean column becomes nan
        row = next(r for r in rows[1:] if r[:2] == ["1", "7"])
        row[3] = "nan"
        with open(trace, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        custom = f"""
kind: custom_path_check
input: {{path: {trace}}}
checks: {{nonexpansive_alpha: 0.0, zero_state_tol: 1.0e-9, segment_bound: true}}
ensemble: {{seeds: 1, root_seed: 1, horizon: 10, tol_zero: 0.1}}
assertions: {{all_checks_hold: true}}
output: {{dir: {tmp_path / 'custom_out'}}}
"""
        custom_cfg = write_config(tmp_path, custom, "custom.yaml")
        assert main(["run", str(custom_cfg)]) == 1
        assert "FAIL all_checks_hold" in capsys.readouterr().out
        summary = json.loads((tmp_path / "custom_out" / "summary.json").read_text())
        assert summary["report"]["all_hold"] is False
        seed = summary["report"]["per_seed"]["1"]
        for check in ("nonexpansive", "zero_state", "segment_bound"):
            assert seed[check]["holds"] is False
            assert seed[check]["first_violation"] == 7
        # seed 0 holds; of seed 1's three failing checks, the first in check order
        first = f"seed 1, nonexpansive: {seed['nonexpansive']['detail']}"
        assert summary["assertions"][0]["detail"] == f"4 paths checked; first failure: {first}"
        assert all(summary["report"]["per_seed"][s]["all_hold"] for s in ("0", "2", "3"))


CUSTOM_TEMPLATE = """
kind: custom_path_check
input: {{path: {trace}}}
checks: {{nonexpansive_alpha: 0.0}}
ensemble: {{seeds: 1, root_seed: 1, horizon: 10}}
output: {{dir: {out}}}
"""


def vector_trace(tmp_path: Path) -> Path:
    """The traces.csv of a short p = 3 Robbins-Monro run."""
    traced = tmp_path / "traced"
    argv = ["run", str(CONFIGS / "multivariate.yaml"), "--seeds", "2", "--horizon", "50"]
    assert main(argv + ["--out", str(traced), "--traces"]) in (0, 1)
    trace = traced / "traces.csv"
    assert trace.read_text().startswith("seed,n,x_1,x_2,x_3,m_1,m_2,m_3,")
    return trace


class TestVectorTrace:
    """A trace of p > 1 components into a custom_path_check."""

    def test_mean_scaled_up_fails_at_its_step(self, tmp_path, capsys):
        trace = vector_trace(tmp_path)
        text = CUSTOM_TEMPLATE.format(trace=trace, out=tmp_path / "out")
        text = text.replace("0.0}", "0.0, crossings: false}") + "assertions: {all_checks_hold: true}\n"
        cfg = write_config(tmp_path, text)
        assert main(["run", str(cfg)]) == 0
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        row = next(r for r in rows[1:] if r[:2] == ["1", "7"])  # seed 1, step 7
        row[5:8] = [repr(10.0 * float(m)) for m in row[5:8]]
        with open(trace, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 1
        assert "FAIL all_checks_hold: 2 paths checked; first failure: seed 1, nonexpansive" in (
            capsys.readouterr().out
        )
        per_seed = json.loads((tmp_path / "out" / "summary.json").read_text())["report"]["per_seed"]
        assert per_seed["0"]["all_hold"] is True
        assert per_seed["1"]["nonexpansive"]["first_violation"] == 7

    @pytest.mark.parametrize(
        "checks, name",
        [
            ("{nonexpansive_alpha: 0.0}", "crossings"),  # on by default
            ("{crossings: false, segment_bound: true}", "segment_bound"),
        ],
        ids=["crossings", "segment_bound"],
    )
    def test_scalar_only_check_exit_2(self, tmp_path, capsys, checks, name):
        text = CUSTOM_TEMPLATE.format(trace=vector_trace(tmp_path), out=tmp_path / "out")
        cfg = write_config(tmp_path, text.replace("{nonexpansive_alpha: 0.0}", checks))
        assert main(["run", str(cfg)]) == 2
        message = f"checks.{name} needs a scalar trace; set it to false for this one"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()


class TestUnusableTraceInput:
    def test_missing_trace_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        cfg = write_config(tmp_path, CUSTOM_TEMPLATE.format(trace=missing, out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unusable trace file:" in err
        assert str(missing) in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,0,1.0,,,\n0,1,0.5\n", "line 3: expected 6 fields, got 3"),
            ("0,0,1.0,,,\n0,1,0.5,0.5,0.0,0,7\n", "line 3: expected 6 fields, got 7"),
            ("0,0,1.0,,,\n0,1,half,0.5,0.0,0\n", "line 3: could not convert string to float: 'half'"),
            ("", "trace file has no data rows"),
            ("\n\n", "trace file has no data rows"),
            (
                "0,0,1.0,,,\n0,1.5,0.5,0.5,0.0,0\n",
                "line 3: invalid literal for int() with base 10: '1.5'",
            ),
            ("0,0,1.0,,,\n0,1,0.5,,0.0,0\n", "seed 0: missing mean at step 1"),
            (
                "0,0,1.0,,,\n0,2,0.5,0.5,0.0,0\n",
                "seed 0: trace rows must cover n = 0..horizon contiguously",
            ),
            (
                "0,0,1.0,,,\n0,1,0.5,0.5,0.0,0\n0,1,9.0,0.5,8.5,0\n",
                "seed 0: duplicate rows for step 1",
            ),
        ],
        ids=[
            "short-row",
            "long-row",
            "non-numeric",
            "header-only",
            "blank-only",
            "non-integer-step",
            "missing-mean",
            "gap-in-n",
            "duplicate-step",
        ],
    )
    def test_malformed_trace_exit_2(self, tmp_path, capsys, rows, message):
        trace = tmp_path / "traces.csv"
        trace.write_text("seed,n,x,m,eps,u_flag\n" + rows)
        cfg = write_config(tmp_path, CUSTOM_TEMPLATE.format(trace=trace, out=tmp_path / "out"))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"unusable trace file: {message}" in err
        assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("kind", ["sa", "ls"])
def test_run_does_not_import_scipy(tmp_path, kind):
    import subprocess
    import sys

    if kind == "sa":
        cfg = CONFIGS / "sa_convergence.yaml"
    else:  # the design checks read the sqrt_log weight's tail
        cfg = write_config(tmp_path, LS.format(out=tmp_path / "out").replace("identity", "sqrt_log"))
    script = (
        "import sys\n"
        "from contractlab import integral_bound\n"
        "from contractlab.cli import main\n"
        f"code = main(['run', {str(cfg)!r}, '--seeds', '2',"
        f" '--horizon', '200', '--out', {str(tmp_path / 'out')!r}])\n"
        "integral_bound([1.0, 1.0], lambda x: x * x, 1.0)\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] in ("0 False", "1 False")


ERRORED_SEEDS = {
    # kind -> (document, {solver: position of its seeds}, assertions that must fail)
    "sa": (
        """
kind: sa
problem: {family: linear, slope: 1.0}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 2.0
ensemble: {seeds: 20, root_seed: 11, horizon: 2000}
assertions:
  min_fraction_final_below: {value: 0.05, fraction: 0.95}
  max_median_final_abs: 0.01
""",
        {"rm_solve_block": 5},
        ["min_fraction_final_below", "max_median_final_abs"],
    ),
    "ls": (
        """
kind: ls
design: {family: rotating, jitter: 0.1}
beta: [1.0, -0.5]
sigma: 0.1
gweight: {family: identity}
ensemble: {seeds: 20, root_seed: 7, horizon: 1000}
assertions:
  min_fraction_final_error_below: {value: 0.1, fraction: 0.95}
  design_conditions_hold: true
""",
        {"simulate_ls_runs": 2},
        ["min_fraction_final_error_below", "design_conditions_hold"],
    ),
}


@pytest.mark.parametrize("kind", sorted(ERRORED_SEEDS))
def test_final_value_assertions_count_errored_seeds(kind, tmp_path, monkeypatch):
    """15 of 20 seeds raise: the 5 that finish cannot carry a 95% fraction or a median."""
    from contractlab import experiments

    text, solvers, names = ERRORED_SEEDS[kind]
    for name, at in solvers.items():
        solve = getattr(experiments, name)

        def failing(*args, solve=solve, at=at):
            if any(s.spawn_key[0] < 15 for s in args[at]):
                raise RuntimeError("injected")
            return solve(*args)

        monkeypatch.setattr(experiments, name, failing)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, text + f"output: {{dir: {out}}}\n")
    assert main(["run", str(cfg)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    notes = [seed["note"] for seed in summary["ensemble"]["per_seed"]]
    assert notes == ["RuntimeError: injected"] * 15 + [""] * 5
    results = {a["name"]: a for a in summary["assertions"]}
    assert sorted(results) == sorted(names)
    assert not any(a["passed"] for a in results.values()), results


def test_ls_huge_responses_error_each_seed_at_its_step(tmp_path):
    """Responses near the largest float overflow the score: each seed errors
    with the step it overflowed at, and numpy prints no warning first."""
    import re
    import subprocess
    import sys

    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        LS.format(out=out)
        .replace("geometric_one", "rotating")
        .replace("beta: [1.0, -0.5]", "beta: [1.0e+308, 1.0e+308]"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "contractlab", "run", str(cfg), "--seeds", "3", "--horizon", "200"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
    per_seed = json.loads((out / "summary.json").read_text())["ensemble"]["per_seed"]
    notes = [seed["note"] for seed in per_seed]
    assert len(notes) == 3
    assert all(re.fullmatch(r"ValueError: non-finite score at step \d+, .*", n) for n in notes), notes


def test_zero_valued_assertions_are_evaluated(tmp_path):
    """0 is a limit, not false: both assertions are evaluated and listed."""
    out = tmp_path / "out"
    text = SA_TEMPLATE.format(out=out, traces="false").replace(
        "  min_fraction_converged_to_zero: 0.75\n  envelope_valid: true\n"
        "  sandwich_zero_violations: true\n",
        "  max_median_final_abs: 0\n  min_fraction_converged_to_zero: 0\n",
    )
    assert main(["run", str(write_config(tmp_path, text))]) == 1
    results = json.loads((out / "summary.json").read_text())["assertions"]
    assert [(a["name"], a["passed"]) for a in results] == [
        ("min_fraction_converged_to_zero", True),
        ("max_median_final_abs", False),
    ]


EVERY_ASSERTION = {
    # kind -> a document that sets every assertion the kind allows, one flag to false
    "sa": """
kind: sa
problem: {family: linear, slope: 1.0}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 2.0
envelope: {m: 1.0, M: 1.0, grid_min_abs: 1.0e-3, grid_max_abs: 10.0, grid_per_decade: 10}
assertions:
  sandwich_zero_violations: true
  envelope_valid: false
  min_fraction_final_below: {value: 0.1, fraction: 0.5}
  max_median_final_abs: 0.1
  min_fraction_converged_to_zero: 0.5
""",
    "sa_nd": """
kind: sa_nd
problem: {family: matrix, entries: [[1.0, 1.0], [-1.0, 1.0]]}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: [2.0, 1.0]
envelope: {m: 1.0, M: 1.4142135623730951, directions: 4, radii: [0.1, 1.0]}
assertions:
  contraction_zero_violations: true
  envelope_valid: false
  min_fraction_final_below: {value: 0.1, fraction: 0.5}
  min_fraction_converged_to_zero: 0.5
""",
    "sa_nonuniform": """
kind: sa_nonuniform
problem: {family: sqrt_sign}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 2.0
truncation: {delta: 0.25, tau: 0.1, kappa: delta}
regularity: {c: 1.0, d: 1.0, pairs: [[0.25, 4.0]], grid_per_decade: 10}
assertions:
  regularity_holds: true
  truncated_mean_bound_all_seeds: false
  truncated_nonexpansive_all_seeds: true
  min_fraction_final_below: {value: 0.1, fraction: 0.5}
  min_fraction_converged_to_zero: 0.5
""",
    "kronecker": """
kind: kronecker
increments: {family: rademacher}
weights: {family: linear}
assertions:
  alternating_bound: false
  min_fraction_final_below: {value: 0.1, fraction: 0.5}
  min_fraction_converged_to_zero: 0.5
""",
    "ls": """
kind: ls
design: {family: geometric_one}
beta: [1.0, -0.5]
sigma: 0.01
checkpoints: 2
assertions:
  design_conditions_hold: false
  partition_matches: {q: 1}
  max_checkpoint_gap: 1.0e-8
  min_fraction_final_error_below: {value: 0.1, fraction: 0.5}
""",
    "custom_path_check": """
kind: custom_path_check
input: {path: trace.csv}
checks: {nonexpansive_alpha: 0.0}
assertions:
  all_checks_hold: true
""",
}


@pytest.mark.parametrize("kind", sorted(EVERY_ASSERTION))
def test_assertions_are_reported_in_table_order(kind, tmp_path, monkeypatch):
    """Every assertion a document sets, and no flag it sets to false, is reported,
    in the order of its kind's table whatever the document's order."""
    import yaml

    from contractlab.config import KINDS

    monkeypatch.chdir(tmp_path)
    Path("trace.csv").write_text("seed,n,x,m,eps,u_flag\n0,0,1.0,,,\n0,1,0.5,0.5,0.0,0\n")
    text = EVERY_ASSERTION[kind]
    cfg = write_config(
        tmp_path, text + "ensemble: {seeds: 3, root_seed: 1, horizon: 50}\noutput: {dir: out}\n"
    )
    assert main(["run", str(cfg)]) in (0, 1)
    summary = json.loads(Path("out/summary.json").read_text())
    assertions = yaml.safe_load(text)["assertions"]
    assert set(KINDS[kind].assertions) == set(assertions)
    expected = [name for name in KINDS[kind].assertions if assertions[name] is not False]
    assert [a["name"] for a in summary["assertions"]] == expected


def test_a_set_assertion_without_an_outcome_raises():
    from contractlab.config import parse_config_text
    from contractlab.experiments import _evaluate

    text = EVERY_ASSERTION["kronecker"] + "ensemble: {seeds: 1, root_seed: 1, horizon: 5}\n"
    config = parse_config_text(text + "output: {dir: out}\n")
    outcomes = {"min_fraction_converged_to_zero": (True, "")}
    with pytest.raises(KeyError, match="min_fraction_final_below"):
        _evaluate(config, outcomes)


# kind -> a document that breaks the hypothesis behind every assertion it
# sets, and the FAIL detail of each: a verdict that cannot come out false
# certifies nothing.  Run at 4 seeds x 300 steps with tol_zero 1e-12.
NEGATIVE_CONTROLS = {
    "sa": (
        """
kind: sa
problem: {family: linear, slope: 1.0}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 2.0
envelope: {m: 1.5, M: 2.0, grid_min_abs: 1.0e-3, grid_max_abs: 10.0, grid_per_decade: 10}
assertions:
  min_fraction_converged_to_zero: 1.0
  max_median_final_abs: 1.0e-12
  min_fraction_final_below: {value: 1.0e-12, fraction: 1.0}
  envelope_valid: true
  sandwich_zero_violations: true
""",
        {
            "min_fraction_converged_to_zero": "fraction 0.0000, required 1.0000",
            "max_median_final_abs": "median |final| 0.00236664, limit 1e-12",
            "min_fraction_final_below": "fraction 0.0000 below 1e-12, required 1.0",
            "envelope_valid": "grid ratios in [1, 1], declared [1.5, 2]",
            "sandwich_zero_violations": "4 seeds fail (first: seed 0)",
        },
    ),
    "sa_nd": (  # M below the grid's norm ratio sqrt(2)
        """
kind: sa_nd
problem: {family: matrix, entries: [[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: [2.0, -1.0, 1.5]
envelope: {m: 1.0, M: 1.2, directions: 64, radii: [0.01, 0.1, 1.0, 10.0]}
assertions:
  min_fraction_converged_to_zero: 1.0
  min_fraction_final_below: {value: 1.0e-12, fraction: 1.0}
  envelope_valid: true
  contraction_zero_violations: true
""",
        {
            "min_fraction_converged_to_zero": "fraction 0.0000, required 1.0000",
            "min_fraction_final_below": "fraction 0.0000 below 1e-12, required 1.0",
            "envelope_valid": "grid gives [1, 1.41418]",
            "contraction_zero_violations": "4 seeds fail (first: seed 0)",
        },
    ),
    "sa_nonuniform": (  # residuals never settle below tau; growth bounds the map exceeds
        """
kind: sa_nonuniform
problem: {family: sqrt_sign}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 2.0
truncation: {delta: 0.25, tau: 1.0e-9, kappa: delta}
regularity: {c: 0.1, d: 0.1, pairs: [[0.25, 4.0]], grid_per_decade: 1000}
assertions:
  min_fraction_converged_to_zero: 1.0
  min_fraction_final_below: {value: 1.0e-12, fraction: 1.0}
  truncated_nonexpansive_all_seeds: true
  truncated_mean_bound_all_seeds: true
  regularity_holds: true
""",
        {
            "min_fraction_converged_to_zero": "fraction 0.0000, required 1.0000",
            "min_fraction_final_below": "fraction 0.0000 below 1e-12, required 1.0",
            "truncated_nonexpansive_all_seeds": "4 seeds fail (first: seed 0)",
            "truncated_mean_bound_all_seeds": "4 seeds fail (first: seed 0)",
            "regularity_holds": (
                "growth |g(x)| <= 0.1 + 0.1|x| fails at x = -10: g(x) = -3.16228; "
                "inf|g| on [0.25,4] = 0.50038"
            ),
        },
    ),
    "kronecker": (
        """
kind: kronecker
increments: {family: rademacher}
weights: {family: linear}
assertions:
  min_fraction_converged_to_zero: 1.0
  min_fraction_final_below: {value: 1.0e-12, fraction: 1.0}
""",
        {
            "min_fraction_converged_to_zero": "fraction 0.0000, required 1.0000",
            "min_fraction_final_below": "fraction 0.0000 below 1e-12, required 1.0",
        },
    ),
    "ls": (  # geometric_one: bounded first-column energy, so q = 1
        """
kind: ls
design: {family: geometric_one}
beta: [1.0, -0.5]
sigma: 0.01
checkpoints: 4
assertions:
  min_fraction_final_error_below: {value: 1.0e-12, fraction: 1.0}
  max_checkpoint_gap: 0.0
  partition_matches: {q: 0}
  design_conditions_hold: true
""",
        {
            "min_fraction_final_error_below": "fraction 0.0000 below 1e-12, required 1.0",
            "max_checkpoint_gap": "worst recursive-vs-dense gap 1.78e-15",
            "partition_matches": "q = 1 (want 0)",
            "design_conditions_hold": "fraction of seeds holding: 0.0",
        },
    ),
    "custom_path_check": (  # a path that doubles: not nonexpansive
        """
kind: custom_path_check
input: {path: trace.csv}
checks: {nonexpansive_alpha: 0.0}
assertions:
  all_checks_hold: true
""",
        {
            "all_checks_hold": (
                "1 paths checked; first failure: seed 0, nonexpansive: "
                "ratio 2 outside bounds at step 1"
            )
        },
    ),
}
# _run_kronecker builds this path from (-1)^n and the weights 1..n alone
CANNOT_FAIL = {("kronecker", "alternating_bound")}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_assertion_has_a_negative_control(kind):
    _, details = NEGATIVE_CONTROLS.get(kind, ("", {}))
    assertions = {name for name in KINDS[kind].assertions if (kind, name) not in CANNOT_FAIL}
    assert set(details) == assertions


@pytest.mark.parametrize("kind", sorted(NEGATIVE_CONTROLS))
def test_negative_control_fails_with_exit_1(kind, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("trace.csv").write_text("seed,n,x,m,eps,u_flag\n0,0,1.0,,,\n0,1,2.0,2.0,0.0,0\n")
    text, details = NEGATIVE_CONTROLS[kind]
    ensemble = "ensemble: {seeds: 4, root_seed: 1, horizon: 300, tol_zero: 1.0e-12}\n"
    assert main(["run", str(write_config(tmp_path, text + ensemble + "output: {dir: out}\n"))]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [f"FAIL {name}: {detail}" for name, detail in details.items()] == [
        line for line in lines if line.startswith(("PASS", "FAIL"))
    ]
    summary = json.loads(Path("out/summary.json").read_text())
    assert {a["name"]: (a["passed"], a["detail"]) for a in summary["assertions"]} == {
        name: (False, detail) for name, detail in details.items()
    }
