import csv
import json
from pathlib import Path

import numpy as np
import pytest

from contractlab.cli import main

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

        def factory(seed_sequence):
            run = simulate_ls_runs(model, 1200, [seed_sequence], 0.2, [400, 800, 1200])[0]
            return run.err_sup, run

        grid = np.unique(np.linspace(0, 1199, 200).astype(int))
        stats = run_ensemble(factory, EnsembleConfig(5, 3, 1200), grid)
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
        assert all(summary["report"]["per_seed"][s]["all_hold"] for s in ("0", "2", "3"))


CUSTOM_TEMPLATE = """
kind: custom_path_check
input: {{path: {trace}}}
checks: {{nonexpansive_alpha: 0.0}}
ensemble: {{seeds: 1, root_seed: 1, horizon: 10}}
output: {{dir: {out}}}
"""


class TestUnusableTraceInput:
    def test_vector_trace_exit_2(self, tmp_path, capsys):
        traced = tmp_path / "traced"
        argv = ["run", str(CONFIGS / "multivariate.yaml"), "--seeds", "2", "--horizon", "50"]
        assert main(argv + ["--out", str(traced), "--traces"]) in (0, 1)
        assert (traced / "traces.csv").read_text().startswith("seed,n,x_1,x_2,x_3,")
        cfg = write_config(
            tmp_path, CUSTOM_TEMPLATE.format(trace=traced / "traces.csv", out=tmp_path / "out")
        )
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "unusable trace file: trace file must carry columns" in err
        assert not (tmp_path / "out" / "summary.json").exists()

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


def test_sa_run_does_not_import_scipy(tmp_path):
    import subprocess
    import sys

    script = (
        "import sys\n"
        "from contractlab.cli import main\n"
        f"code = main(['run', {str(CONFIGS / 'sa_convergence.yaml')!r}, '--seeds', '2',"
        f" '--horizon', '200', '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] in ("0 False", "1 False")
