"""Golden digests: every shipped config, at reduced size, must keep its outputs.

Each case runs ``contractlab run`` on a config from ``configs/`` with smaller
seed and horizon overrides and compares the sha256 of ``summary.json`` (with
the temporary directory replaced by a placeholder) and ``quantiles.csv``
against digests recorded before the pathwise checkers were refactored.  Run
with ``--traces``, each config's ``traces.csv`` (values and means only) is
locked the same way, and so is the trace of a one-column least-squares design
(a vector path under the scalar header).  Four more cases feed a written
trace file, two scalar and two vector, to a ``custom_path_check``, so the
checker verdicts (margins, first violations and detail strings) are locked
too.  The SA kinds are also locked at a seed count that leaves a partial
block, and an ensemble whose every seed errors is locked with its notes and
its empty quantile curves, and so are documents that reach every assertion
and optional group of the SA kinds.  A digest that changes on purpose must be
re-recorded and declared.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from contractlab import approximation, experiments, reporting
from contractlab.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# config -> (seeds, horizon) overrides
SIZES = {
    "kronecker": (5, 2000),
    "ls_intermediate": (4, 400),
    "ls_sufficiency": (4, 400),
    "multivariate": (4, 2000),
    "sa_convergence": (6, 2000),
    "sa_nonuniform": (6, 2000),
}

# name -> (summary.json sha256, quantiles.csv sha256 or None)
GOLDEN = {
    "kronecker": (
        "45797dba5dcedf590d3793ce793f9196a34dd7323b195be30c583d531927a7ee",
        "ec5c29bb8431658272cfdb8e265d83172ff5eba2a2556c1a151ef8de947f314b",
    ),
    "ls_intermediate": (
        "d5c6fcd4ddf4661afd19d9f7ddf2264b83fdf32458aa79854b8c78467be1cf17",
        "78d0258e854f6b185a01393c3cc1baa5a5f33e2874db9c9e27abd3e10883b644",
    ),
    "ls_sufficiency": (
        "1522532a3e8457553822f3ce0822eebe6422496daf9d7f8b2bac41129d546001",
        "d5d76d3da4c1330d4958fa73dd8a027cc0822efb3e46be784ac07bf9ee8d887d",
    ),
    "multivariate": (
        "92b7f9bea1a5aaa846d6d7c7dc1ec16b2cb741f763f4572063d987bd2ecabff2",
        "f0967a153c01c46ee14cbe9507b6c9f3506d4a85a58380c4619f76f93821d7c0",
    ),
    "sa_convergence": (
        "a107e8c80880752a8da39caad6cc1f2b6abff72e90539d7f03fb195e26547240",
        "07d227c5a74435b269c8130b7fd4a29e12d56bde01fec040975a0322695cf489",
    ),
    "sa_nonuniform": (
        "b4263c35e667efe7b884dc5086d1acfe3699b2a97cf470338b8bb4b23949a33d",
        "e47351b1bfc1fa055b0f3f4c86b9eca3a555d0375d639671163ba061a0616955",
    ),
    "custom_kronecker": ("11f80c8d4949c1b5fad74fb767572fec645a98bba4f01867d9eeff3ff86b1f47", None),
    "custom_sa": ("c2f571aa4f320cfa124546c02cd8b95525f1cf739690ce01138fc2adad178287", None),
    "custom_ls": ("f61089e51ce9b0920a1efce06de013f60b4128fb3b93e2010cd5d531e05926af", None),
    "custom_multivariate": ("a918e2c7efe321c0181510eb04d6005a4bbf44d2f8537dd844cde9d3a8b2e427", None),
}

# name -> traces.csv sha256, run with --traces at the SIZES above
TRACE_GOLDEN = {
    "kronecker": "d4ba5c527513dd7293f9f2385f3caa36254030ee1b705d242401e4b5c90d2dc6",
    "ls_intermediate": "faf4d2d1bbf8eb2dc2e365fdb137428ce863dadf6379236476596eb877cd852a",
    "ls_sufficiency": "485bb50333612c3939e3a4ef308cca1eb619b7e610bfa36944d1668fcbec22cc",
    "multivariate": "cd1ffab70f1ff96bf1ee94d2e1e2e5da77e723dea9fd02b6a23f833fccd31aea",
    "sa_convergence": "c9a20556f60e72e3b76301939d8f20d21fb87999d986a9fcb3e7d19c98d0bfde",
    "sa_nonuniform": "4fa9d0e813a183ad88be360cb26453411f42d965ad00659178d9153d63d183e0",
    "ls_one_column": "d7bbc47b645253a4a489129c5c18a8368c5bd063c463fd51f98a3a24bf732bc0",
}

LS_ONE_COLUMN = """
kind: ls
design: {{family: iid_gaussian, p: 1}}
beta: [0.5]
sigma: 1.0
gweight: {{family: identity}}
checkpoints: 4
ensemble: {{seeds: 4, root_seed: 31, horizon: 400}}
output: {{dir: {out}}}
"""

CUSTOM = """
kind: custom_path_check
input: {{path: {trace}}}
checks: {checks}
ensemble: {{seeds: 1, root_seed: 0, horizon: 1, tol_zero: 0.05}}
assertions: {{all_checks_hold: true}}
output: {{dir: {out}}}
"""

# trace source -> checks run over its paths
CUSTOM_CHECKS = {
    "kronecker": "{nonexpansive_alpha: 0.0, contractive_k: 1.0, divergence_target: 0.0, "
    "zero_state_tol: 1.0e-9, segment_bound: true}",
    "sa_convergence": "{nonexpansive_alpha: 0.0, contractive_k: 0.999, zero_state_tol: 0.0, "
    "segment_bound: true}",
    # vector traces, checked on their row norms: the weighted score process z
    # of a least-squares run and the iterates of a vector Robbins-Monro run;
    # crossings have no vector meaning
    "ls_sufficiency": "{nonexpansive_alpha: 0.0, crossings: false}",
    "multivariate": "{nonexpansive_alpha: 0.0, crossings: false}",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(out: Path, tmp_path: Path):
    summary = (out / "summary.json").read_text().replace(str(tmp_path), "<tmp>")
    quantiles = out / "quantiles.csv"
    return _sha(summary.encode()), _sha(quantiles.read_bytes()) if quantiles.exists() else None


def _run(name: str, out: Path, *extra: str) -> None:
    seeds, horizon = SIZES[name]
    argv = ["run", str(CONFIGS / f"{name}.yaml"), "--seeds", str(seeds)]
    argv += ["--horizon", str(horizon), "--out", str(out), *extra]
    assert main(argv) in (0, 1)


@pytest.mark.parametrize("name", sorted(SIZES))
def test_shipped_config_digests(name, tmp_path):
    out = tmp_path / "out"
    _run(name, out)
    assert _digests(out, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SIZES))
def test_shipped_config_trace_digests(name, tmp_path):
    out = tmp_path / "out"
    _run(name, out, "--traces")
    assert _sha((out / "traces.csv").read_bytes()) == TRACE_GOLDEN[name]


def test_trace_digest_does_not_depend_on_chunk_size(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "TRACE_CHUNK", 7)
    out = tmp_path / "out"
    _run("multivariate", out, "--traces")
    assert _sha((out / "traces.csv").read_bytes()) == TRACE_GOLDEN["multivariate"]


def test_one_column_ls_trace_digest(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "ls.yaml"
    cfg.write_text(LS_ONE_COLUMN.format(out=out))
    assert main(["run", str(cfg), "--traces"]) == 0
    data = (out / "traces.csv").read_bytes()
    assert data.startswith(b"seed,n,x,m\n")
    assert _sha(data) == TRACE_GOLDEN["ls_one_column"]


# config -> (the function in experiments that simulates paths, the paths a call
# with these arguments simulates, paths simulated outside the ensemble: the
# Kronecker run checks one alternating path)
ONE_PATH = lambda args: 1
BLOCK_SEEDS = lambda args: len(args[5])  # rm_solve_block's seeds
SIMULATORS = {
    "kronecker": ("kronecker_path", ONE_PATH, 1),
    "multivariate": ("rm_solve_block", BLOCK_SEEDS, 0),
    "sa_convergence": ("rm_solve_block", BLOCK_SEEDS, 0),
    "sa_nonuniform": ("rm_solve_block", BLOCK_SEEDS, 0),
}


@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_traces_reuse_the_ensemble_paths(name, tmp_path, monkeypatch):
    func, paths_of, extra = SIMULATORS[name]
    paths = []
    simulate = getattr(experiments, func)

    def counted(*args, **kwargs):
        paths.append(paths_of(args))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, func, counted)
    _run(name, tmp_path / "out", "--traces")
    assert sum(paths) == SIZES[name][0] + extra


@pytest.mark.parametrize("name, p", [("sa_convergence", 1), ("multivariate", 3)])
def test_traced_paths_hold_values_and_means_only(name, p, tmp_path, monkeypatch):
    """A traced seed keeps its xs and ms, (2H + 1)·p floats, and nothing derived."""
    written = []

    def write(path, width, paths):
        written.extend(trace for _, trace in paths)

    monkeypatch.setattr(experiments, "write_traces_csv", write)
    _run(name, tmp_path / "out", "--traces")
    horizon = SIZES[name][1]
    assert len(written) == SIZES[name][0]
    for trace in written:
        arrays = {k: v for k, v in vars(trace).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == ["ms", "xs"]
        assert all(a.dtype == np.float64 for a in arrays.values())
        assert trace.xs.size + trace.ms.size == (2 * horizon + 1) * p


@pytest.mark.parametrize("source", sorted(CUSTOM_CHECKS))
def test_custom_path_check_digests(source, tmp_path):
    traced = tmp_path / "traced"
    _run(source, traced, "--traces")
    out = tmp_path / "out"
    cfg = tmp_path / "custom.yaml"
    cfg.write_text(
        CUSTOM.format(trace=traced / "traces.csv", checks=CUSTOM_CHECKS[source], out=out)
    )
    # contractive_k = 0.999 fails on the SA trace; every other case holds
    assert main(["run", str(cfg)]) == (1 if source == "sa_convergence" else 0)
    name = "custom_" + source.split("_")[0]
    assert _digests(out, tmp_path) == GOLDEN[name]


# Seed counts that leave a partial block: the path budget is set to hold 25
# seeds' paths (values and means), so 37 seeds whose whole paths are kept
# (a traced run, or sa_nonuniform's truncation checks) step as blocks of 19
# and 18.  An untraced run of the other kinds folds its checks in one window
# loop over every seed, and where seeds run one at a time the budget does not
# exist and the setting is a no-op.
REMAINDER_P = {"sa_convergence": 1, "sa_nonuniform": 1, "multivariate": 3}
REMAINDER_SEEDS, REMAINDER_HORIZON = 37, 600
REMAINDER_BYTES = {
    name: 25 * 8 * p * (2 * REMAINDER_HORIZON + 1) for name, p in REMAINDER_P.items()
}

# name -> (summary.json, quantiles.csv, traces.csv) sha256
REMAINDER_GOLDEN = {
    "sa_convergence": (
        "bea2aafb415a14282c365ad8800bfe8ebbc7a2fbc854e8cd86193791c0a52a8c",
        "d14431a73873ad2f4678fdadd09d74125ab125f798a354d0afe4d05fd115413a",
        "f07cc3270a370a81a1e72fe39aee69b04f0bd300e14c36442fc2bf3c142f77a3",
    ),
    "sa_nonuniform": (
        "a6b60e40376646f1a70bd8ad3deb6ace5d2875ad13dbd6f7ebedd0bb7d5ae572",
        "ea6a4d7746870d3d3718316e07bd8ba380ec15def5fc118b3b9d4343f025093e",
        "b394233b1fa100be13658a591bf98821a01458d721e2dd50dd6aa8584bd7ad94",
    ),
    "multivariate": (
        "2107b84346cf8f75c2845cf5f6a6db85d8800da72c764a0a7ae57eddbbe3ff86",
        "59a4e28ae289b50b8f70424d4d66cc2ccb1a81e65ccfb7d988e65a3fb45cf9ec",
        "f8d4d112f1f5a3a552fdfa889a53affff3f710a889a004d5574ac411b4471b18",
    ),
}


@pytest.mark.parametrize("name", sorted(REMAINDER_P))
def test_partial_block_digests(name, tmp_path, monkeypatch):
    monkeypatch.setattr(approximation, "BLOCK_BYTES", REMAINDER_BYTES[name], raising=False)
    out = tmp_path / "out"
    argv = ["run", str(CONFIGS / f"{name}.yaml"), "--seeds", str(REMAINDER_SEEDS)]
    argv += ["--horizon", str(REMAINDER_HORIZON), "--out", str(out), "--traces"]
    assert main(argv) in (0, 1)
    digests = _digests(out, tmp_path) + (_sha((out / "traces.csv").read_bytes()),)
    assert digests == REMAINDER_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REMAINDER_P))
def test_partial_blocks_bypass_the_per_seed_solvers(name, tmp_path, monkeypatch):
    monkeypatch.setattr(approximation, "BLOCK_BYTES", REMAINDER_BYTES[name])
    loops, alone = [], []
    step_windows = approximation._step_windows

    def counted(*args):
        loops.append(len(args[-1]))  # the seeds stepped together
        return step_windows(*args)

    monkeypatch.setattr(approximation, "_step_windows", counted)
    monkeypatch.setattr(approximation, "rm_solve", lambda *args: alone.append(args))
    argv = ["run", str(CONFIGS / f"{name}.yaml"), "--seeds", str(REMAINDER_SEEDS)]
    argv += ["--horizon", str(REMAINDER_HORIZON), "--out", str(tmp_path / "out")]
    assert main(argv) in (0, 1)
    assert loops == ([19, 18] if name == "sa_nonuniform" else [REMAINDER_SEEDS])
    assert alone == []


# Documents that reach every branch of the SA runners: each SA kind with every
# assertion it allows (sa_nonuniform also with an envelope, whose sandwich it
# never asserts), and sa and sa_nd without an envelope.  Run at 20 seeds x 600
# steps, so each runs as one block.
SA_BRANCHES = {
    "sa_all": """
kind: sa
problem: {family: sine_perturbed, slope: 1.0, amplitude: 0.3, root: 0.5}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 5.0
envelope: {m: 0.7, M: 1.3, grid_min_abs: 1.0e-3, grid_per_decade: 200}
assertions:
  min_fraction_converged_to_zero: 0.5
  max_median_final_abs: 0.02
  min_fraction_final_below: {value: 0.05, fraction: 0.9}
  envelope_valid: true
  sandwich_zero_violations: true
""",
    "sa_no_envelope": """
kind: sa
problem: {family: linear, slope: 0.8, root: -0.25}
schedule: {family: inverse_n_power, c: 1.0, gamma: 0.8}
noise: {family: uniform, half_width: 0.2}
x0: 3.0
assertions:
  min_fraction_converged_to_zero: 0.5
  max_median_final_abs: 0.02
  min_fraction_final_below: {value: 0.05, fraction: 0.9}
""",
    "sa_nonuniform_all": """
kind: sa_nonuniform
problem: {family: sqrt_sign}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: 2.0
envelope: {m: 0.5, M: 2.0, grid_min_abs: 1.0e-2, grid_per_decade: 200}
truncation: {delta: 0.25, tau: 0.1, kappa: 0.3}
regularity: {c: 1.0, d: 1.0, pairs: [[0.25, 4.0]], grid_per_decade: 200}
assertions:
  min_fraction_converged_to_zero: 0.9
  min_fraction_final_below: {value: 0.1, fraction: 0.9}
  truncated_nonexpansive_all_seeds: true
  truncated_mean_bound_all_seeds: true
  regularity_holds: true
""",
    "sa_nd_all": """
kind: sa_nd
problem: {family: matrix, entries: [[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.1}
x0: [2.0, -1.0, 1.5]
envelope: {m: 1.0, M: 1.4142135623730951, directions: 16}
assertions:
  min_fraction_converged_to_zero: 0.5
  min_fraction_final_below: {value: 0.1, fraction: 0.95}
  envelope_valid: true
  contraction_zero_violations: true
""",
    "sa_nd_no_envelope": """
kind: sa_nd
problem: {family: identity, scale: 0.5}
schedule: {family: inverse_n, c: 1.0}
noise: {family: gaussian, sd: 0.05}
x0: [1.0, -2.0]
assertions:
  min_fraction_converged_to_zero: 0.5
  min_fraction_final_below: {value: 0.1, fraction: 0.95}
""",
}

# name -> (summary.json, quantiles.csv, traces.csv) sha256
SA_BRANCH_GOLDEN = {
    "sa_all": (
        "bcce2a96b4f4620d9e15ba5e8f4da40e32246041da603a75558087e538ad4a43",
        "4e7ce3347434d00d1b61a83307741a84a2fe606ea2a3dcbd0410e1b41f3ce6e3",
        "adface85f09b0a210fd812cb2cb37ca3b14532fde940db44858195ecfd7fee14",
    ),
    "sa_nd_all": (
        "d9d4caffcb14e47f668924e61e6138d0cc827a9e22531b29ce96fbd2e531724f",
        "fbf9e9f33f5a305393ce9d27fb60477d8235fbcc46287441087c66a6f036a594",
        "1354f6f8807504499b9aed2c0217db02372ab13b5f27e7fc1d5e8f7602866371",
    ),
    "sa_nd_no_envelope": (
        "36ccd6b103fb72eb8a33ec8fc5dbb16868de7b9f4d873cb221322bf19b5f1e72",
        "c431fcbb706c6e0261bc271f65919c3f88167e187fb2476af30c3c2f519da50a",
        "c0a32a7f72aeabb13a4b82c65af1f2dc97cfe0a9dd51cb65aa7eb897a10a35b7",
    ),
    "sa_no_envelope": (
        "6fb5068bc5ca76487c63b5b4bff65eae426ac3a14c07db040dd20bbbee8c4e33",
        "d9b95f552976612f50a13a0df4a05865b6761f4dfa1df6e1e1a4cbf7196a6e39",
        "303be0b84c1641377f4b5e21cdc077a78c467993eb4bf3f48881f0a26c8d2f36",
    ),
    "sa_nonuniform_all": (
        "62f234afa48355fcb335bc52ad82da554c489b7150ab613d6303ae8b67bf81e0",
        "95dcb65ad8232b4e66fe85bf86db0cf3b6f7b7f7c821f0e9dcfec7a65330ea01",
        "6cdfc3f5b890a44cccef6ea3142767c4d823d9d178a0130a6ef50e0739176894",
    ),
}


@pytest.mark.parametrize("name", sorted(SA_BRANCHES))
def test_sa_branch_digests(name, tmp_path):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(SA_BRANCHES[name] + "ensemble: {seeds: 20, root_seed: 5, horizon: 600}\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--traces"]) in (0, 1)
    digests = _digests(out, tmp_path) + (_sha((out / "traces.csv").read_bytes()),)
    assert digests == SA_BRANCH_GOLDEN[name]


# The sine map with c = 1e6 overflows on every seed: each seed errors with the
# scalar solver's message, quantiles.csv has every grid step and no quantile,
# and --traces writes the header only.  (summary.json, quantiles.csv,
# traces.csv) sha256
ERRORED_GOLDEN = (
    "ed23be1e055068612b42912873ada9d9f8311e32ac64f18534b38edd52894a46",
    "bc913d2f55ee02d11a19844a031b1b44cd4c9512d2459f421e3593b97e70515f",
    "ab703552922cefed0415aac1849bcada97ec7c9bf019aa94a4d172bac9b817e1",
)


def test_errored_seed_ensemble_digest(tmp_path):
    text = (CONFIGS / "sa_convergence.yaml").read_text().replace("c: 1.0}", "c: 1000000.0}")
    cfg = tmp_path / "errored.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = ["run", str(cfg), "--seeds", "20", "--horizon", "2000", "--out", str(out), "--traces"]
    assert main(argv) == 1
    summary = json.loads((out / "summary.json").read_text())
    notes = [seed["note"] for seed in summary["ensemble"]["per_seed"]]
    assert notes == ["ValueError: math domain error"] * 20
    rows = (out / "quantiles.csv").read_text().splitlines()
    assert rows[0] == "n,q05,q25,q50,q75,q95"
    assert len(rows) == 1 + 200  # one row per grid step, the default curve_points
    assert all(row.split(",")[1:] == [""] * 5 for row in rows[1:])
    digests = _digests(out, tmp_path) + (_sha((out / "traces.csv").read_bytes()),)
    assert digests == ERRORED_GOLDEN
