"""Golden digests: every shipped config, at reduced size, must keep its outputs.

Each case runs ``contractlab run`` on a config from ``configs/`` with smaller
seed and horizon overrides and compares the sha256 of ``summary.json`` (with
the temporary directory replaced by a placeholder) and ``quantiles.csv``
against digests recorded before the pathwise checkers were refactored.  Run
with ``--traces``, each config's ``traces.csv`` is locked the same way, and
so is the trace of a one-column least-squares design (the scalar header with
the vector path's norm-based ``u_flag``).  Four more cases feed a written
trace file, two scalar and two vector, to a ``custom_path_check``, so the
checker verdicts (margins, first violations and detail strings) are locked
too.  The SA kinds are also locked at a seed count that leaves a partial
block, and an ensemble whose every seed errors is locked with its notes, and
so are documents that reach every assertion and optional group of the SA
kinds.  A digest that changes on purpose must be re-recorded and declared.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from contractlab import approximation, experiments, reporting
from contractlab.cli import main
from contractlab.process import ProcessPath
from contractlab.reporting import write_traces_csv

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
        "8dc0e04ffc295ccd54ea098abf5a92a77b2efc0893c903efa1240fe5b8ae4cdf",
        "ec5c29bb8431658272cfdb8e265d83172ff5eba2a2556c1a151ef8de947f314b",
    ),
    "ls_intermediate": (
        "ffac2725ed94af6e6234c2b212357c7ae8682c0a8ef4c49d57894ee680491559",
        "487ba936d9e6b75adb9c0cab6aae9f8a522b24d49db6b04939cbcf2a601fd26c",
    ),
    "ls_sufficiency": (
        "22458f05a54315a09b0542329eb958874a783f8f12967ad01bd88925f20c9307",
        "37c73263cb8702267fe370ca289b1ca74e322c86b6709abc179d3c5a7c2df012",
    ),
    "multivariate": (
        "c8ae5b80d99d4b2cef5ec07c83701ebe95d752ba5146d52961ecdbedc7cc914c",
        "f0967a153c01c46ee14cbe9507b6c9f3506d4a85a58380c4619f76f93821d7c0",
    ),
    "sa_convergence": (
        "a080bc89760a7e7e2ef90e14a49a2a3e7ee6485e47312c17a88624d7469f36ed",
        "07d227c5a74435b269c8130b7fd4a29e12d56bde01fec040975a0322695cf489",
    ),
    "sa_nonuniform": (
        "5cb65202aa44ffb05a45c13550c81442229e69d6470ba75c70733074a5570fef",
        "e47351b1bfc1fa055b0f3f4c86b9eca3a555d0375d639671163ba061a0616955",
    ),
    "custom_kronecker": ("968b9a219848711e2a853b3ed0c997787427e181fd60f3118aeb5320393e5855", None),
    "custom_sa": ("f4aff3ff6342b78401573f9b00aa0e4a4a89d20fd5600b2efcbc382f9b951744", None),
    "custom_ls": ("693df42a63e1083492ffd472a77f4363809ee8fd8dd8c957b12408b24810acb8", None),
    "custom_multivariate": ("e1bb7cd040b599d5a5bdbf89f340c311001415f2a9bd96bcacd5d20a0e4fdc52", None),
}

# name -> traces.csv sha256, run with --traces at the SIZES above
TRACE_GOLDEN = {
    "kronecker": "233a165f4851e2324aa65b9de2f31de5d91946cec8d65d6f95bdd6a49515258a",
    "ls_intermediate": "020890b0b27dce196a0832619837a912a5e031208300188f581fbfe35cac99c7",
    "ls_sufficiency": "ed855873aa4ef90861b2d55cc196d830e2438dd7ea70ed5784a396980ba40204",
    "multivariate": "5fce77613ba40bf9c1d96e39fad1b1d79e38678d55da6a40cab27e20cc2687a6",
    "sa_convergence": "bf727ec9c08ca0f260173f87eb56381a389878212657b157ae2f261959f2042b",
    "sa_nonuniform": "02474e073401e133ece0c62e347a43228043dad566d723dc7206e2b39d70d56d",
    "ls_one_column": "9c6866507630d3d3a91777b5c68389d140970a3c4593f2558805226bf606d3a3",
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
    assert data.startswith(b"seed,n,x,m,eps,u_flag\n")
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


def test_trace_u_flag_follows_path_type(tmp_path):
    # |1e-170| > 0, but the row norm squares it to zero
    xs, ms = np.array([1e-170, 1.0]), np.array([0.5])
    out = tmp_path / "traces.csv"
    paths = [(0, ProcessPath(xs, ms)), (1, ProcessPath(xs[:, None], ms[:, None]))]
    write_traces_csv(out, 1, paths)
    assert out.read_text().splitlines() == [
        "seed,n,x,m,eps,u_flag",
        "0,0,1e-170,,,",
        "0,1,1.0,0.5,0.5,0",
        "1,0,1e-170,,,",
        "1,1,1.0,0.5,0.5,1",
    ]


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


# Seed counts that leave a partial block: the path-array budget is set to hold
# 25 seeds, so 37 seeds step as blocks of 19 and 18.  Where seeds run one at
# a time the budget does not exist and the setting is a no-op.
REMAINDER_P = {"sa_convergence": 1, "sa_nonuniform": 1, "multivariate": 3}
REMAINDER_SEEDS, REMAINDER_HORIZON = 37, 600

# name -> (summary.json, quantiles.csv, traces.csv) sha256
REMAINDER_GOLDEN = {
    "sa_convergence": (
        "035f14c9bcf3a6d6e1a459cb2a9c54889a5343f0cffcfa3d8f461765ac0ef388",
        "d14431a73873ad2f4678fdadd09d74125ab125f798a354d0afe4d05fd115413a",
        "2a30a1b018222ee075ab5b868082ed0feae521d144dda3a5bc21802537e99402",
    ),
    "sa_nonuniform": (
        "ea3cdfb2ba2a92499dde3be19ca16da8008d01c53bb6239c4b3541207345c841",
        "ea6a4d7746870d3d3718316e07bd8ba380ec15def5fc118b3b9d4343f025093e",
        "d289d3be2c92391521eed628aab5de828f0330def4d6c571421790127ac54f69",
    ),
    "multivariate": (
        "b17aeec513bf8fc77fd2078db0e79a32076c339868f7b4d1acaa09dd7020267f",
        "59a4e28ae289b50b8f70424d4d66cc2ccb1a81e65ccfb7d988e65a3fb45cf9ec",
        "e0a0653b7cd8555f756713c3a9657e6566cb3d73f103d3c06bf3ceb96e4809d4",
    ),
}


@pytest.mark.parametrize("name", sorted(REMAINDER_P))
def test_partial_block_digests(name, tmp_path, monkeypatch):
    seed_bytes = 8 * REMAINDER_P[name] * (REMAINDER_HORIZON + 1)
    monkeypatch.setattr(approximation, "BLOCK_BYTES", 25 * seed_bytes, raising=False)
    out = tmp_path / "out"
    argv = ["run", str(CONFIGS / f"{name}.yaml"), "--seeds", str(REMAINDER_SEEDS)]
    argv += ["--horizon", str(REMAINDER_HORIZON), "--out", str(out), "--traces"]
    assert main(argv) in (0, 1)
    digests = _digests(out, tmp_path) + (_sha((out / "traces.csv").read_bytes()),)
    assert digests == REMAINDER_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REMAINDER_P))
def test_partial_blocks_bypass_the_per_seed_solvers(name, tmp_path, monkeypatch):
    seed_bytes = 8 * REMAINDER_P[name] * (REMAINDER_HORIZON + 1)
    monkeypatch.setattr(approximation, "BLOCK_BYTES", 25 * seed_bytes)
    blocks, alone = [], []
    solve_block = experiments.rm_solve_block

    def counted(*args):
        blocks.append(len(args[5]))
        return solve_block(*args)

    monkeypatch.setattr(experiments, "rm_solve_block", counted)
    monkeypatch.setattr(approximation, "rm_solve", lambda *args: alone.append(args))
    argv = ["run", str(CONFIGS / f"{name}.yaml"), "--seeds", str(REMAINDER_SEEDS)]
    argv += ["--horizon", str(REMAINDER_HORIZON), "--out", str(tmp_path / "out")]
    assert main(argv) in (0, 1)
    assert blocks == [19, 18]
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
        "756398209f36f9aa7571437c4874fe43f4343906f56354a80b0c1abf21fb92d0",
        "4e7ce3347434d00d1b61a83307741a84a2fe606ea2a3dcbd0410e1b41f3ce6e3",
        "1ce0c36b064b97430eb4be8909653e40225c7d8841abf09aa765b8a8f843fca9",
    ),
    "sa_nd_all": (
        "a8e0839a785932973435f20b9ad12236d6370f0d0f77e52fd73f8c71e4f06ead",
        "fbf9e9f33f5a305393ce9d27fb60477d8235fbcc46287441087c66a6f036a594",
        "15fc5c723983e7d04b1d45e9de14e26daea940822a12a2abb2a2dcb6d62b403b",
    ),
    "sa_nd_no_envelope": (
        "3598c6f516558d1d993a0c0a5c1e8a6c6f7748e3de083cbde042a1f4d6bb33a8",
        "c431fcbb706c6e0261bc271f65919c3f88167e187fb2476af30c3c2f519da50a",
        "237e41f2a3e01cd666d34f4828d0064067bc9be1c486646973cabc9a8da4f74e",
    ),
    "sa_no_envelope": (
        "648a53d7633389e6d4be12c80a39249a8441d7ac5715a8990f573aa930cc782b",
        "d9b95f552976612f50a13a0df4a05865b6761f4dfa1df6e1e1a4cbf7196a6e39",
        "a8a20d6ea3820cf5864187865b6b3662508620cb0c9389841dfd12047e329f59",
    ),
    "sa_nonuniform_all": (
        "7163a783cda4453d0f6e9759bd3f3b9e60713c3f3875acf8b4004fe7b4c75222",
        "95dcb65ad8232b4e66fe85bf86db0cf3b6f7b7f7c821f0e9dcfec7a65330ea01",
        "98ee19fd58a3640b81d4545ced09ea322835c1bda1e52a3577074a3c87f0fb5f",
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
# scalar solver's message, and --traces writes the header only.
ERRORED_GOLDEN = (
    "340b7e0f298a5807626a9c5342afa49c4cbac146ebad278ddd7cd2cc2e7ec659",
    "3655508fbab9a7da214e00eae1368ce514f0f6131b281e119767958642cbad64",
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
    assert (_digests(out, tmp_path)[0], _sha((out / "traces.csv").read_bytes())) == ERRORED_GOLDEN
