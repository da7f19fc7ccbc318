"""Golden digests: every shipped config, at reduced size, must keep its outputs.

Each case runs ``contractlab run`` on a config from ``configs/`` with smaller
seed and horizon overrides and compares the sha256 of ``summary.json`` (with
the temporary directory replaced by a placeholder) and ``quantiles.csv``
against digests recorded before the pathwise checkers were refactored.  Run
with ``--traces``, each config's ``traces.csv`` is locked the same way, and
so is the trace of a one-column least-squares design (the scalar header with
the vector path's norm-based ``u_flag``).  Two more cases feed a written
trace file to a ``custom_path_check``, so the checker verdicts (margins,
first violations and detail strings) are locked too.  A digest that changes
on purpose must be re-recorded and declared.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from contractlab import experiments, reporting
from contractlab.cli import main
from contractlab.process import ProcessPath, VectorProcessPath
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
        "71556eb6430078e9141a4416f2c9ba726c409bc926dbe7d06fa78b24cb48d969",
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
    "custom_sa": ("7878d770abd6f33fe7da6ea887a92079eee4a01d86c87b9a207b5970874681cb", None),
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


# config -> (the experiments function that simulates one seed's path, calls
# outside the ensemble: the Kronecker run checks one alternating path)
SIMULATORS = {
    "kronecker": ("kronecker_path", 1),
    "multivariate": ("rm_solve_nd", 0),
    "sa_convergence": ("rm_solve", 0),
    "sa_nonuniform": ("rm_solve", 0),
}


@pytest.mark.parametrize("name", sorted(SIMULATORS))
def test_traces_reuse_the_ensemble_paths(name, tmp_path, monkeypatch):
    func, extra = SIMULATORS[name]
    calls = []
    simulate = getattr(experiments, func)

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(experiments, func, counted)
    _run(name, tmp_path / "out", "--traces")
    assert len(calls) == SIZES[name][0] + extra


def test_trace_u_flag_follows_path_type(tmp_path):
    # |1e-170| > 0, but the row norm squares it to zero
    xs, ms = np.array([1e-170, 1.0]), np.array([0.5])
    out = tmp_path / "traces.csv"
    paths = [(0, ProcessPath(xs, ms)), (1, VectorProcessPath(xs[:, None], ms[:, None]))]
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
    assert main(["run", str(cfg)]) in (0, 1)
    name = "custom_" + source.split("_")[0]
    assert _digests(out, tmp_path) == GOLDEN[name]
