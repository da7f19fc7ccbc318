"""Golden digests: every shipped config, at reduced size, must keep its outputs.

Each case runs ``contractlab run`` on a config from ``configs/`` with smaller
seed and horizon overrides and compares the sha256 of ``summary.json`` (with
the temporary directory replaced by a placeholder) and ``quantiles.csv``
against digests recorded before the pathwise checkers were refactored.  Two
more cases feed a written trace file to a ``custom_path_check``, so the
checker verdicts (margins, first violations and detail strings) are locked
too.  A digest that changes on purpose must be re-recorded and declared.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

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
