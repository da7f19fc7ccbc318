"""The benchmark tracer (``perfbench/tracer.py``) still finds the harness hooks it wraps.

The tracer replaces ``run_ensemble`` in ``contractlab.experiments`` with a
wrapper around its first positional argument, the ensemble solver, and
``harness._reduce_one`` with a span per seed.  These tests install it in
process, run one small ``sa`` and one small ``ls`` document, and read the
spans it recorded.
"""
from __future__ import annotations

import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

from contractlab import cli, experiments, harness

ROOT = Path(__file__).resolve().parent.parent

DOCUMENTS = {
    # kind -> (document, seeds, the solver call that runs inside the ensemble solver)
    "sa": (
        """
kind: sa
problem: {{family: sine_perturbed, slope: 1.0, amplitude: 0.3, root: 0.5}}
schedule: {{family: inverse_n, c: 1.0}}
noise: {{family: gaussian, sd: 0.1}}
x0: 2.0
ensemble: {{seeds: 20, root_seed: 3, horizon: 300}}
output: {{dir: {out}}}
""",
        20,
        "approximation.rm_fold",
    ),
    "ls": (
        """
kind: ls
design: {{family: rotating, jitter: 0.1}}
beta: [1.0, -0.5]
sigma: 0.1
gweight: {{family: identity}}
ensemble: {{seeds: 4, root_seed: 7, horizon: 200}}
output: {{dir: {out}}}
""",
        4,
        "least_squares.ls_fold",
    ),
}


@pytest.fixture
def tracer(monkeypatch):
    """An installed ``Tracer``; every function it replaces is put back after the test."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    module = importlib.import_module("tracer")
    for owner in (cli, experiments, harness):
        for name, value in list(vars(owner).items()):
            if inspect.isfunction(value):
                monkeypatch.setattr(owner, name, value)
    installed = module.Tracer(run_id=0)
    installed.install(cli, experiments, harness)
    return installed


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_tracer_spans_the_ensemble_and_each_seed(kind, tracer, tmp_path):
    text, seeds, solver = DOCUMENTS[kind]
    cfg = tmp_path / f"{kind}.yaml"
    cfg.write_text(text.format(out=tmp_path / "out"))
    assert cli.main(["run", str(cfg)]) == 0

    by_id = {span[0]: span for span in tracer.spans}
    names = Counter(span[1] for span in tracer.spans)
    assert names["harness.run_ensemble"] == 1
    assert names["harness.reduce_one"] == seeds
    assert names["harness.factory"] == 1  # every seed in one solver call
    (ensemble,) = (s[0] for s in tracer.spans if s[1] == "harness.run_ensemble")
    for span in tracer.spans:
        if span[1] in ("harness.reduce_one", "harness.factory"):
            assert span[4] == ensemble
        if span[1] == solver:
            assert by_id[span[4]][1] == "harness.factory"
    assert names[solver] == 1
    assert names["config.parse_config_file"] == 1
