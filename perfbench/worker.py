"""One repetition of a workload, in a fresh interpreter.

Invoked by ``run.py`` as ``python3 perfbench/worker.py JOB`` with the job as a
JSON object: the checkout root, the ``contractlab`` argument lists to run in
order, whether to trace, the run id and where to write spans.  Prints one JSON
object: set-up times, the wall time of each ``cli.main`` call, peak RSS, what
each call produced (exit code, assertion verdicts, classification fractions,
errored seeds, artifact digests) and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

DIGESTED = ("summary.json", "quantiles.csv", "traces.csv")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _outcome(exit_code: int, out_dir: Path) -> dict:
    """What one ``contractlab run`` left behind, read after the timed region."""
    outcome = {"exit_code": exit_code, "assertions": None, "fractions": None, "errored_seeds": 0}
    summary_path = out_dir / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        outcome["assertions"] = [[a["name"], a["passed"]] for a in summary["assertions"]]
        ensemble = summary.get("ensemble")
        if ensemble is not None:
            outcome["fractions"] = ensemble["fraction_by_class"]
            # run_ensemble folds a factory exception into "inconclusive" with its text in note.
            outcome["errored_seeds"] = sum(1 for v in ensemble["per_seed"] if v["note"])
    outcome["digests"] = {
        name: _sha256(out_dir / name) for name in DIGESTED if (out_dir / name).exists()
    }
    traces = out_dir / "traces.csv"
    if traces.exists():
        with open(traces, "rb") as fh:
            outcome["trace_rows"] = sum(1 for _ in fh) - 1
        outcome["trace_bytes"] = traces.stat().st_size
    return outcome


def pin_to_one_cpu() -> None:
    """Keep the process, and the threads it starts, on one CPU.

    The ensemble's pool threads then hand the GIL over on one CPU instead of
    waking each other across CPUs; on a 2-vCPU VM the cross-CPU hand-over made
    ``sa_scalar`` about a quarter slower and twice as spread.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    job = json.loads(sys.argv[1])
    pin_to_one_cpu()
    root = Path(job["root"])
    src = root / "src"
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import contractlab.cli as cli

    imported = time.perf_counter()
    configs = [cli.parse_config_file(argv[1]) for argv in job["argvs"]]
    parsed = time.perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"contractlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    run = cli.main
    if job["trace"]:
        import contractlab.experiments as experiments
        import contractlab.harness as harness
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer(job["run_id"])
        tracer.install(cli, experiments, harness)
        run = lambda argv: tracer.call(ROOT_SPAN, cli.main, (argv,), {})

    log = io.StringIO()
    walls = []
    exit_codes = []
    for argv in job["argvs"]:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            t0 = time.perf_counter()
            exit_codes.append(run(argv))
            walls.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result = {
        "import_s": imported - start,
        "parse_s": parsed - imported,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": [_outcome(rc, Path(c.output_dir)) for rc, c in zip(exit_codes, configs)],
        "log": log.getvalue(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        from tracer import summarize

        result["trace"] = summarize(tracer.spans)
        tracer.write(Path(job["spans_path"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
