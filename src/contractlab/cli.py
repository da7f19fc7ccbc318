"""Command-line entry point: validate configs and run experiments.

Exit codes: 0 all configured assertions pass, 1 at least one assertion fails,
2 configuration or environment failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from .config import ConfigError, ExperimentConfig, parse_config_file
from .experiments import run_experiment

__all__ = ["main"]


def _load(path: str, ensemble_overrides: Dict[str, int]) -> Optional[ExperimentConfig]:
    try:
        return parse_config_file(path, ensemble_overrides)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not UTF-8
        print(f"cannot read config file {path}: {exc}", file=sys.stderr)
    except ConfigError as exc:
        print(f"invalid config ({len(exc.errors)} error(s)):", file=sys.stderr)
        for line in exc.errors:
            print(f"  - {line}", file=sys.stderr)
    return None


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> None:
    if args.out is not None:
        config.output_dir = args.out
    if args.traces:
        config.traces = True


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="Run seeded convergence experiments for contractive adapted processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a YAML config")
    run_p.add_argument("config", help="path to the YAML config")
    run_p.add_argument("--seeds", type=int, default=None, help="override ensemble.seeds")
    run_p.add_argument("--horizon", type=int, default=None, help="override ensemble.horizon")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument(
        "--traces", action="store_true", help="emit the per-step trace CSV (traces.csv)"
    )

    check_p = sub.add_parser("check", help="validate a config without running it")
    check_p.add_argument("config", help="path to the YAML config")

    args = parser.parse_args(argv)
    # --seeds and --horizon replace ensemble keys before the document is validated
    overrides = {key: getattr(args, key, None) for key in ("seeds", "horizon")}
    config = _load(args.config, {k: v for k, v in overrides.items() if v is not None})
    if config is None:
        return 2

    if args.command == "check":
        print(f"config OK: kind={config.kind}")
        for warning in config.warnings:
            print(f"warning: {warning}")
        return 0

    _apply_overrides(config, args)
    outcome = run_experiment(config)
    if outcome.exit_code == 2:
        print(outcome.summary.get("error", "environment failure"), file=sys.stderr)
        return 2

    for warning in config.warnings:
        print(f"warning: {warning}")
    for result in outcome.assertions:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    if outcome.exit_code == 1:
        print(
            "failed assertions: " + ", ".join(outcome.failed_assertions), file=sys.stderr
        )
    out_dir = Path(config.output_dir)
    print(f"artifacts written to {out_dir}")
    return outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
