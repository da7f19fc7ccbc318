"""Record the reference outcomes that ``run.py`` checks every repetition against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per seed variant, at the full and the smoke size, and
stores each ``contractlab run``'s exit code, assertion verdicts,
classification fractions and artifact digests in ``reference.json``.  Record
it at a commit whose outputs are known to be right; a later change that
alters outputs on purpose says so when it records it again.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, SEED_VARIANTS, WORKLOADS, run_worker, write_configs


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for size in ("full", "smoke"):
        for workload in names:
            entry = reference.setdefault(size, {}).setdefault(workload, {})
            for variant in range(SEED_VARIANTS):
                argvs, _ = write_configs(workload, variant, size)
                report = run_worker(argvs)
                entry[str(variant)] = [
                    {k: o[k] for k in ("exit_code", "assertions", "fractions", "digests")}
                    for o in report["outcomes"]
                ]
                codes = [o["exit_code"] for o in report["outcomes"]]
                errored = sum(o["errored_seeds"] for o in report["outcomes"])
                print(f"{size} {workload} variant {variant}: exit codes {codes}, errored {errored}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
