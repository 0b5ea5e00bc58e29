"""Rebuild pool.json: choose the verify-oracle machines and record the
digest of every pool member's CLI output.

Run from the repository root, at the commit whose output is the
reference (the recorded digests then define "correct output" for every
later run of the benchmark):

    python3 perfbench/build_pool.py

Every recorded output must first pass the independent checks in
`checks.py`; the script stops if one does not.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

ORACLE_VARIANTS = 8


def pick_oracle_machines() -> dict[str, list[int]]:
    picks = {}
    for cell in workloads.ORACLE_CELLS:
        found, j = [], 0
        while len(found) < ORACLE_VARIANTS:
            if workloads.oracle_selects(cell, workloads.oracle_candidate(cell, j)):
                found.append(j)
            j += 1
        picks[cell] = found
    return picks


def record(workload, main) -> dict[str, str]:
    members = workload.members()
    work = run.ROOT / workloads.WORK_DIR / workload.name
    work.mkdir(parents=True, exist_ok=True)
    for key, machine in members.items():
        (run.ROOT / workload.path(key)).write_text(workloads.aut_text(machine))
    digests = {}
    for op in workload.pool_ops(members):
        result = run.run_op(main, op)
        problems = [] if result.code == 0 else [f"{op.key}: exit {result.code} {result.error}"]
        problems += checks.check(op, result.stdout)[0]
        if problems:
            sys.exit("\n".join(problems))
        digests[op.key] = result.digest
    return digests


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    run.os.chdir(run.ROOT)
    from dfao.cli import main as cli_main

    pool = {"verify-oracle": pick_oracle_machines(), "digests": {}}
    try:
        for cls in (workloads.AnalyzeRandom, workloads.AnalyzeChain, workloads.VerifyOracle):
            pool["digests"][cls.name] = record(cls(0, pool), cli_main)
            print(f"{cls.name}: {len(pool['digests'][cls.name])} outputs recorded")
    finally:
        shutil.rmtree(run.ROOT / workloads.WORK_DIR, ignore_errors=True)
    workloads.POOL_FILE.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
