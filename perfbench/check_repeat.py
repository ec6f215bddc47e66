"""The benchmark's own test.

    python3 perfbench/check_repeat.py

For each workload, makes two traced runs at SEED_A and one at SEED_B and
checks that

* every run is correct and every metric listed for the workload in
  ``spec.EXPECTED_NONZERO`` reads non-zero;
* the exact counts and the output digest repeat between the two runs at
  SEED_A;
* the digest and at least one exact count change at SEED_B.

Exits 1 when any check fails, 0 when all pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spec import EXACT_COUNTS, EXPECTED_NONZERO, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_A, SEED_B = 1, 2


def traced_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    report = ROOT / ".perfbench_out" / f"report-{workload}-s{seed}-t1.json"
    full = json.loads(report.read_text(encoding="utf-8"))
    return {
        "correct": last["correct"],
        "metrics": {k: v["value"] for k, v in last["metrics"].items()},
        "digest": full["digest"],
    }


def check_workload(workload: str) -> list[str]:
    first, again, other = (traced_run(workload, s) for s in (SEED_A, SEED_A, SEED_B))
    problems = []
    for label, run in (("first", first), ("repeat", again), ("other seed", other)):
        if not run["correct"]:
            problems.append(f"{label} run is not correct")
        zero = [m for m in EXPECTED_NONZERO[workload] if not run["metrics"].get(m)]
        if zero:
            problems.append(f"{label} run reads zero for {zero}")
    moved = [k for k in EXACT_COUNTS if first["metrics"][k] != again["metrics"][k]]
    if moved:
        problems.append(f"exact counts differ at one seed: {moved}")
    if first["digest"] != again["digest"]:
        problems.append("output digest differs at one seed")
    if first["digest"] == other["digest"]:
        problems.append("output digest does not change with the seed")
    changed = [k for k in EXACT_COUNTS if first["metrics"][k] != other["metrics"][k]]
    print(f"{workload}: counts that change with the seed: {changed or 'none'}")
    if not changed:
        problems.append("no exact count changes with the seed")
    return problems


def main() -> int:
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(workload)
        for line in problems:
            print(f"FAIL {workload}: {line}")
        if not problems:
            print(f"ok {workload}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
