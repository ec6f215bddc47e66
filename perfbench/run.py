"""Benchmark runner: one named workload from one seed, closed loop, one client.

    python3 perfbench/run.py --workload {shadow-long,exponents,suite}
                             --seed N --seconds S --trace {0,1}

Each round runs the whole workload in a fresh interpreter
(``perfbench/worker.py``), one case at a time, with BLAS pinned to one
thread.  At least two rounds run, and more while another one fits in
``--seconds``.

--trace 0 reports the end-to-end metrics: the median set-up time over two
fresh interpreters per round (the round's own and a set-up-only one run
after it), the median round run time, and the median peak RSS.  --trace 1
alternates traced and untraced rounds and reports the per-layer metrics of
the traced ones plus the tracing overhead (traced minus untraced run time);
the traced output digest must equal the untraced one.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artefacts
(span files, a full report) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2
# Every run must end well inside 180 s, the first round included.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, crashed worker)."""


def _worker_env() -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("PYTHONPATH", "SHADOW_RDS_OUT")
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, round_no: int, *, trace: bool, setup_only: bool, started: float):
    result = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-r{round_no}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise BenchmarkError("no time left for another worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchmarkError(
            f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(result.read_text(encoding="utf-8"))


def _rounds(args, setups: list[float], started: float) -> list[dict]:
    """At least MIN_ROUNDS full rounds, more while another one fits in --seconds.

    Under --trace 1 traced and untraced rounds alternate.  Under --trace 0
    each round's set-up time goes to ``setups``, followed by one set-up-only
    sample, so the set-up samples spread over the whole run.
    """
    plan = [True, False] if args.trace else [False]
    rounds: list[dict] = []
    longest = 0.0
    while True:
        for trace in plan:
            t0 = time.perf_counter()
            r = _run_worker(args, len(rounds), trace=trace, setup_only=False,
                            started=started)
            r["traced"] = trace
            rounds.append(r)
            if not args.trace:
                setups.append(r["setup_s"])
                setups.append(_run_worker(args, 100 + len(rounds), trace=False,
                                          setup_only=True, started=started)["setup_s"])
            longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + len(plan) * longest > args.seconds:
            return rounds


def _case_failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    lines = []
    for i, r in enumerate(rounds):
        for case in r["cases"]:
            attempted += 1
            if case["problems"]:
                failed += 1
                lines.append(f"round {i} {case['name']}: " + "; ".join(case["problems"]))
    return attempted, failed, lines


def _end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def _per_layer(rounds: list[dict], problems: list[str]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    first = traced[0]["metrics"]
    unknown = [n for n in PER_LAYER if n != "trace.overhead_s" and n not in first]
    if unknown:
        problems.append(f"the trace does not produce {unknown}")
    for r in traced[1:]:
        moved = [k for k in EXACT_COUNTS if k in first and r["metrics"].get(k) != first[k]]
        if moved:
            problems.append(f"exact counts differ between traced rounds: {moved}")
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [r["metrics"].get(name, 0) for r in traced]
        out[name] = values[0] if name in EXACT_COUNTS else statistics.median(values)
    out["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced)
        - statistics.median(r["run_s"] for r in plain)
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shadowrds" / "__init__.py").is_file():
        print(f"error: no shadowrds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        setups: list[float] = []
        rounds = _rounds(args, setups, started)
        attempted, failed, problems = _case_failures(rounds)
        digests = {r["digest"] for r in rounds}
        if len(digests) != 1:
            problems.append(f"output digests differ between rounds: {sorted(digests)}")
        if args.trace:
            metrics, units = _per_layer(rounds, problems), PER_LAYER
        else:
            metrics, units = _end_to_end(rounds, setups), END_TO_END
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "setups": setups, "digest": sorted(digests), "problems": problems,
        "metrics": metrics,
    }
    report_path = OUT / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds,"
          f" cases {attempted}, failed {failed}")
    print(f"{rounds[0]['versions']}, nproc {os.cpu_count()}")
    for r in rounds:
        kind = "traced" if r["traced"] else "untraced"
        cases = ", ".join(f"{c['name']} {c['seconds']:.2f}s" for c in r["cases"])
        print(f"  {kind} round: setup {r['setup_s']:.3f}s run {r['run_s']:.3f}s [{cases}]")
    for line in problems:
        print(f"  FAIL {line}")
    print(f"digest {' '.join(sorted(digests))}")
    if args.trace:
        print("no layer waits: one process, one case at a time, no queue")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} failed/attempted")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
