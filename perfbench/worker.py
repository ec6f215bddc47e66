"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --result FILE
                                [--trace] [--setup-only]

Times ``import shadowrds`` plus the first ``builtin_scenarios()`` (set-up),
then builds every case (untimed), runs the cases back to back (run time),
then checks each result.  A case whose build, run or check raises counts as
failed; the round goes on.  With ``--trace`` the public functions of every
module are wrapped in spans before set-up, and the span file and per-layer
metrics are written next to the result.  The result is a JSON file, so anything the
program prints on stdout cannot corrupt it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _last_line() -> str:
    """The last line of the exception being handled, e.g. ``ValueError: ...``."""
    return traceback.format_exc().strip().splitlines()[-1]


def _measure_setup(tracer):
    start = time.perf_counter()
    import shadowrds

    if tracer is not None:
        tracer.install()
        tracer.active = True
    shadowrds.builtin_scenarios()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    setup_s = _measure_setup(tracer)
    import shadowrds

    expected = ROOT / "src" / "shadowrds"
    if Path(shadowrds.__file__).resolve().parent != expected:
        print(f"imported {shadowrds.__file__}, expected {expected}", file=sys.stderr)
        return 2
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    import numpy
    from workloads import ConfigCase, build_cases

    out_dir = args.result.with_suffix(".out")
    shutil.rmtree(out_dir, ignore_errors=True)
    cases = []
    for name, make in build_cases(args.workload, args.seed, ROOT, out_dir):
        try:
            cases.append((name, make(), None))
        except Exception:
            cases.append((name, None, f"build raised: {_last_line()}"))

    outcomes = []
    run_start = time.perf_counter()
    for name, case, build_error in cases:
        if build_error is not None:
            outcomes.append((None, build_error, 0.0))
            continue
        if tracer is not None:
            tracer.begin_case(name)
            tracer.active = True
        value = error = None
        t0 = time.perf_counter()
        try:
            value = case.run()
        except Exception:
            error = f"raised: {_last_line()}"
        finally:
            if tracer is not None:
                tracer.active = False
        outcomes.append((value, error, time.perf_counter() - t0))
    run_s = time.perf_counter() - run_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    output_bytes = 0
    reports = []
    for (name, case, _), (value, error, seconds) in zip(cases, outcomes):
        if error is not None:
            problems, blob = [error], b""
        else:
            try:
                problems, blob = case.verify(value)
            except Exception:
                problems, blob = [f"check raised: {_last_line()}"], b""
        if isinstance(case, ConfigCase):
            output_bytes += case.output_bytes()
        digest.update(name.encode() + b"\0" + hashlib.sha256(blob).digest())
        reports.append({"name": name, "seconds": seconds, "problems": problems})
    shutil.rmtree(out_dir, ignore_errors=True)

    result.update(
        run_s=run_s,
        peak_rss_mb=peak_rss_mb,
        cases=reports,
        digest=digest.hexdigest(),
        output_bytes=output_bytes,
        versions=f"python {sys.version.split()[0]}, numpy {numpy.__version__}",
    )
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["experiments.output_bytes"] = output_bytes
        result["metrics"] = metrics
        span_file = args.result.with_suffix(".spans.npz")
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["spans"] = len(tracer.start)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
