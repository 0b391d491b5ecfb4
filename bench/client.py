"""One workload's closed-loop client, run by ``run.py`` in a child process.

It imports ``flateta.cli`` once and calls ``main`` with each op's argv, one
op at a time, capturing the output.  Each op is timed alone; the answer is
checked after its timer stops.  Passes over the op list repeat until
``--seconds`` have elapsed.  With ``--trace 1`` untraced and traced
passes alternate, and the traced ones record spans (see ``tracer.py``).
The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import checker
import tracer
import workloads
from flateta import cli


def call(argv) -> tuple[float, object, str, str]:
    """Run one CLI command in-process: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an answer that crashed is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_pass(ops, verdicts: dict, corrupt=None) -> tuple[float, list[float], list[str]]:
    """One pass over the op list: (summed op time, per-op seconds, one problem per failed op).

    ``verdicts`` memoizes checker results by (argv, exit code, output digest),
    so a repeated query with a byte-identical answer is not parsed again.
    ``corrupt`` rewrites an answer before it is checked; the checker
    self-test uses it to show that wrong answers are caught.
    """
    latencies, problems = [], []
    for argv in ops:
        seconds, code, out, err = call(argv)
        latencies.append(seconds)
        if corrupt is not None:
            out = corrupt(argv, out)
        if not isinstance(code, int):
            problems.append(f"{' '.join(argv)}: raised {code}")
            continue
        key = (tuple(argv), code, hashlib.sha1(out.encode()).digest())
        if key not in verdicts:
            verdicts[key] = checker.check(list(argv), code, out)
        found = verdicts[key]
        if found:
            problems.append("; ".join(found + ([f"stderr: {err.strip()[:200]}"] if err else [])))
    return sum(latencies), latencies, problems


def _metadata(workload) -> dict:
    import numpy

    from flateta import combinatorics

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_library = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_library": blas_library,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": getattr(combinatorics, "KERNEL_BACKEND", None),
        **workload.info,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    workload = workloads.build(args.workload, args.seed)
    verdicts = {}
    _, _, warm_problems = run_pass([workload.warmup], verdicts)

    walls, traced_walls, latencies, problems = [], [], [], list(warm_problems)
    layer_batches, span_batches = [], []
    attempted = 1
    trace = tracer.Tracer() if args.trace else None
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or (trace and not traced_walls):
        traced = trace is not None and len(walls) > len(traced_walls)
        if traced:
            trace.install()
            try:
                wall, _, found = run_pass(workload.ops, verdicts)
            finally:
                trace.uninstall()
            spans = trace.take()
            layer_batches.append(tracer.layer_metrics(spans))
            span_batches.append(spans)
            traced_walls.append(wall)
        else:
            wall, lat, found = run_pass(workload.ops, verdicts)
            walls.append(wall)
            latencies.append(lat)
        attempted += len(workload.ops)
        problems += found

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "walls": walls,
        "latencies": latencies,
        "peak_rss_mib": peak_rss_mib,
        "meta": _metadata(workload),
    }
    if trace:
        result["traced_walls"] = traced_walls
        result["layers"] = tracer.median_metrics(layer_batches)
        result["absent"] = trace.absent
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "parent", "start", "end", "extra"], "passes": span_batches}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
