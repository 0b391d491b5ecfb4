#!/usr/bin/env python3
"""flateta benchmark: one CLI workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload query_mix --seed 1 --seconds 50 --trace 0

The package is run from ``src/`` as it stands, with one BLAS thread.  Set-up
time is measured first, in fresh interpreters; then ``client.py`` runs the
workload in a child process under a wall-time cap.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics.  Run metadata is printed on the line
before it and kept, with the spans of a traced run, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 9
SETUP_ARGV = ("eta", "--dim", "3")
RUN_DEADLINE_S = 170.0  # every run ends within 180 s, hung or not
BLAS_THREADS = "1"  # at most nproc; one thread keeps the dense oracle steady


class RunFailed(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv, env, deadline) -> subprocess.CompletedProcess:
    """Run a child to completion, killing it if it outlives the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("run deadline passed before a child could start")
    try:
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{' '.join(map(str, argv[:6]))} exceeded its {remaining:.0f} s cap") from exc


def measure_setup(env, deadline) -> tuple[float, int]:
    """Median time for a fresh interpreter to import the CLI and answer ``eta --dim 3``."""
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = spawn([sys.executable, "-m", "flateta", *SETUP_ARGV], env, deadline)
        times.append(time.perf_counter() - start)
        failed += bool(checker.check(list(SETUP_ARGV), proc.returncode, proc.stdout))
    return statistics.median(times), failed


def _import_times(stderr: str) -> tuple[float, float]:
    """(numpy, flateta) cumulative import seconds from ``-X importtime`` output."""
    numpy_us = 0
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "numpy":
            numpy_us = max(numpy_us, int(cumulative))
        if name == "flateta" or name.startswith("flateta."):
            entries.append((depth, int(cumulative)))
    top = min((d for d, _ in entries), default=0)
    flateta_us = sum(us for d, us in entries if d == top)
    return numpy_us / 1e6, flateta_us / 1e6


def measure_imports(env, deadline) -> tuple[float, float]:
    samples = []
    for _ in range(SETUP_RUNS):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import flateta.cli"], env, deadline)
        if proc.returncode != 0:
            raise RunFailed(f"import flateta.cli failed: {proc.stderr.strip()[-300:]}")
        samples.append(_import_times(proc.stderr))
    return tuple(statistics.median(s[i] for s in samples) for i in range(2))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "flateta" / "cli.py").is_file():
        print("error: run from the repository root; src/flateta/cli.py is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(root)
    workload = workloads.build(args.workload, args.seed)
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            import_numpy_s, import_flateta_s = measure_imports(env, deadline)
            setup_failed = 0
        else:
            setup_s, setup_failed = measure_setup(env, deadline)
        child_deadline = min(deadline, time.monotonic() + args.seconds + workload.cap_s)
        command = [sys.executable, str(BENCH_DIR / "client.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--spans-out", str(out_dir / f"{stem}-spans.json")]
        proc = spawn(command, env, child_deadline)
        if proc.returncode != 0:
            raise RunFailed(f"client exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = child["attempted"] + (0 if args.trace else SETUP_RUNS)
    failed = child["failed"] + setup_failed
    walls = child["walls"]
    if args.trace:
        units = {name: unit for name, (_, _, unit) in tracer.METRICS.items()}
        values = dict(child["layers"])
        values["setup.import_numpy_s"] = import_numpy_s
        values["setup.import_flateta_s"] = import_flateta_s
        values["trace.overhead_ratio"] = statistics.median(child["traced_walls"]) / statistics.median(walls)
        units.update({"setup.import_numpy_s": "s", "setup.import_flateta_s": "s", "trace.overhead_ratio": "ratio"})
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls), "peak_rss_mb": child["peak_rss_mib"]}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
        if workload.query_latency:
            for name, q in (("query_p50_ms", 0.50), ("query_p99_ms", 0.99)):
                values[name] = 1e3 * statistics.median(percentile(lat, q) for lat in child["latencies"])
                units[name] = "ms"

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "passes": len(walls),
        "pass_walls_s": walls,
        "ops_per_pass": len(workload.ops),
        "p99_samples_beyond_per_pass": len(workload.ops) - math.ceil(0.99 * len(workload.ops)),
        "fail_ratio": failed / attempted,
        "problems": child["problems"],
        **child["meta"],
    }
    if args.trace:
        meta["traced_pass_walls_s"] = child["traced_walls"]
        meta["absent_layers"] = child["absent"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps({"meta": meta, **result}, indent=1) + "\n")
    for problem in child["problems"]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
