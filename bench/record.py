#!/usr/bin/env python3
"""Run the benchmark on several seeds and record one trajectory entry.

For each workload, runs ``run.py`` untraced once per seed and traced once,
prints each end-to-end metric's median and quartile spread, and writes the
medians to ``bench/trajectory/BENCH_<label>.json``.  Run from the
repository root:

    python3 bench/record.py --label <commit> --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    entry = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        results = [run(name, seed, seconds, 0)[1] for seed in args.seeds]
        meta_traced, traced = run(name, args.seeds[0], seconds, 1)
        end_to_end = {}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "unit": results[0]["metrics"][metric]["unit"],
                "values": values,
            }
            print(f"{name:<14} {metric:<14} median {median:12.6g}  spread {(q3 - q1) / median:6.3f}")
        entry["workloads"][name] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "meta": meta_traced,
        }
    out = BENCH_DIR / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
