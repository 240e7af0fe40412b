#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Runs each workload once per seed, untraced, one process at a time, and
prints per metric the median and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share
of the median. The first `--traced` seeds are also run traced, for the
per-layer medians and the tracing overhead.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads graph-cut --seeds 1-5 --seconds 10
    python3 perfbench/spread.py --seeds 1-10 --traced 3 --baseline perfbench/BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default every workload")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--traced", type=int, default=0, help="seeds also run traced")
    ap.add_argument("--baseline", help="write medians, spreads and machine here")
    args = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args.seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_range(args.seeds)
    report = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    ok = True
    for name in names:
        runs = [run(name, seed, args.seconds, 0) for seed in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        row = {"attempted": [r["attempted"] for r in runs],
               "failed": [r["failed"] for r in runs], "end_to_end": {}}
        print(f"== {name}: correct={all(r['correct'] for r in runs)} "
              f"failed={sum(row['failed'])} over {len(runs)} runs")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            median, share = spread(values)
            flag = "" if share < bounds[metric] / 3 else "  WIDE"
            print(f"  {metric:<14} median {median:>12.6g}  spread {share:.3f}"
                  f"  (bound {bounds[metric]}){flag}")
            row["end_to_end"][metric] = {"median": median, "spread": share, "values": values}
        if args.traced:
            traced = [run(name, seed, args.seconds, 1) for seed in seeds[:args.traced]]
            layers = {m: statistics.median(t["metrics"][m]["value"] for t in traced)
                      for m in traced[0]["metrics"]}
            plain = statistics.median(r["metrics"]["ops_per_s"]["value"]
                                      for r in runs[:args.traced])
            row["per_layer"] = layers
            row["tracing"] = {"untraced_ops_per_s": plain,
                              "traced_ops_per_s": layers["tracing.ops_per_s"],
                              "ratio": plain / layers["tracing.ops_per_s"]}
            print(f"  tracing: {plain:.6g} ops/s untraced, "
                  f"{layers['tracing.ops_per_s']:.6g} traced, "
                  f"ratio {row['tracing']['ratio']:.3f}")
        report["workloads"][name] = row
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
