#!/usr/bin/env python3
"""Per-update latency benchmark for dyncx.

One workload, one process, one thread:

    python3 perfbench/run.py --workload graph-cut --seed 1 --seconds 10 --trace 0

Pass r draws fresh inputs from the generator keyed by (workload, seed, r),
so a seed always gives the same inputs. Pass 0 first runs untimed, as a
warm-up that also gives the memory metric and the exact counts that its
timed run must repeat. Timed passes then run back to back, and a pass starts
only if a pass of average length still ends within `--seconds` of the
start (at least one is timed). Every reported time is multiplied by the
run's host-speed factor (`hostspeed.py`). The last line of standard
output is one JSON object: `correct`, `attempted` and `failed` ops, and `metrics` — the
end-to-end metrics untraced (`--trace 0`), the per-layer metrics traced
(`--trace 1`). Lines before it are a readable summary.

Every workload, untraced and then traced, with a table of all metrics and
the tracing overhead:

    python3 perfbench/run.py --all --seed 1 --seconds 10

`--scale tiny` shrinks every input for a smoke run. Metric names and units
come from `BENCHMARK.json`; this file says how each one is measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"  # span files and the exact-count record
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
KEEP_RECORDS = 512  # newest (workload, scale, seed, version) keys kept in counts.json
SETUP_REPEATS = 9  # set-ups per pass besides the pass's own, for `setup_s`

# name -> (how: "span" inclusive us/op, "self" self us/op, "pass_s" median
# seconds per pass, "count" per op on pass 0, or special, source)
PER_LAYER = {
    "framework.prover_us": ("span", "framework.prover"),
    "framework.proof_candidates": ("count", "framework.proof_candidates"),
    "dnf.counters_us": ("span", "dnf.counters"),
    "dnf.counters_probes": ("count", "dnf.counters_probes"),
    "dnf.verifier_us": ("span", "dnf.verifier"),
    "dnf.verifier_probes": ("count", "dnf.verifier_probes"),
    "dnf.parse_s": ("pass_s", "dnf.parse"),
    "fdt.compile_s": ("pass_s", "fdt.compile"),
    "fdt.harness_us": ("span", "fdt.harness"),
    "fdt.oracle_answer_us": ("span", "fdt.oracle_answer"),
    "fdt.oracle_update_us": ("span", "fdt.oracle_update"),
    "fdt.mirrored_bits": ("count", "fdt.mirrored_bits"),
    "forest.probes": ("count", "forest.probes"),
    "connectivity.prover_us": ("span", "connectivity.prover"),
    "connectivity.replacement_us": ("span", "connectivity.replacement"),
    "connectivity.oracle_us": ("span", "connectivity.oracle"),
    "connectivity.oracle_calls": ("count", "connectivity.oracle_calls"),
    "connectivity.verifier_us": ("span", "connectivity.verifier"),
    "connectivity.spanning_us": ("span", "connectivity.spanning"),
    "connectivity.setup_s": ("pass_s", "connectivity.setup"),
    "connectivity.mended_frac": ("mended", None),
    "equiv.aw_us": ("span", "equiv.aw"),
    "equiv.aw_ops": ("count", "equiv.aw_ops"),
    "reductions.sat_us": ("self", "reductions.sat"),
    "reductions.sat_phases": ("count", "reductions.sat_phases"),
    "reductions.parse_s": ("pass_s", "reductions.parse"),
    "oracles.check_s": ("check", None),
    "tracing.ops_per_s": ("ops_per_s", None),
}


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of a non-empty ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: str) -> dict:
    import pipelines
    from hostspeed import HostSpeed
    from spans import Tracer

    spec = pipelines.WORKLOADS[name]
    started = time.monotonic()
    first, peaks, warm_counts, errors = [], [], [], []
    for r in range(spec.memory_passes):
        inputs = spec.generate(f"{name}/{seed}/{r}", **spec.sizes[scale])
        t0 = perf_counter_ns()
        truths = spec.truths(inputs)
        first.append((inputs, truths, perf_counter_ns() - t0))
        peak, warm = memory_pass(spec, inputs, truths)
        peaks.append(peak)
        warm_counts.append(warm.counts)
        errors += [f"pass {r} untimed: {e}" for e in warm.errors]
        if any(warm.failed):
            errors.append(f"pass {r} untimed: {sum(warm.failed)} failed ops")
        del inputs, truths, warm

    tracer = Tracer() if traced else None
    host = HostSpeed()
    samples = array("q")  # op times in ns, as measured
    setup_ns, check_ns, pass_ops, pass_spans, pass_counts = [], [], [], [], []
    attempted = failed = set_ups = 0
    timed_from = time.monotonic()
    # a pass starts only if a pass of average length still ends within `seconds`
    while not pass_ops or (time.monotonic() - started
                           + (time.monotonic() - timed_from) / len(pass_ops) <= seconds):
        if len(pass_ops) < len(first):
            inputs, truths, truth_ns = first[len(pass_ops)]
        else:
            inputs = spec.generate(f"{name}/{seed}/{len(pass_ops)}", **spec.sizes[scale])
            t0 = perf_counter_ns()
            truths = spec.truths(inputs)
            truth_ns = perf_counter_ns() - t0
        p = pipelines.Pass(len(truths) - 1, tracer, host)
        # only the program's own objects should cost it collector time
        gc.collect()
        gc.freeze()
        before = dict(tracer.total_ns) if tracer else {}
        try:
            spec.run(p, inputs, truths)
        finally:
            gc.unfreeze()
        if tracer:
            tracer.keep = False
            pass_spans.append({k: v - before.get(k, 0) for k, v in tracer.total_ns.items()})
        # each pass's mean set-up time: one set-up lasts a fraction of a
        # second, less than the host holds one speed
        setups = [p.setup_ns] + repeat_setup(spec, inputs, truths, errors)
        setup_ns.append(statistics.fmean(setups))
        set_ups += len(setups)
        check_ns.append(truth_ns + p.check_ns)
        pass_counts.append(p.counts)
        pass_ops.append(len(p.op_ns))
        errors += [f"pass {len(pass_ops) - 1}: {e}" for e in p.errors]
        attempted += len(p.op_ns)
        failed += sum(p.failed)
        samples.extend(ns for ns, bad in zip(p.op_ns, p.failed) if not bad)
        del inputs, truths, p
    del first

    nondeterministic = []
    for r, (old, new) in enumerate(zip(warm_counts, pass_counts)):
        nondeterministic += count_diffs(f"pass {r} untimed run", old, new)
    nondeterministic += check_counts(name, seed, scale, pass_counts)
    samples = sorted(samples)
    timed_ns = sum(samples)
    # every time reported below is multiplied by the run's host-speed factor
    adjust = host.factor()
    ops_per_s = len(samples) / (timed_ns * adjust / 1e9) if timed_ns else 0.0
    p95 = percentile(samples, 0.95) if samples else 0
    summary = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "passes": len(pass_ops), "setups": set_ups, "ops_timed": len(samples),
        "p95_beyond": sum(1 for s in samples if s > p95),
        "host_factor": adjust, "reference_samples": len(host.reference_ns),
        "failed_op_frac": failed / attempted,
        "errors": errors[:10], "nondeterministic_counts": nondeterministic[:10],
    }
    if not traced:
        metrics = {
            "setup_s": statistics.median(setup_ns) * adjust / 1e9,
            "op_us_p50": percentile(samples, 0.5) * adjust / 1e3 if samples else 0.0,
            "op_us_p95": p95 * adjust / 1e3,
            "ops_per_s": ops_per_s,
            "peak_mem_mb": statistics.mean(peaks),
        }
        named = BENCH["end_to_end"]
    else:
        ops0, counts0 = pass_ops[0], pass_counts[0]
        metrics = {}
        for metric, (how, src) in PER_LAYER.items():
            if how == "span":
                value = tracer.total_ns[src] * adjust / attempted / 1e3
            elif how == "self":
                value = tracer.self_ns[src] * adjust / attempted / 1e3
            elif how == "pass_s":
                value = statistics.median(s.get(src, 0) for s in pass_spans) * adjust / 1e9
            elif how == "count":
                value = counts0.get(src, 0) / ops0
            elif how == "mended":
                cut = counts0.get("connectivity.forest_deletions", 0)
                value = counts0.get("connectivity.mended", 0) / cut if cut else 0.0
            elif how == "check":
                value = statistics.median(check_ns) * adjust / 1e9
            else:
                value = ops_per_s
            metrics[metric] = value
        named = BENCH["per_layer"]
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{name}.spans.tsv")
    correct = failed == 0 and not errors and not nondeterministic
    return {
        "summary": summary,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in named},
        },
    }


def memory_pass(spec, inputs, truths):
    """Run one pass untimed and untraced under `tracemalloc`, before any timed pass.

    It warms the interpreter up for the timed passes. Returns the peak
    memory, in MB, that the program allocated between parsing the input
    text and its last answer (the inputs and truths were allocated before
    tracing started, so they are not counted), and the `Pass`, whose exact
    counts must equal those of the same pass's timed run.
    """
    import pipelines

    p = pipelines.Pass(len(truths) - 1)
    gc.collect()
    tracemalloc.start()
    try:
        spec.run(p, inputs, truths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, p


def repeat_setup(spec, inputs, truths, errors) -> list[int]:
    """`SETUP_REPEATS` more untraced set-ups of a pass's inputs, without ops.

    Returns their set-up times in ns; none for a workload without
    `spec.setup`.
    """
    import pipelines

    times = []
    for _ in range(SETUP_REPEATS if spec.setup else 0):
        p = pipelines.Pass(0)
        gc.collect()
        gc.freeze()
        try:
            spec.setup(p, inputs, truths)
        finally:
            gc.unfreeze()
        errors += [f"set-up repeat: {e}" for e in p.errors]
        times.append(p.setup_ns)
    return times


def count_diffs(where: str, old: dict, new: dict) -> list[str]:
    """The exact counts that `old` and `new` both recorded and that differ."""
    return [f"{where} {k}: {old[k]} then {new[k]}"
            for k in sorted(old.keys() & new.keys()) if old[k] != new[k]]


def check_counts(name, seed, scale, pass_counts) -> list[str]:
    """Exact counts must repeat between runs of the same code on the same inputs.

    Per-pass counts are recorded under the checkout's `.out` directory, keyed
    by workload, scale, seed and a digest of the program's and the
    benchmark's sources, so runs of two versions in one checkout keep
    separate records; the newest `KEEP_RECORDS` keys are kept. Each run
    compares the passes it shares with earlier runs of its version (traced
    or not) on the counts both recorded, and returns the ones that differ.
    """
    path = OUT / "counts.json"
    digest = hashlib.sha256()
    for source in sorted((ROOT / "src" / "dyncx").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(source.read_bytes())
    version = digest.hexdigest()[:16]
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{name}/{scale}/{seed}/{version}"
    seen = record.pop(key, [])
    diffs = []
    for r, (old, new) in enumerate(zip(seen, pass_counts)):
        diffs += count_diffs(f"pass {r} earlier run", old, new)
    merged = [{**old, **new} for old, new in zip(seen, pass_counts)]
    longer = seen if len(seen) > len(pass_counts) else pass_counts
    record[key] = merged + longer[len(merged):]  # last, as the newest
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(list(record.items())[-KEEP_RECORDS:])))
    return diffs


def run_all(args) -> int:
    """Run every workload untraced, then traced, each in its own process."""
    ok = True
    for name in list_workloads():
        got = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                break
            got[trace] = json.loads(lines[-1]), json.loads(lines[-2][2:])
            ok &= got[trace][0]["correct"]
        if len(got) < 2:
            continue
        (plain, summary), (traced, _) = got[0], got[1]
        print(f"== {name}  correct={plain['correct'] and traced['correct']}  "
              f"attempted={plain['attempted']}  failed={plain['failed']}  "
              f"passes={summary['passes']}")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:<30} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_op_frac':<30} {summary['failed_op_frac']:>14.6g} ratio")
        print(f"  op_us_p95 over {summary['ops_timed']} op times, "
              f"{summary['p95_beyond']} beyond it")
        for metric, m in traced["metrics"].items():
            print(f"  {metric:<30} {m['value']:>14.6g} {m['unit']}")
        untraced_ops = plain["metrics"]["ops_per_s"]["value"]
        traced_ops = traced["metrics"]["tracing.ops_per_s"]["value"]
        ratio = untraced_ops / traced_ops if traced_ops else float("inf")
        print(f"  tracing overhead: {untraced_ops:.6g} ops/s untraced, "
              f"{traced_ops:.6g} traced, ratio {ratio:.3f}")
    return 0 if ok else 1


def list_workloads() -> list[str]:
    import pipelines

    return list(pipelines.WORKLOADS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="every workload, traced and not")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    # the program is built from the checkout's own sources, never an installed copy
    if not (ROOT / "src" / "dyncx" / "__init__.py").is_file():
        print(f"error: no dyncx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # one thread: keep numpy's BLAS from starting a pool of its own
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if args.all:
        return run_all(args)
    if args.workload not in list_workloads():
        print(f"error: --workload must be one of {list_workloads()}", file=sys.stderr)
        return 2
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print("# " + json.dumps(out["summary"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
