"""Smoke test of the benchmark: every workload at tiny size.

    python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {trace: {m["name"]: m["unit"] for m in BENCH[key]}
         for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def bench(*args, cwd=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd or HERE.parent, capture_output=True, text=True,
                          timeout=600)


def test_every_per_layer_metric_has_a_measurement():
    assert set(UNITS[1]) == set(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # failed_op_frac
    assert {k: m["unit"] for k, m in result["metrics"].items()} == UNITS[trace]
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_all_prints_six_end_to_end_metrics_with_units():
    proc = bench("--all", "--seconds", "0.2", "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in WORKLOADS:
        block = proc.stdout.split(f"== {workload} ", 1)[1].split("\n== ", 1)[0]
        for metric, unit in {**UNITS[0], "failed_op_frac": "ratio"}.items():
            line = next(l for l in block.splitlines() if l.split()[:1] == [metric])
            assert line.split()[-1] == unit
        assert float(next(l for l in block.splitlines()
                          if l.split()[:1] == ["failed_op_frac"]).split()[1]) == 0
        assert "tracing overhead" in block


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_factor_is_nominal_over_mean_reference_time():
    import hostspeed

    host = hostspeed.HostSpeed()
    host.reference_ns = [hostspeed.NOMINAL_NS / 2, hostspeed.NOMINAL_NS * 3 / 2]
    assert host.factor() == 1.0
    host.reference_ns = [hostspeed.NOMINAL_NS * 2]
    assert host.factor() == 0.5
