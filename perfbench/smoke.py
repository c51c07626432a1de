"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs all three workloads at a tiny scale (TPC-H 0.0005) with two seeds,
untraced and traced, and checks that every run exits 0 with correct
answers, prints every declared metric with its unit, writes its results
file with provenance, and (traced) records every span its workload
requires.  Then checks that the benchmark fails without printing a result
in a directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import tracing
from run import WORKLOADS

SCALE = "0.0005"
SEEDS = (0, 1)
PROVENANCE = ("git_sha", "nproc", "python", "numpy", "tpch_scale", "seed")


def fail(message: str) -> None:
    print(f"SMOKE FAILED: {message}")
    sys.exit(1)


def run_once(workload: str, seed: int, trace: int, declared: dict) -> None:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--scale", SCALE]
    done = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=300)
    label = f"{workload} seed={seed} trace={trace}"
    if done.returncode != 0:
        fail(f"{label} exited {done.returncode}\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    if {n: m["unit"] for n, m in result["metrics"].items()} != declared:
        fail(f"{label}: metrics differ from BENCHMARK.json")
    for name, unit in declared.items():
        pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)} \(n="
        if not any(re.match(pattern, line) for line in lines):
            fail(f"{label}: no printed line for {name} [{unit}]")
    if trace:
        for span in tracing.REQUIRED[workload]:
            if result["metrics"][f"{span}.calls"]["value"] <= 0:
                fail(f"{label}: span {span} never fired")
    written = [line.split()[1] for line in lines if line.startswith("wrote ")]
    payload = json.loads((harness.ROOT / written[-1]).read_text())
    missing = [k for k in PROVENANCE if k not in payload["provenance"]]
    if missing:
        fail(f"{label}: provenance lacks {missing}")
    if any("samples" not in m for m in payload["metrics"].values()):
        fail(f"{label}: a metric has no sample count")
    print(f"ok  {label}")


def bare_directory_fails() -> None:
    harness.RESULTS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.RESULTS_DIR) as bare:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or '"correct"' in done.stdout:
        fail("the benchmark printed a result without the program's sources")
    print("ok  fails without sources")


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != WORKLOADS:
        fail(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            for seed in SEEDS:
                run_once(workload, seed, trace, declared)
    bare_directory_fails()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
