"""Smoke check of the benchmark itself (about a minute on 2 cores).

    python3 perfbench/smoke.py

Runs every workload for one second in both modes and checks that the last
stdout line carries exactly the metrics BENCHMARK.json names, with their
units; that a corrupted reference makes batches count as failed while a
perturbation inside the 1e-12 tolerance does not; that a run walks each
pinned input at most once, across its segments; and that the benchmark
refuses to run without the package sources.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def expect_metrics(workload: str, trace: int) -> None:
    code, result = bench(workload, trace)
    specs = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in specs}
    ok = (code == 0 and result is not None
          and set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["correct"] is True and result["failed"] == 0
          and result["attempted"] >= 1
          and {k: v["unit"] for k, v in result["metrics"].items()} == expected
          and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()))
    check(ok, f"{workload} --trace {trace}: correct, every metric named with its unit")


def corrupted(workload: str, key: str, change, should_fail: bool, what: str) -> None:
    ref_dir = SCRATCH / "reference"
    shutil.rmtree(ref_dir, ignore_errors=True)
    shutil.copytree(HERE / "reference", ref_dir)
    path = ref_dir / f"{workload}.npz"
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays[key] = change(arrays[key])
    np.savez(path, **arrays)
    code, result = bench(workload, 0, "--reference-dir", str(ref_dir))
    if should_fail:
        ok = (code == 0 and result is not None and result["correct"] is False
              and result["failed"] == result["attempted"] >= 1)
    else:
        ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
    check(ok, f"{workload}: {what}")


def pool_walk() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    workload = workloads.WORKLOADS["coverage_map"]
    whole = list(workloads.pool_indices(workload, 7))
    rest = list(workloads.pool_indices(workload, 7, first_batch=100))
    check(sorted(whole) == list(range(workload.pool)) and rest == whole[100:],
          "a run uses each pinned input once and ends with the pool")


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        pool_walk()
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                expect_metrics(workload["name"], trace)
        corrupted("pt_campaign", "mean", lambda a: a * (1 + 1e-9), True,
                  "means off by 1e-9 relative fail every batch")
        corrupted("pt_campaign", "mean", lambda a: a * (1 + 1e-14), False,
                  "means off by 1e-14 relative stay within tolerance")
        corrupted("coverage_map", "ris_index", lambda a: a + 1, True,
                  "a wrong serving surface fails every batch")

        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("pt_campaign", 0, cwd=bare)
        check(code != 0 and result is None, "refuses to run without src/rislink")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
