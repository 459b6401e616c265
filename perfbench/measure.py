"""The measuring process: runs one workload's batches and prints raw results.

Started by `run.py` with the thread-pinning environment already set and
`src/` on `PYTHONPATH`.  Modes:

  setup   time import + config build + validate_config, print seconds
  e2e     closed-loop batches at workers=1 for --seconds, starting at batch
          --first-batch of the run (run.py splits a run into segments), with
          the host probe timed between windows of batches
  trace   untraced, workers=2 and two traced passes over the same batches,
          then one larger call at workers=1 and workers=2

The last stdout line is one JSON object for `run.py`.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Batches are grouped into windows of at least this many realizations, and
# the host probe is timed before and after each window.
WINDOW_UNITS = 192


def _cpu_s() -> float:
    """CPU seconds of this process plus every reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup_probe(workload_name: str) -> dict:
    import rislink
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    rislink.validate_config(workload.config(workloads.POOL_BASE_SEED))
    return {"setup_s": time.perf_counter() - _T0}


class Runner:
    """Runs and checks batches of one workload; tallies attempts and failures."""

    def __init__(self, workload_name: str, seed: int, reference_dir: Path,
                 first_batch: int = 0):
        import workloads
        self.w = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.reference = workloads.load_reference(self.workload, reference_dir)
        self.indices = workloads.pool_indices(self.workload, seed, first_batch)
        self.pool_exhausted = False
        self.attempted = 0
        self.failed = 0
        self.worst_rel_err = 0.0
        self.errors: list[str] = []

    def batch(self, entry: int, workers: int = 1):
        """Run and check one batch.

        Returns (wall seconds, cpu seconds, units, record), or None if it
        raised.  A batch whose output mismatches the reference still returns
        its timing, and counts as failed.
        """
        self.attempted += 1
        try:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            vc, output = self.w.run_batch(self.workload, entry, workers)
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
            rec = self.w.record(output)
            err = self.w.relative_error(rec, self.w.reference_entry(self.reference, entry))
        except Exception as exc:  # a failing batch is counted, not fatal
            self.failed += 1
            self.errors.append(f"pool entry {entry}: {type(exc).__name__}: {exc}")
            return None
        self.worst_rel_err = max(self.worst_rel_err, err)
        if not err <= self.w.REL_TOL:
            self.failed += 1
            self.errors.append(f"pool entry {entry}: relative error {err:.3e}")
        return wall, cpu, self.workload.units(vc), rec

    def next_entry(self, start: float, seconds: float) -> int | None:
        """The next batch's pool entry, or None once time or the pool runs out."""
        if time.perf_counter() - start >= seconds:
            return None
        entry = next(self.indices, None)
        self.pool_exhausted = entry is None
        return entry

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "worst_rel_err": self.worst_rel_err, "errors": self.errors[:5],
                "pool": self.workload.pool, "pool_exhausted": self.pool_exhausted}


def host_probe_s() -> float:
    """Wall seconds of a fixed kernel that uses numpy but not rislink.

    Its mix is a realization's in miniature: seeded generators, small
    complex products and exponentials, `pinv`, an SVD and Python-level
    loops.  Load from other tenants of the host slows it about as much as
    it slows a batch, so run.py scales each window's time by it.  A change
    to rislink leaves it as it is.
    """
    import numpy as np
    t0 = time.perf_counter()
    for i in range(24):
        g = np.random.default_rng([12345, i])
        a = g.standard_normal((64, 4)) + 1j * g.standard_normal((64, 4))
        e = np.exp(1j * np.pi * np.outer(np.arange(64), np.sin(g.uniform(-1.0, 1.0, 24))))
        h = (e * g.standard_normal(24)) @ e.conj().T[:, :4]
        np.linalg.svd(np.linalg.pinv(a) @ h, compute_uv=False)
        sum(float(x) for x in g.uniform(size=16))
    return time.perf_counter() - t0


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Closed loop at workers=1: the next batch starts when the previous returns.

    Batches are grouped into windows of at least WINDOW_UNITS realizations
    (the last one may be short), and the host probe runs before the first
    window and after each one.  Stops early, with `pool_exhausted` set,
    once the run has used every pinned input, so no batch of a run repeats
    another's seed.
    """
    start = time.perf_counter()
    entry = runner.next_entry(start, seconds)
    if entry is not None:
        runner.batch(entry)                              # warm-up, untimed
    host_probe_s()                                       # warm-up
    walls, cpus, units = [], [], []
    windows, probes = [], [host_probe_s()]
    window = [0.0, 0.0, 0]
    start = time.perf_counter()
    while (entry := runner.next_entry(start, seconds)) is not None:
        result = runner.batch(entry)
        if result is None:
            continue
        walls.append(result[0])
        cpus.append(result[1])
        units.append(result[2])
        window = [window[0] + result[0], window[1] + result[1], window[2] + result[2]]
        if window[2] >= WINDOW_UNITS:
            windows.append(window)
            probes.append(host_probe_s())
            window = [0.0, 0.0, 0]
    if window[2]:
        windows.append(window)
        probes.append(host_probe_s())
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {**runner.summary(), "batch_wall_s": walls, "batch_cpu_s": cpus,
            "batch_units": units, "windows": windows, "probe_s": probes,
            "window_units": WINDOW_UNITS, "maxrss_kib": own, "children_maxrss_kib": children}


def traced(runner: Runner, seconds: float, trace_file: Path) -> dict:
    """Per-layer split from traced workers=1 runs, interleaved with untraced ones.

    Each batch runs four times in a row: untraced at workers=1, untraced at
    workers=2, and traced twice at workers=1.  Interleaving keeps machine
    drift out of the overhead ratio.  Traced outputs must equal the
    untraced ones bit for bit, the workers=2 outputs must match the
    reference made at workers=1, and the deterministic counts must repeat
    exactly between the two traced passes.  The process pool's efficiency
    is then timed on one larger call (see `parallel_efficiency`).
    """
    import warnings
    from collections import Counter

    from rislink.errors import ModelValidityWarning, NearFieldWarning, SingularPinvWarning
    from tracer import SELF_TIME_METRICS, Tracer

    passes = [{"tracer": Tracer(), "warned": Counter(), "wall": 0.0} for _ in range(2)]

    def traced_batch(p: dict, entry: int):
        p["tracer"].batch = batches
        p["tracer"].install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.batch(entry)
        finally:
            p["tracer"].remove()
        p["warned"].update(w.category.__name__ for w in caught)
        return result

    start = time.perf_counter()
    entry = runner.next_entry(start, seconds)
    if entry is not None:
        runner.batch(entry)                              # warm-up, untimed
    batches = units = 0
    untraced_s = 0.0
    same = True
    start = time.perf_counter()
    while (entry := runner.next_entry(start, seconds)) is not None:
        base = runner.batch(entry)
        parallel = runner.batch(entry, workers=2)
        runs = [traced_batch(p, entry) for p in passes]
        if base is None or parallel is None or None in runs:
            continue
        batches += 1
        units += base[2]
        untraced_s += base[0]
        for p, run in zip(passes, runs):
            p["wall"] += run[0]
            same = same and runner.w.records_equal(run[3], base[3])

    def counts(p) -> dict:
        c, warned = p["tracer"].counts, p["warned"]
        return {
            "rng.spawn_calls": c["rng.spawn"] / units,
            "channel.assemble_calls": c["channel.assemble"] / units,
            "geometry.steering_entries": c["steering_entries"] / units,
            "propagation.paths_per_link": c["paths"] / max(c["propagation.clusters"], 1),
            "propagation.los_fraction": c["los_links"] / max(c["propagation.link_state"], 1),
            "propagation.distance_clamps": warned[ModelValidityWarning.__name__] / units,
            "control.pinv_fallbacks": warned[SingularPinvWarning.__name__] / units,
            "config.near_field_warnings": warned[NearFieldWarning.__name__] / units,
        }

    if batches == 0:
        raise RuntimeError("no traced batch completed")
    first, second = passes
    self_ns = Counter()
    for p in passes:
        self_ns.update(p["tracer"].self_times_ns())
    first["tracer"].write(trace_file)
    return {
        **runner.summary(),
        "batches": batches, "units": units,
        "untraced_s": untraced_s,
        "traced_s": (first["wall"] + second["wall"]) / 2,
        "traced_equals_untraced": same,
        "parallel": parallel_efficiency(runner),
        "counts": counts(first), "counts_repeat": counts(first) == counts(second),
        "span_calls": dict(first["tracer"].counts),
        "self_us": {name: ns / 1e3 / (2 * units) for name, ns in self_ns.items()},
        "layer_us": {metric: self_ns[span] / 1e3 / (2 * units)
                     for span, metric in SELF_TIME_METRICS.items()},
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(first["tracer"].spans),
    }


def parallel_efficiency(runner: Runner) -> dict:
    """Pool efficiency on one call the size of ROADMAP's traffic.

    The workloads' own batches are too small for this: pool start-up and
    scheduling dominate a 24-cell map.  The larger call runs untraced at
    workers=1, 2, 2, 1 (the order cancels linear drift); efficiency is the
    workers=1 time over twice the workers=2 time.  All four outputs must be
    bit-identical (output independent of worker count).
    """
    w = runner.w
    probe = w.parallel_probe(runner.workload)
    entry = next(runner.indices, 0)
    walls = {1: 0.0, 2: 0.0}
    records = []
    for workers in (1, 2, 2, 1):
        t0 = time.perf_counter()
        vc, output = w.run_batch(probe, entry, workers)
        walls[workers] += time.perf_counter() - t0
        records.append(w.record(output))
    return {"efficiency": walls[1] / (2 * walls[2]), "units": probe.units(vc),
            "workers1_s": walls[1] / 2, "workers2_s": walls[2] / 2,
            "outputs_equal": all(w.records_equal(r, records[0]) for r in records)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "e2e", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-batch", type=int, default=0)
    parser.add_argument("--reference-dir", type=Path)
    args = parser.parse_args()

    import rislink
    if not Path(rislink.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rislink imported from outside this checkout: {rislink.__file__}",
              file=sys.stderr)
        return 2
    if args.mode == "setup":
        result = setup_probe(args.workload)
    else:
        import workloads
        runner = Runner(args.workload, args.seed, args.reference_dir or workloads.REFERENCE_DIR,
                        args.first_batch)
        if args.mode == "e2e":
            result = end_to_end(runner, args.seconds)
        else:
            trace_file = ROOT / ".perfbench_out" / f"trace-{args.workload}.csv"
            result = traced(runner, args.seconds, trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
