"""rislink benchmark: one workload, end-to-end metrics or the traced per-layer split.

    python3 perfbench/run.py --workload pt_campaign --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
measuring runs in a child process whose BLAS/OpenMP thread counts are pinned
to 1, so `workers=2` plus library threads cannot oversubscribe the cores.
Human-readable lines go first; the last stdout line is the JSON result.
Workloads, metrics and the per-layer map are described in perfbench/NOTES.md.
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
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# An end-to-end run is split into SEGMENTS measuring processes, with
# PROBES_PER_GAP fresh-interpreter setup probes before, between and after
# them, so the probes sample the host's load across the whole run.
SEGMENTS = 5
PROBES_PER_GAP = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# Other tenants of the host slow this machine by up to 2x, in spells that
# can outlast a run; CPU time grows with wall time.  So each window of
# batches is scaled by the host probe timed around it, relative to the
# run's quiet probe time (this percentile of its probe timings), and time
# and CPU per realization are the median over windows (see NOTES.md).
# setup_s is this percentile of its probes.
TIMING_PERCENTILE = 2
# Share of --seconds the traced run spends in its batch loop; the rest is
# left for the larger call that times the process pool.
TRACED_SHARE = 2 / 3
MIN_BEYOND_TAIL = 10
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure(mode: str, args, extra=(), seconds: float | None = None) -> dict:
    """Run perfbench/measure.py in a fresh interpreter; return its JSON line."""
    seconds = args.seconds if seconds is None else seconds
    cmd = [sys.executable, str(HERE / "measure.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (the sample at rank floor(n * pct / 100))."""
    ordered = sorted(values)
    return ordered[min(int(len(ordered) * pct / 100), len(ordered) - 1)]


def tail(values: list[float]) -> tuple[int, float]:
    """Highest listed percentile with at least MIN_BEYOND_TAIL samples above it."""
    for pct in TAIL_PERCENTILES:
        rank = int(len(values) * pct / 100)
        if len(values) - rank - 1 >= MIN_BEYOND_TAIL:
            return pct, percentile(values, pct)
    return 100, max(values)


def machine_info(env: dict) -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c['Build Dependencies']['blas']; "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'blas': b.get('name'), 'blas_version': b.get('version')}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    info = json.loads(proc.stdout) if proc.returncode == 0 else {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **info,
            "threads": {var: env[var] for var in THREAD_VARS}}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, extra) -> tuple[dict, dict]:
    setups, walls, cpus, units, probes, wins = [], [], [], [], [], []
    raw = {"attempted": 0, "failed": 0, "worst_rel_err": 0.0, "errors": [],
           "maxrss_kib": 0, "children_maxrss_kib": 0, "pool_exhausted": False}
    for segment in range(SEGMENTS + 1):
        setups += [measure("setup", args)["setup_s"] for _ in range(PROBES_PER_GAP)]
        if segment == SEGMENTS or raw["pool_exhausted"]:
            break
        part = measure("e2e", args, [*extra, "--first-batch", str(raw["attempted"])],
                       seconds=args.seconds / SEGMENTS)
        walls += part["batch_wall_s"]
        cpus += part["batch_cpu_s"]
        units += part["batch_units"]
        probes += part["probe_s"]
        for (wall, cpu, unit), before, after in zip(part["windows"], part["probe_s"],
                                                     part["probe_s"][1:]):
            wins.append((wall / unit, cpu / unit, (before + after) / 2))
        for key in ("attempted", "failed"):
            raw[key] += part[key]
        for key in ("worst_rel_err", "maxrss_kib", "children_maxrss_kib"):
            raw[key] = max(raw[key], part[key])
        raw["errors"] += part["errors"]
        raw["pool"], raw["pool_exhausted"] = part["pool"], part["pool_exhausted"]
    if not walls:
        raise RuntimeError("no batch completed")
    dump = ROOT / ".perfbench_out" / f"e2e-{args.workload}-{args.seed}.json"
    dump.parent.mkdir(exist_ok=True)
    dump.write_text(json.dumps({"batch_wall_s": walls, "batch_cpu_s": cpus,
                                "batch_units": units, "setup_s": setups,
                                "windows": wins, "probe_s": probes}))

    quiet = percentile(probes, TIMING_PERCENTILE)
    wall_per_unit = statistics.median(w * quiet / probe for w, _, probe in wins)
    cpu_us = statistics.median(c * quiet / probe for _, c, probe in wins) * 1e6
    median_rate = sum(units) / len(units) / statistics.median(walls)
    unscaled_rate = 1 / statistics.median(w for w, _, _ in wins)
    pct, tail_s = tail(walls)
    setup = percentile(setups, TIMING_PERCENTILE)
    rss_mb = (raw["maxrss_kib"] + raw["children_maxrss_kib"]) / 1024
    metrics = {
        "realizations_per_s": metric(1 / wall_per_unit, "1/s"),
        "cpu_us_per_realization": metric(cpu_us, "us"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup, "s"),
    }
    print(f"realizations_per_s      {1 / wall_per_unit:.2f} 1/s (median of {len(wins)} "
          f"windows of >= {part['window_units']} realizations, {len(walls)} timed batches, "
          f"scaled to the quiet host; unscaled {unscaled_rate:.2f} 1/s, at the median "
          f"batch {median_rate:.2f} 1/s)")
    print(f"host probe              quiet (p{TIMING_PERCENTILE}) {quiet * 1e3:.3f} ms, median "
          f"{statistics.median(probes) * 1e3:.3f} ms over {len(probes)} timings")
    print(f"batch_s_tail            {tail_s:.5f} s (p{pct} of {len(walls)} batches; "
          f"printed, not gated: it tracks the host's load)")
    print(f"cpu_us_per_realization  {cpu_us:.1f} us (median window, scaled; process + "
          f"reaped children; unscaled mean {sum(cpus) / sum(units) * 1e6:.1f} us)")
    print(f"peak_rss_mb             {rss_mb:.1f} MB (parent {raw['maxrss_kib'] / 1024:.1f}"
          f" + largest child {raw['children_maxrss_kib'] / 1024:.1f})")
    print(f"setup_s                 {setup:.4f} s (p{TIMING_PERCENTILE} of {len(setups)} fresh "
          f"processes spread over the run; median {statistics.median(setups):.4f} s)")
    if raw["pool_exhausted"]:
        print(f"note: the run used all {raw['pool']} pinned inputs and stopped early")
    return metrics, raw


def per_layer(args, extra) -> tuple[dict, dict]:
    raw = measure("trace", args, extra, seconds=args.seconds * TRACED_SHARE)
    s, c = raw["self_us"], raw["counts"]
    metrics = {name: metric(us, "us") for name, us in raw["layer_us"].items()}
    for name, value in c.items():
        metrics[name] = metric(value, "ratio" if name == "propagation.los_fraction" else "count")
    par = raw["parallel"]
    metrics["campaign.parallel_efficiency"] = metric(par["efficiency"], "ratio")
    traced_us = raw["traced_s"] * 1e6 / raw["units"]
    metrics["trace.overhead"] = metric(raw["traced_s"] / raw["untraced_s"], "ratio")
    metrics["trace.coverage"] = metric(sum(raw["layer_us"].values()) / traced_us, "ratio")
    metrics = dict(sorted(metrics.items()))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    # The ROADMAP split: per spawn call, per drawn link, per realization.
    units, calls = raw["units"], raw["span_calls"]
    links = max(calls.get("propagation.link_state", 0), 1)

    def per_link(*spans: str) -> float:
        return sum(s.get(span, 0.0) for span in spans) * units / links

    spawn_call = s.get("rng.spawn", 0.0) * units / max(calls.get("rng.spawn", 0), 1)
    print(f"split (us): spawn {spawn_call:.1f}/call, "
          f"LOS draw {per_link('propagation.link_state'):.1f}/link, "
          f"clusters {per_link('propagation.clusters'):.1f}/link, assembly "
          f"{per_link('channel.assemble', 'geometry.steering', 'geometry.directions'):.1f}"
          f"/link, phases {s.get('control.pinv', 0.0) + s.get('campaign.phase_sets', 0.0):.1f}"
          f"/realization")
    print(f"parallel efficiency {par['efficiency']:.3f} on one call of {par['units']} "
          f"realizations: workers=1 {par['workers1_s']:.3f} s, workers=2 "
          f"{par['workers2_s']:.3f} s; outputs equal: {par['outputs_equal']}")
    print(f"traced {raw['batches']} batches, {units} realizations, {raw['spans']} spans "
          f"-> {raw['trace_file']}; traced outputs equal untraced: "
          f"{raw['traced_equals_untraced']}; counts repeat: {raw['counts_repeat']}")
    return metrics, raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-dir", type=Path,
                        help="pinned reference to check against (default perfbench/reference)")
    args = parser.parse_args()

    if not (ROOT / "src" / "rislink" / "__init__.py").is_file():
        print(f"error: no rislink package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    extra = []
    if args.reference_dir is not None:
        extra = ["--reference-dir", str(args.reference_dir.resolve())]
    try:
        info = machine_info(child_env())
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"trace {args.trace}")
        print("machine " + json.dumps(info, sort_keys=True))
        metrics, raw = (per_layer if args.trace else end_to_end)(args, extra)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2

    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0
    if args.trace:
        correct = (correct and raw["traced_equals_untraced"] and raw["counts_repeat"]
                   and raw["parallel"]["outputs_equal"])
    print(f"failed_fraction         {failed / attempted:.6g} ({failed}/{attempted} batches, "
          f"worst relative error {raw['worst_rel_err']:.3g}, pool {raw['pool']})")
    for line in raw["errors"]:
        print(f"  failed: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
