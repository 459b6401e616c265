"""Regenerate the pinned reference pool under perfbench/reference/.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Runs every pool entry of each workload at workers=1 and stores the checked
arrays (rate statistics, coverage means and surface indices) at full
float64 precision.  Regenerate only when the model is meant to change its
numbers; a speed-up must leave the stored outputs matching.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import rislink  # noqa: E402
import workloads  # noqa: E402


def build(workload: workloads.Workload) -> None:
    records = [workloads.record(workloads.run_batch(workload, entry, workers=1)[1])
               for entry in range(workload.pool)]
    stacked = {key: np.stack([r[key] for r in records]) for key in records[0]}
    np.savez(workloads.reference_path(workload), **stacked)
    print(f"{workload.name}: {workload.pool} entries")


def main(names: list[str]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        build(workloads.WORKLOADS[name])
    meta = {"rislink": rislink.__version__, "numpy": np.__version__,
            "pool_base_seed": workloads.POOL_BASE_SEED,
            "workers": 1,
            "workloads": {w.name: {"pool": w.pool, "realizations": w.realizations}
                          for w in workloads.WORKLOADS.values()}}
    (workloads.REFERENCE_DIR / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
