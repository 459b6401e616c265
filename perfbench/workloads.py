"""The benchmark's workloads: batch inputs, the batch call, and output checks.

A batch is one public call (`run_campaign` or `coverage_map`) preceded by
the validation of its own seeded config.  Batch inputs come from a pool of
pinned batch seeds whose outputs are stored under `perfbench/reference/`;
the workload seed picks where in the pool a run starts, so every batch of
every run is checked against a pinned output.  A run stops once it has used
the whole pool, so no two batches of one run share a seed.

Imported by the measuring process after `rislink` is on `sys.path`.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rislink as rl

# Relative error allowed against the pinned reference: the north-star
# tolerance for arithmetic that was reordered but not changed.
REL_TOL = 1e-12

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Config seed of pool entry j is POOL_BASE_SEED + j.
POOL_BASE_SEED = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    realizations: int       # per batch (per cell for coverage)
    pool: int               # pinned batch inputs
    pt_dbm: tuple = (40.0,)
    cell: float | None = None  # coverage cell edge in meters; None = a campaign
    # Field changes that size the larger call `campaign.parallel_efficiency`
    # is timed on like ROADMAP's traffic: pool start-up dominates the
    # workloads' own batches.
    parallel: tuple = ()

    def config(self, seed: int) -> rl.SimConfig:
        """The batch's scenario: the indoor preset with this workload's settings."""
        return dataclasses.replace(rl.scene_preset("indoor"), pt_dbm=self.pt_dbm,
                                   realizations=self.realizations, seed=seed)

    def units(self, vc: rl.ValidatedConfig) -> int:
        """Realizations one batch evaluates (cell-realizations for coverage)."""
        if self.cell is not None:
            x, y = rl.default_grid(vc, self.cell).centers()
            return len(x) * len(y) * self.realizations
        return self.realizations


WORKLOADS = {w.name: w for w in (
    # Parallel call: a ~500-realization pt campaign.
    Workload("pt_campaign", realizations=32, pool=4096, pt_dbm=(20.0, 30.0, 40.0),
             parallel=(("realizations", 512),)),
    # Parallel call: 150 cells (5 m cells over the 75x50 m footprint).
    Workload("coverage_map", realizations=16, pool=512, cell=12.5,
             parallel=(("cell", 5.0),)),
)}


def parallel_probe(workload: Workload) -> Workload:
    return dataclasses.replace(workload, **dict(workload.parallel))


def pool_indices(workload: Workload, workload_seed: int, first_batch: int = 0):
    """Pool entries of batches first_batch, first_batch + 1, ... of a run.

    A run starts at a seed-chosen entry and walks the pool once around; the
    iterator ends when every entry has been used.
    """
    start = random.Random(workload_seed).randrange(workload.pool)
    for i in range(first_batch, workload.pool):
        yield (start + i) % workload.pool


def run_batch(workload: Workload, entry: int, workers: int):
    """One batch: validate the entry's seeded config, then one public call."""
    vc = rl.validate_config(workload.config(POOL_BASE_SEED + entry))
    campaign = rl.Campaign(vc, workers=workers)
    if workload.cell is not None:
        return vc, rl.coverage_map(campaign, rl.default_grid(vc, workload.cell))
    return vc, rl.run_campaign(campaign)


def record(output) -> dict:
    """The arrays a batch output is compared on."""
    if isinstance(output, rl.CoverageGrid):
        return {"mean_rate": output.mean_rate, "ris_index": output.ris_index}
    return {"sweep_values": np.asarray(output.sweep_values, float),
            "count": np.asarray([output.count]),
            "mean": output.mean, "std": output.std, "p5": output.p5, "p95": output.p95}


def records_equal(a: dict, b: dict) -> bool:
    """Bit-identical comparison of two records."""
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a)


def relative_error(rec: dict, ref: dict) -> float:
    """Worst relative error of a record against its reference; 0.0 when bit-identical.

    Each array compares in the infinity norm, relative to the reference's
    largest entry.
    """
    if records_equal(rec, ref):
        return 0.0
    if rec.keys() != ref.keys() or any(rec[k].shape != ref[k].shape for k in rec):
        return float("inf")
    worst = 0.0
    for key, expected in ref.items():
        diff = float(np.max(np.abs(rec[key] - expected)))
        if diff:
            scale = float(np.max(np.abs(expected)))
            worst = max(worst, diff / scale if scale else float("inf"))
    return worst


def reference_path(workload: Workload, reference_dir: Path = REFERENCE_DIR) -> Path:
    return reference_dir / f"{workload.name}.npz"


def load_reference(workload: Workload, reference_dir: Path = REFERENCE_DIR) -> dict:
    """{key: (pool, ...) array} as written by `make_reference.py`."""
    with np.load(reference_path(workload, reference_dir), allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def reference_entry(reference: dict, entry: int) -> dict:
    return {k: v[entry] for k, v in reference.items()}
