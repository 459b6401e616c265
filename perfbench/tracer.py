"""Span tracing around rislink's public functions, from outside the package.

Each rislink module imports its collaborators by name, so a function is
wrapped where its caller looks it up (`rislink.channel.draw_clusters`, not
`rislink.propagation.draw_clusters`).  A wrapper records one span per call
(name, start, end, parent span, batch id) in memory, plus the deterministic
work counts taken at the same boundary.  `Tracer.remove()` restores every
original function.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np

import rislink
import rislink.campaign
import rislink.channel

# (module, attribute, span name).  Top-level calls go through the package
# namespace, where the benchmark looks them up.
WRAPPED = (
    (rislink, "validate_config", "config.validate"),
    (rislink, "run_campaign", "campaign.run"),
    (rislink, "coverage_map", "campaign.coverage"),
    (rislink.campaign, "validate_config", "config.validate"),
    (rislink.campaign, "realize_channels", "channel.realize"),
    (rislink.campaign, "composite_singular_values", "campaign.svd"),
    (rislink.campaign, "compute_phase_sets", "campaign.phase_sets"),
    (rislink.campaign, "composite_multi", "channel.composite"),
    (rislink.campaign, "select_ris", "control.select"),
    (rislink.campaign, "pinv_phases", "control.pinv"),
    (rislink.campaign, "baseline_phases", "control.baseline"),
    (rislink.campaign, "rate_from_singular_values", "control.rate"),
    (rislink.campaign, "spawn_rng", "rng.spawn"),
    (rislink.channel, "spawn_rng", "rng.spawn"),
    (rislink.channel, "draw_link_state", "propagation.link_state"),
    (rislink.channel, "draw_clusters", "propagation.clusters"),
    (rislink.channel, "assemble_link_channel", "channel.assemble"),
    (rislink.channel, "assemble_direct_channel", "channel.assemble"),
    (rislink.channel, "local_directions", "geometry.directions"),
    (rislink.channel, "steering_matrix", "geometry.steering"),
)

# Per-layer metric fed by each span's self time.  Spans not listed here
# (the top-level calls, surface selection, baseline phases) count as
# uncovered time in `trace.coverage`.
SELF_TIME_METRICS = {
    "rng.spawn": "rng.spawn_us",
    "geometry.steering": "geometry.steering_us",
    "geometry.directions": "geometry.directions_us",
    "propagation.link_state": "propagation.link_state_us",
    "propagation.clusters": "propagation.clusters_us",
    "channel.assemble": "channel.assemble_us",
    "channel.realize": "channel.realize_self_us",
    "channel.composite": "channel.composite_us",
    "control.pinv": "control.pinv_us",
    "control.rate": "control.rate_us",
    "campaign.svd": "campaign.svd_us",
    "campaign.phase_sets": "campaign.phase_sets_self_us",
    "config.validate": "config.validate_us",
}


def _steering_entries(counts: Counter, result) -> None:
    counts["steering_entries"] += result.size


def _paths(counts: Counter, result) -> None:
    counts["paths"] += result.total_paths


def _los(counts: Counter, result) -> None:
    counts["los_links"] += result.los


# Work counted at a span boundary, from the call's result.
COUNTERS = {
    "geometry.steering": _steering_entries,
    "propagation.clusters": _paths,
    "propagation.link_state": _los,
}


class Tracer:
    """In-memory span recorder; install() wraps, remove() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []  # name, start, end, parent, batch
        self.counts: Counter = Counter()
        self.batch = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._originals.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.batch)
            counts[name] += 1
            if count is not None:
                count(counts, result)
            return result

        return wrapper

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus the time its children cover."""
        if not self.spans:
            return {}
        table = np.asarray(self.spans, dtype=np.int64)
        duration = table[:, 2] - table[:, 1]
        has_parent = table[:, 3] >= 0
        covered = np.zeros(len(table), dtype=np.int64)
        np.add.at(covered, table[has_parent, 3], duration[has_parent])
        own = np.zeros(len(self.names), dtype=np.int64)
        np.add.at(own, table[:, 0], duration - covered)
        return {name: int(own[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as CSV: name, start_ns, end_ns, parent index, batch id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_ns,end_ns,parent,batch\n")
            for name_id, start, end, parent, batch in self.spans:
                out.write(f"{self.names[name_id]},{start},{end},{parent},{batch}\n")
