#!/usr/bin/env python
"""Sliding-window clustering of moving objects (fully-dynamic workload).

A fleet of vehicles reports GPS positions; we keep only the last W reports
in a sliding window.  Every new report is an insertion and every expired
report a deletion — the fully-dynamic scheme with a perfectly balanced
insert/delete mix, where IncDBSCAN's BFS-on-delete hurts most and the
paper's Double-Approx shines.

The script tracks two convoys that approach, merge into one traffic
cluster, then separate again — watch the cluster count flip 2 -> 1 -> 2.

Run: python examples/moving_objects.py
"""

import math
import random

import repro.api as api
from repro.analysis import WindowedEngine

VEHICLES_PER_CONVOY = 25
WINDOW = 150  # reports kept in the window
STEPS = 60


def convoy_position(t, phase):
    """Two convoys oscillating towards/away from each other."""
    gap = 6.0 + 4.0 * math.cos(t / 9.0)
    return (t * 0.5, phase * gap / 2.0)


def main():
    rng = random.Random(13)
    engine = api.open(algorithm="double-approx", eps=1.5, minpts=4, rho=0.001, dim=2)
    window = WindowedEngine(engine, WINDOW)

    print(f"{2 * VEHICLES_PER_CONVOY} vehicles, window of {WINDOW} reports\n")
    merged_spans = []
    state = None
    for t in range(STEPS):
        reports = []
        for phase in (-1, +1):
            cx, cy = convoy_position(t, phase)
            for _ in range(VEHICLES_PER_CONVOY // 5):
                reports.append((cx + rng.gauss(0, 0.6), cy + rng.gauss(0, 0.6)))
        # One bulk insert per time step; the reports pushed past the
        # window's capacity expire in one bulk delete.
        window.append_many(reports)

        clusters = window.snapshot()
        big = sum(1 for c in clusters.clusters if len(c) >= 10)
        new_state = "merged" if big <= 1 else "separate"
        if new_state != state:
            state = new_state
            merged_spans.append((t, state))
            print(
                f"t={t:2d}: convoys {state:8s} "
                f"({clusters.cluster_count} clusters, "
                f"{len(clusters.noise)} stragglers, "
                f"{len(window)} reports in window)"
            )

    print("\nstate transitions:", " -> ".join(f"{s}@{t}" for t, s in merged_spans))
    assert any(s == "merged" for _, s in merged_spans), "convoys never merged"
    assert any(s == "separate" for _, s in merged_spans), "convoys never separated"
    print("The window clustering tracked merge and split events dynamically.")
    window.close()


if __name__ == "__main__":
    main()
