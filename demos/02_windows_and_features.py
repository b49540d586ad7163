"""Evaluate congestion features over time windows and derive thresholds.

Builds a one-morning log with a visible congestion bump, splits it into
15-minute windows, prints the resulting feature matrix, and shows how the
percentile choice decides which measurements become high-level events.
"""

import math
from datetime import datetime, timedelta

from highline import (
    EventLog,
    Framing,
    compute_thresholds,
    evaluate,
    generate_hles,
)
from highline.events import to_microseconds

START = datetime(2024, 1, 1, 9, 0)


def build_log():
    """Three calm cases, then a burst of six cases hitting resource bob."""
    rows = []
    minute = 0
    for case in range(1, 4):
        rows.append((f"calm{case}", "submit", minute, "ann"))
        rows.append((f"calm{case}", "check", minute + 4, "bob"))
        minute += 12
    for case in range(1, 7):
        rows.append((f"burst{case}", "submit", 45 + case, "ann"))
        rows.append((f"burst{case}", "check", 58 + 3 * case, "bob"))
    cases, activities, minutes, resources = zip(*rows)
    times_us = [to_microseconds(START + timedelta(minutes=m)) for m in minutes]
    return EventLog.from_columns(cases, activities, times_us, resources)


def main():
    log = build_log()
    framing = Framing(origin=START, width=15 * 60)
    matrix = evaluate(log, framing)

    print("feature matrix (rows: features, columns: 15-minute windows):")
    for name, row in zip(matrix.features.names.tolist(), matrix.values.tolist()):
        cells = ["   -" if math.isnan(v) else f"{v:4.0f}" for v in row]
        print(f"  {name:<22}" + " ".join(cells))

    for p in (0.5, 0.8, 1.0):
        thresholds = compute_thresholds(matrix, p)
        hles = generate_hles(matrix, thresholds)
        print(f"\npercentile p={p}: {len(hles)} high-level events")
        views, names = hles.features.views, hles.features.names
        for c, w, v in zip(hles.codes.tolist(), hles.windows.tolist(), hles.values.tolist()):
            if views[c] in ("wl", "delay"):
                print(f"  window {w}: {names[c]} = {v:.0f}")


if __name__ == "__main__":
    main()
