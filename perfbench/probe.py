"""A fixed piece of work whose wall time tracks how fast the host runs now.

Usage: python3 probe.py

It does what a ``highline analyze`` process does, in small and without
highline: start an interpreter, import numpy, parse timestamped CSV rows,
group them in dicts and reduce them with numpy. It also fills a dict and a
numpy array to about the memory an analyze process uses, because the host's
speed drifts differently for work that misses the caches. Its inputs never
change, so a change in its wall time is a change in the host's speed. The
benchmark runs it between the processes it measures and scales their times
by it. It prints a checksum of its result.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime, timedelta

import numpy as np

ROWS = 60_000
KEYS = 150_000
VALUES = 2_000_000


def main() -> None:
    start = datetime(2023, 1, 2)
    text = "\n".join(
        f"c{i % 997},a{i % 13},{(start + timedelta(seconds=37 * i)).isoformat()},r{i % 31}"
        for i in range(ROWS))
    groups: dict[tuple[str, str], list[float]] = {}
    for case, activity, stamp, _ in csv.reader(io.StringIO(text)):
        groups.setdefault((case, activity), []).append(datetime.fromisoformat(stamp).timestamp())
    gaps = np.concatenate([np.diff(np.sort(np.array(v))) for v in groups.values()])

    index = {f"k{i}": i for i in range(KEYS)}
    looked_up = sum(index[f"k{i}"] for i in range(0, KEYS, 3))
    order = np.argsort(np.random.default_rng(0).random(VALUES), kind="stable")
    print(int(gaps.sum()) + looked_up + int(order[:10].sum()))


if __name__ == "__main__":
    main()
