import random
from datetime import datetime, timedelta
from unittest import mock

import pytest

import highline.events
from highline import Event, ingest_csv
from oracles import event_log

BASE = datetime(2024, 1, 1)


def make_log(rows, base=BASE):
    """Build a log from (case, activity, seconds, resource) tuples."""
    events = [
        Event(id=i + 1, case=c, activity=a, timestamp=base + timedelta(seconds=s), resource=r)
        for i, (c, a, s, r) in enumerate(rows)
    ]
    return event_log(events)


LOG_T_ROWS = [
    ("c1", "a", 0, "r1"),
    ("c1", "b", 10, "r2"),
    ("c1", "c", 20, "r1"),
    ("c2", "a", 5, "r1"),
    ("c2", "b", 25, "r2"),
    ("c2", "c", 40, "r1"),
]


@pytest.fixture
def log_t():
    return make_log(LOG_T_ROWS)


def log_t_csv_text():
    lines = ["case,activity,timestamp,resource"]
    for c, a, s, r in LOG_T_ROWS:
        lines.append(f"{c},{a},{(BASE + timedelta(seconds=s)).isoformat()},{r}")
    return "\n".join(lines) + "\n"


def read_general(path):
    """The log ``csv.reader`` reads from ``path``."""
    with mock.patch.object(highline.events, "_read_standard", side_effect=highline.events._NotStandard):
        return ingest_csv(path)


def random_log(rng: random.Random, max_events=200, max_cases=20, span=3600, tie_rate=0.1):
    """A random log with occasional equal timestamps inside a case."""
    n_cases = rng.randint(1, max_cases)
    n_events = rng.randint(max(2, n_cases), max_events)
    activities = [f"act{i}" for i in range(rng.randint(1, 6))]
    resources = [f"res{i}" for i in range(rng.randint(1, 4))]
    last_ts: dict[str, int] = {}
    rows = []
    for _ in range(n_events):
        case = f"case{rng.randint(1, n_cases)}"
        if case in last_ts and rng.random() < tie_rate:
            ts = last_ts[case]  # exercise the id tie-break
        else:
            ts = rng.randint(0, span)
        last_ts[case] = ts
        rows.append((case, rng.choice(activities), ts, rng.choice(resources)))
    return make_log(rows)
