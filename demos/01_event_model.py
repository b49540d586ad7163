"""Ingest a tiny event log and inspect its derived structure.

Shows CSV ingestion with a column mapping, the directly-follows steps,
the three component sets (activities, resources, segments), and the
events and steps of one component, all read from the log's code columns.
"""

import tempfile
from pathlib import Path

import numpy as np

from highline import Segment, ingest_csv

CSV = """\
case,activity,timestamp,resource
c1,request,2024-01-01T09:00:00,system
c1,report,2024-01-01T09:05:00,Jane
c1,answer,2024-01-01T09:12:00,Jane
c2,request,2024-01-01T09:03:00,system
c2,report,2024-01-01T09:10:00,Pete
c2,follow,2024-01-01T09:40:00,Pete
c2,answer,2024-01-01T09:45:00,Pete
"""


def main():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "toy.csv"
        path.write_text(CSV)
        log = ingest_csv(str(path))

    print(f"ingested {len(log)} events from {path.name}")
    case = [log.case_names[c] for c in log.case_codes.tolist()]
    activity = [log.activity_names[a] for a in log.activity_codes.tolist()]
    times = log.times_us.astype("datetime64[us]").tolist()
    first, second = (rows.tolist() for rows in log.step_rows)

    print("\nsteps (directly-follows pairs per case):")
    for i, j in zip(first, second):
        print(f"  {case[i]}: {activity[i]} -> {activity[j]}"
              f"  (waited {(times[j] - times[i]).total_seconds():.0f}s)")

    print(f"\nactivities: {list(log.activity_names)}")
    print(f"resources:  {list(log.resource_names)}")
    print(f"segments:   {[s.label for s in log.segment_names]}")  # in label order

    print("\nJane's events:")
    for row in np.flatnonzero(log.resource_codes == log.resource_names.index("Jane")).tolist():
        print(f"  {times[row].time()}  {case[row]}  {activity[row]}")

    print("\nsteps over the (report,answer) segment:")
    segment = log.segment_names.index(Segment("report", "answer"))
    for k in np.flatnonzero(log.step_segments[0] == segment).tolist():
        print(f"  {case[first[k]]}: {times[first[k]].time()} -> {times[second[k]].time()}")
    print("\nnote: c2 is missing here, its follow-up broke the direct step")


if __name__ == "__main__":
    main()
