"""Ingest a tiny event log and inspect its derived structure.

Shows CSV ingestion with a column mapping, the directly-follows steps,
the three component sets (activities, resources, segments), and event
restrictions per component.
"""

import tempfile
from pathlib import Path

from highline import Component, ingest_csv, restrict

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

    print(f"ingested {len(log)} events from {log.provenance.source}")

    print("\nsteps (directly-follows pairs per case):")
    for step in log.steps:
        print(f"  {step.first.case}: {step.first.activity} -> {step.second.activity}"
              f"  (waited {step.duration_seconds:.0f}s)")

    print(f"\nactivities: {sorted(log.activities)}")
    print(f"resources:  {sorted(log.resources)}")
    print(f"segments:   {sorted(s.label for s in log.segments)}")

    print("\nJane's events:")
    for e in restrict(log, Component.resource("Jane")):
        print(f"  {e.timestamp.time()}  {e.case}  {e.activity}")

    print("\nsteps over the (report,answer) segment:")
    for step in restrict(log, Component.segment("report", "answer")):
        print(f"  {step.first.case}: {step.first.timestamp.time()} -> {step.second.timestamp.time()}")
    print("\nnote: c2 is missing here, its follow-up broke the direct step")


if __name__ == "__main__":
    main()
