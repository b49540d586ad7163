"""The full pipeline on the simulated service desk.

Generates a three-week scenario (quiet, busy, quiet), runs the analysis,
prints the weekly summary table, and writes all artifacts (high-level
event log, link table, summary, directly-follows graph) to
demo_output/.
"""

import numpy as np

from highline import (
    Framing,
    ScenarioConfig,
    WeekSpec,
    analyze_log,
    default_origin,
    generate,
    summarize,
)
from highline.cli import RunConfig, run_analyze
from highline.events import write_event_csv
from highline.generator import BUSY_ARRIVALS, QUIET_ARRIVALS

OUT = "demo_output"


def main():
    config = ScenarioConfig(
        weeks=(WeekSpec(QUIET_ARRIVALS), WeekSpec(BUSY_ARRIVALS), WeekSpec(QUIET_ARRIVALS)),
        seed=2024,
    )
    log = generate(config)
    print(f"generated {len(log)} events, {len(log.case_names)} cases")
    # activities in the order of their first event
    codes, first, counts = np.unique(log.activity_codes, return_index=True, return_counts=True)
    mix = {log.activity_names[codes[k]]: int(counts[k]) for k in np.argsort(first).tolist()}
    print("activity mix:", mix)

    framing = Framing(default_origin(log), width=3600.0)
    result = analyze_log(log, framing, percentile=0.9, lam=0.5)
    print(f"\n{len(result.hles)} high-level events in {result.cascade_count} cascades")

    table = summarize(log, result.entries, 7 * 86400.0, framing.origin)
    header = f"{'week':>4} {'events':>7} {'hles':>6}"
    for a in table.activities:
        header += f"  {a:>24}"
    print("\n" + header)
    columns = (table.events.tolist(), table.hles.tolist(), table.counts.tolist(), table.sums.tolist())
    for k, (events, hles, counts, sums) in enumerate(zip(*columns)):
        line = f"{table.first_period + k:>4} {events:>7} {hles:>6}"
        for count, total in zip(counts, sums):
            cell = f"{count} (avg {total / count:.2f})" if count else "-"
            line += f"  {cell:>24}"
        print(line)

    # the same run through the command-line layer, writing every artifact
    csv_path = f"{OUT}/scenario.csv"
    import os

    os.makedirs(OUT, exist_ok=True)
    write_event_csv(log, csv_path)
    run_analyze(
        RunConfig(
            input=csv_path,
            out=OUT,
            window_width="1h",
            percentile=0.9,
            lam=0.5,
        )
    )
    print(f"\nartifacts in {OUT}/: hlel.csv, links.csv, summary.csv, dfg.dot, config.json")
    print("render the graph with: dot -Tsvg demo_output/dfg.dot -o dfg.svg")


if __name__ == "__main__":
    main()
