"""Record the reference digests and counts the benchmark checks against.

Usage, from the root of a highline checkout whose outputs are known good:

    python3 perfbench/record_references.py

For each workload it writes the input of the default seed, runs one
untraced and one traced ``highline analyze`` through the benchmark's own
checks (invariants, and traced artifacts byte-identical to the untraced
ones), and stores the input digest, the artifact digests and the traced
counts in ``references.json``.
"""

from __future__ import annotations

import json
import shutil

import check
import harness
import run


def record(workload: str) -> dict:
    work = harness.ROOT / ".perfbench_work" / f"record-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = run.Run(workload, work)
        harness.make_input(workload, harness.DEFAULT_SEED, work, bench.remaining())
        bench.analyze()
        bench.analyze(traced=True)
        if bench.failed:
            raise SystemExit(f"{workload}: {bench.failed} of {bench.attempted} runs failed")
        trace = json.loads((work / "spans.json").read_text())
        if trace["missing"] or trace["uncounted"]:
            raise SystemExit(f"{workload}: wrapper targets missing {trace['missing']}, "
                             f"counts missing {trace['uncounted']}")
        return {"input": check.sha256(str(work / "input.csv")), "artifacts": bench.first[1],
                "counts": trace["counts"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def main() -> None:
    seed = str(harness.DEFAULT_SEED)
    references = {name: {seed: record(name)} for name in harness.WORKLOADS}
    path = harness.BENCH_DIR / "references.json"
    path.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
