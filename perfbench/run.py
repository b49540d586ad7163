"""The analyze benchmark: ``highline analyze`` end to end, and stage by stage.

Usage, from the root of a highline checkout:

    python3 perfbench/run.py --workload desk-10x --seed 42 --seconds 45 --trace 0

One run generates the workload's input from the seed, then starts fresh
``highline analyze`` processes one after another (a closed loop with one
client) until ``--seconds`` have passed, checking the output of each. With
``--trace 0`` it prints the end-to-end metrics: medians of the wall time,
CPU time and peak RSS of those processes, and of the wall time of fresh
``highline --help`` processes (set-up). A ``probe.py`` process runs after
each of them, and the times are scaled to the host speed at which a probe
takes ``PROBE_REF_S``, so that drift in the host's speed cancels. With
``--trace 1`` it also makes one traced run in a fresh process and prints
the per-layer metrics, unscaled, instead. The last line of stdout is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time

import check
import harness
from spans import self_times, total_times

SETUP_SAMPLES = 10
MIN_SAMPLES = 3
# probe.py's median wall time between analyze processes on the 2-vCPU host
# the benchmark was defined on; times are reported at that host speed
PROBE_REF_S = 1.20
DEADLINE_S = 170.0  # the whole run, set-up and traced run included

REFERENCES = harness.BENCH_DIR / "references.json"
SPEC = harness.ROOT / "BENCHMARK.json"

TIME_SPANS = {
    "events.ingest_csv_s": ("ingest_csv",),
    "features.evaluate_s": ("evaluate",),
    "features.compute_thresholds_s": ("compute_thresholds",),
    "features.generate_hles_s": ("generate_hles",),
    "linkage.build_link_table_s": ("build_link_table",),
    "linkage.cascades_s": ("cascades",),
    "hlelog.build_hlel_s": ("build_hlel",),
    "hlelog.flatten_s": ("flatten",),
    "hlelog.summarize_s": ("summarize",),
    "hlelog.write_s": ("write_hlel_csv", "write_summary_csv", "export_dfg"),
}
SELF_SPANS = {
    "pipeline.self_s": ("analyze_log",),
    "cli.self_s": ("main", "run_analyze"),
}


class Run:
    """Attempts, failures and output checks of one benchmark run."""

    def __init__(self, workload: str, work) -> None:
        self.workload = harness.WORKLOADS[workload]
        self.work = work
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.first: tuple[dict, dict] | None = None  # printed counts, digests

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def probe(self) -> float:
        """Wall time of one probe.py process: the host's speed just now."""
        proc = harness.probe(self.work, self.remaining())
        if proc.returncode != 0:
            self.problems.append(f"probe.py exited with {proc.returncode}")
        return proc.wall_s

    def analyze(self, traced: bool = False) -> tuple[harness.Process, bool]:
        """One checked analyze process; returns it and whether it passed."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        args = self.workload.analyze_args()
        if traced:
            proc = harness.traced(args, self.work, "spans.json", self.remaining())
        else:
            proc = harness.highline(args, self.work, self.remaining())
        reference = self.reference["artifacts"] if self.reference else None
        errors, digests = check.check_run(proc.returncode, proc.stdout,
                                          str(self.work / "out"), reference)
        printed = check.printed_counts(proc.stdout)
        if not errors:
            if self.first is None:
                self.first = (printed, digests)
            elif printed != self.first[0]:
                errors.append(f"printed counts {printed} differ from the first run's "
                              f"{self.first[0]}")
            elif digests != self.first[1]:
                errors.append("artifacts differ from the first run's")
        self.attempted += 1
        if errors:
            self.failed += 1
            kind = "traced run" if traced else f"run {self.attempted}"
            print(f"FAILED {kind}: {'; '.join(errors)}")
            print(proc.stdout[-2000:])
        return proc, not errors


def percentile_line(name: str, values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.4f} s over {n} samples"
    rank = n - 10
    if rank > n / 2:
        line += f", p{100 * rank / n:.0f} {sorted(values)[rank - 1]:.4f} s"
    else:
        line += " (too few samples for a percentile above the median)"
    return line


def load_reference(workload: str, seed: int, input_digest: str) -> dict | None:
    entry = json.loads(REFERENCES.read_text()).get(workload, {}).get(str(seed))
    if entry is None:
        print(f"no reference digests for seed {seed}: checking invariants only")
        return None
    if entry["input"] != input_digest:
        print(f"input differs from the recorded input of seed {seed} (the generator changed):"
              " checking invariants only")
        return None
    return entry


def measure(args: argparse.Namespace, work) -> dict:
    run = Run(args.workload, work)
    generate_s = harness.make_input(args.workload, args.seed, work, run.remaining())
    input_digest = check.sha256(str(work / "input.csv"))
    print(f"workload {args.workload}, seed {args.seed}: input sha256 {input_digest}")
    run.reference = load_reference(args.workload, args.seed, input_digest)

    def setup_sample() -> harness.Process:
        proc = harness.highline(["--help"], work, run.remaining())
        if proc.returncode != 0:
            run.problems.append(f"highline --help exited with {proc.returncode}")
        return proc

    setup_sample()  # byte-compiles the package, which users pay once
    run.probe()  # reads numpy into the page cache
    # Every analyze process, and the --help processes spread over the
    # measured time, is bracketed by probes: its times are scaled by the
    # mean of the probe before it and the probe after it.
    before = run.probe()
    setup: list[tuple[harness.Process, float]] = []
    samples: list[tuple[harness.Process, float]] = []
    setup_target = 0 if args.trace else SETUP_SAMPLES
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= args.seconds and len(samples) >= MIN_SAMPLES:
            break
        if run.deadline - time.perf_counter() < 15:
            run.problems.append("stopped sampling at the run deadline")
            break
        helps = []
        while len(setup) + len(helps) < setup_target * min(1.0, elapsed / args.seconds):
            helps.append(setup_sample())
        proc, ok = run.analyze()
        after = run.probe()
        probe_s, before = (before + after) / 2, after
        setup += [(h, probe_s) for h in helps]
        if ok:
            samples.append((proc, probe_s))
    while len(setup) < setup_target:
        proc = setup_sample()
        after = run.probe()
        setup.append((proc, (before + after) / 2))
        before = after
    if not samples:
        run.problems.append("no analyze run passed")
        return finish(run, {}, "per_layer" if args.trace else "end_to_end")

    def scaled(value: float, probe_s: float) -> float:
        return value * PROBE_REF_S / probe_s

    walls = [scaled(p.wall_s, s) for p, s in samples]
    unscaled_s = statistics.median(p.wall_s for p, _ in samples)
    print(percentile_line("analyze_s", walls))
    print(f"unscaled medians: analyze_s {unscaled_s:.4f} s,"
          f" cpu_s {statistics.median(p.cpu_s for p, _ in samples):.4f} s;"
          f" probe {statistics.median(s for _, s in samples):.4f} s (reference {PROBE_REF_S} s)")
    print(f"fail_share: {run.failed}/{run.attempted}")
    if not args.trace:
        return finish(run, {
            "analyze_s": statistics.median(walls),
            "cpu_s": statistics.median(scaled(p.cpu_s, s) for p, s in samples),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p, _ in samples),
            "setup_s": statistics.median(scaled(p.wall_s, s) for p, s in setup),
        }, "end_to_end")
    return finish(run, traced_metrics(run, unscaled_s, generate_s), "per_layer")


def traced_metrics(run: Run, untraced_s: float, generate_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced analyze process."""
    proc, ok = run.analyze(traced=True)
    try:
        trace = json.loads((run.work / "spans.json").read_text())
    except FileNotFoundError:
        run.problems.append("the traced run wrote no spans")
        return {}
    for target in trace["missing"]:
        print(f"trace: wrapper target {target} no longer exists")
    for name in trace["uncounted"]:
        print(f"trace: could not count {name}")
    counts = trace["counts"]
    if ok and run.reference and counts != run.reference["counts"]:
        run.problems.append(f"traced counts {counts} differ from the reference "
                            f"{run.reference['counts']}")

    totals, selfs = total_times(trace["spans"]), self_times(trace["spans"])
    for names in (*TIME_SPANS.values(), *SELF_SPANS.values()):
        for name in names:
            if name not in totals:
                print(f"trace: no span named {name} was recorded")
    metrics = {k: sum(totals.get(n, 0.0) for n in names) for k, names in TIME_SPANS.items()}
    metrics.update({k: sum(selfs.get(n, 0.0) for n in names) for k, names in SELF_SPANS.items()})
    metrics.update(counts)
    hles, defined = counts.get("features.hles", 0), counts.get("features.defined_cells", 0)
    edges, candidates = counts.get("linkage.edges", 0), counts.get("linkage.candidate_pairs", 0)
    metrics["features.hle_share"] = hles / defined if defined else 0.0
    metrics["linkage.edge_yield"] = edges / candidates if candidates else 0.0
    if ok:
        metrics["cli.bytes_written"] = sum(f.stat().st_size for f in (run.work / "out").iterdir())
    metrics["generator.generate_s"] = generate_s
    metrics["trace.overhead_s"] = trace["overhead_s"]

    traced_s = proc.wall_s - trace["counting_s"]
    total_self = sum(selfs.values())
    print(f"traced analyze_s {traced_s:.4f} s against the unscaled untraced median {untraced_s:.4f} s"
          f" (a difference dominated by host noise); wrapper overhead"
          f" {trace['overhead_s'] * 1e3:.3f} ms over {len(trace['spans'])} spans;"
          " self time by span:")
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {name:20s} {value:9.4f} s  {100 * value / total_self:5.1f}%")
    return metrics


def finish(run: Run, values: dict[str, float], group: str) -> dict:
    """The result object, with every metric BENCHMARK.json lists under ``group``."""
    metrics = {}
    for spec in json.loads(SPEC.read_text())[group]:
        value = values.get(spec["name"])
        if value is None:
            run.problems.append(f"metric {spec['name']} was not measured")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "highline" / "__init__.py").is_file():
        print(f"perfbench: no highline package under {harness.SRC}; "
              "run it from the root of a highline checkout", file=sys.stderr)
        return 2
    work = harness.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
