"""Run ``highline analyze`` in this process with a span around each layer's
public stage functions, then write the spans and the run's counts as JSON.

Usage: python3 trace_child.py SPANS_JSON analyze [analyze options...]

The stage functions are wrapped under the names ``highline.cli`` and
``highline.pipeline`` look them up by, so the real ``highline.cli.main``
runs unchanged. Counts are taken from the ``AnalysisResult`` that
``run_analyze`` returns after the timed part, which ends when ``main``
returns; ``counting_s`` in the output is the time spent after that.
``overhead_s`` estimates what the wrappers added: the cost of one wrapped
no-op call times the number of spans recorded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from spans import Tracer, span_cost_s

TARGETS = {
    "highline.cli": (
        "ingest_csv", "run_analyze", "analyze_log", "summarize",
        "write_hlel_csv", "write_summary_csv", "export_dfg",
    ),
    "highline.pipeline": (
        "evaluate", "compute_thresholds", "generate_hles", "build_link_table",
        "cascades", "build_hlel", "flatten",
    ),
}


def layer_counts(result, lam: float) -> tuple[dict[str, int], list[str]]:
    """The per-layer counts of one analysis, and the names it could not compute."""
    import numpy as np
    from highline.linkage import propagation_edges

    counts: dict[str, int] = {}
    missing: list[str] = []

    def count(name, compute):
        try:
            counts[name] = compute()
        except (AttributeError, TypeError) as exc:
            missing.append(f"{name} ({exc})")

    def defined_cells():
        m = result.matrix
        return int(sum(np.count_nonzero(~np.isnan(m.array(f))) for f in m.features))

    def candidate_pairs():
        per_window: dict[int, int] = {}
        for h in result.hles:
            per_window[h.window] = per_window.get(h.window, 0) + 1
        return sum(n * per_window.get(w + 1, 0) for w, n in per_window.items())

    count("events.rows", lambda: len(result.log))
    count("events.steps", lambda: len(result.log.steps))
    count("framing.windows", lambda: len(result.windows))
    count("features.features", lambda: len(result.matrix.features))
    count("features.cells", lambda: len(result.matrix.features) * len(result.windows))
    count("features.defined_cells", defined_cells)
    count("features.hles", lambda: len(result.hles))
    count("linkage.pairs", lambda: len(result.links))
    count("linkage.candidate_pairs", candidate_pairs)
    count("linkage.edges", lambda: len(propagation_edges(result.hles, result.links, lam)))
    count("linkage.cascades", lambda: result.cascade_count)
    count("hlelog.entries", lambda: len(result.entries))
    return counts, missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    modules = {name: importlib.import_module(name) for name in TARGETS}
    for module_name, names in TARGETS.items():
        for name in names:
            tracer.wrap(modules[module_name], name)
    with tracer.span("main"):
        rc = modules["highline.cli"].main(argv)

    counting = time.perf_counter()
    result = tracer.results.get("run_analyze")
    if result is None:
        counts, uncounted = {}, ["run_analyze returned no result"]
    else:
        counts, uncounted = layer_counts(result, float(argv[argv.index("--lambda") + 1]))
    overhead_s = span_cost_s() * len(tracer.spans)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "missing": tracer.missing,
                   "counts": counts, "uncounted": uncounted, "overhead_s": overhead_s,
                   "counting_s": time.perf_counter() - counting}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
