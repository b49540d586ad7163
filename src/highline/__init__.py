"""highline: detect system-level congestion behavior in process event logs.

The pipeline evaluates congestion features (executions, workload, queueing,
segment traffic, delay) over time windows of an event log, captures outlier
measurements as high-level events, correlates them into cascades via
control-flow-derived component links, and emits a new high-level event log
plus summary and directly-follows-graph exports.

Importing the package loads none of its modules: each public name loads the
module that defines it on first use, so ``import highline`` imports neither
numpy nor the simulator.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the module that defines it
_MODULES = {
    **dict.fromkeys(("ConfigError", "DataError", "HighlineError"), "errors"),
    **dict.fromkeys((
        "ColumnMapping", "ComponentKind", "Event", "EventLog", "Segment", "Step",
        "ingest_csv", "write_event_csv",
    ), "events"),
    **dict.fromkeys((
        "EvaluationMatrix", "HighLevelEvent", "HLETable", "ThresholdTable", "View",
        "compute_thresholds", "evaluate", "generate_hles", "nearest_rank",
    ), "features"),
    **dict.fromkeys(("Framing", "WindowSet", "default_origin", "parse_duration", "window_set"), "framing"),
    **dict.fromkeys(("ScenarioConfig", "WeekSpec", "generate", "weekly_event_counts"), "generator"),
    **dict.fromkeys((
        "FlattenOrder", "HighLevelLog", "SummaryTable", "build_hlel", "export_dfg", "flatten", "summarize",
        "write_hlel_csv", "write_summary_csv",
    ), "hlelog"),
    "read_hlel_csv": "_reader",
    **dict.fromkeys((
        "CascadeAssignment", "LinkTable", "build_link_table", "cascades", "propagation_edges",
    ), "linkage"),
    **dict.fromkeys(("AnalysisResult", "analyze_log"), "pipeline"),
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULES[name]}", __name__), name)
    globals()[name] = value
    return value
