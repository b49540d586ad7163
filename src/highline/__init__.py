"""highline: detect system-level congestion behavior in process event logs.

The pipeline evaluates congestion features (executions, workload, queueing,
segment traffic, delay) over time windows of an event log, captures outlier
measurements as high-level events, correlates them into cascades via
control-flow-derived component links, and emits a new high-level event log
plus summary and directly-follows-graph exports.
"""

from .errors import ConfigError, DataError, HighlineError
from .events import (
    ColumnMapping,
    Component,
    ComponentKind,
    Event,
    EventLog,
    Provenance,
    Segment,
    Step,
    ingest_csv,
    write_event_csv,
)
from .features import (
    EvaluationMatrix,
    FeatureId,
    HighLevelEvent,
    HLETable,
    ThresholdTable,
    View,
    compute_thresholds,
    evaluate,
    generate_hles,
    nearest_rank,
)
from .framing import Framing, WindowSet, default_origin, parse_duration, window_set
from .hlelog import (
    FlattenOrder,
    HighLevelLog,
    SummaryTable,
    build_hlel,
    export_dfg,
    flatten,
    read_hlel_csv,
    summarize,
    write_hlel_csv,
    write_summary_csv,
)
from .linkage import (
    CascadeAssignment,
    LinkTable,
    build_link_table,
    cascades,
    propagation_edges,
)
from .pipeline import AnalysisResult, analyze_log

__version__ = "0.1.0"

# the simulator loads on first use, so that analysing a log never imports it
_GENERATOR_NAMES = ("ScenarioConfig", "WeekSpec", "generate", "weekly_event_counts")


def __getattr__(name: str):
    if name in _GENERATOR_NAMES:
        from . import generator

        return getattr(generator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisResult",
    "CascadeAssignment",
    "ColumnMapping",
    "Component",
    "ComponentKind",
    "ConfigError",
    "DataError",
    "EvaluationMatrix",
    "Event",
    "EventLog",
    "FeatureId",
    "FlattenOrder",
    "Framing",
    "HLETable",
    "HighLevelEvent",
    "HighLevelLog",
    "HighlineError",
    "LinkTable",
    "Provenance",
    "ScenarioConfig",
    "Segment",
    "Step",
    "SummaryTable",
    "ThresholdTable",
    "View",
    "WeekSpec",
    "WindowSet",
    "analyze_log",
    "build_hlel",
    "build_link_table",
    "cascades",
    "compute_thresholds",
    "default_origin",
    "evaluate",
    "export_dfg",
    "flatten",
    "generate",
    "generate_hles",
    "ingest_csv",
    "nearest_rank",
    "parse_duration",
    "propagation_edges",
    "read_hlel_csv",
    "summarize",
    "weekly_event_counts",
    "window_set",
    "write_event_csv",
    "write_hlel_csv",
    "write_summary_csv",
]
