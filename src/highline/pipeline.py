"""End-to-end analysis: features -> thresholds -> high-level events ->
links -> cascades -> high-level event log."""

from __future__ import annotations

from typing import NamedTuple

from .events import EventLog
from .features import (
    EvaluationMatrix,
    HLETable,
    ThresholdTable,
    View,
    compute_thresholds,
    evaluate,
    generate_hles,
)
from .framing import Framing, WindowSet
from .hlelog import FlattenOrder, HighLevelLog, build_hlel, flatten
from .linkage import CascadeAssignment, LinkTable, build_link_table, cascades


class AnalysisResult(NamedTuple):
    log: EventLog
    framing: Framing
    windows: WindowSet
    matrix: EvaluationMatrix
    thresholds: ThresholdTable
    hles: HLETable
    links: LinkTable
    assignment: CascadeAssignment
    entries: HighLevelLog
    flattened: HighLevelLog

    @property
    def cascade_count(self) -> int:
        return self.assignment.count


def analyze_log(
    log: EventLog,
    framing: Framing,
    percentile: float,
    lam: float,
    views: tuple[View, ...] | None = None,
    activities=None,
    resources=None,
    segments=None,
    exclude_zeros: bool = False,
    flatten_order: FlattenOrder | None = None,
) -> AnalysisResult:
    """Run the whole detection pipeline on an ingested log.

    ``views`` and the three component filters default to everything the log
    contains.
    """
    matrix = evaluate(log, framing, views, activities, resources, segments)
    thresholds = compute_thresholds(matrix, percentile, exclude_zeros=exclude_zeros)
    hles = generate_hles(matrix, thresholds)
    links = build_link_table(log)
    assignment = cascades(hles, links, lam)
    entries = build_hlel(assignment, framing, thresholds)
    flattened = flatten(entries, flatten_order)
    return AnalysisResult(
        log=log,
        framing=framing,
        windows=matrix.windows,
        matrix=matrix,
        thresholds=thresholds,
        hles=hles,
        links=links,
        assignment=assignment,
        entries=entries,
        flattened=flattened,
    )
