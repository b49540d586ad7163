"""The high-level event log: build, flatten, and export.

Every high-level event becomes one log entry whose activity is the feature
name, whose case is the cascade id, and whose timestamp is the start of the
window it emerged in. Entries of one window share a timestamp, so cases are
only partially ordered; a fixed total order over activity names flattens
them into a classical log for directly-follows analysis.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import ContextManager, Iterable, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError
from .events import EventLog, format_timestamp, parse_timestamp, to_microseconds
from .features import HighLevelEvent, ThresholdTable, View
from .framing import Framing
from .linkage import CascadeAssignment

HLEL_COLUMNS = (
    "hle_id",
    "case",
    "activity",
    "timestamp",
    "window",
    "view",
    "component_kind",
    "component",
    "value",
    "threshold",
)


@dataclass(frozen=True)
class HighLevelLogEntry:
    """One row of the high-level event log."""

    hle_id: int
    case: int
    activity: str
    timestamp: datetime
    window: int
    view: str
    component_kind: str
    component: str
    value: float
    threshold: float


def build_hlel(
    hles: Iterable[HighLevelEvent],
    assignment: CascadeAssignment,
    framing: Framing,
    thresholds: ThresholdTable,
) -> tuple[HighLevelLogEntry, ...]:
    """Materialize the high-level event log, one entry per high-level event.

    Entries are sorted by (case, window, activity name); ids follow that
    order.
    """
    hles = list(hles)
    # The assignment's keys are mostly the very objects given here, so the
    # cascade is looked up by identity first and hashing (five levels deep
    # for a HighLevelEvent) is left to equal copies. Likewise the features
    # of one view and component are mostly one object: their columns are
    # computed once per object.
    case_by_object = {id(h): case for h, case in assignment.ids.items()}
    feature_of: dict[int, int] = {}
    columns: list[tuple[str, str, str, str, float]] = []
    features, cases = [], []
    for h in hles:
        f = h.feature
        i = feature_of.get(id(f))
        if i is None:
            i = feature_of[id(f)] = len(columns)
            columns.append(
                (f.name, f.view.value, f.component.kind.value, f.component.label,
                 thresholds.for_feature(f))
            )
        features.append(i)
        cid = case_by_object.get(id(h))
        cases.append(assignment.ids[h] if cid is None else cid)
    feature = np.array(features, dtype=np.intp)
    case = np.array(cases, dtype=np.int64)
    window = np.fromiter((h.window for h in hles), dtype=np.int64, count=len(hles))
    names = sorted({col[0] for col in columns})
    rank = {name: r for r, name in enumerate(names)}
    name_rank = np.array([rank[col[0]] for col in columns], dtype=np.intp)
    # lexsort is stable, like sorting by the (case, window, name) key
    order = np.lexsort((name_rank[feature], window, case))
    starts = {w: framing.window_start(w) for w in np.unique(window).tolist()}
    entries = []
    for hle_id, (k, c, w, i) in enumerate(
        zip(order.tolist(), case[order].tolist(), window[order].tolist(), feature[order].tolist()),
        start=1,
    ):
        name, view, kind, label, threshold = columns[i]
        entries.append(
            HighLevelLogEntry(
                hle_id, c, name, starts[w], w, view, kind, label, hles[k].value, threshold
            )
        )
    return tuple(entries)


class FlattenOrder:
    """A fixed total order over high-level activity names.

    Names from the configured list come first, in list order; anything else
    follows lexicographically. With no list the order is plain lexicographic.
    """

    def __init__(self, names: Sequence[str] | None = None):
        names = list(names or ())
        if len(set(names)) != len(names):
            raise ConfigError("flatten order contains duplicate names")
        self._rank = {name: i for i, name in enumerate(names)}

    @classmethod
    def from_file(cls, path: str) -> "FlattenOrder":
        with open(path, encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
        return cls(names)

    def key(self, name: str) -> tuple[int, int | str]:
        if name in self._rank:
            return (0, self._rank[name])
        return (1, name)


def flatten(
    entries: Iterable[HighLevelLogEntry], order: FlattenOrder | None = None
) -> tuple[HighLevelLogEntry, ...]:
    """Totally order the log: by case, then window, then the fixed
    activity order within each window. Idempotent."""
    order = order or FlattenOrder()
    return tuple(
        sorted(entries, key=lambda e: (e.case, e.window, order.key(e.activity)))
    )


def export_dfg(entries: Sequence[HighLevelLogEntry]) -> str:
    """A DOT directly-follows graph of a flattened log.

    Nodes carry activity frequencies, edges count within-case adjacencies.
    Output ordering is deterministic.
    """
    node_freq: Counter = Counter(e.activity for e in entries)
    edge_freq: Counter = Counter()
    for prev, cur in zip(entries, entries[1:]):
        if prev.case == cur.case:
            edge_freq[(prev.activity, cur.activity)] += 1

    lines = ["digraph dfg {", "  rankdir=LR;"]
    for name in sorted(node_freq):
        lines.append(f'  {_quote(name)} [label={_quote(f"{name} ({node_freq[name]})")}];')
    for (src, dst) in sorted(edge_freq):
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [label={_quote(str(edge_freq[(src, dst)]))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_hlel_csv(
    entries: Iterable[HighLevelLogEntry], path: str, timestamp_format: str | None = None
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HLEL_COLUMNS)
        for e in entries:
            writer.writerow(
                [
                    e.hle_id,
                    e.case,
                    e.activity,
                    format_timestamp(e.timestamp, timestamp_format),
                    e.window,
                    e.view,
                    e.component_kind,
                    e.component,
                    repr(e.value),
                    repr(e.threshold),
                ]
            )


def read_hlel_csv(path: str, timestamp_format: str | None = None) -> tuple[HighLevelLogEntry, ...]:
    """Read a ``write_hlel_csv`` export back. A malformed row raises
    DataError naming the path and its line."""
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(HLEL_COLUMNS):
            raise DataError(f"{path}: not a high-level event log export")
        for row in reader:
            if len(row) < len(HLEL_COLUMNS):
                raise DataError(f"{path}, line {reader.line_num}: too few columns")
            try:
                entries.append(
                    HighLevelLogEntry(
                        hle_id=int(row[0]),
                        case=int(row[1]),
                        activity=row[2],
                        timestamp=parse_timestamp(row[3], timestamp_format),
                        window=int(row[4]),
                        view=row[5],
                        component_kind=row[6],
                        component=row[7],
                        value=float(row[8]),
                        threshold=float(row[9]),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return tuple(entries)


# --- summary -------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryRow:
    period: int
    start: datetime
    events: int
    hles: int
    counts: tuple[int, ...]
    averages: tuple[float | None, ...]


@dataclass(frozen=True)
class SummaryTable:
    """Per-period counts and average values of the busiest high-level
    activities, next to the original event volume."""

    period_seconds: float
    activities: tuple[str, ...]
    rows: tuple[SummaryRow, ...]


def summarize(
    log: EventLog,
    entries: Sequence[HighLevelLogEntry],
    period_seconds: float,
    origin: datetime,
    activities: Sequence[str] | None = None,
    top: int = 4,
) -> SummaryTable:
    """Aggregate the original log and the high-level log per period.

    Periods are 1-based, anchored at ``origin``, one week by default in the
    command line. Activities default to the ``top`` most frequent high-level
    activities; delay averages are reported in hours, everything else in
    native units.
    """
    if period_seconds <= 0:
        raise ConfigError(f"summary period must be positive, got {period_seconds}")

    def period_of(t: datetime) -> int:
        return int((t - origin).total_seconds() // period_seconds) + 1

    if activities is None:
        freq = Counter(e.activity for e in entries)
        chosen = sorted(freq, key=lambda a: (-freq[a], a))[:top]
    else:
        chosen = list(activities)

    # np.floor_divide rounds like Python's float //, which floor(a / b) does not
    seconds = (log.times_us - to_microseconds(origin)) / 1e6
    periods, counts = np.unique(np.floor_divide(seconds, period_seconds), return_counts=True)
    event_counts = dict(zip((periods.astype(np.int64) + 1).tolist(), counts.tolist()))
    # entries of one window share their timestamp
    entry_periods = {t: period_of(t) for t in {e.timestamp for e in entries}}
    hle_counts: Counter = Counter(entry_periods[e.timestamp] for e in entries)
    act_values: dict[tuple[int, str], list[float]] = {}
    for e in entries:
        if e.activity in chosen:
            scale = 3600.0 if e.view == View.DELAY.value else 1.0
            key = (entry_periods[e.timestamp], e.activity)
            act_values.setdefault(key, []).append(e.value / scale)

    periods = sorted(set(event_counts) | set(hle_counts))
    rows = []
    for p in range(periods[0], periods[-1] + 1) if periods else []:
        counts = []
        averages: list[float | None] = []
        for a in chosen:
            values = act_values.get((p, a), [])
            counts.append(len(values))
            averages.append(sum(values) / len(values) if values else None)
        rows.append(
            SummaryRow(
                period=p,
                start=origin + timedelta(seconds=(p - 1) * period_seconds),
                events=event_counts.get(p, 0),
                hles=hle_counts.get(p, 0),
                counts=tuple(counts),
                averages=tuple(averages),
            )
        )
    return SummaryTable(period_seconds, tuple(chosen), tuple(rows))


def write_summary_csv(
    table: SummaryTable, path_or_fh: str | TextIO, timestamp_format: str | None = None
) -> None:
    """Write the summary table as CSV to a path or an open text handle."""
    header = ["period", "start", "events", "hles"]
    for a in table.activities:
        header.extend([f"count:{a}", f"avg:{a}"])
    with text_output(path_or_fh) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in table.rows:
            record = [row.period, format_timestamp(row.start, timestamp_format), row.events, row.hles]
            for count, avg in zip(row.counts, row.averages):
                record.append(count)
                record.append("" if avg is None else f"{avg:.6g}")
            writer.writerow(record)


def text_output(path_or_fh: str | TextIO) -> ContextManager[TextIO]:
    """A new file for a path, closed on exit; an open handle as it is, left open."""
    if isinstance(path_or_fh, str):
        return open(path_or_fh, "w", newline="", encoding="utf-8")
    return nullcontext(path_or_fh)
