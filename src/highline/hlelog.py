"""The high-level event log: build, flatten, and export.

Every high-level event becomes one log entry whose activity is the feature
name, whose case is the cascade id, and whose timestamp is the start of the
window it emerged in. Entries of one window share a timestamp, so cases are
only partially ordered; a fixed total order over activity names flattens
them into a classical log for directly-follows analysis.
"""

from __future__ import annotations

from datetime import datetime
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import ConfigError, not_utf8_error
from .events import (
    EventLog, code_pairs, code_pairs_by_y, csv_column, float_texts, format_stamps, lexsort_order, row_blocks,
    write_csv,
)
from .features import FeatureTable, ThresholdTable, View
from .framing import Framing, check_year_one
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


class HighLevelLog:
    """The high-level event log as columns: row k is entry ``hle_ids[k]`` of
    case ``cases[k]``, for feature row ``feature_codes[k]`` of ``features``,
    a ``FeatureTable`` whose row j has the threshold ``thresholds[j]``, in
    window ``windows[k]`` with value ``values[k]``, timestamped
    ``stamps_us[stamp_codes[k]]`` (microseconds since the epoch, naive UTC).
    ``len`` is the number of entries."""

    def __init__(self, features: FeatureTable, thresholds, feature_codes, cases, windows, values, hle_ids,
                 stamps_us, stamp_codes):
        self.features, self.thresholds, self.feature_codes = features, thresholds, feature_codes
        self.cases, self.windows, self.values, self.hle_ids = cases, windows, values, hle_ids
        self.stamps_us, self.stamp_codes = np.asarray(stamps_us, dtype=np.int64), stamp_codes

    def take(self, rows: np.ndarray) -> "HighLevelLog":
        """The log of the given rows, in that order."""
        return HighLevelLog(
            self.features, self.thresholds, self.feature_codes[rows], self.cases[rows], self.windows[rows],
            self.values[rows], self.hle_ids[rows], self.stamps_us, self.stamp_codes[rows],
        )

    def activity_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct activity names of the features, and each
        row's index among them."""
        names, of_feature = self.features.activities
        return names, of_feature[self.feature_codes]

    def __len__(self) -> int:
        return len(self.cases)


def build_hlel(
    assignment: CascadeAssignment, framing: Framing, thresholds: ThresholdTable
) -> HighLevelLog:
    """Materialize the high-level event log, one entry per high-level event
    of the assignment, its cascade as the case.

    Entries are sorted by (case, window, activity name); ids follow that
    order.
    """
    table, cases = assignment.hles, assignment.cases
    codes, windows, values = table.codes, table.windows, table.values
    # table codes follow the feature names; lexsort is stable, like sorting
    # by the (case, window, name) key
    order = lexsort_order((codes, windows, cases))
    if order is not None:
        codes, windows, cases, values = codes[order], windows[order], cases[order], values[order]
    starts, stamp_codes = np.unique(windows, return_inverse=True)
    features = table.features
    ids = np.arange(1, len(codes) + 1)
    return HighLevelLog(
        features, thresholds.per_feature(features), codes, cases, windows, values, ids,
        framing.starts_us(starts), stamp_codes,
    )


class FlattenOrder:
    """A fixed total order over high-level activity names.

    Names from the configured list come first, in list order; anything else
    follows lexicographically. With no list the order is plain lexicographic.
    """

    def __init__(self, names: Sequence[str] | None = None):
        self.names = tuple(names or ())
        if len(set(self.names)) != len(self.names):
            raise ConfigError("flatten order contains duplicate names")

    @classmethod
    def from_file(cls, path: str) -> "FlattenOrder":
        try:
            with open(path, encoding="utf-8-sig") as fh:
                names = [line.strip() for line in fh if line.strip()]
        except UnicodeDecodeError:
            raise not_utf8_error(path, ConfigError) from None
        return cls(names)


def flatten(hlel: HighLevelLog, order: FlattenOrder | None = None) -> HighLevelLog:
    """Totally order the log: by case, then window, then the fixed
    activity order within each window. Idempotent: a log already in that
    order, as ``build_hlel`` makes it for name order, is returned itself."""
    listed = (order or FlattenOrder()).names
    names, act = hlel.activity_codes()
    rank = _places(names, listed, len(listed) + np.arange(len(names)))
    rows = lexsort_order((rank[act], hlel.windows, hlel.cases))
    return hlel if rows is None else hlel.take(rows)


def _places(names: np.ndarray, listed: Sequence[str], rest: np.ndarray) -> np.ndarray:
    """Per text of ``names`` (sorted, distinct), its index in ``listed``
    (distinct) where it is listed, else its item of ``rest``."""
    wanted = np.array(listed, dtype=object)
    at = np.searchsorted(names, wanted)  # np.isin loops over object arrays in Python
    hit = at < len(names)
    hit[hit] = names[at[hit]] == wanted[hit]
    rest[at[hit]] = np.flatnonzero(hit)
    return rest


def export_dfg(hlel: HighLevelLog) -> str:
    """A DOT directly-follows graph of a flattened log.

    Nodes carry activity frequencies, edges count within-case adjacencies.
    Output ordering is deterministic.
    """
    names, act = hlel.activity_codes()
    nodes = np.bincount(act, minlength=len(names))
    same = hlel.cases[1:] == hlel.cases[:-1]
    sources, targets, counts = code_pairs(act[:-1][same], act[1:][same], counts=True)

    # each name of a node quoted once and gathered by the edges' codes; a
    # label appends digits, which need no escaping, inside the quotes
    shown = np.flatnonzero(nodes)
    quoted = np.empty(len(names), dtype=object)
    quoted[shown] = [_quote(name) for name in names[shown].tolist()]
    lines = ["digraph dfg {", "  rankdir=LR;"]
    lines += (f'  {q} [label={q[:-1]} ({n})"];' for q, n in zip(quoted[shown].tolist(), nodes[shown].tolist()))
    edges = zip(quoted[sources].tolist(), quoted[targets].tolist(), counts.tolist())
    lines += (f'  {a} -> {b} [label="{n}"];' for a, b, n in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_hlel_csv(hlel: HighLevelLog, path: str, timestamp_format: str | None = None) -> None:
    """Write the log as CSV, one row per entry in log order, the timestamps
    in ISO 8601 or in ``timestamp_format``.

    Columns that repeat together are written as one text per distinct
    group: ``case,activity`` per (case, feature) and ``timestamp,window``
    per (stamp, window) over the whole log, and
    ``view,component_kind,component,value,threshold`` per (feature, value)
    within each block of ``WRITE_ROWS`` rows, so that only one block's
    value texts are alive at a time. A row is then its id and three texts;
    each float is written as its ``repr``, once per distinct value.
    """
    stamps = format_stamps(hlel.stamps_us, timestamp_format)
    features = hlel.features
    activities = csv_column(features.names).tolist()
    codes = hlel.feature_codes
    cases, case_codes, by_case = code_pairs(hlel.cases, codes)
    windows, stamp_codes, by_stamp = code_pairs_by_y(hlel.windows, hlel.stamp_codes, len(hlel.stamps_us))
    # texts as object arrays, so that each block's lookup is one gather; ids,
    # cases, windows and float reprs never need quoting
    case_texts, stamp_texts = (np.array(column, dtype=object) for column in (
        [f"{c},{activities[a]}" for c, a in zip(cases.tolist(), case_codes.tolist())],
        [f"{stamps[s]},{w}" for w, s in zip(windows.tolist(), stamp_codes.tolist())],
    ))
    # per feature, the texts before and after its value
    heads = csv_column(features.views, features.kinds, features.labels).tolist()
    thresholds, of_feature = float_texts(hlel.thresholds)
    tails = thresholds[of_feature].tolist()

    def blocks():
        for ids, case_rows, stamp_rows, block_codes, values in row_blocks(
            hlel.hle_ids, (case_texts, by_case), (stamp_texts, by_stamp), codes, hlel.values
        ):
            texts, of_value = float_texts(values)
            feature, value, pair = code_pairs(block_codes, of_value)
            texts = texts.tolist()
            yield ids, case_rows, stamp_rows, (np.array([
                f"{heads[f]},{texts[v]},{tails[f]}" for f, v in zip(feature.tolist(), value.tolist())
            ], dtype=object), pair)

    write_csv(path, HLEL_COLUMNS, blocks())


# --- summary -------------------------------------------------------------------


class SummaryTable(NamedTuple):
    """Per-period counts and value sums of the busiest high-level
    activities, next to the original event volume, as columns.

    Row k is period ``first_period + k``, which starts at ``starts_us[k]``
    (microseconds since the epoch) and holds ``events[k]`` events and
    ``hles[k]`` entries; ``counts[k, j]`` entries of ``activities[j]`` have
    values summing to ``sums[k, j]`` (delay in hours).
    """

    period_seconds: float
    activities: tuple[str, ...]
    first_period: int
    starts_us: np.ndarray
    events: np.ndarray
    hles: np.ndarray
    counts: np.ndarray
    sums: np.ndarray


def summarize(
    log: EventLog,
    hlel: HighLevelLog,
    period_seconds: float,
    origin: datetime,
    activities: Sequence[str] | None = None,
    top: int = 4,
) -> SummaryTable:
    """Aggregate the original log and the high-level log per period.

    Period ``p`` is window ``p - 1`` of ``Framing(origin, period_seconds)``,
    one week by default in the command line. Activities default to the
    ``top`` most frequent high-level activities; delay values are summed
    in hours, everything else in native units. A first period that would
    start before 0001-01-01 raises ConfigError.
    """
    periods = Framing(origin, period_seconds)
    names, act = hlel.activity_codes()
    freq = np.bincount(act, minlength=len(names))
    if activities is None:
        # a stable sort by count keeps equally frequent names in name order
        by_count = np.argsort(-freq, kind="stable")
        chosen = names[by_count[freq[by_count] > 0][:top]].tolist()
    else:
        chosen = list(activities)

    # the log's rows are in time order, and its events are counted per period
    event_first, event_counts = periods.counts_of(log.times_us)
    # entries with one timestamp share their period
    hle_period = periods.windows_of(hlel.stamps_us)[hlel.stamp_codes]
    spans = [(event_first, event_first + len(event_counts))] if len(event_counts) else []
    if len(hle_period):
        spans.append((int(hle_period.min()), int(hle_period.max()) + 1))
    first = min((start for start, _ in spans), default=0)
    size = max((stop for _, stop in spans), default=0) - first
    events = np.zeros(size, dtype=np.int64)
    events[event_first - first:][: len(event_counts)] = event_counts
    check_year_one(periods, first, f"period {first + 1}")
    # per (period, distinct chosen name): how many entries and the sum of
    # their values, added in entry order as a loop over the entries would;
    # entries of other names go to one last column, which is dropped
    column = {name: j for j, name in enumerate(dict.fromkeys(chosen))}
    n = len(column) + 1
    cell = (hle_period - first) * n + _places(names, list(column), np.full(len(names), n - 1))[act]
    scale = np.where(hlel.features.views == View.DELAY.value, 3600.0, 1.0)
    columns = [column[a] for a in chosen]
    counts = np.bincount(cell, minlength=size * n).reshape(size, n)[:, columns]
    sums = np.bincount(cell, hlel.values / scale[hlel.feature_codes], minlength=size * n)
    return SummaryTable(
        period_seconds,
        tuple(chosen),
        first + 1,
        periods.starts_us(np.arange(first, first + size)),
        events,
        np.bincount(hle_period - first, minlength=size),
        counts,
        sums.reshape(size, n)[:, columns],
    )


def write_summary_csv(
    table: SummaryTable, path_or_fh: str | TextIO, timestamp_format: str | None = None
) -> None:
    """Write the summary table as CSV to a path or an open text handle, each
    average as ``%.6g`` text, empty where the count is 0."""
    header = ["period", "start", "events", "hles"]
    stamps = np.array(format_stamps(table.starts_us, timestamp_format), dtype=object)
    columns = [table.first_period + np.arange(len(stamps)), stamps, table.events, table.hles]
    for a, counts, sums in zip(table.activities, table.counts.T, table.sums.T):
        header += [f"count:{a}", f"avg:{a}"]
        columns += [counts, _averages(counts, sums)]
    write_csv(path_or_fh, header, row_blocks(*columns))


def _averages(counts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``%.6g`` texts of the distinct averages of one activity's column,
    then an empty text, for a count of 0, and each period's index among
    them."""
    filled = counts > 0
    texts, index = float_texts(sums[filled] / counts[filled], "%.6g".__mod__)
    codes = np.full(len(counts), len(texts))
    codes[filled] = index
    return np.append(texts, ""), codes
