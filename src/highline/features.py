"""Per-window congestion features, percentile thresholds, high-level events.

Eight views are evaluated over the windows of a log:

* ``exec-a``  — number of a-events occurring in the window,
* ``do-r``    — number of r-events occurring in the window,
* ``todo-r``  — number of r-events triggered during the window (their
  triggering step's first event occurs in the window),
* ``wl-r``    — workload: r-events that occur in the window or are already
  triggered but not yet done while the window is open,
* ``enter-s`` / ``exit-s`` / ``progr-s`` — steps of segment s entering,
  leaving, or crossing the window,
* ``delay-s`` — average waiting time accumulated by the steps crossing s
  during the window; undefined where nothing is in progress.

Count views are totally defined (0 when the window is empty); delay is a
partial function. A measurement becomes a high-level event when it reaches
its view's threshold, the nearest-rank percentile of all values of that
view pooled across components and windows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ConfigError
from .events import Component, ComponentKind, EventLog, Segment
from .framing import Framing, WindowSet, window_set

log_ = logging.getLogger(__name__)


class View(str, Enum):
    EXEC = "exec"
    DO = "do"
    TODO = "todo"
    WL = "wl"
    ENTER = "enter"
    EXIT = "exit"
    PROGR = "progr"
    DELAY = "delay"


VIEW_KIND: dict[View, ComponentKind] = {
    View.EXEC: ComponentKind.ACTIVITY,
    View.DO: ComponentKind.RESOURCE,
    View.TODO: ComponentKind.RESOURCE,
    View.WL: ComponentKind.RESOURCE,
    View.ENTER: ComponentKind.SEGMENT,
    View.EXIT: ComponentKind.SEGMENT,
    View.PROGR: ComponentKind.SEGMENT,
    View.DELAY: ComponentKind.SEGMENT,
}

ALL_VIEWS: tuple[View, ...] = tuple(View)


@dataclass(frozen=True)
class FeatureId:
    """A (view, component) pair naming one high-level feature."""

    view: View
    component: Component

    def __post_init__(self):
        expected = VIEW_KIND[self.view]
        if self.component.kind is not expected:
            raise ConfigError(
                f"view {self.view.value!r} applies to {expected.value} components, "
                f"got {self.component.kind.value}"
            )

    @property
    def name(self) -> str:
        """The high-level activity name, e.g. ``delay-(report,answer)``."""
        return f"{self.view.value}-{self.component.label}"


@dataclass(frozen=True)
class HighLevelEvent:
    """A feature whose value reached the threshold in one window."""

    feature: FeatureId
    window: int
    value: float


class EvaluationMatrix:
    """Feature values per (feature, window); NaN marks undefined cells."""

    def __init__(self, windows: WindowSet, arrays: dict[FeatureId, np.ndarray]):
        self.windows = windows
        self._arrays = dict(sorted(arrays.items(), key=lambda kv: kv[0].name))

    @property
    def features(self) -> tuple[FeatureId, ...]:
        return tuple(self._arrays)

    def array(self, feature: FeatureId) -> np.ndarray:
        return self._arrays[feature]

    def value(self, feature: FeatureId, w: int) -> float | None:
        """The evaluated value, or None where the feature is undefined."""
        v = self._arrays[feature][self.windows.offset(w)]
        return None if math.isnan(v) else float(v)

    def defined(self) -> Iterator[tuple[FeatureId, int, float]]:
        """All defined cells, ordered by (feature name, window)."""
        for fid, arr in self._arrays.items():
            offsets = np.flatnonzero(~np.isnan(arr))
            for off, v in zip(offsets.tolist(), arr[offsets].tolist()):
                yield fid, self.windows.first + off, v

    def views_present(self) -> tuple[View, ...]:
        return tuple(sorted({f.view for f in self._arrays}, key=lambda v: v.value))

    def pooled(self, view: View, exclude_zeros: bool = False) -> np.ndarray:
        """All defined values of a view across components and windows."""
        chunks = [a for f, a in self._arrays.items() if f.view is view]
        if not chunks:
            return np.empty(0)
        values = np.concatenate(chunks)
        values = values[~np.isnan(values)]
        if exclude_zeros:
            values = values[values != 0]
        return values


# --- single-cell evaluation -------------------------------------------------
#
# These follow the set comprehensions directly and are convenient for spot
# checks and small logs. `evaluate` below computes whole windows-length
# arrays instead and is the path the pipeline uses.


def eval_exec(log: EventLog, framing: Framing, activity: str, w: int) -> int:
    events = _known(log.events_by_activity, activity, "activity")
    start, end = framing.window_bounds(w)
    return sum(1 for e in events if start <= e.timestamp < end)


def eval_do(log: EventLog, framing: Framing, resource: str, w: int) -> int:
    events = _known(log.events_by_resource, resource, "resource")
    start, end = framing.window_bounds(w)
    return sum(1 for e in events if start <= e.timestamp < end)


def eval_todo(log: EventLog, framing: Framing, resource: str, w: int) -> int:
    _known(log.events_by_resource, resource, "resource")
    start, end = framing.window_bounds(w)
    steps = log.steps_by_second_resource.get(resource, ())
    return sum(1 for s in steps if start <= s.first.timestamp < end)


def eval_wl(log: EventLog, framing: Framing, resource: str, w: int) -> int:
    events = _known(log.events_by_resource, resource, "resource")
    start, end = framing.window_bounds(w)
    count = 0
    for e in events:
        if start <= e.timestamp < end:
            count += 1
            continue
        trigger = log.incoming_step.get(e.id)
        if trigger is not None and trigger.first.timestamp < end and e.timestamp > start:
            count += 1
    return count


def eval_enter(log: EventLog, framing: Framing, segment: Segment, w: int) -> int:
    steps = _known(log.steps_by_segment, segment, "segment")
    start, end = framing.window_bounds(w)
    return sum(1 for s in steps if start <= s.first.timestamp < end)


def eval_exit(log: EventLog, framing: Framing, segment: Segment, w: int) -> int:
    steps = _known(log.steps_by_segment, segment, "segment")
    start, end = framing.window_bounds(w)
    return sum(1 for s in steps if start <= s.second.timestamp < end)


def eval_progr(log: EventLog, framing: Framing, segment: Segment, w: int) -> int:
    steps = _known(log.steps_by_segment, segment, "segment")
    start, end = framing.window_bounds(w)
    return sum(1 for s in steps if s.first.timestamp < end and s.second.timestamp >= start)


def eval_delay(log: EventLog, framing: Framing, segment: Segment, w: int) -> float | None:
    """Average accumulated waiting time in seconds; None when nothing crosses.

    Steps leaving during the window contribute their full duration, steps
    still in progress at the window's end contribute the time waited so far.
    """
    steps = _known(log.steps_by_segment, segment, "segment")
    start, end = framing.window_bounds(w)
    crossing = [s for s in steps if s.first.timestamp < end and s.second.timestamp >= start]
    if not crossing:
        return None
    total = 0.0
    for s in crossing:
        if start <= s.second.timestamp < end:
            total += s.duration_seconds
        else:
            total += (end - s.first.timestamp).total_seconds()
    return total / len(crossing)


def _known(groups: Mapping, key, kind: str):
    try:
        return groups[key]
    except KeyError:
        label = key.label if isinstance(key, Segment) else repr(key)
        raise KeyError(f"unknown {kind}: {label}") from None


# --- whole-matrix evaluation -------------------------------------------------


def evaluate(
    log: EventLog,
    framing: Framing,
    views: Iterable[View] | None = None,
    activities: Iterable[str] | None = None,
    resources: Iterable[str] | None = None,
    segments: Iterable[Segment] | None = None,
) -> EvaluationMatrix:
    """Evaluate the selected features over every window of the log.

    Defaults to all views over all components. Unknown components in an
    explicit selection raise KeyError.
    """
    windows = window_set(framing, log)
    selected = tuple(views) if views is not None else ALL_VIEWS
    acts = _selection(log.activities, activities, "activity")
    ress = _selection(log.resources, resources, "resource")
    segs = _selection(log.segments, segments, "segment")

    arrays: dict[FeatureId, np.ndarray] = {}
    for view in selected:
        kind = VIEW_KIND[view]
        if kind is ComponentKind.ACTIVITY:
            components = [Component.activity(a) for a in acts]
        elif kind is ComponentKind.RESOURCE:
            components = [Component.resource(r) for r in ress]
        else:
            components = [Component(ComponentKind.SEGMENT, Segment(*s)) for s in segs]
        for comp in components:
            fid = FeatureId(view, comp)
            arrays[fid] = _feature_array(log, framing, windows, fid)
    return EvaluationMatrix(windows, arrays)


def _selection(available, requested, kind):
    if requested is None:
        return sorted(available)
    requested = list(requested)
    for item in requested:
        if item not in available:
            label = item.label if isinstance(item, Segment) else repr(item)
            raise KeyError(f"unknown {kind}: {label}")
    return requested


def _feature_array(
    log: EventLog, framing: Framing, windows: WindowSet, fid: FeatureId
) -> np.ndarray:
    n = len(windows)
    view, key = fid.view, fid.component.key

    if view in (View.EXEC, View.DO):
        groups = log.events_by_activity if view is View.EXEC else log.events_by_resource
        offs = _offsets(framing, windows, (e.timestamp for e in groups.get(key, ())))
        return np.bincount(offs, minlength=n).astype(float)

    if view is View.TODO:
        steps = log.steps_by_second_resource.get(key, ())
        offs = _offsets(framing, windows, (s.first.timestamp for s in steps))
        return np.bincount(offs, minlength=n).astype(float)

    if view is View.WL:
        # A triggered event counts in every window from its trigger's window
        # through its own; an untriggered event only in its own window.
        triggered_ids = set()
        lo, hi = [], []
        for s in log.steps_by_second_resource.get(key, ()):
            triggered_ids.add(s.second.id)
            lo.append(s.first.timestamp)
            hi.append(s.second.timestamp)
        occ = [e.timestamp for e in log.events_by_resource.get(key, ()) if e.id not in triggered_ids]
        cover = _interval_cover(_offsets(framing, windows, lo), _offsets(framing, windows, hi), n)
        return cover + np.bincount(_offsets(framing, windows, occ), minlength=n)

    steps = log.steps_by_segment.get(key, ())
    first_off = _offsets(framing, windows, (s.first.timestamp for s in steps))
    second_off = _offsets(framing, windows, (s.second.timestamp for s in steps))

    if view is View.ENTER:
        return np.bincount(first_off, minlength=n).astype(float)
    if view is View.EXIT:
        return np.bincount(second_off, minlength=n).astype(float)
    if view is View.PROGR:
        return _interval_cover(first_off, second_off, n)

    # delay: (sum of full durations of steps leaving in w
    #         + sum of (end(w) - trigger time) over steps crossing but not
    #           leaving in w) / number of steps crossing w
    first_sec = np.array([framing.seconds(s.first.timestamp) for s in steps])
    second_sec = np.array([framing.seconds(s.second.timestamp) for s in steps])
    progr = _interval_cover(first_off, second_off, n)
    leave_dur = np.bincount(second_off, weights=second_sec - first_sec, minlength=n)
    # crossing-not-leaving means windows [first_off, second_off - 1]
    cnt = np.zeros(n + 1)
    np.add.at(cnt, first_off, 1.0)
    np.add.at(cnt, second_off, -1.0)
    cnt = np.cumsum(cnt[:-1])
    tsum = np.zeros(n + 1)
    np.add.at(tsum, first_off, first_sec)
    np.add.at(tsum, second_off, -first_sec)
    tsum = np.cumsum(tsum[:-1])
    # window ends via the datetime path, so the waited-so-far term agrees
    # with the microsecond-quantized bounds used everywhere else
    end_sec = np.array(
        [framing.seconds(framing.window_start(windows.first + off + 1)) for off in range(n)]
    )
    numer = leave_dur + cnt * end_sec - tsum
    with np.errstate(invalid="ignore"):
        return np.where(progr > 0, numer / np.maximum(progr, 1.0), np.nan)


def _offsets(framing: Framing, windows: WindowSet, times) -> np.ndarray:
    secs = np.fromiter((framing.seconds(t) for t in times), dtype=float)
    if secs.size == 0:
        return np.empty(0, dtype=int)
    return np.floor(secs / framing.width).astype(int) - windows.first


def _interval_cover(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Counts, per window, of the inclusive index intervals [lo, hi]."""
    d = np.zeros(n + 1)
    np.add.at(d, lo, 1.0)
    np.add.at(d, hi + 1, -1.0)
    return np.cumsum(d[:-1])


# --- thresholds and high-level events ----------------------------------------


@dataclass(frozen=True)
class ThresholdTable:
    """One threshold per view; all features of a view share it."""

    percentile: float
    by_view: Mapping[View, float]

    def for_feature(self, feature: FeatureId) -> float:
        return self.by_view[feature.view]


def nearest_rank(values: np.ndarray, p: float) -> float:
    """The nearest-rank percentile: the value at rank ceil(p*n), 1-based.

    p=0 yields the minimum, p=1 the maximum. No interpolation.
    """
    n = len(values)
    if n == 0:
        raise ValueError("empty multiset")
    # the epsilon absorbs float noise in p*n when p is an exact rank boundary
    rank = min(n, max(1, math.ceil(p * n - 1e-9)))
    return float(np.sort(values)[rank - 1])


def compute_thresholds(
    matrix: EvaluationMatrix, p: float, exclude_zeros: bool = False
) -> ThresholdTable:
    """Per-view thresholds from the pooled value multisets.

    A view whose pool is empty (possible for delay, or for any view under
    ``exclude_zeros``) is left out with a warning; it can produce no
    high-level events.
    """
    if not 0 <= p <= 1:
        raise ConfigError(f"percentile must lie in [0, 1], got {p}")
    by_view: dict[View, float] = {}
    for view in matrix.views_present():
        pool = matrix.pooled(view, exclude_zeros=exclude_zeros)
        if len(pool) == 0:
            log_.warning("view %s has no defined values; no threshold derived", view.value)
            continue
        by_view[view] = nearest_rank(pool, p)
    return ThresholdTable(percentile=p, by_view=by_view)


def generate_hles(matrix: EvaluationMatrix, thresholds: ThresholdTable) -> tuple[HighLevelEvent, ...]:
    """All (feature, window) cells whose defined value meets the threshold.

    Ordered by (window, feature name).
    """
    first = matrix.windows.first
    hles = []
    # features come in name order, so a stable sort by window alone gives
    # (window, name) order
    for fid in matrix.features:
        threshold = thresholds.by_view.get(fid.view)
        if threshold is None:
            continue
        arr = matrix.array(fid)
        # NaN compares false, so undefined cells never qualify
        offsets = np.flatnonzero(arr >= threshold)
        hles.extend(
            HighLevelEvent(fid, first + off, v)
            for off, v in zip(offsets.tolist(), arr[offsets].tolist())
        )
    hles.sort(key=attrgetter("window"))
    return tuple(hles)
