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
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .events import ComponentKind, EventLog, Segment, lexsort_order, to_microseconds
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


class FeatureTable:
    """High-level features as columns (texts as object arrays): row k is the
    feature ``names[k]``, view ``views[k]`` of the component of code
    ``components[k]``, kind ``kinds[k]`` and label ``labels[k]``. ``evaluate``
    makes the rows in name order, the codes in the log's component code
    space (a kind's offset plus the name code) and the kinds and labels
    from its columns (``EventLog.component_kinds`` and
    ``component_labels``). Iteration yields (view, code) pairs."""

    def __init__(self, views, components, kinds, labels, names):
        self.views, self.components, self.kinds = views, components, kinds
        self.labels, self.names = labels, names

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def activities(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct names, and each row's index among them."""
        return np.unique(self.names, return_inverse=True)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return zip(self.views.tolist(), self.components.tolist())


class HighLevelEvent(NamedTuple):
    """A feature, as a (view, component code) pair, that reached its threshold in one window."""

    feature: tuple[str, int]
    window: int
    value: float


class HLETable(Sequence[HighLevelEvent]):
    """High-level events as columns: row k is the event of feature row
    ``codes[k]`` of ``features``, a ``FeatureTable``, in window
    ``windows[k]`` with value ``values[k]``.

    ``features`` are in name order, so a code orders rows like the feature's
    name. As a sequence the table yields ``HighLevelEvent`` objects, built
    once on first use; the analysis reads the columns only.
    """

    def __init__(self, features: FeatureTable, codes: np.ndarray, windows: np.ndarray, values: np.ndarray):
        self.features, self.codes, self.windows, self.values = features, codes, windows, values

    def distinct(self) -> "HLETable":
        """The distinct events ordered by (window, feature name, value);
        the table itself when it already is."""
        order = lexsort_order((self.values, self.codes, self.windows))
        w, c, v = self.windows, self.codes, self.values
        if order is not None:
            w, c, v = w[order], c[order], v[order]
        repeat = np.zeros(len(w), dtype=bool)
        repeat[1:] = (w[1:] == w[:-1]) & (c[1:] == c[:-1]) & (v[1:] == v[:-1])
        if not repeat.any() and order is None:
            return self
        keep = ~repeat
        return HLETable(self.features, c[keep], w[keep], v[keep])

    @cached_property
    def _objects(self) -> tuple[HighLevelEvent, ...]:
        features = list(self.features)
        return tuple(
            HighLevelEvent(features[c], w, v)
            for c, w, v in zip(self.codes.tolist(), self.windows.tolist(), self.values.tolist())
        )

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, k):
        return self._objects[k]

    def __iter__(self) -> Iterator[HighLevelEvent]:
        return iter(self._objects)


class EvaluationMatrix:
    """Feature values as one (feature, window) array; NaN marks undefined cells.
    Row k of ``values`` is row k of ``features``, a ``FeatureTable`` in name
    order, so each view's features are one row range, ``blocks[view]``."""

    def __init__(self, windows: WindowSet, features: FeatureTable, values: np.ndarray):
        self.windows, self.features, self.values = windows, features, values
        views = np.unique(features.views, return_index=True, return_counts=True)
        self.blocks = {View(v): slice(s, s + n) for v, s, n in zip(*(a.tolist() for a in views))}

    def array(self, feature: tuple[str, int | str]) -> np.ndarray:
        """The row of one feature: a (view, component) pair, the component
        given by its code, as iterating ``features`` yields the pair, or by
        its label (of two segments of one label, the first)."""
        view, component = feature
        block = self.blocks.get(View(view), slice(0, 0))
        column = self.features.labels if isinstance(component, str) else self.features.components
        hits = np.flatnonzero(column[block] == component)
        if not len(hits):
            raise KeyError(feature)
        return self.values[block.start + hits[0]]

    def pooled(self, view: View, exclude_zeros: bool = False) -> np.ndarray:
        """All defined values of a view across components and windows."""
        values = self.values[self.blocks.get(view, slice(0, 0))]
        return values[~np.isnan(values) & ((values != 0) if exclude_zeros else True)]


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

    Defaults to all views over all components. An empty view selection and
    unknown components in an explicit selection raise ConfigError.
    """
    windows = window_set(framing, log)
    names = (log.activity_names, log.resource_names, log.segment_names)
    requested = (activities, resources, segments)
    chosen = {kind: _selection(kind, n, r) for kind, n, r in zip(ComponentKind, names, requested)}
    # a component's code is its name code plus the count of components of the kinds before its own
    offset = dict(zip(ComponentKind, np.cumsum([0, *map(len, names)]).tolist()))
    # name order is (view, label) order: no view name is a prefix of another
    selected = sorted(set(views if views is not None else ALL_VIEWS), key=lambda v: v.value)
    if not selected:
        raise ConfigError(f"no view selected; choose from {sorted(v.value for v in View)}")
    counts = [len(chosen[VIEW_KIND[v]]) for v in selected]
    view_names = np.repeat(np.array([v.value for v in selected], dtype=object), counts)
    components = np.concatenate([offset[VIEW_KIND[v]] + chosen[VIEW_KIND[v]] for v in selected])
    labels = log.component_labels[components]
    features = FeatureTable(
        view_names, components, log.component_kinds[components], labels, view_names + "-" + labels
    )
    values = np.empty((len(features), len(windows)))
    grid, start = _Grid(log, framing, windows), 0
    for view, n in zip(selected, counts):
        codes = chosen[VIEW_KIND[view]]
        block, rows = values[start:start + n], grid.view(view)
        # one cast copy of an int grid into the float block
        if np.array_equal(codes, np.arange(len(rows))):
            np.copyto(block, rows)
        else:
            block[...] = rows[codes]
        start += n
    return EvaluationMatrix(windows, features, values)


def _selection(kind: ComponentKind, names, requested) -> np.ndarray:
    """The codes in ``names`` of the selected components of one kind, once
    each, in label order (two segments of one label in selection order);
    by default all of them, whose codes follow their labels."""
    if requested is None:
        return np.arange(len(names))
    code = {name: i for i, name in enumerate(names)}
    try:
        chosen = [code[item] for item in dict.fromkeys(requested)]
    except KeyError as exc:
        item = exc.args[0]
        label = item.label if isinstance(item, Segment) else repr(item)
        raise ConfigError(f"unknown {kind.value}: {label}") from None
    # not by code, which orders two segments of one label by (source, target)
    return np.array(sorted(chosen, key=lambda c: getattr(names[c], "label", names[c])), dtype=np.int64)


class _Grid:
    """Every view of a log as a (component code, window offset) array.

    Each view is a count or a sum grouped by the component code of an event
    or step and the window offset of one or both of its timestamps, so it is
    one ``bincount`` over ``code * windows + offset``, or the running sum of
    such a count where a step covers a range of windows. Counts are int64;
    only the delay view is a float grid.
    """

    def __init__(self, log: EventLog, framing: Framing, windows: WindowSet):
        self.log, self.framing, self.windows = log, framing, windows
        self.n = len(windows)
        self.offsets = framing.windows_of(log.times_us) - windows.first
        self.first, self.second = log.step_rows
        # the window offsets of each step's first and second event
        self.lo, self.hi = self.offsets[self.first], self.offsets[self.second]
        self.segment = log.step_segments[0]

    def _count(self, codes: np.ndarray, offsets: np.ndarray, size: int) -> np.ndarray:
        n = self.n
        return np.bincount(codes * n + offsets, minlength=size * n).reshape(size, n)

    def _cover(self, codes, lo, end, size: int, weights=None) -> np.ndarray:
        """Per code and window, the number of the half-open offset intervals
        [lo, end) that cover the window, in int64, or the sum of their
        weights: each weight added at its start, in interval order, and then
        taken away at its end, in interval order."""
        m = self.n + 1
        if weights is None:
            sums, weights = np.bincount(codes * m + lo, minlength=size * m), 1
        else:
            sums = np.zeros(size * m)
            np.add.at(sums, codes * m + lo, weights)
        np.subtract.at(sums, codes * m + end, weights)
        sums = sums.reshape(size, m)
        return np.cumsum(sums, axis=1, out=sums)[:, :-1]

    @cached_property
    def _do(self) -> np.ndarray:
        """The do view, which the wl view adds to."""
        return self._count(self.log.resource_codes, self.offsets, len(self.log.resource_names))

    @cached_property
    def _progr(self) -> np.ndarray:
        """The progr view, which the delay view divides by."""
        return self._cover(self.segment, self.lo, self.hi + 1, len(self.log.segment_names))

    def view(self, view: View) -> np.ndarray:
        """The view's grid: int64 for a count, float for delay."""
        log, lo, hi, second = self.log, self.lo, self.hi, self.second
        n_res, n_seg = len(log.resource_names), len(log.segment_names)
        if view is View.EXEC:
            return self._count(log.activity_codes, self.offsets, len(log.activity_names))
        if view is View.DO:
            return self._do
        if view is View.TODO:
            return self._count(log.resource_codes[second], lo, n_res)
        if view is View.WL:
            # Every event counts in its own window, and a triggered event
            # also in each window from its trigger's up to its own.
            waiting = self._cover(log.resource_codes[second], lo, hi, n_res)
            waiting += self._do
            return waiting
        if view is View.ENTER:
            return self._count(self.segment, lo, n_seg)
        if view is View.EXIT:
            return self._count(self.segment, hi, n_seg)
        if view is View.PROGR:
            return self._progr
        return self._delay()

    def _delay(self) -> np.ndarray:
        """(sum of full durations of steps leaving in w
            + sum of (end(w) - trigger time) over steps crossing but not
              leaving w) / number of steps crossing w.

        Sums run in step order, per (segment, window), as a per-segment loop
        over the steps would add them.
        """
        windows, n, progr = self.windows, self.n, self._progr
        seg, size, lo, hi = self.segment, len(progr), self.lo, self.hi
        # (t - origin) / 1e6 is the float that timedelta.total_seconds() gives
        # while |t - origin| < 2**53 microseconds (about 285 years)
        origin_us = to_microseconds(self.framing.origin)
        first_sec = (self.log.times_us[self.first] - origin_us) / 1e6
        second_sec = (self.log.times_us[self.second] - origin_us) / 1e6
        ends_us = self.framing.starts_us(np.arange(windows.first + 1, windows.last + 2))
        end_sec = (ends_us - origin_us) / 1e6
        # leave_dur + cnt * end_sec - tsum, in place: float addition commutes
        # and counts are exact as floats, so the bits are those of that
        # expression; crossing-not-leaving means windows [lo, hi - 1]
        numer = self._cover(seg, lo, hi, size) * end_sec
        numer += _sums(seg * n + hi, second_sec - first_sec, size * n).reshape(size, n)
        numer -= self._cover(seg, lo, hi, size, first_sec)
        # a crossing count is 0 or at least 1, so it divides where it is positive
        crossed = progr > 0
        np.divide(numer, progr, out=numer, where=crossed)
        numer[~crossed] = np.nan
        return numer


def _sums(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """The weights summed per index in ``range(size)``, in index order, as
    floats: ``bincount`` of no index gives int64 zeros, whatever the weights."""
    return np.bincount(index, weights, minlength=size).astype(float, copy=False)


# --- thresholds and high-level events ----------------------------------------


class ThresholdTable(NamedTuple):
    """One threshold per view; all features of a view share it."""

    percentile: float
    by_view: Mapping[View, float]

    def per_feature(self, features: FeatureTable) -> np.ndarray:
        """The threshold of each row of ``features``, NaN where its view has none."""
        limits = np.full(len(features), np.nan)
        for view, value in self.by_view.items():
            limits[features.views == view.value] = value
        return limits


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
    high-level events. A view whose threshold is its pool's minimum is
    kept with a warning: every defined cell of it becomes a high-level event.
    """
    if not 0 <= p <= 1:
        raise ConfigError(f"percentile must lie in [0, 1], got {p}")
    by_view: dict[View, float] = {}
    for view in matrix.blocks:
        pool = matrix.pooled(view, exclude_zeros=exclude_zeros)
        if len(pool) == 0:
            log_.warning("view %s has no defined values; no threshold derived", view.value)
            continue
        threshold = by_view[view] = nearest_rank(pool, p)
        if threshold == pool.min():
            log_.warning(
                "view %s: threshold %r is the minimum of its %d pooled values; "
                "every defined cell of the view becomes a high-level event",
                view.value, threshold, len(pool),
            )
    return ThresholdTable(percentile=p, by_view=by_view)


def generate_hles(matrix: EvaluationMatrix, thresholds: ThresholdTable) -> HLETable:
    """All (feature, window) cells whose defined value meets the threshold.

    Ordered by (window, feature name).
    """
    limits = thresholds.per_feature(matrix.features)
    # NaN compares false, so undefined cells and views without a threshold never
    # qualify; nonzero of the transposed mask runs by window, then feature name
    offsets, rows = np.nonzero((matrix.values >= limits[:, None]).T)
    codes = rows.copy()  # not a strided view into nonzero's index array
    return HLETable(matrix.features, codes, matrix.windows.first + offsets, matrix.values[rows, offsets])
