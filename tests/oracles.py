"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results from first principles (set
comprehensions over raw events, breadth-first search over relations) and
deliberately avoids the library's derived structures, so the two routes
can be compared against each other.
"""

import csv
import itertools
import math
import re
import types
from collections import Counter, deque
from datetime import datetime, timedelta
from typing import NamedTuple

import numpy as np

from highline import (
    ColumnMapping, ComponentKind, EventLog, HighLevelEvent, HLETable, HighLevelLog, LinkTable, Segment, View,
)
from highline.events import from_microseconds, to_microseconds
from highline.features import FeatureTable


# --- per-row views of the columns ------------------------------------------------


class Component(NamedTuple):
    """A process entity a feature can measure: an activity or a resource,
    keyed by its name, or a segment, keyed by its ``Segment``."""

    kind: ComponentKind
    key: str | Segment

    @staticmethod
    def activity(name):
        return Component(ComponentKind.ACTIVITY, name)

    @staticmethod
    def resource(name):
        return Component(ComponentKind.RESOURCE, name)

    @staticmethod
    def segment(source, target):
        return Component(ComponentKind.SEGMENT, Segment(source, target))

    @property
    def label(self):
        return self.key.label if isinstance(self.key, Segment) else self.key


class Feature(NamedTuple):
    """A feature as a (view, component) pair."""

    view: View
    component: Component

    @property
    def name(self) -> str:
        """The high-level activity name, e.g. ``delay-(report,answer)``."""
        return f"{self.view.value}-{self.component.label}"


def event_log(events):
    """An ``EventLog`` of ``Event`` objects, built from their columns."""
    events = list(events)
    return EventLog.from_columns(
        [e.case for e in events],
        [e.activity for e in events],
        [to_microseconds(e.timestamp) for e in events],
        [e.resource for e in events],
        ids=[e.id for e in events],
    )


def _events(log):
    """The events of a log, or the given events themselves."""
    return log.events if isinstance(log, EventLog) else log


def order_key(e):
    return (e.timestamp, e.id)


def code_space(log):
    """The components of a log in code order: ``component_order``."""
    events = _events(log)
    return sorted(
        {Component.activity(e.activity) for e in events}
        | {Component.resource(e.resource) for e in events}
        | {Component.segment(e1.activity, e2.activity) for e1, e2 in oracle_step_events(log)},
        key=component_order,
    )


def feature_rows(table, components):
    """The rows of a ``FeatureTable`` as ``Feature``s, read through its
    (view, component code) pairs, each code an index into ``components``."""
    return [Feature(View(view), components[code]) for view, code in table]


def feature_table(features, components):
    """A ``FeatureTable`` of ``Feature``s, in the given order, each component
    coded by its index in ``components``."""

    def texts(values):
        return np.array(list(values), dtype=object)

    return FeatureTable(
        texts(f.view.value for f in features),
        np.array([components.index(f.component) for f in features], dtype=np.int64),
        texts(f.component.kind.value for f in features),
        texts(f.component.label for f in features),
        texts(f.name for f in features),
    )


def cell(matrix, feature, w, components):
    """The value of a ``Feature`` in window ``w`` of an evaluation matrix
    whose component codes index ``components``, or None where it is
    undefined."""
    v = float(matrix.array((feature.view, components.index(feature.component)))[w - matrix.windows.first])
    return None if math.isnan(v) else v


def windows_of(matrix):
    """The window numbers of an evaluation matrix, in order."""
    return range(matrix.windows.first, matrix.windows.last + 1)


def table_space(table):
    """The code space of a ``LinkTable`` as ``Component``s, read from its kind
    and label columns; each segment label must name its two ends, as
    ``(source,target)`` does where no name holds a comma."""
    return [
        Component(ComponentKind(kind), Segment(*label[1:-1].split(",")) if kind == "segment" else label)
        for kind, label in zip(table.kinds.tolist(), table.labels.tolist())
    ]


def link_pairs(table, components):
    """The nonzero entries of a ``LinkTable`` whose codes index
    ``components``, as (component, component, value), in (first, second)
    order."""
    pairs = zip(table.first.tolist(), table.second.tolist(), table.values.tolist())
    return [(components[i], components[j], v) for i, j, v in pairs]


def link_value(table, components):
    """The link value of any two components under a ``LinkTable`` whose codes
    index ``components``: 1 for one component, the stored value of the pair
    in either order, else 0."""
    stored = {}
    for c1, c2, v in link_pairs(table, components):
        stored[c1, c2] = stored[c2, c1] = v
    return lambda c1, c2: 1.0 if c1 == c2 else stored.get((c1, c2), 0.0)


class Entry(NamedTuple):
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


def hlel_features(hlel):
    """The features of a ``HighLevelLog`` as (activity, view,
    component_kind, component, threshold) tuples."""
    f = hlel.features
    columns = (f.names, f.views, f.kinds, f.labels, hlel.thresholds)
    return list(zip(*(column.tolist() for column in columns)))


def entries(hlel):
    """The rows of a ``HighLevelLog`` as ``Entry`` tuples, read from its columns."""
    stamps = [from_microseconds(us) for us in hlel.stamps_us.tolist()]
    features = hlel_features(hlel)
    return [
        Entry(i, c, a, stamps[s], w, view, kind, component, v, threshold)
        for i, c, (a, view, kind, component, threshold), s, w, v in zip(
            hlel.hle_ids.tolist(), hlel.cases.tolist(), (features[k] for k in hlel.feature_codes.tolist()),
            hlel.stamp_codes.tolist(), hlel.windows.tolist(), hlel.values.tolist(),
        )
    ]


def entry_reprs(hlel):
    """The entries with value and threshold as their repr, so that entries
    holding a NaN compare equal, and -0.0 unequal to 0.0."""
    return [e._replace(value=repr(e.value), threshold=repr(e.threshold)) for e in entries(hlel)]


# --- steps and features -----------------------------------------------------------


def oracle_steps(log):
    """Directly-follows pairs by checking each event pair against the
    defining predicate under the (timestamp, id) total order."""
    events = list(_events(log))
    by_case = {}
    for e in events:
        by_case.setdefault(e.case, []).append(e)
    out = set()
    for e1 in events:
        peers = by_case[e1.case]
        for e2 in peers:
            if e2 is e1 or not order_key(e1) < order_key(e2):
                continue
            between = any(
                e is not e1 and e is not e2 and order_key(e1) < order_key(e) < order_key(e2)
                for e in peers
            )
            if not between:
                out.add((e1.id, e2.id))
    return out


def oracle_step_events(log):
    """The oracle steps as (first event, second event) pairs."""
    by_id = {e.id: e for e in _events(log)}
    return [(by_id[i], by_id[j]) for i, j in sorted(oracle_steps(log))]


def bounds(origin: datetime, width: float, w: int):
    # the end of window w is exactly the start of window w+1 (half-open tiling)
    start = origin + timedelta(seconds=w * width)
    end = origin + timedelta(seconds=(w + 1) * width)
    return start, end


def oracle_window(origin: datetime, width: float, t: datetime) -> int:
    """The window whose bounds hold ``t``, walked to from a float estimate."""
    w = math.floor((t - origin).total_seconds() / width)
    while t < bounds(origin, width, w)[0]:
        w -= 1
    while t >= bounds(origin, width, w)[1]:
        w += 1
    return w


def oracle_exec(log, origin, width, a, w):
    start, end = bounds(origin, width, w)
    return sum(1 for e in _events(log) if e.activity == a and start <= e.timestamp < end)


def oracle_do(log, origin, width, r, w):
    start, end = bounds(origin, width, w)
    return sum(1 for e in _events(log) if e.resource == r and start <= e.timestamp < end)


def oracle_todo(steps, origin, width, r, w):
    start, end = bounds(origin, width, w)
    return len(
        {e2.id for e1, e2 in steps if e2.resource == r and start <= e1.timestamp < end}
    )


def trigger_map(steps):
    """first event of the unique step triggering each event, by event id."""
    return {e2.id: e1 for e1, e2 in steps}


def oracle_wl(log, steps, origin, width, r, w, triggers=None):
    start, end = bounds(origin, width, w)
    if triggers is None:
        triggers = trigger_map(steps)
    count = 0
    for e2 in _events(log):
        if e2.resource != r:
            continue
        occurs = start <= e2.timestamp < end
        e1 = triggers.get(e2.id)
        waiting = e1 is not None and e1.timestamp < end and e2.timestamp > start
        if occurs or waiting:
            count += 1
    return count


def _segment_steps(steps, seg):
    return [(e1, e2) for e1, e2 in steps if (e1.activity, e2.activity) == tuple(seg)]


def oracle_enter(steps, origin, width, seg, w):
    start, end = bounds(origin, width, w)
    return sum(1 for e1, _ in _segment_steps(steps, seg) if start <= e1.timestamp < end)


def oracle_exit(steps, origin, width, seg, w):
    start, end = bounds(origin, width, w)
    return sum(1 for _, e2 in _segment_steps(steps, seg) if start <= e2.timestamp < end)


def oracle_progr(steps, origin, width, seg, w):
    start, end = bounds(origin, width, w)
    return sum(
        1
        for e1, e2 in _segment_steps(steps, seg)
        if e1.timestamp < end and e2.timestamp >= start
    )


def oracle_delay(steps, origin, width, seg, w):
    start, end = bounds(origin, width, w)
    crossing = [
        (e1, e2)
        for e1, e2 in _segment_steps(steps, seg)
        if e1.timestamp < end and e2.timestamp >= start
    ]
    if not crossing:
        return None
    total = 0.0
    for e1, e2 in crossing:
        if start <= e2.timestamp < end:
            total += (e2.timestamp - e1.timestamp).total_seconds()
        else:
            total += (end - e1.timestamp).total_seconds()
    return total / len(crossing)


# --- high-level events and the matrix dump -------------------------------------


def oracle_hles(matrix, thresholds, components):
    """The cells that reach their view's threshold, window by window and
    features in name order, each read from the matrix one at a time; the
    matrix codes its components by their index in ``components``."""
    by_view = thresholds.by_view
    chosen = sorted((f for f in feature_rows(matrix.features, components) if f.view in by_view),
                    key=lambda f: f.name)
    return [
        HighLevelEvent(f, w, v)
        for w in windows_of(matrix)
        for f in chosen
        if (v := cell(matrix, f, w, components)) is not None and v >= by_view[f.view]
    ]


def csv_text(rows):
    """Rows as CSV lines ending in ``"\\n"``, one ``csv.writer`` row each. The
    writer ends rows with ``"\\r\\n"``, so that it quotes a field holding
    either character, and each row's end is then cut to ``"\\n"``."""
    lines = []
    csv.writer(types.SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def oracle_matrix_csv(matrix, components):
    """The text of ``matrix.csv``: one row per defined cell, by (feature
    name, window); the matrix codes its components by their index in
    ``components``."""
    return csv_text([
        ["view", "component", "window", "value"],
        *(
            [f.view.value, f.component.label, w, repr(v)]
            for f in sorted(feature_rows(matrix.features, components), key=lambda f: f.name)
            for w in windows_of(matrix)
            if (v := cell(matrix, f, w, components)) is not None
        ),
    ])


# --- links ---------------------------------------------------------------------


def oracle_link(log, steps, comp1, comp2):
    """The link value of two distinct components, by literal counting."""
    log = _events(log)
    k1, k2 = comp1.kind, comp2.kind
    if k1 == k2 == ComponentKind.ACTIVITY:
        a1, a2 = comp1.key, comp2.key
        n1 = sum(1 for e in log if e.activity == a1)
        n2 = sum(1 for e in log if e.activity == a2)
        f = sum(1 for e1, e2 in steps if (e1.activity, e2.activity) == (a1, a2))
        b = sum(1 for e1, e2 in steps if (e1.activity, e2.activity) == (a2, a1))
        return max(f / n1, b / n2)
    if k1 == k2 == ComponentKind.RESOURCE:
        r1, r2 = comp1.key, comp2.key
        n1 = sum(1 for e in log if e.resource == r1)
        n2 = sum(1 for e in log if e.resource == r2)
        f = sum(1 for e1, e2 in steps if (e1.resource, e2.resource) == (r1, r2))
        b = sum(1 for e1, e2 in steps if (e1.resource, e2.resource) == (r2, r1))
        return max(f / n1, b / n2)
    if k1 == k2 == ComponentKind.SEGMENT:
        best = 0.0
        for sa, sb in ((comp1.key, comp2.key), (comp2.key, comp1.key)):
            if sa[1] != sb[0]:
                continue
            na = len(_segment_steps(steps, sa))
            nb = len(_segment_steps(steps, sb))
            triples = 0
            second_of = {(e1.id): e2 for e1, e2 in steps}
            for e1, e2 in _segment_steps(steps, sa):
                e3 = second_of.get(e2.id)
                if e3 is not None and (e2.activity, e3.activity) == tuple(sb):
                    triples += 1
            best = max(best, triples / na, triples / nb)
        return best
    if {k1, k2} == {ComponentKind.ACTIVITY, ComponentKind.RESOURCE}:
        a = comp1.key if k1 == ComponentKind.ACTIVITY else comp2.key
        r = comp1.key if k1 == ComponentKind.RESOURCE else comp2.key
        n_a = sum(1 for e in log if e.activity == a)
        n_r = sum(1 for e in log if e.resource == r)
        both = sum(1 for e in log if e.activity == a and e.resource == r)
        return max(both / n_a, both / n_r)
    if {k1, k2} == {ComponentKind.ACTIVITY, ComponentKind.SEGMENT}:
        a = comp1.key if k1 == ComponentKind.ACTIVITY else comp2.key
        seg = comp1.key if k1 == ComponentKind.SEGMENT else comp2.key
        if a not in (seg[0], seg[1]):
            return 0.0
        n_a = sum(1 for e in log if e.activity == a)
        f = len(_segment_steps(steps, seg))
        b = len(_segment_steps(steps, (seg[1], seg[0])))
        return max(f, b) / n_a
    # resource-segment, clamped like the library (self-loop corner)
    r = comp1.key if k1 == ComponentKind.RESOURCE else comp2.key
    seg = comp1.key if k1 == ComponentKind.SEGMENT else comp2.key
    seg_steps = _segment_steps(steps, seg)
    touching = sum(1 for e1, e2 in seg_steps if r in (e1.resource, e2.resource))
    n_r = sum(1 for e in log if e.resource == r)
    return min(1.0, max(touching / n_r, touching / len(seg_steps)))


def sort_key(c):
    """A component's (kind, label)."""
    return (c.kind.value, c.label)


def component_order(c):
    """The order of a link table's components: (kind, label), and two
    segments of one label by (source, target)."""
    return (sort_key(c), c.key)


def oracle_link_table(log):
    """The nonzero link values of a log as a dict from component pairs, each
    pair and the dict in ``component_order``, filled one pair at a time from
    the log's counts; a pair linked more than once keeps its largest value."""
    n_act, n_res, n_seg = len(log.activity_names), len(log.resource_names), len(log.segment_names)
    acts = [Component.activity(a) for a in log.activity_names]
    ress = [Component.resource(r) for r in log.resource_names]
    segs = [Component(ComponentKind.SEGMENT, s) for s in log.segment_names]
    act, res = log.activity_codes, log.resource_codes
    first, second = log.step_rows
    seg, ends = log.step_segments
    act_n = np.bincount(act, minlength=n_act)
    res_n = np.bincount(res, minlength=n_res)
    seg_n = np.bincount(seg, minlength=n_seg)
    r1, r2 = res[first], res[second]
    source, target = ends[:, 0], ends[:, 1]
    links = {}

    def put(left, right, i, j, values):
        keep = values > 0
        for a, b, value in zip(i[keep].tolist(), j[keep].tolist(), values[keep].tolist()):
            key = tuple(sorted((left[a], right[b]), key=component_order))
            links[key] = max(links.get(key, 0.0), min(1.0, value))

    def pair_counts(x, n_x, y, n_y):
        counts = np.bincount(x * n_y + y, minlength=n_x * n_y)
        nonzero = np.flatnonzero(counts)
        return nonzero // n_y, nonzero % n_y, counts[nonzero]

    loop = source == target
    put(acts, acts, source[~loop], target[~loop], seg_n[~loop] / act_n[source[~loop]])
    h1, h2, count = pair_counts(r1, n_res, r2, n_res)
    handover = h1 != h2
    put(ress, ress, h1[handover], h2[handover], count[handover] / res_n[h1[handover]])
    a, r, count = pair_counts(act, n_act, res, n_res)
    put(acts, ress, a, r, np.maximum(count / act_n[a], count / res_n[r]))
    reverse = dict(zip((source * n_act + target).tolist(), seg_n.tolist()))
    back = np.array([reverse.get(k, 0) for k in (target * n_act + source).tolist()], dtype=np.int64)
    moved = np.maximum(seg_n, back)
    codes = np.arange(n_seg)
    put(acts, segs, source, codes, moved / act_n[source])
    put(acts, segs, target[~loop], codes[~loop], moved[~loop] / act_n[target[~loop]])
    other = r1 != r2
    s, r, count = pair_counts(
        np.concatenate([seg, seg[other]]), n_seg, np.concatenate([r1, r2[other]]), n_res
    )
    put(segs, ress, s, r, np.maximum(count / res_n[r], count / seg_n[s]))
    chained = second[:-1] == first[1:]
    s1, s2, count = pair_counts(seg[:-1][chained], n_seg, seg[1:][chained], n_seg)
    distinct = s1 != s2
    s1, s2, count = s1[distinct], s2[distinct], count[distinct]
    put(segs, segs, s1, s2, np.maximum(count / seg_n[s1], count / seg_n[s2]))
    return dict(sorted(links.items(), key=lambda item: tuple(map(component_order, item[0]))))


def oracle_links_csv(log, include_zeros=False):
    """The text of ``links.csv``: one row per pair of ``oracle_link_table``,
    or with ``include_zeros`` per pair of the log's components, 0.0 where
    they are not linked; pairs and rows in ``component_order``."""
    links = oracle_link_table(log)
    pairs = itertools.combinations(code_space(log), 2) if include_zeros else links
    return csv_text([
        ["kind1", "component1", "kind2", "component2", "link"],
        *([c1.kind.value, c1.label, c2.kind.value, c2.label, repr(links.get((c1, c2), 0.0))] for c1, c2 in pairs),
    ])


def link_table(pairs):
    """A ``LinkTable`` of a dict from component pairs to link values, over
    the pairs' components in ``component_order``."""
    components = sorted({c for pair in pairs for c in pair}, key=component_order)
    code = {c: i for i, c in enumerate(components)}
    return LinkTable(
        np.array([c.kind.value for c in components], dtype=object),
        np.array([c.label for c in components], dtype=object),
        np.array([code[c1] for c1, _ in pairs], dtype=np.int64),
        np.array([code[c2] for _, c2 in pairs], dtype=np.int64),
        np.array(list(pairs.values()), dtype=float),
    )


# --- cascades ------------------------------------------------------------------


def oracle_proximity(h1, h2, link_value):
    """Proximity of h1 to h2: only into the next window, 1 for one component.

    ``link_value(c1, c2)`` supplies pairwise component closeness.
    """
    if h2.window != h1.window + 1:
        return 0.0
    if h1.feature.component == h2.feature.component:
        return 1.0
    return link_value(h1.feature.component, h2.feature.component)


def oracle_propagates(h1, h2, link_value, lam):
    """Whether h1 propagates to h2: h2 in the next window and proximity >= lam.

    The window test is explicit because at lam = 0 proximity 0 passes too.
    """
    return h2.window == h1.window + 1 and oracle_proximity(h1, h2, link_value) >= lam


def oracle_partition(hles, link_value, lam):
    """Connected components of the symmetrized propagation relation.

    ``link_value(c1, c2)`` supplies pairwise component closeness. Returns a
    set of frozensets of high-level events.
    """

    def prop(h1, h2):
        return oracle_propagates(h1, h2, link_value, lam)

    hles = list(hles)
    neighbors = {h: [] for h in hles}
    for h1 in hles:
        for h2 in hles:
            if prop(h1, h2) or prop(h2, h1):
                if h1 is not h2:
                    neighbors[h1].append(h2)
    seen = set()
    blocks = set()
    for h in hles:
        if h in seen:
            continue
        block = set()
        queue = deque([h])
        while queue:
            cur = queue.popleft()
            if cur in block:
                continue
            block.add(cur)
            queue.extend(n for n in neighbors[cur] if n not in block)
        seen |= block
        blocks.add(frozenset(block))
    return blocks


def oracle_cascade_ids(hles, link_value, lam):
    """Cascade id of every distinct event: the blocks of ``oracle_partition``
    numbered 1, 2, ... in the order of their first event by (window, feature
    name, value)."""
    block_of = {h: block for block in oracle_partition(hles, link_value, lam) for h in block}
    ids = {}
    for h in sorted(block_of, key=lambda h: (h.window, h.feature.name, h.value)):
        ids.setdefault(block_of[h], len(ids) + 1)
    return {h: ids[block] for h, block in block_of.items()}


def cascade_ids(assignment, components):
    """The cascade of every distinct event of a cascade assignment, the
    events read by ``hle_rows``."""
    return dict(zip(hle_rows(assignment.hles, components), assignment.cases.tolist()))


def partition_of(assignment, components):
    """Turn a cascade assignment into a partition for comparison."""
    groups = {}
    for h, cid in cascade_ids(assignment, components).items():
        groups.setdefault(cid, set()).add(h)
    return {frozenset(g) for g in groups.values()}


# --- high-level event log --------------------------------------------------------


def oracle_dfg_counts(hlel):
    """Activity frequencies and within-case adjacencies of a flattened log,
    counted entry by entry."""
    rows = entries(hlel)
    nodes, edges = {}, {}
    for e in rows:
        nodes[e.activity] = nodes.get(e.activity, 0) + 1
    for prev, cur in zip(rows, rows[1:]):
        if prev.case == cur.case:
            key = (prev.activity, cur.activity)
            edges[key] = edges.get(key, 0) + 1
    return nodes, edges


def oracle_hle_summary(hlel, period_seconds, origin, activities):
    """Per 1-based period with entries: the entry count, and per activity
    the count and the mean value (delay in hours), summed in entry order."""
    out = {}
    for e in entries(hlel):
        out.setdefault(oracle_window(origin, period_seconds, e.timestamp) + 1, []).append(e)
    summary = {}
    for p, group in out.items():
        counts, averages = [], []
        for a in activities:
            values = [e.value / (3600.0 if e.view == "delay" else 1.0)
                      for e in group if e.activity == a]
            total = 0.0
            for v in values:
                total += v
            counts.append(len(values))
            averages.append(total / len(values) if values else None)
        summary[p] = (len(group), tuple(counts), tuple(averages))
    return summary


def oracle_summary_csv(log, hlel, period_seconds, origin, activities=None, top=4, timestamp_format=None):
    """The text of ``summary.csv``: one row per period from the first period
    holding an event or entry to the last, its start through
    ``oracle_stamp``, each average as ``%.6g`` text or empty. Activities
    default to the ``top`` most frequent ones, ties in name order."""
    if activities is None:
        freq = Counter(e.activity for e in entries(hlel))
        activities = sorted(freq, key=lambda a: (-freq[a], a))[:top]
    events = Counter(oracle_window(origin, period_seconds, e.timestamp) + 1 for e in log.events)
    summary = oracle_hle_summary(hlel, period_seconds, origin, activities)
    periods = [*events, *summary]
    none = (0, (0,) * len(activities), (None,) * len(activities))
    rows = [["period", "start", "events", "hles", *(f"{k}:{a}" for a in activities for k in ("count", "avg"))]]
    first, last = (min(periods), max(periods)) if periods else (1, 0)
    for p in range(first, last + 1):
        hles, counts, averages = summary.get(p, none)
        start = oracle_stamp(bounds(origin, period_seconds, p - 1)[0], timestamp_format)
        rows.append([p, start, events[p], hles, *(
            x for c, avg in zip(counts, averages) for x in (c, "" if avg is None else f"{avg:.6g}")
        )])
    return csv_text(rows)


def oracle_stamp(t, timestamp_format=None):
    """A timestamp as the CSV writers write it: through ``isoformat``, or
    through ``strftime`` with each ``%Y`` directive (not a literal ``%%Y``)
    spelled out as the four-digit year, which ``strptime`` reads back."""
    if timestamp_format is None:
        return t.isoformat()
    return t.strftime(re.sub("%(.)", lambda m: f"{t.year:04d}" if m[1] == "Y" else m[0],
                             timestamp_format))


def oracle_hlel_csv(hlel, timestamp_format=None):
    """The text of ``hlel.csv``: one row per entry, its timestamp through
    ``oracle_stamp``, its floats through ``repr``."""
    return csv_text([
        ["hle_id", "case", "activity", "timestamp", "window", "view",
         "component_kind", "component", "value", "threshold"],
        *(
            [e.hle_id, e.case, e.activity, oracle_stamp(e.timestamp, timestamp_format), e.window,
             e.view, e.component_kind, e.component, repr(e.value), repr(e.threshold)]
            for e in entries(hlel)
        ),
    ])


def oracle_event_csv(log, mapping=None, timestamp_format=None):
    """The text of ``write_event_csv``: one row per event in row order, its
    timestamp through ``oracle_stamp``."""
    mapping = mapping or ColumnMapping()
    return csv_text([
        [mapping.case, mapping.activity, mapping.timestamp, mapping.resource],
        *([e.case, e.activity, oracle_stamp(e.timestamp, timestamp_format), e.resource] for e in log.events),
    ])


# --- columns of hand-made objects --------------------------------------------------


def hle_rows(table, components):
    """The rows of an ``HLETable``, as its sequence yields them, each
    feature read as a ``Feature`` whose component code indexes
    ``components``."""
    return [h._replace(feature=Feature(View(h.feature[0]), components[h.feature[1]])) for h in table]


def hle_table(hles, components=None):
    """An ``HLETable`` of high-level events of ``Feature``s, in the given
    order, built from its columns; features in name order, as the table
    has them, each component coded by its index in ``components`` (by
    default, the events' components in ``component_order``)."""
    hles = list(hles)
    if components is None:
        components = sorted({h.feature.component for h in hles}, key=component_order)
    features = sorted({h.feature for h in hles}, key=lambda f: (f.name, components.index(f.component)))
    code = {f: i for i, f in enumerate(features)}
    return HLETable(
        feature_table(features, components),
        np.array([code[h.feature] for h in hles], dtype=np.intp),
        np.array([h.window for h in hles], dtype=np.int64),
        np.array([h.value for h in hles], dtype=float),
    )


def edge_events(table, edges, components):
    """The rows of a ``propagation_edges`` array over ``table`` as pairs of
    high-level events, read by ``hle_rows``."""
    events = hle_rows(table.distinct(), components)
    return [(events[i], events[j]) for i, j in edges.tolist()]


def hlel_of(features, *columns):
    """A ``HighLevelLog`` of (activity, view, component_kind, component,
    threshold) feature tuples and its columns from ``feature_codes`` on."""
    texts = [np.array([f[k] for f in features], dtype=object) for k in range(4)]
    table = FeatureTable(texts[1], np.full(len(features), -1), texts[2], texts[3], texts[0])
    return HighLevelLog(table, np.array([f[4] for f in features], dtype=float), *columns)


def high_level_log(rows):
    """A ``HighLevelLog`` of the given ``Entry`` rows, in the given order,
    built from its columns."""
    rows = list(rows)
    features = [(e.activity, e.view, e.component_kind, e.component, e.threshold) for e in rows]
    # keyed by the threshold's repr too, so that -0.0 and 0.0 stay apart
    feature_code = {}
    for f in features:
        feature_code.setdefault((f, repr(f[4])), len(feature_code))
    stamp_code = {t: i for i, t in enumerate(dict.fromkeys(e.timestamp for e in rows))}

    def column(values, dtype):
        return np.array(list(values), dtype=dtype)

    return hlel_of(
        [f for f, _ in feature_code],
        column((feature_code[f, repr(f[4])] for f in features), np.intp),
        column((e.case for e in rows), np.int64),
        column((e.window for e in rows), np.int64),
        column((e.value for e in rows), float),
        column((e.hle_id for e in rows), np.int64),
        column(map(to_microseconds, stamp_code), np.int64),
        column((stamp_code[e.timestamp] for e in rows), np.intp),
    )


def flatten_key(order):
    """The sort key of a ``FlattenOrder`` over activity names: listed names
    first, in list order, then the others by name."""
    return lambda name: (0, order.names.index(name)) if name in order.names else (1, name)
