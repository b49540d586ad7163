"""Component closeness, proximity of high-level events, cascades.

Every unordered pair of components gets a link value in [0, 1] derived
from the control flow of the log: directly-follows frequencies for
activity and resource pairs, co-execution for activity-resource pairs,
adjacency for activity-segment pairs, shared steps for resource-segment
pairs, and chained triples for segment pairs.

Two high-level events in adjacent windows are as close as their
components' link value; the same component in adjacent windows has
proximity 1 (congestion persists). Everything else has proximity 0.
High-level events connected by propagation (proximity at or above the
lambda threshold) directly or through intermediaries end up in the same
cascade.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .events import EventLog, code_pairs
from .features import HLETable


class LinkTable:
    """Link values of unordered component pairs, as columns over one code
    space.

    ``kinds`` and ``labels`` are the code space, the kind text and the label
    of each code (``EventLog.component_kinds`` and ``component_labels`` for
    ``build_link_table``): components ranked by (kind, label), two segments
    of one label by (source, target), so that a component's code is its
    name code plus the count of components of the kinds before its own.
    Pair k links codes ``first[k]`` and ``second[k]`` with ``values[k]`` in
    (0, 1], where ``first[k] < second[k]``, in (first, second) order.
    Unstored pairs have value 0, and a component is linked to itself with
    1. The constructor takes code pairs in either orientation, repeated or
    not: each keeps its largest value, and values <= 0 are dropped.
    """

    def __init__(self, kinds: np.ndarray, labels: np.ndarray, first, second, values):
        self.kinds, self.labels = kinds, labels
        keep = (values > 0) & (first != second)
        first, second, values = first[keep], second[keep], values[keep]
        self.first, self.second, pair = code_pairs(np.minimum(first, second), np.maximum(first, second))
        self.values = np.zeros(len(self.first))
        np.maximum.at(self.values, pair, values)

    def __len__(self) -> int:
        return len(self.values)


def build_link_table(log: EventLog) -> LinkTable:
    """The full link table of a log over its components.

    Steps per segment are a ``bincount``; every other count comes from
    ``code_pairs``, in memory linear in the log: (activity, resource)
    co-executions, resource handovers, (segment, resource) touches and
    chained step pairs.
    """
    n_act, n_res, n_seg = len(log.activity_names), len(log.resource_names), len(log.segment_names)
    # activities from code 0, then resources from n_act, then segments
    seg_code = n_act + n_res + np.arange(n_seg)
    act, res = log.activity_codes, log.resource_codes
    first, second = log.step_rows
    seg, ends = log.step_segments
    # co-executions sum to the events per activity and per resource
    a, r, both = code_pairs(act, res, counts=True)
    act_n = np.bincount(a, both, minlength=n_act)
    res_n = np.bincount(r, both, minlength=n_res)
    seg_n = np.bincount(seg, minlength=n_seg)
    r1, r2 = res[first], res[second]
    source, target = ends[:, 0], ends[:, 1]
    links = []

    def put(i, j, values) -> None:
        """Link component codes i[k] and j[k] with values[k]."""
        links.append((i, j, values))

    loop = source == target
    put(source[~loop], target[~loop], seg_n[~loop] / act_n[source[~loop]])
    h1, h2, count = code_pairs(r1, r2, counts=True)
    handover = h1 != h2
    put(n_act + h1[handover], n_act + h2[handover], count[handover] / res_n[h1[handover]])
    put(a, n_act + r, np.maximum(both / act_n[a], both / res_n[r]))
    # steps moving a case over the segment in either direction, each
    # segment's reverse found among the (source, target) keys in key order
    keys, back = source * n_act + target, target * n_act + source
    by_key = np.argsort(keys)
    at = by_key[np.minimum(np.searchsorted(keys[by_key], back), n_seg - 1)]
    moved = np.maximum(seg_n, np.where(keys[at] == back, seg_n[at], 0))
    put(source, seg_code, moved / act_n[source])
    put(target[~loop], seg_code[~loop], moved[~loop] / act_n[target[~loop]])
    # a step touches a resource once, even where both its events share it
    other = r1 != r2
    s, r, count = code_pairs(np.concatenate([seg, seg[other]]), np.concatenate([r1, r2[other]]), counts=True)
    put(seg_code[s], n_act + r, np.maximum(count / res_n[r], count / seg_n[s]))
    # consecutive steps of one case share an event: chained segment pairs
    chained = second[:-1] == first[1:]
    s1, s2, count = code_pairs(seg[:-1][chained], seg[1:][chained], counts=True)
    distinct = s1 != s2
    s1, s2, count = s1[distinct], s2[distinct], count[distinct]
    put(seg_code[s1], seg_code[s2], np.maximum(count / seg_n[s1], count / seg_n[s2]))
    i, j, values = (np.concatenate(column) for column in zip(*links))
    return LinkTable(log.component_kinds, log.component_labels, i, j, np.minimum(values, 1.0))


# --- proximity and cascades ----------------------------------------------------


class _Layers(NamedTuple):
    """Distinct high-level events sorted by (window, feature name, value),
    grouped into (window, component) super-nodes, and the super-node edges
    that propagate at the given lambda.

    Events of one window and component have the same neighbours, so the
    propagation graph is the super-node graph with every super-node blown
    up into its events: ``node[k]`` is the super-node of row k, super-nodes
    are numbered in (window, component) order, and super-node ``tail[e]``
    propagates to ``head[e]`` in the directly following window.
    """

    hles: HLETable
    nodes: int
    node: np.ndarray
    tail: np.ndarray
    head: np.ndarray


def _offsets(count: np.ndarray) -> np.ndarray:
    """0..count[i]-1 for every i, concatenated."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - count, count)


def _near(links: LinkTable, components: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (i, j) positions in ``components`` (sorted distinct codes, any
    outside the table's code space linked to none) whose link reaches
    ``lam``, i == j too."""
    n, size = len(components), len(links.labels)
    if lam <= 0:  # unlinked pairs too
        return np.divmod(np.arange(n * n), n)
    known = np.flatnonzero((components >= 0) & (components < size))
    position = np.full(size, -1)
    position[components[known]] = known
    strong = links.values >= lam
    i, j = position[links.first[strong]], position[links.second[strong]]
    both = (i >= 0) & (j >= 0)
    i, j, own = i[both], j[both], np.arange(n)
    return np.divmod(np.sort(np.concatenate([i * n + j, j * n + i, own * n + own])), n)


def _layers(hles: HLETable, links: LinkTable, lam: float) -> _Layers:
    if not 0 <= lam <= 1:
        raise ConfigError(f"lambda must lie in [0, 1], got {lam}")
    table = hles.distinct()
    components, component_of = np.unique(table.features.components, return_inverse=True)
    n_c = max(len(components), 1)
    # a window enters the keys as its rank among the distinct windows, so
    # the keys stay below rows * components whatever the window numbers
    w = table.windows
    new = np.ones(len(w), dtype=bool)
    new[1:] = w[1:] != w[:-1]
    rank, component, node = code_pairs(np.cumsum(new) - 1, component_of[table.codes])
    keys = rank * n_c + component
    # only super-nodes whose next distinct window is directly adjacent have
    # successors: each one's candidate heads are its component's neighbours
    adjacent = np.append(np.diff(w[new]) == 1, False)
    source = np.flatnonzero(adjacent[rank])
    near_rows, near = _near(links, components, lam)
    near_start = np.searchsorted(near_rows, np.arange(n_c + 1))
    degree = np.diff(near_start)[component[source]]
    tail = np.repeat(source, degree)
    target = (rank[tail] + 1) * n_c + near[
        np.repeat(near_start[component[source]], degree) + _offsets(degree)
    ]
    head = np.minimum(np.searchsorted(keys, target), max(len(keys) - 1, 0))
    hit = keys[head] == target
    return _Layers(hles=table, nodes=len(keys), node=node, tail=tail[hit], head=head[hit])


def propagation_edges(hles: HLETable, links: LinkTable, lam: float) -> np.ndarray:
    """All direct propagations among the given high-level events, as an
    (E, 2) array of row pairs into ``hles.distinct()`` sorted by (first,
    second); for ``generate_hles`` output that is ``hles`` itself.

    An edge runs from an event to one in the directly following window
    whenever their proximity reaches ``lam``.
    """
    layers = _layers(hles, links, lam)
    # each super-node edge stands for every pair of a tail row and a head row
    by_node = np.argsort(layers.node, kind="stable")
    size = np.bincount(layers.node, minlength=layers.nodes)
    start = np.cumsum(size) - size
    width = size[layers.head]
    count = size[layers.tail] * width
    edge = np.repeat(np.arange(len(count)), count)
    i, j = np.divmod(_offsets(count), width[edge])
    first = by_node[start[layers.tail][edge] + i]
    second = by_node[start[layers.head][edge] + j]
    order = np.argsort(first * len(by_node) + second)
    return np.column_stack((first[order], second[order]))


class CascadeAssignment:
    """Dense cascade ids (1..k) of distinct high-level events: ``cases[k]``
    is the cascade of row k of ``hles``."""

    def __init__(self, hles: HLETable, cases: np.ndarray):
        self.hles = hles
        self.cases = cases

    @property
    def count(self) -> int:
        return int(self.cases.max(initial=0))


def _join(nodes: int, tail: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, int]:
    """The root of every node's set, joining the sets along each edge
    tail[e]-head[e], and the number of hooking rounds that took.

    Every set's root is its smallest node, and every hook points a root at
    a smaller node. A round hooks the larger root of each edge whose ends
    lie in different sets onto the smallest such neighbour. A root that
    neither hooked nor was hooked onto then hooks onto the node that its
    (larger) neighbour hooked onto, which lies below it. So every set with
    an edge to another merges with at least one, the sets of a connected
    part at least halve each round, and S nodes take at most ceil(log2 S)
    rounds. Each round ends by pointing every node straight at its root.
    """
    parent = np.arange(nodes)
    rounds = 0
    while True:
        low, high = parent[tail], parent[head]
        apart = low != high
        if not apart.any():
            return parent, rounds
        tail, head = tail[apart], head[apart]
        low, high = np.minimum(low[apart], high[apart]), np.maximum(low[apart], high[apart])
        np.minimum.at(parent, high, low)
        hooked_onto = np.zeros(nodes, dtype=bool)
        hooked_onto[parent[high]] = True
        stuck = (parent[low] == low) & ~hooked_onto[low]
        np.minimum.at(parent, low[stuck], parent[high[stuck]])
        rounds += 1
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up


def cascades(hles: HLETable, links: LinkTable, lam: float) -> CascadeAssignment:
    """Partition high-level events into cascades.

    Events end up in the same cascade exactly when they are connected in
    the undirected closure of the propagation relation (proximity >= lam
    between adjacent windows). Ids are dense and deterministic: cascades
    are numbered by their earliest window, ties broken by the smallest
    feature name in that window, then by the smallest value.
    """
    layers = _layers(hles, links, lam)
    root, _ = _join(layers.nodes, layers.tail, layers.head)
    # the events of a super-node with an edge share its set; those of one
    # without stay apart. Either way, a row stands for its set's first row.
    rows = np.arange(len(layers.hles))
    linked = np.zeros(layers.nodes, dtype=bool)
    linked[layers.tail] = linked[layers.head] = True
    first = np.full(layers.nodes, len(rows))
    np.minimum.at(first, root[layers.node], rows)
    rep = np.where(linked[layers.node], first[root[layers.node]], rows)
    return CascadeAssignment(layers.hles, np.cumsum(rep == rows)[rep])
