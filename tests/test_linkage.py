import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import make_log, random_log
import oracles

from highline import (
    ComponentKind,
    ConfigError,
    EventLog,
    HighLevelEvent,
    HLETable,
    Segment,
    View,
    build_link_table,
    cascades,
    propagation_edges,
)
from highline.features import FeatureTable
import highline.linkage as linkage
from oracles import Component, cascade_ids, edge_events, hle_table, link_table, table_space

AB = Segment("a", "b")
BC = Segment("b", "c")


# --- hand-computed link values on the micro fixture -------------------------------

LOG_T_TABLE = {
    # activity pairs
    (Component.activity("a"), Component.activity("b")): 1.0,
    (Component.activity("b"), Component.activity("c")): 1.0,
    (Component.activity("a"), Component.activity("c")): 0.0,
    # resource pair
    (Component.resource("r1"), Component.resource("r2")): 1.0,
    # activity-resource
    (Component.activity("a"), Component.resource("r1")): 1.0,
    (Component.activity("b"), Component.resource("r1")): 0.0,
    (Component.activity("c"), Component.resource("r1")): 1.0,
    (Component.activity("a"), Component.resource("r2")): 0.0,
    (Component.activity("b"), Component.resource("r2")): 1.0,
    (Component.activity("c"), Component.resource("r2")): 0.0,
    # activity-segment
    (Component.activity("a"), Component(ComponentKind.SEGMENT, AB)): 1.0,
    (Component.activity("b"), Component(ComponentKind.SEGMENT, AB)): 1.0,
    (Component.activity("c"), Component(ComponentKind.SEGMENT, AB)): 0.0,
    (Component.activity("a"), Component(ComponentKind.SEGMENT, BC)): 0.0,
    (Component.activity("b"), Component(ComponentKind.SEGMENT, BC)): 1.0,
    (Component.activity("c"), Component(ComponentKind.SEGMENT, BC)): 1.0,
    # resource-segment
    (Component.resource("r1"), Component(ComponentKind.SEGMENT, AB)): 1.0,
    (Component.resource("r2"), Component(ComponentKind.SEGMENT, AB)): 1.0,
    (Component.resource("r1"), Component(ComponentKind.SEGMENT, BC)): 1.0,
    (Component.resource("r2"), Component(ComponentKind.SEGMENT, BC)): 1.0,
    # segment pair
    (Component(ComponentKind.SEGMENT, AB), Component(ComponentKind.SEGMENT, BC)): 1.0,
}


def test_log_t_full_table(log_t):
    link = oracles.link_value(build_link_table(log_t), oracles.code_space(log_t))
    for (c1, c2), expected in LOG_T_TABLE.items():
        assert link(c1, c2) == expected, (c1.label, c2.label)
        assert link(c2, c1) == expected, (c2.label, c1.label)


def link(log, c1, c2):
    """The production link value of two components of ``log``."""
    return oracles.link_value(build_link_table(log), oracles.code_space(log))(c1, c2)


def test_resource_working_alone_has_zero_resource_links():
    log = make_log(
        [
            ("c1", "a", 0, "solo"), ("c1", "b", 10, "solo"),
            ("c2", "a", 5, "other"), ("c2", "b", 15, "other"),
        ]
    )
    assert link(log, Component.resource("solo"), Component.resource("other")) == 0.0


def test_partial_segment_chain():
    # one of two (a,b)-steps continues into (b,c); (b,c) also entered from x
    log = make_log(
        [
            ("c1", "a", 0, "r"), ("c1", "b", 10, "r"), ("c1", "c", 20, "r"),
            ("c2", "a", 0, "r"), ("c2", "b", 10, "r"),
            ("c3", "x", 0, "r"), ("c3", "b", 10, "r"), ("c3", "c", 20, "r"),
        ]
    )
    assert link(log, Component.segment(*AB), Component.segment(*BC)) == pytest.approx(0.5)


def test_segment_chain_recognized_in_both_orientations():
    log = make_log(
        [
            ("c1", "a", 0, "r"), ("c1", "b", 10, "r"), ("c1", "a", 20, "r"),
        ]
    )
    ab, ba = Component.segment("a", "b"), Component.segment("b", "a")
    assert link(log, ab, ba) == 1.0
    assert link(log, ba, ab) == 1.0


def test_self_loop_segment_resource_link_is_clamped():
    # middle event only carries the resource, yet touches two (a,a)-steps
    log = make_log(
        [("c1", "a", 0, "x"), ("c1", "a", 10, "r"), ("c1", "a", 20, "x")]
    )
    value = link(log, Component.resource("r"), Component.segment("a", "a"))
    assert value == 1.0


def test_segments_of_one_label_keep_their_larger_value_once():
    # ("a,a", "a") and ("a", "a,a") are both labelled (a,a,a); chained once
    # one way round and twice the other, each way is worth 1/3 and 2/3
    log = make_log(
        [
            ("c1", "a,a", 0, "r"), ("c1", "a", 10, "r"), ("c1", "a,a", 20, "r"),
            ("c2", "a", 0, "r"), ("c2", "a,a", 10, "r"), ("c2", "a", 20, "r"),
            ("c3", "a", 0, "r"), ("c3", "a,a", 10, "r"), ("c3", "a", 20, "r"),
        ]
    )
    table = build_link_table(log)
    x, y = Component.segment("a,a", "a"), Component.segment("a", "a,a")
    # a tie in (kind, label) goes by (source, target)
    pairs = oracles.link_pairs(table, oracles.code_space(log))
    segment_pairs = [p for p in pairs if p[0].kind is p[1].kind is ComponentKind.SEGMENT]
    assert segment_pairs == [(y, x, 2 / 3)]
    assert pairs == [(c1, c2, v) for (c1, c2), v in oracles.oracle_link_table(log).items()]


def test_table_matches_oracle():
    rng = random.Random(53)
    for _ in range(10):
        log = random_log(rng, max_events=80, max_cases=8)
        steps = oracles.oracle_step_events(log)
        table = build_link_table(log)
        link = oracles.link_value(table, oracles.code_space(log))
        components = (
            [Component.activity(a) for a in log.activity_names]
            + [Component.resource(r) for r in log.resource_names]
            + [Component(ComponentKind.SEGMENT, s) for s in log.segment_names]
        )
        for c1, c2 in itertools.combinations(components, 2):
            got = link(c1, c2)
            expected = oracles.oracle_link(log, steps, c1, c2)
            assert got == pytest.approx(expected), (c1.label, c2.label)
            assert 0.0 <= got <= 1.0
        assert (table.first < table.second).all()


def test_link_table_of_thousands_of_segments_takes_memory_linear_in_its_steps():
    # 3,000 cases of 5 events, each activity of 600 followed by one of 5:
    # 12,000 steps over 2,880 segments, so that a grid of segment pairs
    # would hold 8.3 M cells. Each event and step puts a few links, each
    # held in a few int64 or float64 columns at a time: about 400 bytes
    # per step, where the grid alone takes 66 MB, 5,500 per step
    rng = np.random.default_rng(0)
    cases, length, n_act = 3_000, 5, 600
    successors = rng.integers(0, n_act, (n_act, 5))
    act = np.empty((cases, length), dtype=np.int64)
    act[:, 0] = rng.integers(0, n_act, cases)
    for k in range(1, length):
        act[:, k] = successors[act[:, k - 1], rng.integers(0, 5, cases)]
    log = EventLog.from_columns(
        [f"c{c}" for c in np.repeat(np.arange(cases), length).tolist()],
        [f"a{a}" for a in act.ravel().tolist()],
        np.tile(np.arange(length) * 60_000_000, cases).tolist(),
        [f"r{r}" for r in rng.integers(0, 3, cases * length).tolist()],
    )
    steps = len(log.step_rows[0])
    assert (steps, len(log.segment_names)) == (12_000, 2_880)
    tracemalloc.start()
    try:
        table = build_link_table(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 24_817
    assert peak < 2_000 * steps


# --- proximity --------------------------------------------------------------------


def hle(view, comp, w, value=1.0):
    return HighLevelEvent(oracles.Feature(view, comp), w, value)


def edges_at(hles, links, lam):
    """The propagation edges among ``hles`` as a set of event pairs."""
    space = table_space(links)
    table = hle_table(hles, space)
    return set(edge_events(table, propagation_edges(table, links, lam), space))


def test_proximity_rules(log_t):
    table = build_link_table(log_t)
    wl_r1_0 = hle(View.WL, Component.resource("r1"), 0)
    wl_r1_1 = hle(View.WL, Component.resource("r1"), 1)
    exec_a_0 = hle(View.EXEC, Component.activity("a"), 0)
    exec_c_1 = hle(View.EXEC, Component.activity("c"), 1)
    delay_ab_1 = hle(View.DELAY, Component(ComponentKind.SEGMENT, AB), 1)
    exec_a_2 = hle(View.EXEC, Component.activity("a"), 2)
    edges = edges_at([wl_r1_0, wl_r1_1, exec_a_0, exec_c_1, delay_ab_1, exec_a_2], table, 1.0)
    # persistence: same component in adjacent windows
    assert (wl_r1_0, wl_r1_1) in edges
    # different views on linked components
    assert (exec_a_0, delay_ab_1) in edges
    # and nothing else: not unlinked components (exec-a, exec-c), the same
    # window, a gap of two windows or the reverse direction
    assert edges == {
        (wl_r1_0, wl_r1_1), (wl_r1_0, exec_c_1), (wl_r1_0, delay_ab_1),
        (exec_a_0, wl_r1_1), (exec_a_0, delay_ab_1),
        (wl_r1_1, exec_a_2), (delay_ab_1, exec_a_2),
    }


def test_proximity_across_views_same_component(log_t):
    table = build_link_table(log_t)
    enter_ab_0 = hle(View.ENTER, Component(ComponentKind.SEGMENT, AB), 0)
    delay_ab_1 = hle(View.DELAY, Component(ComponentKind.SEGMENT, AB), 1)
    assert edges_at([enter_ab_0, delay_ab_1], table, 1.0) == {(enter_ab_0, delay_ab_1)}


# --- cascades ---------------------------------------------------------------------


def comp(name):
    return Component.activity(name)


def table_of(pairs):
    return link_table({(comp(a), comp(b)): v for (a, b), v in pairs.items()})


def test_chain_of_three_shares_one_cascade():
    links = table_of({("A", "B"): 0.8, ("B", "C"): 0.8, ("A", "C"): 0.0})
    hles = [hle(View.EXEC, comp("A"), 0), hle(View.EXEC, comp("B"), 1), hle(View.EXEC, comp("C"), 2)]
    space = table_space(links)
    assignment = cascades(hle_table(hles, space), links, 0.5)
    assert len(set(cascade_ids(assignment, space).values())) == 1


def test_simultaneous_events_joined_through_shared_successor():
    links = table_of({("A", "C"): 0.9, ("B", "C"): 0.9, ("A", "B"): 0.0})
    a0 = hle(View.EXEC, comp("A"), 0)
    b0 = hle(View.EXEC, comp("B"), 0)
    c1 = hle(View.EXEC, comp("C"), 1)
    space = table_space(links)
    assignment = cascades(hle_table([a0, b0, c1], space), links, 0.5)
    ids = cascade_ids(assignment, space)
    assert ids[a0] == ids[b0] == ids[c1]


def test_lambda_one_with_weak_links_gives_singletons():
    links = table_of({("A", "B"): 0.99, ("B", "C"): 0.99})
    hles = [hle(View.EXEC, comp("A"), 0), hle(View.EXEC, comp("B"), 1), hle(View.EXEC, comp("C"), 2)]
    space = table_space(links)
    assignment = cascades(hle_table(hles, space), links, 1.0)
    assert len(set(cascade_ids(assignment, space).values())) == 3


def texts(*values):
    return np.array(values, dtype=object)


def test_persistence_propagates_at_lambda_one():
    hles = [hle(View.EXEC, comp("A"), 0), hle(View.EXEC, comp("A"), 1)]
    # a component beyond the code space of the empty table
    assignment = cascades(hle_table(hles), link_table({}), 1.0)
    assert len(set(cascade_ids(assignment, [comp("A")]).values())) == 1
    # a code outside the code space, -1 as a read-back log gives or one past
    # its end, is linked to nothing, not to the last component: (a,b), which
    # is linked 1.0 to a
    links = build_link_table(make_log([("c1", "a", 0, "r1"), ("c1", "b", 60, "r2")]))
    assert links.labels[-1] == "(a,b)"
    for outside in (-1, 99):
        features = FeatureTable(
            texts("delay", "exec"), np.array([outside, 0]), texts("segment", "activity"), texts("(a,b)", "a"),
            texts("delay-(a,b)", "exec-a"),
        )
        table = HLETable(features, np.array([0, 1]), np.array([0, 1]), np.ones(2))
        assert cascades(table, links, 0.5).cases.tolist() == [1, 2]


def test_cascade_ids_dense_and_deterministically_numbered():
    links = table_of({})
    hles = [
        hle(View.EXEC, comp("B"), 5),
        hle(View.EXEC, comp("A"), 5),
        hle(View.EXEC, comp("C"), 2),
    ]
    assignment = cascades(hle_table(hles), links, 0.5)
    # numbering by earliest window, then smallest feature name
    ids = cascade_ids(assignment, sorted({h.feature.component for h in hles}, key=oracles.component_order))
    assert ids[hles[2]] == 1
    assert ids[hles[1]] == 2
    assert ids[hles[0]] == 3
    assert sorted(set(ids.values())) == [1, 2, 3]


def test_cascade_ids_invariant_under_input_permutation():
    rng = random.Random(59)
    names = ["A", "B", "C", "D"]
    pairs = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            pairs[(a, b)] = rng.random()
    links = table_of(pairs)
    hles = [
        hle(View.EXEC, comp(rng.choice(names)), rng.randint(0, 5), value=float(i))
        for i in range(30)
    ]
    space = table_space(links)
    baseline = cascades(hle_table(hles, space), links, 0.4)
    for _ in range(5):
        shuffled = hles[:]
        rng.shuffle(shuffled)
        assignment = cascades(hle_table(shuffled, space), links, 0.4)
        assert cascade_ids(assignment, space) == cascade_ids(baseline, space)


def test_lambda_out_of_range():
    with pytest.raises(ConfigError):
        cascades(hle_table([]), link_table({}), 1.5)


WORLD_VIEWS = {
    ComponentKind.ACTIVITY: (View.EXEC,),
    ComponentKind.RESOURCE: (View.DO, View.WL),
    ComponentKind.SEGMENT: (View.ENTER, View.DELAY),
}


def random_hle_world(rng, n_hles=60, n_windows=8):
    """Random high-level events and links, as a LinkTable and as the raw pair
    dict it was built from, and the table's code space extended by the
    components it lacks.

    Components of all three kinds, several views per resource and segment,
    the last two components absent from the table, windows with gaps, and a
    few events repeated as equal but distinct objects.
    """
    components = (
        [comp(f"A{i}") for i in range(3)]
        + [Component.resource(f"R{i}") for i in range(2)]
        + [Component.segment(f"A{i}", f"A{i + 1}") for i in range(2)]
    )
    linked = components[:-2]
    pairs = {}
    for i, a in enumerate(linked):
        for b in linked[i + 1 :]:
            pairs[(a, b)] = rng.random() if rng.random() < 0.7 else 0.0
    windows = rng.sample(range(2 * n_windows), n_windows)
    seen = set()
    hles = []
    for _ in range(n_hles):
        c = rng.choice(components)
        key = (rng.choice(WORLD_VIEWS[c.kind]), c, rng.choice(windows))
        if key in seen:
            continue
        seen.add(key)
        hles.append(hle(*key, value=rng.random()))
    for h in rng.sample(hles, min(5, len(hles))):
        hles.append(hle(h.feature.view, h.feature.component, h.window, h.value))
    links = link_table(pairs)
    return hles, links, pairs, [*table_space(links), *components[-2:]]


def raw_link(pairs):
    """Link values read straight from a pair dict, in either orientation."""
    return lambda c1, c2: max(pairs.get((c1, c2), 0.0), pairs.get((c2, c1), 0.0))


def world_lambdas(rng):
    return (0.0, 1.0, rng.random())


def test_propagation_edges_span_adjacent_windows_only():
    rng = random.Random(71)
    for _ in range(10):
        hles, links, pairs, space = random_hle_world(rng)
        table = hle_table(hles, space)
        for lam in world_lambdas(rng):
            edges = propagation_edges(table, links, lam)
            rows = list(map(tuple, edges.tolist()))
            assert rows == sorted(set(rows))  # sorted, no edge twice
            pairs_of = edge_events(table, edges, space)
            assert all(h2.window == h1.window + 1 for h1, h2 in pairs_of)
            # edge set is exactly the pairs the oracle passes on the raw links
            assert set(pairs_of) == {
                (h1, h2)
                for h1 in hles
                for h2 in hles
                if oracles.oracle_propagates(h1, h2, raw_link(pairs), lam)
            }


def test_cascades_match_reachability_oracle():
    rng = random.Random(61)
    for _ in range(20):
        hles, links, pairs, space = random_hle_world(rng)
        for lam in world_lambdas(rng):
            assignment = cascades(hle_table(hles, space), links, lam)
            got = oracles.partition_of(assignment, space)
            expected = oracles.oracle_partition(hles, raw_link(pairs), lam)
            assert got == expected


def test_lambda_refines_cascades():
    rng = random.Random(67)
    for _ in range(10):
        hles, links, _, space = random_hle_world(rng)
        lam1, lam2 = sorted((rng.random(), rng.random()))
        table = hle_table(hles, space)
        coarse = cascades(table, links, lam1)
        fine = cascades(table, links, lam2)
        coarse_of = cascade_ids(coarse, space)
        for block in oracles.partition_of(fine, space):
            assert len({coarse_of[h] for h in block}) == 1


def chain(windows):
    """A chain through ``windows`` windows that alternates between two linked
    resources: r1 with two views in even windows, r0 with one in odd ones.
    Names order r0 first, so the component id descends at every step from
    an even window to the next."""
    r0, r1 = Component.resource("r0"), Component.resource("r1")
    features = [oracles.Feature(View.DO, r0), oracles.Feature(View.DO, r1), oracles.Feature(View.WL, r1)]
    odd = np.arange(1, windows, 2)
    even = np.arange(0, windows, 2)
    codes = np.concatenate([np.zeros(len(odd)), np.ones(len(even)), np.full(len(even), 2)])
    table = HLETable(
        oracles.feature_table(features, [r0, r1]),
        codes.astype(np.intp),
        np.concatenate([odd, even, even]).astype(np.int64),
        np.ones(len(codes)),
    )
    return table, link_table({(r0, r1): 0.5})


def test_a_long_alternating_chain_is_one_cascade():
    table, links = chain(2000)
    assert cascades(table, links, 0.5).count == 1
    assert len(propagation_edges(table, links, 0.5)) == 2 * 1999
    layers = linkage._layers(table, links, 0.5)
    assert layers.nodes == 2000
    assert linkage._join(layers.nodes, layers.tail, layers.head)[1] <= math.ceil(math.log2(2000))

    prefix, _ = chain(300)
    assignment = cascades(prefix, links, 0.5)
    space = table_space(links)
    link = oracles.link_value(links, space)
    events = oracles.hle_rows(prefix, space)
    assert cascade_ids(assignment, space) == oracles.oracle_cascade_ids(events, link, 0.5)
    assert set(edge_events(prefix, propagation_edges(prefix, links, 0.5), space)) == {
        (h1, h2)
        for h1, h2 in itertools.product(events, repeat=2)
        if oracles.oracle_propagates(h1, h2, link, 0.5)
    }


def test_joining_takes_at_most_log2_rounds_where_plain_min_hooking_takes_more():
    # super-nodes 0-4 in window 0, 5-7 in window 1 (one resource each), with
    # edges 0-5, 1-6, 2-7, 3-7, 4-7, 3-5 and 4-6: hooking only the larger
    # root of each edge onto the smaller needs 4 rounds here, one more than
    # log2 of the 8 super-nodes
    r = [Component.resource(f"r{i}") for i in range(8)]
    edges = [(0, 5), (1, 6), (2, 7), (3, 7), (4, 7), (3, 5), (4, 6)]
    links = link_table({(r[a], r[b]): 1.0 for a, b in edges})
    hles = hle_table([hle(View.DO, r[i], 0 if i < 5 else 1) for i in range(8)], table_space(links))
    layers = linkage._layers(hles, links, 0.5)
    assert (layers.nodes, len(layers.tail)) == (8, len(edges))
    root, rounds = linkage._join(layers.nodes, layers.tail, layers.head)
    assert rounds <= 3
    assert root.tolist() == [0] * 8
    assert cascades(hles, links, 0.5).count == 1
