import hashlib
import logging
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import BASE, make_log, random_log
import oracles
from oracles import Component

from highline import (
    CascadeAssignment,
    ComponentKind,
    ConfigError,
    EventLog,
    Framing,
    Segment,
    View,
    build_hlel,
    compute_thresholds,
    default_origin,
    evaluate,
    generate_hles,
    ingest_csv,
    nearest_rank,
    parse_duration,
)
from highline.events import to_microseconds
from highline.features import VIEW_KIND

DEMO_SCENARIO = Path(__file__).resolve().parent.parent / "demo_output" / "scenario.csv"

F20 = Framing(BASE, 20.0)


def cell(log, view, key, w):
    """One cell of the evaluation matrix of ``log`` under F20."""
    kind = VIEW_KIND[view]
    comp = Component.segment(*key) if kind is ComponentKind.SEGMENT else Component(kind, key)
    feature = oracles.Feature(view, comp)
    return oracles.cell(evaluate(log, F20, views=(view,)), feature, w, oracles.code_space(log))


# --- spot values on the micro fixture (all re-derivable via oracles.py) ---------


def test_exec_values(log_t):
    assert cell(log_t, View.EXEC, "a", 0) == 2
    assert cell(log_t, View.EXEC, "c", 0) == 0
    assert cell(log_t, View.EXEC, "c", 1) == 1  # boundary event belongs to the later window


def test_do_values(log_t):
    assert cell(log_t, View.DO, "r1", 0) == 2
    assert cell(log_t, View.DO, "r2", 2) == 0
    assert cell(log_t, View.DO, "r1", 1) == 1


def test_todo_values(log_t):
    assert cell(log_t, View.TODO, "r2", 0) == 2
    assert cell(log_t, View.TODO, "r1", 0) == 1
    # first events of cases are never triggered
    matrix = evaluate(log_t, F20, views=(View.TODO,))
    total_triggered = sum(matrix.array(fid).sum() for fid in matrix.features)
    assert total_triggered == len(log_t.steps)


def test_wl_values(log_t):
    assert cell(log_t, View.WL, "r2", 0) == 2  # e2 occurs, e5 waits
    assert cell(log_t, View.WL, "r1", 1) == 2  # e3 occurs, e6 waits
    assert cell(log_t, View.WL, "r2", 2) == 0


def test_segment_counts(log_t):
    ab = Segment("a", "b")
    assert cell(log_t, View.ENTER, ab, 0) == 2
    assert cell(log_t, View.EXIT, ab, 0) == 1
    assert cell(log_t, View.EXIT, ab, 1) == 1
    assert cell(log_t, View.PROGR, ab, 0) == 2


def test_delay_values(log_t):
    assert cell(log_t, View.DELAY, Segment("a", "b"), 0) == pytest.approx(12.5)
    assert cell(log_t, View.DELAY, Segment("b", "c"), 2) == pytest.approx(15.0)
    # nothing crosses (a,b) in w2
    assert cell(log_t, View.DELAY, Segment("a", "b"), 2) is None


def test_delay_single_step_inside_window():
    log = make_log([("c1", "a", 3, "r1"), ("c1", "b", 9, "r1")])
    assert cell(log, View.DELAY, Segment("a", "b"), 0) == pytest.approx(6.0)


def test_unknown_component_raises(log_t):
    with pytest.raises(ConfigError, match="unknown activity: 'z'"):
        evaluate(log_t, F20, activities=["z"])
    with pytest.raises(ConfigError, match="unknown resource: 'nobody'"):
        evaluate(log_t, F20, resources=["nobody"])
    with pytest.raises(ConfigError, match=r"unknown segment: \(a,c\)"):
        evaluate(log_t, F20, segments=[Segment("a", "c")])


# --- matrix --------------------------------------------------------------------


def test_matrix_rows_are_features_in_name_order(log_t):
    matrix = evaluate(log_t, F20, views=(View.EXEC, View.DO), activities=["c", "a"])
    space = oracles.code_space(log_t)
    assert [f.name for f in oracles.feature_rows(matrix.features, space)] == ["do-r1", "do-r2", "exec-a", "exec-c"]
    assert matrix.features.names.tolist() == ["do-r1", "do-r2", "exec-a", "exec-c"]
    assert matrix.blocks == {View.DO: slice(0, 2), View.EXEC: slice(2, 4)}
    # a row by view and component code, and by view and component name
    for component in (space.index(Component.activity("c")), "c"):
        row = matrix.array((View.EXEC, component))
        assert row.tolist() == [0, 1, 1] and np.shares_memory(row, matrix.values)
    for component in (space.index(Component.activity("b")), "b"):
        with pytest.raises(KeyError):
            matrix.array((View.EXEC, component))


def test_matrix_agrees_with_single_cell(log_t):
    matrix = evaluate(log_t, F20)
    steps = oracles.oracle_step_events(log_t)
    space = oracles.code_space(log_t)
    for fid in oracles.feature_rows(matrix.features, space):
        for w in oracles.windows_of(matrix):
            got = oracles.cell(matrix, fid, w, space)
            expected = _oracle_cell(log_t, steps, BASE, 20.0, fid.view, fid.component.key, w)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected)


def test_matrix_counts_are_nonnegative_integers():
    rng = random.Random(23)
    log = random_log(rng, max_events=120)
    matrix = evaluate(log, Framing(BASE, 60.0))
    for view, block in matrix.blocks.items():
        if view is not View.DELAY:
            for value in matrix.values[block].ravel().tolist():
                assert value >= 0 and float(value).is_integer()


def with_microseconds(log):
    """The log with each stamp moved by a fraction of a second, so that its
    seconds since the origin are inexact floats and their sums depend on
    the order they are added in."""
    def names(table, codes):
        return [table[c] for c in codes.tolist()]

    return EventLog.from_columns(
        names(log.case_names, log.case_codes),
        names(log.activity_names, log.activity_codes),
        log.times_us + log.ids * 7_919 % 1_000_000,
        names(log.resource_names, log.resource_codes),
        log.ids,
    )


@pytest.mark.parametrize("width,shift,digest", [
    ("1h", False, "27b03095aa69bfa384e485e8855de020019aa36066401ccf3e6ef940e1e9d80b"),
    ("1d", False, "a446b91daeb484b8efb5792c955532b860281ab0b019b460d50d90ba21945b4a"),
    ("1h", True, "014ef5f053e65e6b9d711c65a85720db30cbf100ec116acb2ec7a075c75a83e9"),
    ("1d", True, "5adfbe362a258dc955c21522143b11d47142d28f4d03e07ce0b0f018693e3d6f"),
])
def test_the_demo_scenario_evaluates_to_pinned_bits(width, shift, digest):
    # every value, NaNs included: the golden artifacts hold only values at or
    # above a threshold, and the oracles compare delay within rel=1e-9. The
    # scenario's stamps are whole seconds, whose sums are exact in any order,
    # so only the shifted copy shows a float sum added in another order
    log = ingest_csv(str(DEMO_SCENARIO))
    log = with_microseconds(log) if shift else log
    matrix = evaluate(log, Framing(default_origin(log), parse_duration(width)))
    assert hashlib.sha256(matrix.values.tobytes()).hexdigest() == digest


def test_evaluate_memory_stays_near_the_matrix():
    # 10,000 events over 292 segments in 1,832 one-minute windows: the delay
    # view's grids peak at about 0.75 of the 17.7 MB matrix on top of it; one
    # more grid-sized copy, as an int-to-float conversion of a count, adds 0.2
    rng = np.random.default_rng(0)
    cases, length, n_act = 1_000, 10, 40
    successors = rng.integers(0, n_act, size=(n_act, 8))
    acts = np.empty((cases, length), dtype=np.int64)
    acts[:, 0] = rng.integers(0, n_act, cases)
    for j in range(1, length):
        acts[:, j] = successors[acts[:, j - 1], rng.integers(0, 8, cases)]
    gaps = np.cumsum(rng.integers(60, 3600, (cases, length)), axis=1)
    seconds = rng.integers(0, 86400, cases)[:, None] + gaps
    log = EventLog.from_columns(
        [f"c{c}" for c in np.repeat(np.arange(cases), length).tolist()],
        [f"a{a}" for a in acts.ravel().tolist()],
        to_microseconds(BASE) + seconds.ravel() * 10**6,
        [f"r{r}" for r in rng.integers(0, 20, cases * length).tolist()],
    )
    framing = Framing(BASE, 60.0)
    tracemalloc.start()
    try:
        matrix = evaluate(log, framing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.values.shape == (40 + 3 * 20 + 4 * 292, 1832)
    assert peak < 1.85 * matrix.values.nbytes


def test_view_filter(log_t):
    matrix = evaluate(log_t, F20, views=(View.EXEC, View.DELAY))
    assert {f.view for f in oracles.feature_rows(matrix.features, oracles.code_space(log_t))} == {
        View.EXEC, View.DELAY
    }


def test_matrix_matches_oracle_small():
    rng = random.Random(31)
    for _ in range(8):
        log = random_log(rng, max_events=100, max_cases=8, span=2000)
        width = rng.choice([30.0, 90.0, 250.0])
        framing = Framing(BASE, width)
        matrix = evaluate(log, framing)
        steps = oracles.oracle_step_events(log)
        space = oracles.code_space(log)
        for fid in oracles.feature_rows(matrix.features, space):
            comp = fid.component.key
            for w in oracles.windows_of(matrix):
                got = oracles.cell(matrix, fid, w, space)
                expected = _oracle_cell(log, steps, BASE, width, fid.view, comp, w)
                if expected is None:
                    assert got is None, fid.name
                elif fid.view is View.DELAY:
                    assert got == pytest.approx(expected, rel=1e-9), fid.name
                else:
                    assert got == expected, (fid.name, w)


def _oracle_cell(log, steps, origin, width, view, comp, w):
    if view is View.EXEC:
        return oracles.oracle_exec(log, origin, width, comp, w)
    if view is View.DO:
        return oracles.oracle_do(log, origin, width, comp, w)
    if view is View.TODO:
        return oracles.oracle_todo(steps, origin, width, comp, w)
    if view is View.WL:
        return oracles.oracle_wl(log, steps, origin, width, comp, w)
    if view is View.ENTER:
        return oracles.oracle_enter(steps, origin, width, comp, w)
    if view is View.EXIT:
        return oracles.oracle_exit(steps, origin, width, comp, w)
    if view is View.PROGR:
        return oracles.oracle_progr(steps, origin, width, comp, w)
    return oracles.oracle_delay(steps, origin, width, comp, w)


def test_conservation_invariants():
    rng = random.Random(37)
    for _ in range(6):
        log = random_log(rng, max_events=150, span=3000)
        matrix = evaluate(log, Framing(BASE, 111.0))
        steps = oracles.oracle_step_events(log)
        space = oracles.code_space(log)

        def arr(view, comp):
            return matrix.array((view, space.index(comp)))

        for a in log.activity_names:
            comp = Component.activity(a)
            assert arr(View.EXEC, comp).sum() == sum(e.activity == a for e in log.events)
        for r in log.resource_names:
            comp = Component.resource(r)
            assert arr(View.DO, comp).sum() == sum(e.resource == r for e in log.events)
            assert (arr(View.WL, comp) >= arr(View.DO, comp)).all()
        for s in log.segment_names:
            comp = Component(ComponentKind.SEGMENT, s)
            enters, exits, progr = (arr(v, comp) for v in (View.ENTER, View.EXIT, View.PROGR))
            total = sum((e1.activity, e2.activity) == s for e1, e2 in steps)
            assert enters.sum() == exits.sum() == total
            assert (enters <= progr).all()
            assert (exits <= progr).all()


def test_delay_bounds():
    rng = random.Random(41)
    log = random_log(rng, max_events=100, span=2000, tie_rate=0.0)
    framing = Framing(BASE, 77.0)
    max_duration = max(((s.second.timestamp - s.first.timestamp).total_seconds() for s in log.steps), default=0.0)
    matrix = evaluate(log, framing, views=(View.DELAY,))
    for value in matrix.values[~np.isnan(matrix.values)].tolist():
        assert 0 < value <= max_duration + framing.width


# --- thresholds and high-level events --------------------------------------------


def test_nearest_rank_examples():
    values = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], dtype=float)
    assert nearest_rank(values, 0.9) == 9
    assert nearest_rank(values, 0.0) == 1
    assert nearest_rank(values, 1.0) == 10
    assert nearest_rank(values, 0.05) == 1
    assert nearest_rank(np.array([5.0]), 0.5) == 5


def test_thresholds_pool_per_view(log_t):
    matrix = evaluate(log_t, F20)
    table = compute_thresholds(matrix, 1.0)
    pooled = matrix.pooled(View.EXEC)
    assert table.by_view[View.EXEC] == pooled.max()
    # all exec features share the view threshold
    hles = generate_hles(matrix, table)
    hlel = build_hlel(CascadeAssignment(hles, np.ones(len(hles), dtype=np.int64)), F20, table)
    exec_a = hlel.features.names == "exec-a"
    assert exec_a.sum() == 1 and hlel.thresholds[exec_a].tolist() == [table.by_view[View.EXEC]]


def test_thresholds_exclude_zeros(log_t):
    matrix = evaluate(log_t, F20)
    with_zeros = compute_thresholds(matrix, 0.0)
    without = compute_thresholds(matrix, 0.0, exclude_zeros=True)
    assert with_zeros.by_view[View.EXEC] == 0
    assert without.by_view[View.EXEC] > 0


def test_empty_view_is_dropped_with_warning(caplog):
    # a same-timestamp step has duration 0, so all delays pool to {0}
    log = make_log([("c1", "a", 5, "r1"), ("c1", "b", 5, "r1")])
    matrix = evaluate(log, F20)
    with caplog.at_level(logging.WARNING):
        table = compute_thresholds(matrix, 0.5, exclude_zeros=True)
    assert View.DELAY not in table.by_view
    assert any("delay" in r.message for r in caplog.records)


def test_threshold_at_the_pool_minimum_warns_once_per_view(caplog):
    # the (a,b) step is in progress in all three windows: progr pools to {1, 1, 1}
    log = make_log([("c1", "a", 0, "r1"), ("c1", "b", 50, "r1")])
    matrix = evaluate(log, F20)
    with caplog.at_level(logging.WARNING, logger="highline.features"):
        table = compute_thresholds(matrix, 0.9)
    assert [r.getMessage() for r in caplog.records] == [
        "view progr: threshold 1.0 is the minimum of its 3 pooled values; "
        "every defined cell of the view becomes a high-level event"
    ]
    # value >= threshold still holds: every progr cell is an event
    hles = generate_hles(matrix, table)
    assert sum(h.feature.view is View.PROGR for h in oracles.hle_rows(hles, oracles.code_space(log))) == 3
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="highline.features"):
        compute_thresholds(matrix, 0.0)
    assert sorted(r.getMessage().split(":")[0] for r in caplog.records) == [
        f"view {v.value}" for v in matrix.blocks
    ]


def test_generate_hles_p0_fires_every_defined_cell(log_t):
    matrix = evaluate(log_t, F20)
    table = compute_thresholds(matrix, 0.0)
    hles = generate_hles(matrix, table)
    assert len(hles) == np.count_nonzero(~np.isnan(matrix.values))
    for h in oracles.hle_rows(hles, oracles.code_space(log_t)):
        assert h.value >= table.by_view[h.feature.view]


def test_hles_monotone_in_percentile():
    rng = random.Random(43)
    log = random_log(rng, max_events=200, span=5000)
    matrix = evaluate(log, Framing(BASE, 200.0))
    previous = None
    for p in (0.5, 0.7, 0.9):
        hles = set(generate_hles(matrix, compute_thresholds(matrix, p)))
        if previous is not None:
            assert hles <= previous
        previous = hles


def test_high_p_limits_delay_hles():
    rng = random.Random(47)
    log = random_log(rng, max_events=300, span=4000, tie_rate=0.0)
    matrix = evaluate(log, Framing(BASE, 150.0), views=(View.DELAY,))
    defined = matrix.values[~np.isnan(matrix.values)].tolist()
    table = compute_thresholds(matrix, 0.9)
    hles = generate_hles(matrix, table)
    threshold = table.by_view[View.DELAY]
    ceiling = math.ceil(0.1 * len(defined)) + sum(1 for v in defined if v == threshold)
    assert len(hles) <= ceiling


def test_percentile_out_of_range(log_t):
    matrix = evaluate(log_t, F20)
    with pytest.raises(ConfigError):
        compute_thresholds(matrix, 1.5)
