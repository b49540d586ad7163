"""Property tests of the columnar event core and the columnar high-level
event layer against the brute-force oracles.

Logs are drawn small, from few cases, activities and resources and a short
time span, so that timestamp ties inside a case, self-loop segments and
single-event cases all occur often.
"""

import csv
import io
import itertools
import math
import re
from collections import Counter
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import BASE, read_general
from oracles import (
    Component, Feature, edge_events, entries, entry_reprs, event_log, high_level_log, hle_rows, hle_table, hlel_of,
)

import highline._reader as reader
import highline.cli as cli
import highline.events as events
import highline.linkage as linkage

from highline import (
    CascadeAssignment,
    ColumnMapping,
    ComponentKind,
    ConfigError,
    Event,
    FlattenOrder,
    Framing,
    HighLevelEvent,
    Segment,
    View,
    analyze_log,
    build_hlel,
    build_link_table,
    cascades,
    compute_thresholds,
    evaluate,
    export_dfg,
    flatten,
    generate_hles,
    ingest_csv,
    propagation_edges,
    read_hlel_csv,
    summarize,
    write_event_csv,
    write_hlel_csv,
    write_summary_csv,
)
from highline.events import from_microseconds, parse_timestamp, to_microseconds
from highline.features import VIEW_KIND

SETTINGS = settings(max_examples=50, deadline=None)

ROW = st.tuples(
    st.sampled_from(["c1", "c2", "c3", "c4"]),
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 40),
    st.sampled_from(["r1", "r2", "r3"]),
)
ROWS = st.lists(ROW, min_size=1, max_size=25)
# at most one event per (case, timestamp): the per-case order needs no ids
DISTINCT_ROWS = st.lists(ROW, min_size=1, max_size=25, unique_by=lambda r: (r[0], r[2]))
UNIT = st.floats(0.0, 1.0)
FRAMINGS = st.builds(
    lambda shift, width: Framing(BASE + timedelta(seconds=shift), width),
    st.integers(-20, 20),
    st.sampled_from([1.0, 1.1, 4.5, 7.0, 13.0, 60.0]),
)


def events_of(rows):
    return [
        Event(i + 1, c, a, BASE + timedelta(seconds=s), r) for i, (c, a, s, r) in enumerate(rows)
    ]


@SETTINGS
@given(ROWS)
def test_columnar_steps_equal_oracle(rows):
    events = events_of(rows)
    log = event_log(events)
    first, second = log.step_rows
    pairs = list(zip(log.ids[first].tolist(), log.ids[second].tolist()))
    assert set(pairs) == oracles.oracle_steps(events)
    # steps run in (case, timestamp, id) order of their first event
    by_id = {e.id: e for e in events}
    keys = [(by_id[i].case, by_id[i].timestamp, i) for i, _ in pairs]
    assert keys == sorted(keys)
    # rows run in (timestamp, case, id) order
    rows = [(by_id[i].timestamp, by_id[i].case, i) for i in log.ids.tolist()]
    assert rows == sorted(rows)


def oracle_value(view, events, steps, framing, key, w):
    origin, width = framing.origin, framing.width
    if view is View.EXEC:
        return oracles.oracle_exec(events, origin, width, key, w)
    if view is View.DO:
        return oracles.oracle_do(events, origin, width, key, w)
    if view is View.TODO:
        return oracles.oracle_todo(steps, origin, width, key, w)
    if view is View.WL:
        return oracles.oracle_wl(events, steps, origin, width, key, w)
    if view is View.ENTER:
        return oracles.oracle_enter(steps, origin, width, key, w)
    if view is View.EXIT:
        return oracles.oracle_exit(steps, origin, width, key, w)
    if view is View.PROGR:
        return oracles.oracle_progr(steps, origin, width, key, w)
    return oracles.oracle_delay(steps, origin, width, key, w)


@SETTINGS
@given(ROWS, FRAMINGS)
def test_evaluate_equals_oracles_for_every_view(rows, framing):
    events = events_of(rows)
    steps = oracles.oracle_step_events(events)
    matrix = evaluate(event_log(events), framing)
    space = oracles.code_space(events)
    features = oracles.feature_rows(matrix.features, space)
    assert {f.view for f in features} == (
        set(View) if steps else {View.EXEC, View.DO, View.TODO, View.WL}
    )
    for fid in features:
        for w in oracles.windows_of(matrix):
            got = oracles.cell(matrix, fid, w, space)
            want = oracle_value(fid.view, events, steps, framing, fid.component.key, w)
            if want is None or fid.view is not View.DELAY:
                assert got == want, (fid.name, w)
            else:
                assert got == pytest.approx(want, rel=1e-9), (fid.name, w)


# activity names holding a space or "!", both below ",": segment labels then
# sort apart from their (source, target) codes, "(a b,a)" before "(a,a b)",
# so build_link_table finds each segment's reverse by its key, not its code
LINK_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "c3", "c4"]),
        st.sampled_from(["a", "a b", "a!", "b", "b c"]),
        st.integers(0, 40),
        st.sampled_from(["r1", "r2", "r3"]),
    ),
    min_size=1,
    max_size=40,
)


@SETTINGS
@given(LINK_ROWS)
@example([("c1", "a", 0, "r1"), ("c1", "a b", 0, "r1"), ("c1", "a", 0, "r1"), ("c1", "a b", 0, "r1")])
def test_link_table_equals_oracle(rows):
    events = events_of(rows)
    steps = oracles.oracle_step_events(events)
    space = oracles.code_space(events)
    link = oracles.link_value(build_link_table(event_log(events)), space)
    for c1, c2 in itertools.combinations(space, 2):
        assert link(c1, c2) == oracles.oracle_link(events, steps, c1, c2), (c1, c2)


def counted(x, y):
    """Whether ``code_pairs`` counts the pairs of (x, y) in their key grid,
    rather than sorting them: a grid of span * n_y cells, or of distinct x *
    n_y where the span overflows the key, no larger than the rows."""
    if not len(x):
        return False
    n_y, span = int(y.max()) + 1, int(x.max()) - int(x.min()) + 1
    return (span if span * n_y <= 2**63 else len(np.unique(x))) * n_y <= len(x)


@st.composite
def segment_rows(draw):
    """Rows of 3 cases and 2 resources over 1, 2 or 8 activities: with 8,
    most steps have a segment of their own; with 1, all share one."""
    activities = [f"a{k}" for k in range(draw(st.sampled_from([1, 2, 8])))]
    row = st.tuples(
        st.sampled_from(["c1", "c2", "c3"]),
        st.sampled_from(activities),
        st.integers(0, 30),
        st.sampled_from(["r1", "r2"]),
    )
    return draw(st.lists(row, min_size=1, max_size=40))


@SETTINGS
@given(segment_rows())
# every pair count of build_link_table counts its grid: one segment, one resource
@example([("c1", "a0", s, "r1") for s in range(5)])
# every pair count sorts its keys: more cells in each grid than rows
@example([("c1", "a0", 0, "r1"), ("c1", "a1", 1, "r1"), ("c1", "a2", 2, "r2"), ("c1", "a3", 3, "r2")])
def test_link_table_of_many_segments_equals_oracle(rows):
    events = events_of(rows)
    log = event_log(events)
    sides = []

    def spy(x, y, counts=False):
        if counts:
            sides.append(("counted" if counted(x, y) else "sorted") if len(x) else "empty")
        return real(x, y, counts)

    real = linkage.code_pairs
    with mock.patch.object(linkage, "code_pairs", side_effect=spy):
        table = build_link_table(log)
    # the co-execution, handover, touch and chained-step counts, in that order
    assert len(sides) == 4
    for site, side in zip(("co-executions", "handovers", "touches", "chained steps"), sides):
        event(f"{site} {side}")
    steps = oracles.oracle_step_events(events)
    space = oracles.code_space(events)
    link = oracles.link_value(table, space)
    for c1, c2 in itertools.combinations(space, 2):
        assert link(c1, c2) == oracles.oracle_link(events, steps, c1, c2), (c1, c2)


# names with commas give distinct segments one label: ("a,a", "a") and
# ("a", "a,a") are both (a,a,a), and ("a,", "a") and ("a", ",a") both (a,,a)
COMMA_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "c3"]),
        st.sampled_from(["a", "a,a", "a,", ",a", "b"]),
        st.integers(0, 10),
        st.sampled_from(["r1", "r,2", "r3"]),
    ),
    min_size=1,
    max_size=25,
)


@SETTINGS
@given(COMMA_ROWS)
@example([("c1", "a,a", 0, "r1"), ("c1", "a", 1, "r1"), ("c1", "a,a", 2, "r1")]
         + [(c, a, s, "r1") for c in ("c2", "c3") for a, s in (("a", 0), ("a,a", 1), ("a", 2))])
def test_link_table_columns_equal_the_dict_oracle(rows):
    log = event_log(events_of(rows))
    table = build_link_table(log)
    expected = oracles.oracle_link_table(log)
    space = oracles.code_space(events_of(rows))
    assert oracles.link_pairs(table, space) == [(c1, c2, v) for (c1, c2), v in expected.items()]
    assert table.kinds.tolist() == [c.kind.value for c in space]
    assert table.labels.tolist() == [c.label for c in space]
    for include_zeros in (False, True):
        got = io.StringIO()
        cli._write_links_csv(table, got, include_zeros)
        assert got.getvalue() == oracles.oracle_links_csv(log, include_zeros)


@SETTINGS
@given(COMMA_ROWS)
def test_links_csv_in_blocks_of_one_row_equals_one_block(rows):
    table = build_link_table(event_log(events_of(rows)))
    for include_zeros in (False, True):
        whole, small = io.StringIO(), io.StringIO()
        cli._write_links_csv(table, whole, include_zeros)
        with mock.patch.object(events, "WRITE_ROWS", 1), \
                mock.patch.object(np, "triu_indices", wraps=np.triu_indices) as triangle:
            cli._write_links_csv(table, small, include_zeros)
        assert small.getvalue() == whole.getvalue()
        # with zeros, one row of the triangle per block
        assert triangle.call_count == (len(table.labels) if include_zeros else 0)


@st.composite
def selections(draw):
    """COMMA_ROWS and a selection of views and of their log's components,
    with repeats; None selects everything, and an empty list nothing (no
    view at all is a ConfigError)."""
    rows = draw(COMMA_ROWS)
    log = event_log(events_of(rows))

    def pick(names):
        chosen = st.lists(st.sampled_from(names), max_size=6) if names else st.just([])
        return draw(st.none() | chosen)

    return (rows, pick(list(View)), pick(log.activity_names), pick(log.resource_names),
            pick(log.segment_names))


def selected_features(log, views, activities, resources, segments):
    """The features of a selection in name order, each once; two segments
    of one label in their order in the selection, by default (source, target)."""
    rank = {}
    for kind, names, chosen in (
        (ComponentKind.ACTIVITY, log.activity_names, activities),
        (ComponentKind.RESOURCE, log.resource_names, resources),
        (ComponentKind.SEGMENT, log.segment_names, segments),
    ):
        for key in (names if chosen is None else chosen):
            rank.setdefault(Component(kind, key), len(rank))
    views = View if views is None else views
    features = {Feature(v, c) for v in views for c in rank if c.kind is VIEW_KIND[v]}
    return sorted(features, key=lambda f: (f.name, rank[f.component]))


# two segments of one label, (a,a,a), selected against (source, target)
# order, with repeats, no activity, and a view twice
TWO_OF_ONE_LABEL = [("c1", "a,a", 0, "r1"), ("c1", "a", 1, "r1"), ("c1", "a,a", 2, "r1")]
REVERSED = [Segment("a,a", "a"), Segment("a", "a,a"), Segment("a,a", "a")]


@SETTINGS
@given(selections(), FRAMINGS, UNIT, st.booleans())
# a step of duration 0: delay pools to {0} and has no threshold without zeros
@example(([("c1", "a", 0, "r1"), ("c1", "a,a", 0, "r1")], None, None, None, None),
         Framing(BASE, 4.5), 0.5, True)
@example((TWO_OF_ONE_LABEL, [View.PROGR, View.EXEC, View.PROGR], [], None, REVERSED),
         Framing(BASE, 1.0), 0.0, False)
def test_hles_and_matrix_csv_equal_the_oracles(tmp_path_factory, selection, framing, p,
                                               exclude_zeros):
    rows, views, activities, resources, segments = selection
    log = event_log(events_of(rows))
    if views == []:
        with pytest.raises(ConfigError, match="no view selected"):
            evaluate(log, framing, views, activities, resources, segments)
        return
    matrix = evaluate(log, framing, views, activities, resources, segments)
    space = oracles.code_space(log)
    features = oracles.feature_rows(matrix.features, space)
    assert features == selected_features(log, *selection[1:])
    assert matrix.features.names.tolist() == [f.name for f in features]
    thresholds = compute_thresholds(matrix, p, exclude_zeros=exclude_zeros)
    hles = generate_hles(matrix, thresholds)
    assert hle_rows(hles, space) == oracles.oracle_hles(matrix, thresholds, space)
    assert hles.features is matrix.features
    path = tmp_path_factory.mktemp("matrix") / "matrix.csv"
    for write_rows in (events.WRITE_ROWS, 1):
        with mock.patch.object(events, "WRITE_ROWS", write_rows):
            cli._write_matrix_csv(matrix, str(path))
        assert path.read_bytes().decode("utf-8") == oracles.oracle_matrix_csv(matrix, space)


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case", "activity", "timestamp", "resource"])
        for c, a, s, r in rows:
            writer.writerow([c, a, (BASE + timedelta(seconds=s)).isoformat(), r])


@SETTINGS
@given(DISTINCT_ROWS, FRAMINGS, st.data())
def test_row_order_of_the_csv_does_not_matter(tmp_path_factory, rows, framing, data):
    permuted = data.draw(st.permutations(rows))
    tmp = tmp_path_factory.mktemp("perm")
    write_csv(tmp / "a.csv", rows)
    write_csv(tmp / "b.csv", permuted)
    logs = [ingest_csv(str(tmp / name)) for name in ("a.csv", "b.csv")]
    m1, m2 = (evaluate(log, framing) for log in logs)
    spaces = [oracles.code_space(log) for log in logs]
    assert oracles.feature_rows(m1.features, spaces[0]) == oracles.feature_rows(m2.features, spaces[1])
    for fid in m1.features:
        assert np.array_equal(m1.array(fid), m2.array(fid), equal_nan=True), fid
    t1, t2 = (build_link_table(log) for log in logs)
    assert oracles.link_pairs(t1, spaces[0]) == oracles.link_pairs(t2, spaces[1])


# --- ingest: the standard-layout reader agrees with csv.reader -----------------

PLAIN_NAMES = [
    "c1", "c2", "r1", "act", "é", "日本",
    # names are packed into 8-byte words: lengths at and across word
    # boundaries, an 8-byte prefix shared, and a character across byte 8
    "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefghijklmnopq", "abcdefghXY", "abcdefg日",
]
ODD_NAMES = [
    "", " c1", "c2 ", "a b", "\t", "\x85", "x,y", 'say "hi"', "two\nlines", "car\rriage", "n\x00ul",
    "\u00a0x", "x\u3000", "\x1cx",
]
# whole seconds (19 characters) and microseconds (26) mix in one file
PLAIN_STAMPS = st.builds(
    lambda t, whole: (t.replace(microsecond=0) if whole else t).isoformat(),
    st.datetimes(min_value=datetime(1, 1, 1)), st.booleans(),
)
# each is the edge of the standard shape, or just beyond it, in one respect
EDGE_STAMPS = [
    "0000-01-01T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:59:59.999999",
    "2024-02-29T12:00:00", "2023-02-29T12:00:00", "1900-02-29T00:00:00", "2000-02-29T00:00:00",
    "2024-13-01T00:00:00", "2024-00-10T00:00:00", "2024-04-31T00:00:00",
    "2024-01-01T24:00:00", "2024-01-01T23:60:00", "2024-01-01T23:59:60",
    "2024-01-01 10:00:00", "2024-01-01T10:00:00.5", "2024-01-01T10:00:00.12345",
    "2024-01-01T10:00:00.1234567", "2024-01-01T10:00:00Z", "2024-01-01T10:00:00+02:00",
    "2024-01-01T10:00:00.123456-05:30", "\u0662\u0660\u0662\u0664-01-01T00:00:00",
    "2024-01-01T10:00:0\uff13", "2024-01-01T10:00:00\U0001d7ce", "2024-01-01T10:00:00\0\0\0\0\0\0\0",
    "2024-01-01T10:00:00.\0\0\0\0\0\0", "2024-01-01T10:00:\x0000",
]


@st.composite
def odd_stamps(draw):
    """Timestamps at and beyond the edges of the standard shape."""
    day = draw(st.sampled_from([
        "0000-01-01", "0001-01-01", "9999-12-31", "2024-02-29", "2023-02-29", "1900-02-29",
        "2000-02-29", "2024-13-01", "2024-00-10", "2024-04-31", "1969-12-31",
    ]))
    clock = draw(st.sampled_from(["00:00:00", "23:59:59", "24:00:00", "23:60:00", "23:59:60"]))
    fraction = draw(st.sampled_from(["", ".", ".5", ".123", ".12345", ".123456", ".1234567"]))
    zone = draw(st.sampled_from(["", "", "Z", "+02:00", "-05:30", "+00:00"]))
    text = day + draw(st.sampled_from(["T", " "])) + clock + fraction + zone
    if draw(st.booleans()):
        i = draw(st.sampled_from([k for k, ch in enumerate(text) if ch.isdigit()]))
        text = text[:i] + draw(st.sampled_from(["\u0663", "\uff13", "\U0001d7d1"])) + text[i + 1:]
    return text


ODD_STAMPS = st.one_of(st.sampled_from(EDGE_STAMPS), odd_stamps())


@st.composite
def event_csvs(draw):
    """A CSV event log, and whether it is in the standard layout. Most files
    are, and the rest break it in one or a few ways."""
    odd = draw(st.sets(st.sampled_from(
        ["names", "header", "stamps", "quotes", "crlf", "blank", "wide rows", "short rows"]
    ), min_size=1, max_size=2)) if draw(st.booleans()) else set()
    names = st.sampled_from(PLAIN_NAMES + (ODD_NAMES if "names" in odd else []))
    extra = [draw(st.sampled_from(ODD_NAMES))] if "header" in odd else draw(st.sampled_from([[], ["note"]]))
    header = draw(st.permutations(["case", "activity", "timestamp", "resource"] + extra))

    def field(column):
        value = draw(PLAIN_STAMPS if column == "timestamp" else names)
        if "quotes" in odd and draw(st.booleans()):
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = [",".join(header)]
    rows = draw(st.integers(0, 8))
    stamps = []
    if draw(st.booleans()):
        # sorted stamps a few minutes apart: runs of rows of one date and
        # hour, which the chunks cut through
        t = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 20)))
        for _ in range(rows):
            t += timedelta(seconds=draw(st.integers(0, 900)))
            stamps.append((t if draw(st.booleans()) else t.replace(microsecond=0)).isoformat())
    # one odd stamp among plain ones is what the standard reader must notice
    odd_row = draw(st.integers(0, rows - 1)) if "stamps" in odd and rows else None
    for k in range(rows):
        row = [field(column) for column in header]
        if stamps:
            row[header.index("timestamp")] = stamps[k]
        if k == odd_row:
            row[header.index("timestamp")] = draw(ODD_STAMPS)
        if "wide rows" in odd and draw(st.booleans()):
            # one more field, or a whole row's worth that csv.reader ignores
            row += draw(st.sampled_from([[draw(names)], [field(column) for column in header]]))
        if "short rows" in odd and draw(st.booleans()):
            row.pop()
        lines.append(",".join(row))
    if "blank" in odd:
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(1, len(lines))), "")
    text = ("\r\n" if "crlf" in odd else "\n").join(lines) + draw(st.sampled_from(["", "\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + text).encode("utf-8"), not odd


def outcome(read, path):
    """The columns and names of the log read, or the error raised."""
    try:
        log = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        log.case_names, log.activity_names, log.resource_names,
        *(a.tolist() for a in (log.case_codes, log.activity_codes, log.resource_codes,
                               log.times_us, log.ids)),
    )


# the minutes, seconds and fraction of a stamp, 19 or 26 characters long
# after a date and hour
CLOCKS = st.builds(
    lambda m, s, us: f":{m:02d}:{s:02d}" + ("" if us is None else f".{us:06d}"),
    st.integers(0, 59), st.integers(0, 59), st.none() | st.integers(0, 999_999),
)


@SETTINGS
@given(ODD_STAMPS, st.data())
def test_standard_stamps_read_as_fromisoformat_reads_them_or_defer(stamp, data):
    # a neighbour is a plain stamp, or shares the odd stamp's date and hour
    # (its first 13 characters), so that the odd one heads a run of rows of
    # one date and hour or lies inside one
    neighbours = st.lists(st.one_of(PLAIN_STAMPS, CLOCKS.map(lambda clock: stamp[:13] + clock)), max_size=4)
    stamps = [*data.draw(neighbours), stamp, *data.draw(neighbours)]
    try:
        want = [to_microseconds(parse_timestamp(s)) for s in stamps]
    except (ValueError, OverflowError):  # an offset can move year 1 out of range
        want = None
    # the stamps as fields of one line of bytes, as the reader finds them
    fields = [s.encode("utf-8") for s in stamps]
    lengths = np.array(list(map(len, fields)))
    starts = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
    raw = np.frombuffer(b",".join(fields) + b"\n" + bytes(26), dtype=np.uint8)
    try:
        got = events._standard_microseconds(raw, starts, lengths, np.empty(len(stamps), dtype=np.int64)).tolist()
    except events._NotStandard:
        return
    assert got == want


@SETTINGS
@given(st.integers(0, 3000), st.integers(1, 3000), st.integers(0, 2**32 - 1))
@example(3000, 4, 0)  # 4 distinct keys: the last taken by binary search
@example(3000, 5, 0)  # 5: the first ranked by an argsort
def test_key_ranks_are_np_unique(rows, distinct, seed):
    # the standard reader interns a name column by binary search among up
    # to 4 distinct keys and by an argsort among more
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**64, size=distinct, dtype=np.uint64)[rng.integers(0, distinct, size=rows)]
    values, ranks = events._ranks(keys)
    want_values, want_ranks = np.unique(keys, return_inverse=True)
    assert values.tolist() == want_values.tolist()
    assert ranks.dtype == want_ranks.dtype and ranks.tolist() == want_ranks.tolist()


# x columns: a few values above an offset, which the key is anchored at;
# values at both ends of int64, whose span overflows the key unless x is
# ranked first; or any int64 values, ranked first with many distinct
CODE_PAIR_X = st.one_of(
    st.builds(lambda offset, xs: [offset + x for x in xs], st.integers(-(2**62), 2**62),
              st.lists(st.integers(-3, 3), max_size=60)),
    st.lists(st.sampled_from([-(2**63), -(2**63) + 1, 0, 2**63 - 1]), max_size=60),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(CODE_PAIR_X, st.integers(0, 4), st.integers(0, 2**32 - 1))
@example([], 0, 0)
@example([7] * 5, 0, 0)  # y all zero: a grid of one cell
@example([-(2**63), 2**63 - 1] * 3, 1, 0)  # ranked first, then counted
@example(list(range(-(2**63), -(2**63) + 10)) + [2**63 - 1], 3, 0)  # ranked first, then sorted
def test_code_pairs_are_np_unique_of_the_packed_pair(xs, top, seed):
    rng = np.random.default_rng(seed)
    x = np.array(xs, dtype=np.int64)
    y = rng.integers(0, top + 1, size=len(x))
    # the reference ranks x first, so that its key never overflows
    x_values, x_ranks = np.unique(x, return_inverse=True)
    n_y = int(y.max(initial=0)) + 1
    keys, index, counts = np.unique(x_ranks * n_y + y, return_inverse=True, return_counts=True)
    dense = counted(x, y)
    event("counted" if dense else "sorted")
    for with_counts, want in ((False, index), (True, counts)):
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
            got_x, got_y, got = events.code_pairs(x, y, counts=with_counts)
        assert bincount.called == dense
        assert got_x.tolist() == x_values[keys // n_y].tolist()
        assert got_y.tolist() == (keys % n_y).tolist()
        assert got.tolist() == want.tolist()
        assert got_x.dtype == got_y.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(event_csvs(), st.integers(1, 300))
def test_standard_reader_agrees_with_csv_reader_or_defers(tmp_path_factory, file, chunk_bytes):
    data, standard = file
    path = tmp_path_factory.mktemp("ingest") / "log.csv"
    path.write_bytes(data)
    with mock.patch.object(events, "_CHUNK_BYTES", chunk_bytes), \
            mock.patch.object(reader, "_read_general", wraps=reader._read_general) as general:
        got = outcome(ingest_csv, str(path))
    event("read by csv.reader" if general.called else "read in the standard layout")
    assert got == outcome(read_general, str(path))
    if standard:
        assert not general.called


@SETTINGS
@given(ROWS, st.integers(-30, 30), st.sampled_from([0.1, 1 / 3, 3.0, 7.3, 10.0, 86400.0]))
@example(rows=[("c1", "a", 3, "r1")], shift=0, period=0.1)
def test_every_event_lies_in_the_period_of_its_summary_row(rows, shift, period):
    events = events_of(rows)
    origin = BASE + timedelta(seconds=shift)
    table = summarize(event_log(events), high_level_log([]), period, origin)
    # the rows run from the first event's period to the last one's
    assert table.events[0] and table.events[-1]
    periods = range(table.first_period, table.first_period + len(table.events))
    starts = [oracles.bounds(origin, period, p - 1)[0] for p in [*periods, periods[-1] + 1]]
    assert list(map(from_microseconds, table.starts_us.tolist())) == starts[:-1]
    for count, start, end in zip(table.events.tolist(), starts, starts[1:]):
        assert count == sum(1 for e in events if start <= e.timestamp < end)
    assert table.events.sum() == len(events)


@SETTINGS
@given(ROWS, FRAMINGS, UNIT, UNIT)
def test_raising_the_percentile_keeps_a_subset_of_the_hles(rows, framing, p1, p2):
    p1, p2 = sorted((p1, p2))
    matrix = evaluate(event_log(events_of(rows)), framing)
    low, high = (set(generate_hles(matrix, compute_thresholds(matrix, p))) for p in (p1, p2))
    assert high <= low


@SETTINGS
@given(ROWS, FRAMINGS, UNIT, UNIT, UNIT)
def test_raising_lambda_refines_the_cascades(rows, framing, p, lam1, lam2):
    lam1, lam2 = sorted((lam1, lam2))
    log = event_log(events_of(rows))
    matrix = evaluate(log, framing)
    hles = generate_hles(matrix, compute_thresholds(matrix, p))
    links = build_link_table(log)
    space = oracles.code_space(log)
    coarse = oracles.cascade_ids(cascades(hles, links, lam1), space)
    for block in oracles.partition_of(cascades(hles, links, lam2), space):
        assert len({coarse[h] for h in block}) == 1


@SETTINGS
@given(ROWS, FRAMINGS, UNIT, UNIT)
def test_hlel_csv_round_trip(tmp_path_factory, rows, framing, p, lam):
    hlel = analyze_log(event_log(events_of(rows)), framing, p, lam).entries
    path = tmp_path_factory.mktemp("hlel") / "hlel.csv"
    write_hlel_csv(hlel, str(path))
    assert entry_reprs(read_hlel_csv(str(path))) == entry_reprs(hlel)


# floats whose repr takes each of its forms: signed zero, the least subnormal,
# the switch to exponent notation at 1e16, and a large exponent
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e16, 1e22, 9999999999999998.0, 0.1, 1e-05]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False))


# the bits of any float: the special ones, both zeros, and NaNs of either
# sign with any payload
FLOAT_BITS = st.one_of(
    FLOATS.map(lambda v: int(np.float64(v).view(np.uint64))),
    st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload, st.integers(0, 1), st.integers(1, 2**52 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOAT_BITS, max_size=12), st.sampled_from([repr, "%.6g".__mod__]))
@example([], repr)
@example([0], repr)
@example([0, 1 << 63, 0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0_0000_0000_0001, 0, 1 << 63], repr)
@example([0, 1 << 63, 0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0_0000_0000_0001, 0, 1 << 63], "%.6g".__mod__)
def test_float_texts_are_each_values_text_once_per_distinct_bits(bits, form):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    texts, index = events.float_texts(values, form)
    want = [form(v) for v in values.tolist()]
    assert texts[index].tolist() == want
    assert len(texts) == len(set(bits))
    if form is repr:
        # csv_lines writes a float column through the same texts
        assert events.csv_lines(np.arange(len(values)), values) == "".join(f"{k},{t}\n" for k, t in enumerate(want))


# names that csv quotes (a comma, a quote, a line break, a carriage return),
# and a % that a format string would take for a conversion
NAMES = st.text(alphabet='ab ,"\n\r\'-%', max_size=5)
STAMPS = st.one_of(
    st.sampled_from([datetime(1, 1, 1), datetime(1, 1, 1, 0, 0, 0, 1),
                     datetime(9999, 12, 31, 23, 59, 59), datetime(9999, 12, 31, 23, 59, 59, 999999)]),
    st.datetimes(),
    st.datetimes().map(lambda t: t.replace(microsecond=0)),
)
# None writes isoformat; a format with a comma makes every stamp need quotes;
# %%Y is a literal "%Y", not the year
STAMP_FORMATS = st.sampled_from(
    [None, "%Y-%m-%d %H:%M:%S.%f", "%d %b %Y, %H:%M:%S.%f", "%%Y=%Y %m %d %H:%M:%S.%f"]
)


# rows with many ties of timestamp, case, activity and resource
TIED_ROWS = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from("xy"), st.integers(0, 3), st.sampled_from("rs")),
    max_size=25,
)


@settings(max_examples=100, deadline=None)
@given(TIED_ROWS, st.randoms(use_true_random=False))
def test_any_shuffle_of_a_log_ingests_to_its_sorted_columns(tmp_path_factory, rows, rnd):
    events_in_order = [Event(i + 1, c, a, BASE + timedelta(seconds=t), r) for i, (c, a, t, r) in enumerate(rows)]
    shuffled = events_in_order[:]
    rnd.shuffle(shuffled)
    assert columns_of(event_log(shuffled)) == columns_of(event_log(events_in_order))
    # a file of the shuffled rows, ids by line: rows by (timestamp, case, line)
    path = tmp_path_factory.mktemp("shuffled") / "events.csv"
    path.write_text("case,activity,timestamp,resource\n" + "".join(
        f"{e.case},{e.activity},{e.timestamp.isoformat()},{e.resource}\n" for e in shuffled
    ), encoding="utf-8")
    log = ingest_csv(str(path))
    order = sorted(range(len(shuffled)), key=lambda i: (shuffled[i].timestamp, shuffled[i].case, i))
    assert [(e.id, e.case, e.activity, e.timestamp, e.resource) for e in log.events] == [
        (i + 1, shuffled[i].case, shuffled[i].activity, shuffled[i].timestamp, shuffled[i].resource)
        for i in order
    ]


def columns_of(log):
    return (
        log.case_names, log.activity_names, log.resource_names,
        *(a.tolist() for a in (log.case_codes, log.activity_codes, log.resource_codes, log.times_us, log.ids)),
    )


# int key columns with ties, and at the ends of the int64 range
INT_KEYS = st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-2, 2), st.integers(-(2**63), 2**63 - 1)), min_size=n, max_size=n),
    min_size=1, max_size=3,
))


@settings(max_examples=300, deadline=None)
@given(INT_KEYS, st.booleans())
def test_lexsort_order_is_none_exactly_for_rows_in_key_order(keys, presorted):
    keys = [np.array(key, dtype=np.int64) for key in keys]
    if presorted:
        keys = [key[np.lexsort(keys)] for key in keys]
    order, expected = events.lexsort_order(keys), np.lexsort(keys)
    if (expected == np.arange(len(expected))).all():
        assert order is None
    else:
        assert order.tolist() == expected.tolist()


def test_lexsort_order_sorts_a_nan_key():
    assert events.lexsort_order([np.array([math.nan, 1.0])]).tolist() == [1, 0]
    assert events.lexsort_order([np.array([1.0, math.nan])]).tolist() == [0, 1]
    assert events.lexsort_order([np.array([-0.0, 0.0, -0.0])]) is None


# values with both zeros, and NaNs of either sign and any payload, each
# written as its repr
VALUES = st.one_of(FLOATS, st.sampled_from([math.nan, -math.nan]), st.floats())
# windows as an origin after the first event gives them, and beyond 2**31
WINDOW_RANGES = st.sampled_from([(-(10**6), 10**6), (2**31 - 2, 2**31 + 2), (-(2**62), 2**62)])


@st.composite
def high_level_logs(draw):
    """A ``HighLevelLog`` built from drawn columns: any stamps from year 1 to
    9999, with and without microseconds, each shared by any windows, as in a
    log read back; negative and huge windows; and values drawn from a few
    that repeat, or from any float."""
    features = draw(st.lists(
        st.tuples(NAMES, NAMES, NAMES, NAMES, FLOATS), min_size=1, max_size=4
    ))
    stamps = draw(st.lists(STAMPS, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 30))
    values = draw(st.one_of(st.just(VALUES), st.lists(VALUES, min_size=1, max_size=3).map(st.sampled_from)))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    return hlel_of(
        features,
        column(st.integers(0, len(features) - 1), np.intp),
        column(st.integers(1, 10**6), np.int64),
        column(st.integers(*draw(WINDOW_RANGES)), np.int64),
        column(values, float),
        column(st.integers(1, 10**6), np.int64),
        np.array([to_microseconds(t) for t in stamps], dtype=np.int64),
        column(st.integers(0, len(stamps) - 1), np.intp),
    )


def edge_log(windows, values, stamp_codes):
    """A log of two features with quoted names, one zero threshold negative,
    three stamps (year 1, with microseconds, year 9999), and the given
    columns; cases and features alternate."""
    n = len(windows)
    return hlel_of(
        [('wl-a,"b"', "wl", "resource", 'a,"b"', -0.0), ("x\ny", "", " ", "%s", 1e22)],
        np.arange(n, dtype=np.intp) % 2,
        np.arange(n) // 2 + 1,
        np.array(windows, dtype=np.int64),
        np.array(values, dtype=float),
        np.arange(1, n + 1),
        np.array([to_microseconds(t) for t in (
            datetime(1, 1, 1), datetime(1, 1, 1, 0, 0, 1, 500), datetime(9999, 12, 31, 23, 59, 59, 999999),
        )]),
        np.array(stamp_codes, dtype=np.intp),
    )


# stamp 0 with windows -3 and 7, stamp 1 with -2 and 7, as a read-back log
# may pair them; all values distinct
EDGE_LOG = edge_log([-3, -2, 0, 0, 7, 7], [-0.0, 0.0, 5e-324, 1e16, 1e22, 0.5], [0, 1, 2, 2, 0, 1])
# both zeros and both NaNs, each twice
NAN_LOG = edge_log([-3, -2, 0, 0, 7, 7], [-0.0, 0.0, math.nan, -0.0, 0.0, -math.nan], [0, 1, 2, 2, 0, 1])
HUGE_WINDOWS_LOG = edge_log([2**31, 2**31, 2**62, -(2**62), 2**31 - 1, 2**31], [1.5] * 6, [0, 0, 1, 2, 1, 0])
EMPTY_LOG = edge_log([], [], [])
# a block and two rows more: stamp k % 3 in window (-3, 0, 7)[k % 3], as
# build_hlel pairs them, and values -0.0, 0.0, 1.5 in turn, so that each
# feature's values repeat within a block and across the block boundary, in
# another order of (feature, value) pairs in the second block
BLOCK_LOG = edge_log(
    [(-3, 0, 7)[k % 3] for k in range(events.WRITE_ROWS + 2)],
    [(-0.0, 0.0, 1.5)[k % 3] for k in range(events.WRITE_ROWS + 2)],
    [k % 3 for k in range(events.WRITE_ROWS + 2)],
)


@settings(max_examples=200, deadline=None)
@given(high_level_logs(), STAMP_FORMATS)
@example(EDGE_LOG, None)
@example(EDGE_LOG, "%d %b %Y, %H:%M:%S.%f")
@example(NAN_LOG, None)
@example(NAN_LOG, "%%Y=%Y %m %d %H:%M:%S.%f")
@example(HUGE_WINDOWS_LOG, None)
@example(HUGE_WINDOWS_LOG, "%Y-%m-%d %H:%M:%S.%f")
@example(EMPTY_LOG, None)
@example(EMPTY_LOG, "%Y-%m-%d %H:%M:%S.%f")
@example(BLOCK_LOG, None)
def test_hlel_csv_equals_the_per_row_oracle(tmp_path_factory, hlel, timestamp_format):
    path = tmp_path_factory.mktemp("hlel") / "hlel.csv"
    write_hlel_csv(hlel, str(path), timestamp_format)
    assert path.read_bytes() == oracles.oracle_hlel_csv(hlel, timestamp_format).encode()
    back = read_hlel_csv(str(path), timestamp_format)
    assert entry_reprs(back) == entry_reprs(hlel)
    again = path.with_name("again.csv")
    write_hlel_csv(back, str(again), timestamp_format)
    assert again.read_bytes() == path.read_bytes()


# names that csv quotes (a comma, a quote, a line break, a carriage return)
# and non-ASCII ones; ingest strips names, so none starts or ends in a space
EVENT_NAMES = st.text(alphabet='ab ,"\n\ré日', min_size=1, max_size=5).filter(
    lambda name: name == name.strip()
)
EVENT_ROWS = st.lists(st.tuples(EVENT_NAMES, EVENT_NAMES, STAMPS, EVENT_NAMES), min_size=1, max_size=12)
MAPPINGS = st.sampled_from([None, ColumnMapping('case "id"', "act,ivity", "time\nstamp", "rés")])
EDGE_EVENT_ROWS = [
    ("c,1", 'say "a"', datetime(1, 1, 1), "two\nlines"),
    ("c,1", "car\rriage", datetime(1, 1, 1, 0, 0, 0, 1), "é"),
    ("日", 'say "a"', datetime(9999, 12, 31, 23, 59, 59), "two\nlines"),
    ("日", "b", datetime(9999, 12, 31, 23, 59, 59, 999999), "r"),
]


@settings(max_examples=200, deadline=None)
@given(EVENT_ROWS, MAPPINGS, STAMP_FORMATS)
@example(EDGE_EVENT_ROWS, None, None)
@example(EDGE_EVENT_ROWS, None, "%Y-%m-%d %H:%M:%S.%f")
@example(EDGE_EVENT_ROWS, None, "%%Y=%Y %m %d %H:%M:%S.%f")
def test_event_csv_equals_the_per_row_oracle(tmp_path_factory, rows, mapping, timestamp_format):
    log = event_log(Event(i + 1, c, a, t, r) for i, (c, a, t, r) in enumerate(rows))
    path = tmp_path_factory.mktemp("events") / "events.csv"
    with mock.patch.object(events, "WRITE_ROWS", 3):
        write_event_csv(log, str(path), mapping, timestamp_format)
    assert path.read_bytes() == oracles.oracle_event_csv(log, mapping, timestamp_format).encode()
    back = ingest_csv(str(path), mapping, timestamp_format)
    assert [(e.case, e.activity, e.timestamp, e.resource) for e in back.events] == [
        (e.case, e.activity, e.timestamp, e.resource) for e in log.events
    ]


# summary activities that csv quotes, some of the delay view, whose values
# are averaged in hours
SUMMARY_FEATURES = st.tuples(NAMES, st.sampled_from(["delay", "wl"]), NAMES, NAMES, FLOATS)
SUMMARY_PERIODS = st.sampled_from([0.7, 1 / 3, 7.3, 60.0, 86400.0])


@st.composite
def summary_cases(draw):
    """Event rows, a ``HighLevelLog`` stamped within a minute of BASE, a
    period, an origin shift (after every stamp at times, so that periods
    run at or below 0) and the chosen activities: the top ones, or a list
    that may name an activity without entries."""
    features = draw(st.lists(SUMMARY_FEATURES, min_size=1, max_size=4))
    stamps = draw(st.lists(st.integers(-5 * 10**6, 60 * 10**6), min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 20))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    hlel = hlel_of(
        features,
        column(st.integers(0, len(features) - 1), np.intp),
        column(st.integers(1, 5), np.int64),
        column(st.integers(-100, 100), np.int64),
        column(st.one_of(FLOATS, st.sampled_from([0.5, 1.0, 3.0])), float),
        np.arange(1, n + 1),
        to_microseconds(BASE) + np.array(stamps, dtype=np.int64),
        column(st.integers(0, len(stamps) - 1), np.intp),
    )
    names = [f[0] for f in features] + ["no entries"]
    activities = draw(st.none() | st.lists(st.sampled_from(names), max_size=5))
    return draw(ROWS), hlel, draw(SUMMARY_PERIODS), draw(st.integers(-30, 120)), activities


def summary_case(values, shift, activities):
    """Two quoted activities, one of the delay view, on two stamps a second
    apart, with the given values, and two events."""
    n = len(values)
    hlel = hlel_of(
        [('wl-a,"b"', "wl", "resource", 'a,"b"', 1.0), ("x\ny", "delay", "segment", "z", 2.0)],
        np.arange(n, dtype=np.intp) % 2, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
        np.array(values, dtype=float), np.arange(1, n + 1),
        to_microseconds(BASE) + np.array([0, 10**6]), np.arange(n, dtype=np.intp) % 2,
    )
    return [("c1", "a", 0, "r1"), ("c1", "b", 3, "r1")], hlel, 1.0, shift, activities


@settings(max_examples=100, deadline=None)
@given(summary_cases(), STAMP_FORMATS)
@example(summary_case([1.5, 7200.0, 2.5, -0.0], 0, None), None)
@example(summary_case([1.5, 7200.0], 0, ["no entries", 'wl-a,"b"', "x\ny"]), "%d %b %Y, %H:%M:%S.%f")
@example(summary_case([1.5, 7200.0], 120, ["x\ny", "no entries"]), "%%Y=%Y %m %d %H:%M:%S.%f")
def test_summary_csv_equals_the_per_row_oracle(case, timestamp_format):
    rows, hlel, period, shift, activities = case
    log = event_log(events_of(rows))
    origin = BASE + timedelta(seconds=shift)
    text = io.StringIO()
    with mock.patch.object(events, "WRITE_ROWS", 3):
        write_summary_csv(summarize(log, hlel, period, origin, activities), text, timestamp_format)
    expected = oracles.oracle_summary_csv(log, hlel, period, origin, activities, timestamp_format=timestamp_format)
    assert text.getvalue() == expected


def copy_of(h):
    """An equal high-level event that shares no object with ``h``."""
    c = h.feature.component
    return HighLevelEvent(Feature(h.feature.view, Component(c.kind, c.key)), h.window, h.value)


def dfg_counts(dot):
    """Node and edge counts of an ``export_dfg`` text, checking that both
    come in name order."""
    nodes = re.findall(r'^  "([^"]*)" \[label="[^"]* \((\d+)\)"\];$', dot, re.M)
    edges = re.findall(r'^  "([^"]*)" -> "([^"]*)" \[label="(\d+)"\];$', dot, re.M)
    assert [n for n, _ in nodes] == sorted(n for n, _ in nodes)
    assert [(a, b) for a, b, _ in edges] == sorted((a, b) for a, b, _ in edges)
    return {n: int(c) for n, c in nodes}, {(a, b): int(c) for a, b, c in edges}


@SETTINGS
@given(ROWS, FRAMINGS, UNIT, UNIT, st.sampled_from([1.0, 7.0, 60.0, 86400.0]), st.data())
def test_hle_table_and_shuffled_objects_agree(rows, framing, p, lam, period, data):
    log = event_log(events_of(rows))
    matrix = evaluate(log, framing)
    thresholds = compute_thresholds(matrix, p)
    table = generate_hles(matrix, thresholds)
    links = build_link_table(log)
    space = oracles.code_space(log)
    events = hle_rows(table, space)
    copies = [copy_of(h) for h in events]
    repeats = data.draw(st.lists(st.sampled_from(copies), max_size=5)) if copies else []
    shuffled = hle_table(data.draw(st.permutations(copies + [copy_of(h) for h in repeats])), space)
    perm = np.array(data.draw(st.permutations(range(len(table)))), dtype=np.intp)

    assignment = cascades(table, links, lam)
    from_shuffled = cascades(shuffled, links, lam)
    assert oracles.cascade_ids(assignment, space) == oracles.cascade_ids(from_shuffled, space)
    assert assignment.count == from_shuffled.count
    link = oracles.link_value(links, space)
    if len(table) <= 500:  # the oracle compares every pair of events
        assert oracles.partition_of(assignment, space) == oracles.oracle_partition(events, link, lam)
    edges = propagation_edges(table, links, lam)
    # the distinct rows of the shuffled table are the rows of the table
    assert np.array_equal(edges, propagation_edges(shuffled, links, lam))
    by_window = {}
    for h in events:
        by_window.setdefault(h.window, []).append(h)
    assert set(edge_events(table, edges, space)) == {
        (h1, h2)
        for h1 in events
        for h2 in by_window.get(h1.window + 1, ())
        if oracles.oracle_propagates(h1, h2, link, lam)
    }

    hlel = build_hlel(assignment, framing, thresholds)
    rows = entry_reprs(hlel)
    assert rows == entry_reprs(build_hlel(from_shuffled, framing, thresholds))
    permuted = CascadeAssignment(hle_table((events[k] for k in perm), space), assignment.cases[perm])
    assert rows == entry_reprs(build_hlel(permuted, framing, thresholds))

    names = sorted({e.activity for e in rows})
    for order in (None, FlattenOrder(data.draw(st.permutations(names))[: len(names) // 2])):
        flat = entry_reprs(flatten(hlel, order))
        assert flat == entry_reprs(flatten(high_level_log(entries(hlel)), order))
        key = oracles.flatten_key(order or FlattenOrder())
        assert flat == sorted(rows, key=lambda e: (e.case, e.window, key(e.activity)))
    flat = flatten(hlel)
    assert export_dfg(flat) == export_dfg(high_level_log(entries(flat)))
    assert dfg_counts(export_dfg(flat)) == oracles.oracle_dfg_counts(flat)

    summary = summarize(log, hlel, period, framing.origin)
    freq = Counter(e.activity for e in rows)
    assert list(summary.activities) == sorted(freq, key=lambda a: (-freq[a], a))[:4]
    texts = [io.StringIO(), io.StringIO()]
    write_summary_csv(summary, texts[0])
    write_summary_csv(summarize(log, high_level_log(entries(hlel)), period, framing.origin), texts[1])
    assert texts[0].getvalue() == texts[1].getvalue() == oracles.oracle_summary_csv(
        log, hlel, period, framing.origin
    )


@st.composite
def propagation_graphs(draw):
    """High-level events of up to 8 resources in paths, zig-zags and stars,
    with link values at, just above and just below lambda.

    A path steps one window at a time, or two for a gap, through drawn or
    descending resource ids, so its window order and its component order
    disagree. A zig-zag fills windows w and w+1 with many resources; a star
    has one resource in its middle window and many on both sides. A
    resource's views order its features' names differently from its
    number, which is its component code.
    """
    lam = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    m = draw(st.integers(1, 8))
    resources = [Component.resource(f"r{i}") for i in range(m)]
    near = [lam, float(np.nextafter(lam, 2.0)), float(np.nextafter(lam, -1.0)), 0.0, 1.0]
    links = oracles.link_table({
        (a, b): min(1.0, max(0.0, draw(st.sampled_from(near))))
        for a, b in itertools.combinations(resources, 2)
    })
    some = st.lists(st.integers(0, m - 1), min_size=1, max_size=m)
    placed = []  # (window, resource number)
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, 40))
        shape = draw(st.sampled_from(["path", "zigzag", "star"]))
        if shape == "path":
            ids = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=20))
            if draw(st.booleans()):
                ids.sort(reverse=True)
            gaps = st.sampled_from([1, 1, 1, 2])
            steps = draw(st.lists(gaps, min_size=len(ids), max_size=len(ids)))
            placed += zip(itertools.accumulate(steps, initial=start), ids)
        elif shape == "zigzag":
            placed += [(start, i) for i in draw(some)] + [(start + 1, i) for i in draw(some)]
        else:
            placed += [(start, i) for i in draw(some)] + [(start + 1, draw(st.integers(0, m - 1)))]
            placed += [(start + 2, i) for i in draw(some)]
    views = st.lists(st.sampled_from([View.DO, View.TODO, View.WL]), min_size=1, max_size=2)
    hles = [
        HighLevelEvent(Feature(view, resources[i]), w, draw(st.sampled_from([0.5, 1.0])))
        for w, i in placed
        for view in draw(views)
    ]
    # with one resource the table has no components, and r0 lies beyond them
    assert oracles.table_space(links) in ([], resources)
    return hle_table(hles, resources), links, lam, resources


@SETTINGS
@given(propagation_graphs())
def test_cascades_of_adversarial_graphs_agree_with_the_oracles(graph):
    table, links, lam, space = graph
    assignment = cascades(table, links, lam)
    link = oracles.link_value(links, space)
    events = hle_rows(table, space)
    assert oracles.cascade_ids(assignment, space) == oracles.oracle_cascade_ids(events, link, lam)
    edges = propagation_edges(table, links, lam)
    rows = list(map(tuple, edges.tolist()))
    assert rows == sorted(set(rows))
    # row order is (window, feature name, value) order
    keys = [(h.window, h.feature.name, h.value) for h in hle_rows(table.distinct(), space)]
    assert keys == sorted(set(keys))
    assert set(edge_events(table, edges, space)) == {
        (h1, h2)
        for h1, h2 in itertools.product(set(events), repeat=2)
        if oracles.oracle_propagates(h1, h2, link, lam)
    }
    # every round at least halves the sets of each connected part
    layers = linkage._layers(table, links, lam)
    _, rounds = linkage._join(layers.nodes, layers.tail, layers.head)
    event(f"{rounds} hooking rounds")
    assert rounds <= math.ceil(math.log2(max(layers.nodes, 1)))
