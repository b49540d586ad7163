import csv
import io
import random
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import BASE, make_log
from oracles import (
    Component, Entry, Feature, cascade_ids, code_space, entries, entry_reprs, flatten_key, high_level_log, hle_rows,
    hle_table, hlel_of, oracle_hlel_csv,
)

from highline import (
    CascadeAssignment,
    ConfigError,
    DataError,
    FlattenOrder,
    Framing,
    HighLevelEvent,
    HighLevelLog,
    ThresholdTable,
    View,
    analyze_log,
    build_hlel,
    export_dfg,
    flatten,
    read_hlel_csv,
    summarize,
    write_hlel_csv,
    write_summary_csv,
)
from highline import events
from highline.events import to_microseconds

F20 = Framing(BASE, 20.0)


def hle(name, w, value=5.0, view=View.WL):
    return HighLevelEvent(Feature(view, Component.resource(name)), w, value)


def thresholds_for(*views):
    return ThresholdTable(percentile=0.5, by_view={v: 1.0 for v in views})


def assigned(hles, cases):
    """The given events, each in the cascade given for it."""
    return CascadeAssignment(hle_table(hles), np.array(cases, dtype=np.int64))


def test_build_hlel_empty():
    hlel = build_hlel(assigned([], []), F20, thresholds_for())
    assert len(hlel) == 0 and entries(hlel) == []


def test_build_hlel_maps_attributes():
    hles = [hle("Jane", 4), hle("Jane", 5), hle("Pete", 5)]
    rows = entries(build_hlel(assigned(hles, [1, 1, 1]), F20, thresholds_for(View.WL)))
    assert len(rows) == 3
    assert {e.case for e in rows} == {1}
    assert [e.timestamp for e in rows] == [
        BASE + timedelta(seconds=80),
        BASE + timedelta(seconds=100),
        BASE + timedelta(seconds=100),
    ]
    assert [e.activity for e in rows] == ["wl-Jane", "wl-Jane", "wl-Pete"]
    assert all(e.threshold == 1.0 for e in rows)
    assert [e.hle_id for e in rows] == [1, 2, 3]


def test_build_hlel_is_bijective():
    rng = random.Random(3)
    hles = [hle(f"r{i}", rng.randint(0, 9), value=float(i)) for i in range(25)]
    assignment = assigned(hles, [1 + (i % 4) for i in range(len(hles))])
    rows = entries(build_hlel(assignment, F20, thresholds_for(View.WL)))
    assert len(rows) == len(hles)
    assert sorted((e.activity, e.window, e.value) for e in rows) == sorted(
        (h.feature.name, h.window, h.value) for h in hles
    )


def test_flatten_orders_within_window():
    hles = [hle("Jane", 3), HighLevelEvent(Feature(View.ENTER, Component.segment("report", "answer")), 3, 9.0)]
    thresholds = ThresholdTable(0.5, {View.WL: 1.0, View.ENTER: 1.0})
    hlel = build_hlel(assigned(hles, [1, 1]), F20, thresholds)
    flat = flatten(hlel)
    assert [e.activity for e in entries(flat)] == ["enter-(report,answer)", "wl-Jane"]
    custom = flatten(hlel, FlattenOrder(["wl-Jane", "enter-(report,answer)"]))
    assert [e.activity for e in entries(custom)] == ["wl-Jane", "enter-(report,answer)"]


def test_flatten_order_from_file(tmp_path):
    path = tmp_path / "order.txt"
    # a leading byte order mark is no part of the first name
    for bom in ("\ufeff", ""):
        path.write_text(bom + "wl-Jane\nenter-(report,answer)\n\n", encoding="utf-8")
        order = FlattenOrder.from_file(str(path))
        assert order.names == ("wl-Jane", "enter-(report,answer)")
    key = flatten_key(order)
    assert key("wl-Jane") < key("enter-(report,answer)")
    # unlisted names sort after every listed one
    assert key("enter-(report,answer)") < key("delay-(report,answer)")


def test_flatten_order_rejects_duplicates():
    with pytest.raises(ConfigError):
        FlattenOrder(["x", "x"])


def test_flatten_idempotent_and_stable():
    rng = random.Random(5)
    hles = [hle(f"r{rng.randint(0, 3)}", rng.randint(0, 6), value=float(i)) for i in range(20)]
    assignment = assigned(hles, [1 + (i % 3) for i in range(len(hles))])
    once = flatten(build_hlel(assignment, F20, thresholds_for(View.WL)))
    assert entry_reprs(flatten(once)) == entry_reprs(once)
    # an already total case stays put
    single = [hle("solo", w, value=float(w)) for w in range(4)]
    hlel = build_hlel(assigned(single, [1] * 4), F20, thresholds_for(View.WL))
    assert entry_reprs(flatten(hlel)) == entry_reprs(hlel)


def test_a_log_in_key_order_is_built_and_flattened_without_a_sort(monkeypatch):
    # distinct events by (window, name, value) in one cascade are already in
    # (case, window, name) order
    hles = [hle(name, w, value=float(w)) for w in range(5) for name in ("Ann", "Bob")]
    table = hle_table(hles)
    assignment = CascadeAssignment(table, np.ones(len(hles), dtype=np.int64))
    expected = build_hlel(assigned(hles[::-1], [1] * len(hles)), F20, thresholds_for(View.WL))

    def refuse(*args, **kwargs):
        raise AssertionError("rows already in order were sorted")

    monkeypatch.setattr(np, "lexsort", refuse)
    assert table.distinct() is table
    hlel = build_hlel(assignment, F20, thresholds_for(View.WL))
    assert entry_reprs(hlel) == entry_reprs(expected)
    assert flatten(hlel) is hlel


def test_a_custom_order_against_name_order_still_reorders():
    hles = [hle("Ann", 0), hle("Bob", 0), hle("Ann", 1), hle("Bob", 1)]
    hlel = build_hlel(assigned(hles, [1] * 4), F20, thresholds_for(View.WL))
    custom = flatten(hlel, FlattenOrder(["wl-Bob"]))
    assert custom is not hlel
    assert [(e.window, e.activity) for e in entries(custom)] == [
        (0, "wl-Bob"), (0, "wl-Ann"), (1, "wl-Bob"), (1, "wl-Ann"),
    ]
    assert flatten(custom, FlattenOrder(["wl-Bob"])) is custom


def entry(case, window, activity, eid):
    return Entry(
        hle_id=eid,
        case=case,
        activity=activity,
        timestamp=BASE + timedelta(seconds=window * 20),
        window=window,
        view="wl",
        component_kind="resource",
        component=activity,
        value=1.0,
        threshold=1.0,
    )


def test_export_dfg_counts_adjacencies():
    rows = [entry(1, 0, "X", 1), entry(1, 1, "Y", 2), entry(1, 2, "X", 3)]
    dot = export_dfg(high_level_log(rows))
    assert '"X" [label="X (2)"];' in dot
    assert '"Y" [label="Y (1)"];' in dot
    assert '"X" -> "Y" [label="1"];' in dot
    assert '"Y" -> "X" [label="1"];' in dot


def test_export_dfg_empty_is_valid_dot():
    dot = export_dfg(high_level_log([]))
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")


def test_dfg_edge_total_matches_case_lengths():
    rng = random.Random(7)
    rows = []
    eid = 0
    case_lengths = Counter()
    for case in range(1, 6):
        for w in range(rng.randint(1, 6)):
            eid += 1
            rows.append(entry(case, w, f"act{rng.randint(0, 3)}", eid))
            case_lengths[case] += 1
    flat = flatten(high_level_log(rows))
    dot = export_dfg(flat)
    edge_total = sum(
        int(line.rsplit('label="', 1)[1].rstrip('"];'))
        for line in dot.splitlines()
        if "->" in line
    )
    assert edge_total == sum(n - 1 for n in case_lengths.values())


def test_hlel_csv_round_trip(tmp_path, log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    path = tmp_path / "hlel.csv"
    write_hlel_csv(result.entries, str(path))
    text = path.read_bytes()
    # a leading byte order mark is skipped
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text)
        back = read_hlel_csv(str(path))
        assert isinstance(back, HighLevelLog)
        assert entry_reprs(back) == entry_reprs(result.entries)


def _corrupt_hlel(tmp_path, log_t, edit):
    """An HLEL export of log_t whose second data row (line 3) is edited."""
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    path = tmp_path / "hlel.csv"
    write_hlel_csv(result.entries, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[2] = edit(rows[2])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(path)


def test_features_that_differ_only_in_the_sign_of_a_zero_threshold_read_back_apart(tmp_path):
    hlel = hlel_of(
        [("wl-a", "wl", "resource", "a", 0.0), ("wl-a", "wl", "resource", "a", -0.0)],
        np.array([0, 1]), np.array([1, 1]), np.array([0, 0]), np.array([1.0, 1.0]), np.array([1, 2]),
        np.array([0]), np.array([0, 0]),
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_hlel_csv(hlel, str(first))
    write_hlel_csv(read_hlel_csv(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()
    assert first.read_text().splitlines()[1:] == ["1,1,wl-a,1970-01-01T00:00:00,0,wl,resource,a,1.0,0.0",
                                                  "2,1,wl-a,1970-01-01T00:00:00,0,wl,resource,a,1.0,-0.0"]


def test_hlel_csv_memory_follows_one_block_not_the_log(tmp_path):
    # 4 blocks of rows, every value distinct, so that each row has its own
    # value text: grouped per block, the writer peaks at about 470 bytes per
    # row of one block, whatever the log's length; grouped over the whole
    # log it holds every row's text at once, about 1,070 bytes per row of
    # one block here, and more with each block
    n = 4 * events.WRITE_ROWS
    features = [(f"wl-r{i}", "wl", "resource", f"r{i}", 0.5) for i in range(4)]
    hlel = hlel_of(
        features, np.arange(n) % 4, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
        np.random.default_rng(0).random(n), np.arange(1, n + 1), np.array([0]), np.zeros(n, dtype=np.intp),
    )
    path = tmp_path / "hlel.csv"
    tracemalloc.start()
    try:
        write_hlel_csv(hlel, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == oracle_hlel_csv(hlel).encode()
    assert peak < 720 * events.WRITE_ROWS


def test_read_hlel_short_row_names_its_line(tmp_path, log_t):
    path = _corrupt_hlel(tmp_path, log_t, lambda row: row[:7])
    with pytest.raises(DataError, match=r"hlel\.csv, line 3: too few columns"):
        read_hlel_csv(path)


def test_read_hlel_long_row_names_its_line(tmp_path, log_t):
    path = _corrupt_hlel(tmp_path, log_t, lambda row: row + ["extra"])
    with pytest.raises(DataError, match=r"hlel\.csv, line 3: too many columns"):
        read_hlel_csv(path)


def test_read_hlel_non_integer_id_names_its_line(tmp_path, log_t):
    path = _corrupt_hlel(tmp_path, log_t, lambda row: ["x"] + row[1:])
    with pytest.raises(DataError, match=r"hlel\.csv, line 3: invalid literal for int"):
        read_hlel_csv(path)


def test_read_hlel_latin1_byte_names_its_line(tmp_path, log_t):
    path = _corrupt_hlel(tmp_path, log_t, lambda row: row)
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    lines[2] = lines[2].replace(b",", b",caf\xe9", 1)
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines))
    with pytest.raises(DataError) as exc:
        read_hlel_csv(path)
    assert str(exc.value) == f"{path}, line 3: invalid UTF-8 byte 0xe9"


def test_case_ids_are_cascade_ids(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    space = code_space(log_t)
    ids = cascade_ids(result.assignment, space)
    for e in entries(result.entries):
        by_hand = {h for h in hle_rows(result.hles, space) if ids[h] == e.case}
        assert e.activity in {h.feature.name for h in by_hand}


# --- summary ---------------------------------------------------------------------


def test_summary_single_row_when_period_covers_log(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    table = summarize(log_t, result.entries, 3600.0, BASE)
    assert table.first_period == 1
    assert table.events.tolist() == [6]
    assert table.hles.tolist() == [len(result.entries)]


def test_summary_partitions_hles(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    table = summarize(log_t, result.entries, 20.0, BASE)
    assert table.hles.sum() == len(result.entries)
    assert table.events.sum() == len(log_t)


def test_summary_average_recomputes(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    table = summarize(log_t, result.entries, 3600.0, BASE, activities=["delay-(a,b)"])
    values = [e.value for e in entries(result.entries) if e.activity == "delay-(a,b)"]
    assert table.counts.tolist() == [[len(values)]]
    # delay values are summed in hours
    assert table.sums[0, 0] / table.counts[0, 0] == pytest.approx(sum(values) / len(values) / 3600.0)


def test_summary_selects_most_frequent_activities(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    table = summarize(log_t, result.entries, 3600.0, BASE, top=2)
    freq = Counter(e.activity for e in entries(result.entries))
    best = min(table.activities, key=lambda a: (-freq[a], a))
    assert len(table.activities) == 2
    assert freq[best] == max(freq.values())


def test_summary_keeps_a_column_for_a_chosen_activity_without_entries(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    chosen = ["no-such-activity", "delay-(a,b)", "no-such-activity"]
    table = summarize(log_t, result.entries, 3600.0, BASE, activities=chosen)
    counts = table.counts[0].tolist()
    assert counts[0] == counts[2] == 0
    assert counts[1] == sum(1 for e in entries(result.entries) if e.activity == "delay-(a,b)") > 0
    # a count of 0 has an empty average
    text = io.StringIO()
    write_summary_csv(table, text)
    fields = text.getvalue().splitlines()[1].split(",")
    assert fields[4:] == ["0", "", str(counts[1]), fields[7], "0", ""] and fields[7]


def test_summary_memory_follows_the_chosen_activities_not_every_name(log_t):
    # 10,000 activity names and 100,000 entries over 1,440 hourly periods: a
    # count per (period, name) cell would take 115 MB for a result of 92 KB
    rng = np.random.default_rng(0)
    n, hours = 100_000, 1440
    features = [(f"wl-r{i}", "wl", "resource", f"r{i}", 1.0) for i in range(10_000)]
    hlel = hlel_of(
        features, rng.integers(0, len(features), n), np.ones(n, dtype=np.int64),
        np.zeros(n, dtype=np.int64), rng.random(n), np.arange(1, n + 1),
        to_microseconds(BASE) + np.arange(hours, dtype=np.int64) * 3600 * 10**6, rng.integers(0, hours, n),
    )
    tracemalloc.start()
    try:
        table = summarize(log_t, hlel, 3600.0, BASE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.counts.shape == (hours, 4)
    freq = np.bincount(hlel.feature_codes, minlength=len(features))
    assert table.counts.sum(axis=0).tolist() == [freq[int(a[len("wl-r"):])] for a in table.activities]
    assert peak < 10 * 2**20


def test_a_summary_period_under_one_microsecond_is_a_config_error(log_t):
    result = analyze_log(log_t, F20, percentile=0.0, lam=0.0)
    with pytest.raises(ConfigError, match="at least 1 µs"):
        summarize(log_t, result.entries, 1e-7, BASE)


def test_a_summary_period_before_year_one_is_a_config_error():
    log = make_log([("c1", "a", 0, "r1"), ("c1", "b", 3 * 3600, "r2")], base=datetime(1, 1, 1))
    origin = datetime(1, 1, 1, 1)
    # the first event's 1h window starts on 0001-01-01, its week on day 0
    result = analyze_log(log, Framing(origin, 3600.0), 0.0, 0.0)
    with pytest.raises(ConfigError, match=(
        r"^origin 0001-01-01T01:00:00 and width 604800.0 s put period 0 before 0001-01-01$"
    )):
        summarize(log, result.entries, 604800.0, origin)
    # the first event's own week starts there
    origin = datetime(1, 1, 1)
    result = analyze_log(log, Framing(origin, 3600.0), 0.0, 0.0)
    assert summarize(log, result.entries, 604800.0, origin).first_period == 1
