import codecs
import csv
import itertools
import logging
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest

from conftest import BASE, log_t_csv_text, make_log, random_log, read_general
import oracles
from oracles import event_log, oracle_step_events, oracle_steps, order_key

from highline import (
    ColumnMapping,
    ComponentKind,
    ConfigError,
    DataError,
    Event,
    EventLog,
    Framing,
    ScenarioConfig,
    Step,
    WeekSpec,
    View,
    analyze_log,
    build_link_table,
    default_origin,
    evaluate,
    generate,
    ingest_csv,
    summarize,
    write_event_csv,
)
import highline._reader as reader_module
import highline.events as events_module
from highline.events import to_microseconds
from highline.features import VIEW_KIND
from highline.generator import QUIET_ARRIVALS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def step_ids(log):
    return {(s.first.id, s.second.id) for s in log.steps}


def columns(log):
    """Everything an EventLog holds, as plain values."""
    return (
        log.case_names, log.activity_names, log.resource_names,
        *(a.tolist() for a in (log.case_codes, log.activity_codes, log.resource_codes,
                               log.times_us, log.ids)),
    )


def test_log_t_steps(log_t):
    assert step_ids(log_t) == {(1, 2), (2, 3), (4, 5), (5, 6)}


def test_single_event_case_has_no_steps():
    log = make_log([("c1", "a", 0, "r1"), ("c2", "b", 5, "r1")])
    assert log.steps == ()


def test_non_adjacent_pair_is_not_a_step():
    log = make_log([("c1", "a", 0, "r1"), ("c1", "b", 10, "r1"), ("c1", "c", 20, "r1")])
    assert step_ids(log) == {(1, 2), (2, 3)}
    assert step_ids(log) == oracle_steps(log)


def test_equal_timestamps_break_ties_by_id():
    log = make_log([("c1", "a", 5, "r1"), ("c1", "b", 5, "r1"), ("c1", "c", 5, "r1")])
    assert step_ids(log) == {(1, 2), (2, 3)}


def test_component_sets(log_t):
    assert log_t.activity_names == ("a", "b", "c")
    assert log_t.resource_names == ("r1", "r2")
    assert log_t.segment_names == (("a", "b"), ("b", "c"))


def test_component_sets_no_steps():
    log = make_log([("c1", "a", 0, "r1")])
    assert log.segment_names == ()


def test_self_loop_segment_allowed():
    log = make_log([("c1", "a", 0, "r1"), ("c1", "a", 5, "r1"), ("c2", "a", 0, "r1"), ("c2", "a", 9, "r1")])
    assert log.segment_names == (("a", "a"),)


def test_steps_match_oracle_on_random_logs():
    rng = random.Random(7)
    for _ in range(25):
        log = random_log(rng, max_events=80, max_cases=8)
        assert step_ids(log) == oracle_steps(log)


def test_step_count_with_strict_timestamps():
    rng = random.Random(11)
    log = random_log(rng, max_events=120, max_cases=10, tie_rate=0.0)
    expected = sum(n - 1 for n in Counter(e.case for e in log.events).values())
    assert len(log.steps) == expected


def test_no_event_strictly_between_step_endpoints():
    rng = random.Random(13)
    log = random_log(rng, max_events=100, max_cases=6)
    for s in log.steps:
        for e in log.events:
            if e.case == s.first.case and e.id not in (s.first.id, s.second.id):
                assert not (order_key(s.first) < order_key(e) < order_key(s.second))


def test_steps_independent_of_input_order():
    rng = random.Random(17)
    log = random_log(rng, max_events=60, max_cases=6)
    shuffled = list(log.events)
    rng.shuffle(shuffled)
    relog = event_log(shuffled)
    assert step_ids(relog) == step_ids(log)


# --- CSV ingestion ---------------------------------------------------------------


def test_ingest_csv_row_count(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(log_t_csv_text())
    log = ingest_csv(str(path))
    assert len(log) == 6
    assert log.ids.tolist() == [1, 4, 2, 3, 5, 6]  # sorted by (time, case, id)


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("case,activity,timestamp\nc1,a,2024-01-01T00:00:00\n")
    with pytest.raises(ConfigError, match="resource"):
        ingest_csv(str(path))


def test_ingest_bad_timestamp_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("case,activity,timestamp,resource\nc1,a,not-a-time,r1\n")
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(str(path))


def test_ingest_names_the_first_bad_line_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(reader_module, "_CHUNK_ROWS", 2)
    monkeypatch.setattr(events_module, "_CHUNK_BYTES", 16)
    path = tmp_path / "bad.csv"
    path.write_text(
        "case,activity,timestamp,resource\n"
        "c1,a,2024-01-01T00:00:00,r1\n"
        "c1,b,2024-01-01T00:00:01,r1\n"
        'c2,"multi\nline",2024-01-01T00:00:02,r1\n'
        "c2,b,later,r1\n"
        "c3,,2024-01-01T00:00:04,r1\n"
    )
    # the quoted field spans two lines, so the bad timestamp ends on line 6
    with pytest.raises(DataError, match="line 6: unparseable timestamp 'later'"):
        ingest_csv(str(path))


@pytest.mark.parametrize("stamp", [
    "2023-13-02T08:13:35", "2023-00-10T00:00:00", "2023-02-29T12:00:00", "2024-04-31T00:00:00",
    "2023-01-02T24:00:00", "2023-01-02T08:60:00", "2023-01-02T08:59:60",
])
def test_an_impossible_date_in_a_standard_file_names_its_line(tmp_path, stamp):
    # the command reads each file in a fresh process, which must exit 1 with
    # one line on stderr (numpy 2.4's string cast, which the reader no longer
    # makes, crashed on such a stamp among a few hundred)
    for rows in (20, 2000):
        path = tmp_path / f"rows{rows}.csv"
        bad = rows // 2
        lines = ["case,activity,timestamp,resource"] + [
            f"c{k % 7},a{k % 3},{stamp if k == bad else (BASE + timedelta(seconds=k)).isoformat()},r{k % 2}"
            for k in range(rows)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "highline", "analyze", "--input", str(path), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stderr) == (
            1, f"error: {path}, line {bad + 2}: unparseable timestamp {stamp!r}\n"
        )
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stamp", [
    "2023-13-02T08:13:35", "2023-00-10T00:00:00", "2023-02-29T12:00:00", "2024-04-31T00:00:00",
    "2023-01-02T24:00:00", "2023-01-02T08:60:00", "2023-01-02T08:59:60",
    "1900-02-29T10:00:00", "2000-02-29T10:00:00.250000", "2100-02-29T10:00:00",
])
@pytest.mark.parametrize("place", ["head", "interior", "after the hour of another year"])
@pytest.mark.parametrize("chunk_bytes", [64, 1 << 20])
def test_a_stamp_at_the_head_or_inside_a_run_of_one_hour_reads_as_fromisoformat(
    tmp_path, monkeypatch, stamp, place, chunk_bytes
):
    # the standard reader checks a date and hour once per run of rows that
    # share them; here the stamp starts such a run, follows a row of its run
    # or follows the same month, day and hour of 2000 (a leap year); the
    # rows mix 19- and 26-byte stamps, and 64-byte chunks cut the run apart
    monkeypatch.setattr(events_module, "_CHUNK_BYTES", chunk_bytes)
    hour = stamp[:13]
    run = [f"{hour}:00:01", f"{hour}:30:00.500000", f"{hour}:45:59"]
    run.insert(1 if place == "interior" else 0, stamp)
    before = [(BASE + timedelta(minutes=7 * k, microseconds=k % 2)).isoformat() for k in range(20)]
    if place != "interior":
        before.append(f"2000{stamp[4:13]}:59:59")
    stamps = before + run + [(BASE + timedelta(days=1, minutes=k)).isoformat() for k in range(20)]
    path = tmp_path / "runs.csv"
    path.write_text(
        "case,activity,timestamp,resource\n" + "".join(f"c{k % 3},a,{t},r\n" for k, t in enumerate(stamps)),
        encoding="utf-8",
    )
    bad = [k for k, t in enumerate(stamps) if not _exists(t)]
    if bad:
        with pytest.raises(DataError) as error:
            ingest_csv(str(path))
        assert str(error.value) == f"{path}, line {bad[0] + 2}: unparseable timestamp {stamps[bad[0]]!r}"
    else:
        with mock.patch.object(reader_module, "_read_general", side_effect=AssertionError):
            log = ingest_csv(str(path))
        assert log.times_us.tolist() == sorted(to_microseconds(datetime.fromisoformat(t)) for t in stamps)


def _exists(stamp):
    try:
        datetime.fromisoformat(stamp)
    except ValueError:
        return False
    return True


def test_ingest_empty_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("case,activity,timestamp,resource\nc1,,2024-01-01T00:00:00,r1\n")
    with pytest.raises(DataError, match="activity"):
        ingest_csv(str(path))


def test_ingest_custom_mapping_and_format(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,who,when,what\nk1,alice,01/02/2024 10:30,review\n")
    mapping = ColumnMapping(case="id", activity="what", timestamp="when", resource="who")
    log = ingest_csv(str(path), mapping, timestamp_format="%d/%m/%Y %H:%M")
    assert log.events[0].activity == "review"
    assert log.events[0].timestamp.month == 2


def test_ingest_deterministic_under_ties(tmp_path):
    text = (
        "case,activity,timestamp,resource\n"
        "c1,a,2024-01-01T00:00:05,r1\n"
        "c1,b,2024-01-01T00:00:05,r2\n"
    )
    path = tmp_path / "ties.csv"
    path.write_text(text)
    first = ingest_csv(str(path))
    second = ingest_csv(str(path))
    assert [(e.id, e.activity) for e in first.events] == [(e.id, e.activity) for e in second.events]
    assert step_ids(first) == {(1, 2)}


def test_a_file_in_row_order_is_ingested_without_a_sort(tmp_path, monkeypatch):
    # write_event_csv writes rows in (timestamp, case, id) order, ties included
    log = random_log(random.Random(11), tie_rate=0.5)
    path = tmp_path / "ordered.csv"
    write_event_csv(log, str(path))
    expected = [(e.case, e.activity, e.timestamp, e.resource) for e in log.events]

    def refuse(*args, **kwargs):
        raise AssertionError("rows already in order were sorted")

    monkeypatch.setattr(np, "lexsort", refuse)
    back = ingest_csv(str(path))
    assert [(e.case, e.activity, e.timestamp, e.resource) for e in back.events] == expected
    assert back.ids.tolist() == list(range(1, len(log) + 1))
    for column in (back.case_codes, back.activity_codes, back.resource_codes, back.times_us, back.ids):
        assert not column.flags.writeable


def test_from_columns_leaves_the_callers_ids_writable():
    ids = np.array([7, 3], dtype=np.int64)
    log = EventLog.from_columns(["c", "c"], ["a", "b"], [0, 1], ["r", "r"], ids)
    assert log.ids.tolist() == [7, 3]
    assert not log.ids.flags.writeable
    ids[0] = 8
    assert log.ids.tolist() == [7, 3]


def test_event_csv_round_trip(tmp_path, log_t):
    path = tmp_path / "out.csv"
    write_event_csv(log_t, str(path))
    back = ingest_csv(str(path))
    assert [(e.case, e.activity, e.timestamp, e.resource) for e in back.events] == [
        (e.case, e.activity, e.timestamp, e.resource) for e in log_t.events
    ]


def test_year_one_round_trips_under_a_timestamp_format(tmp_path):
    # %Y writes four digits, as strptime reads them; %%Y stays literal
    fmt = "%%Y %Y-%m-%d %H:%M:%S.%f"
    log = event_log([
        Event(1, "c1", "a", datetime(1, 1, 1), "r1"),
        Event(2, "c1", "b", datetime(999, 12, 31, 23, 59, 59, 5), "r1"),
    ])
    path = tmp_path / "early.csv"
    write_event_csv(log, str(path), timestamp_format=fmt)
    assert path.read_text().splitlines()[1:] == [
        "c1,a,%Y 0001-01-01 00:00:00.000000,r1",
        "c1,b,%Y 0999-12-31 23:59:59.000005,r1",
    ]
    assert columns(ingest_csv(str(path), timestamp_format=fmt)) == columns(log)


@pytest.mark.parametrize("chunk_rows", [2, 4096])
def test_mixed_timezone_offsets_warn_once(tmp_path, caplog, monkeypatch, chunk_rows):
    monkeypatch.setattr(reader_module, "_CHUNK_ROWS", chunk_rows)
    if chunk_rows == 2:
        # the first line is in the standard layout, so the standard-layout
        # reader takes one chunk before the offset sends the file to csv.reader
        monkeypatch.setattr(events_module, "_CHUNK_BYTES", 16)
    path = tmp_path / "mixed.csv"
    path.write_text(
        "case,activity,timestamp,resource\n"
        "c1,a,2024-01-01T10:00:00,r1\n"
        "c1,b,2024-01-01T12:30:00+02:00,r1\n"
        "c2,a,2024-01-01T11:00:00,r2\n"
    )
    with caplog.at_level(logging.WARNING, logger="highline.events"):
        log = ingest_csv(str(path))
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "1 timestamps carry a UTC offset and 2 do not" in message
    assert "first offset-aware timestamp on line 3" in message
    # the offset-aware timestamp is folded to naive UTC, as before
    assert [e.timestamp for e in log.events] == [
        datetime(2024, 1, 1, 10), datetime(2024, 1, 1, 10, 30), datetime(2024, 1, 1, 11)
    ]


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
def test_ingest_skips_a_byte_order_mark(tmp_path, log_t, quoting):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_event_csv(log_t, str(plain))
    with open(plain, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(marked, "w", newline="", encoding="utf-8-sig") as fh:
        csv.writer(fh, quoting=quoting).writerows(rows)
    assert marked.read_bytes().startswith(codecs.BOM_UTF8)
    assert columns(ingest_csv(str(marked))) == columns(ingest_csv(str(plain)))
    # line numbers in errors count the header line as 1, BOM or not
    marked.write_bytes(codecs.BOM_UTF8 + b"case,activity,timestamp,resource\n"
                       b"c1,a,2024-01-01T00:00:00,r1\n,b,2024-01-01T00:00:01,r1\n")
    with pytest.raises(DataError, match="line 3: empty case value"):
        ingest_csv(str(marked))


@pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+02:00", "9999-12-31T23:00:00-02:00"])
def test_an_offset_stamp_beyond_the_utc_range_names_its_line(tmp_path, quoting, stamp):
    path = tmp_path / "edge.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=quoting, lineterminator="\n").writerows([
            ["case", "activity", "timestamp", "resource"],
            ["c1", "a", "2024-01-01T00:00:00", "r1"],
            ["c1", "b", stamp, "r1"],
        ])
    with pytest.raises(DataError) as exc:
        ingest_csv(str(path))
    assert str(exc.value) == f"{path}, line 3: timestamp {stamp!r} is out of range in UTC"


def test_a_generated_log_is_read_without_csv_reader(tmp_path, monkeypatch):
    log = generate(ScenarioConfig(weeks=(WeekSpec(QUIET_ARRIVALS),), seed=3))
    path = tmp_path / "generated.csv"
    write_event_csv(log, str(path))
    assert path.stat().st_size > 8 * 4096

    def refuse(*args, **kwargs):
        raise AssertionError("the general reader was used")

    monkeypatch.setattr(events_module, "_CHUNK_BYTES", 4096)
    monkeypatch.setattr(events_module.csv, "reader", refuse)
    monkeypatch.setattr(events_module, "_parser", refuse)
    monkeypatch.setattr(reader_module, "_read_general", refuse)
    assert columns(ingest_csv(str(path))) == columns(log)


def event_csv(path, rows):
    """Write (case, activity, seconds, resource) rows in the standard layout."""
    lines = ["case,activity,timestamp,resource"]
    lines += [f"{c},{a},{(BASE + timedelta(seconds=s)).isoformat()},{r}" for c, a, s, r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_a_short_line_and_a_wide_line_are_not_read_as_two_rows(tmp_path):
    # three fields, then five: the separators still add up to two lines of four
    path = tmp_path / "ragged.csv"
    path.write_text("case,activity,timestamp,resource\n"
                    "c1,a,2024-01-01T00:00:00\nr1,c2,b,2024-01-01T00:00:01,r2\n")
    with pytest.raises(DataError, match="line 2: too few columns"):
        ingest_csv(str(path))


@pytest.mark.parametrize("name", ["c\x001", "c1\x00", "\x00"])
def test_a_nul_byte_sends_the_file_to_csv_reader(tmp_path, name):
    # a packed key pads a name with NULs, so "c" and "c\0" would collide
    path = tmp_path / "nul.csv"
    event_csv(path, [("c", "a", 0, "r1"), (name, "a", 1, "r1")])
    with mock.patch.object(reader_module, "_read_general", wraps=reader_module._read_general) as general:
        log = ingest_csv(str(path))
    assert general.called
    assert log.case_names == tuple(sorted({"c", name}))


def test_a_100000_byte_name_is_read_as_csv_reader_reads_it_in_bounded_memory(tmp_path):
    long_name = "n" * 100_000
    rows = [(long_name if i == 2_500 else f"c{i % 300}", f"a{i % 7}", i, f"r{i % 5}") for i in range(5_000)]
    path = tmp_path / "long.csv"
    event_csv(path, rows)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        log = ingest_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns(log) == columns(read_general(str(path)))
    assert long_name in log.case_names
    # packing the chunk around the long name would take about 1,700 rows
    # of 100,000 bytes each, 670 times the file; csv.reader needs about 11
    assert peak < 16 * size


@pytest.mark.parametrize("standard", [True, False])
def test_a_file_that_is_not_utf8_names_the_line_of_its_first_bad_byte(tmp_path, standard):
    path = tmp_path / "latin1.csv"
    quote = "" if standard else '"'
    path.write_bytes(
        "case,activity,timestamp,resource\n"
        f"c1,{quote}request{quote},2024-01-01T00:00:00,r1\n"
        "c1,café,2024-01-01T00:00:01,r1\n"
        "c2,café,2024-01-01T00:00:02,r\u00e9\n".encode("latin-1")
    )
    with pytest.raises(DataError) as exc:
        ingest_csv(str(path))
    assert str(exc.value) == f"{path}, line 3: invalid UTF-8 byte 0xe9"


def test_uniform_timezone_offsets_do_not_warn(tmp_path, caplog):
    for name, stamps in (
        ("aware", ("2024-01-01T10:00:00+01:00", "2024-01-01T11:00:00Z")),
        ("naive", ("2024-01-01T10:00:00", "2024-01-01T11:00:00")),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(
            "case,activity,timestamp,resource\n" + "".join(f"c1,a,{t},r1\n" for t in stamps)
        )
        with caplog.at_level(logging.WARNING, logger="highline.events"):
            ingest_csv(str(path))
    assert not caplog.records


def test_ingest_columns_are_coded_in_name_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(log_t_csv_text())
    log = ingest_csv(str(path))
    assert log.activity_names == ("a", "b", "c")
    assert log.resource_names == ("r1", "r2")
    assert [log.case_names[c] for c in log.case_codes.tolist()] == [e.case for e in log.events]
    assert log.times_us.dtype == np.int64
    assert log.times_us.tolist() == sorted(log.times_us.tolist())
    first, second = log.step_rows
    assert list(zip(log.ids[first].tolist(), log.ids[second].tolist())) == [
        (1, 2), (2, 3), (4, 5), (5, 6)
    ]
    assert log.segment_names == (("a", "b"), ("b", "c"))


@pytest.mark.parametrize("n_act", [3, 20])
def test_step_segments_rank_the_activity_pairs_that_occur(n_act):
    # 3 activities have at most 9 pairs, fewer than the steps, and 20 have
    # up to 400, more: events.code_pairs counts the one and sorts the other
    rng = random.Random(n_act)
    acts = [i % n_act for i in range(60)]
    rng.shuffle(acts)
    rows = [(f"c{rng.randrange(8)}", f"a{a}", i, "r") for i, a in enumerate(acts)]
    log = make_log(rows)
    assert len(log.activity_names) == n_act
    first, second = log.step_rows
    pairs = log.activity_codes[first] * n_act + log.activity_codes[second]
    distinct, codes = np.unique(pairs, return_inverse=True)
    seg, ends = log.step_segments
    assert seg.tolist() == codes.tolist()
    assert ends.tolist() == [[p // n_act, p % n_act] for p in distinct.tolist()]


def test_a_components_code_is_its_kinds_offset_plus_its_name_code():
    # a space sorts below the comma, so the label (a b,x) comes before (a,x)
    # while the name "a b" comes after "a"; ("a", "a,a") and ("a,a", "a")
    # share the label (a,a,a), and (x,a b), taken once, is the reverse of
    # (a b,x), taken twice
    log = make_log([
        ("c1", "a", 0, "r1"), ("c1", "x", 1, "r2"),
        ("c2", "a b", 0, "r2"), ("c2", "x", 2, "r1"),
        ("c3", "a,a", 0, "r1"), ("c3", "a", 1, "r1"), ("c3", "a,a", 2, "r2"),
        ("c4", "x", 1, "r2"), ("c4", "a b", 3, "r1"),
        ("c5", "a b", 4, "r2"), ("c5", "x", 5, "r2"),
    ])
    assert log.activity_names == ("a", "a b", "a,a", "x")
    assert log.segment_names == (
        ("a b", "x"), ("a", "a,a"), ("a,a", "a"), ("a", "x"), ("x", "a b"),
    )
    seg, ends = log.step_segments
    names = log.activity_names
    assert [(names[s], names[t]) for s, t in ends.tolist()] == list(log.segment_names)
    assert [log.segment_names[s] for s in seg.tolist()] == [
        (e1.activity, e2.activity) for e1, e2 in oracle_step_events(log)
    ]
    offset = 0
    labels = (log.activity_names, log.resource_names, [s.label for s in log.segment_names])
    for kind, kind_labels in zip(ComponentKind, labels):
        for code, label in enumerate(kind_labels):
            assert log.component_kinds[offset + code] == kind.value
            assert log.component_labels[offset + code] == label
        offset += len(kind_labels)
    space = oracles.code_space(log)
    assert offset == len(space)
    table = build_link_table(log)
    assert table.kinds.tolist() == [c.kind.value for c in space]
    assert table.labels.tolist() == [c.label for c in space]
    link = oracles.link_value(table, space)
    steps = oracle_step_events(log)
    for c1, c2 in itertools.combinations(space, 2):
        assert link(c1, c2) == oracles.oracle_link(log, steps, c1, c2), (c1, c2)
    matrix = evaluate(log, Framing(BASE, 1.0))
    features = oracles.feature_rows(matrix.features, space)
    assert features == sorted(
        (oracles.Feature(v, c) for v in View for c in space if c.kind is VIEW_KIND[v]),
        key=lambda f: (f.name, space.index(f.component)),
    )
    assert matrix.features.labels.tolist() == [f.component.label for f in features]
    assert matrix.features.kinds.tolist() == [f.component.kind.value for f in features]


def test_analysis_of_an_ingested_log_builds_no_event_or_step(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an Event or Step object was built")

    monkeypatch.setattr(Event, "__init__", refuse)
    monkeypatch.setattr(Step, "__new__", refuse)
    path = tmp_path / "t.csv"
    path.write_text(log_t_csv_text())
    log = ingest_csv(str(path))
    framing = Framing(default_origin(log), 20.0)
    result = analyze_log(log, framing, percentile=0.5, lam=0.5)
    summarize(log, result.entries, 60.0, framing.origin)
    assert result.hles
    assert not {"events", "steps"} & set(vars(log))
    with pytest.raises(AssertionError, match="was built"):
        log.events


def test_from_columns_matches_event_objects(log_t):
    events = log_t.events
    log = EventLog.from_columns(
        [e.case for e in events],
        [e.activity for e in events],
        [to_microseconds(e.timestamp) for e in events],
        [e.resource for e in events],
        ids=[e.id for e in events],
    )
    assert log.events == events
    with pytest.raises(DataError, match="differ in length"):
        EventLog.from_columns(["c1"], ["a"], [0, 1], ["r1"])


def test_log_rejects_duplicate_ids_and_empty_values():
    t = datetime(2024, 1, 1)
    with pytest.raises(DataError, match="duplicate event id: 1"):
        event_log([Event(1, "c1", "a", t, "r1"), Event(1, "c2", "b", t, "r1")])
    with pytest.raises(DataError, match="event 2: empty attribute value"):
        event_log([Event(1, "c1", "a", t, "r1"), Event(2, "c1", "", t, "r1")])
