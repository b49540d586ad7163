import json
import os
import subprocess
import sys

import pytest

from conftest import log_t_csv_text

from highline import HighLevelEvent
from highline.cli import main

ARTIFACTS = ("hlel.csv", "links.csv", "summary.csv", "dfg.dot")


@pytest.fixture
def log_t_csv(tmp_path):
    path = tmp_path / "log_t.csv"
    path.write_text(log_t_csv_text())
    return str(path)


def run(args):
    return main(args)


def read_artifacts(out_dir):
    contents = {}
    for name in ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            contents[name] = fh.read()
    return contents


def test_analyze_never_imports_the_simulator(log_t_csv, tmp_path):
    # a fresh interpreter: this one has imported the simulator already
    script = f"""
import sys
from highline.cli import main
assert main(["analyze", "--input", {log_t_csv!r}, "--out", {str(tmp_path / "out")!r}]) == 0
assert "highline.generator" not in sys.modules, "analyze imported the simulator"
from highline import ScenarioConfig, generate
import highline
assert highline.generator.generate is generate and ScenarioConfig().seed == 42
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_analyze_writes_artifacts(log_t_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = run([
        "analyze", "--input", log_t_csv, "--out", str(out),
        "--window-width", "20s", "--percentile", "0", "--lambda", "0",
    ])
    assert code == 0
    for name in ARTIFACTS + ("config.json",):
        assert (out / name).exists(), name
    printed = capsys.readouterr().out
    assert "events: 6" in printed
    assert "windows: 3" in printed
    assert "high-level events: 50" in printed
    assert "cascades: 1" in printed


def test_analyze_of_a_sparse_log_builds_no_event_or_entry_object(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a HighLevelEvent was built")

    monkeypatch.setattr(HighLevelEvent, "__init__", refuse)
    # two cases a day apart: 1,440 one-minute windows, nearly all of them
    # full of high-level events once the thresholds collapse
    path = tmp_path / "sparse.csv"
    path.write_text(
        "case,activity,timestamp,resource\n"
        "c1,request,2023-01-02T00:10:00,Ann\n"
        "c1,answer,2023-01-02T00:40:00,Bob\n"
        "c2,request,2023-01-03T00:20:00,Ann\n"
        "c2,answer,2023-01-03T00:55:00,Bob\n"
    )
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(path), "--out", str(out), "--window-width", "60s"]) == 0
    printed = capsys.readouterr().out
    hles = int(printed.split("high-level events: ")[1].split()[0])
    assert hles > 1000
    for name in ARTIFACTS + ("config.json",):
        assert (out / name).stat().st_size > 0, name
    assert len((out / "hlel.csv").read_text().splitlines()) == hles + 1


def test_analyze_is_deterministic(log_t_csv, tmp_path):
    outs = []
    for name in ("out1", "out2"):
        out = tmp_path / name
        assert run([
            "analyze", "--input", log_t_csv, "--out", str(out),
            "--window-width", "20s", "--percentile", "0.5", "--lambda", "0.5",
        ]) == 0
        outs.append(read_artifacts(str(out)))
    assert outs[0] == outs[1]


def test_analyze_config_round_trip(log_t_csv, tmp_path):
    out1 = tmp_path / "out1"
    assert run([
        "analyze", "--input", log_t_csv, "--out", str(out1),
        "--window-width", "20s", "--percentile", "0.7", "--lambda", "0.3",
        "--summary-period", "1m",
    ]) == 0
    out2 = tmp_path / "out2"
    assert run(["analyze", "--config", str(out1 / "config.json"), "--out", str(out2)]) == 0
    assert read_artifacts(str(out1)) == read_artifacts(str(out2))
    config = json.loads((out1 / "config.json").read_text())
    assert config["percentile"] == 0.7
    assert config["window_width"] == "20s"


def test_missing_input_fails_without_partial_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_2(log_t_csv, tmp_path, capsys):
    assert run(["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"),
                "--percentile", "1.5"]) == 2
    assert run(["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"),
                "--lambda", "-0.1"]) == 2
    assert run(["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"),
                "--window-width", "abc"]) == 2
    assert run(["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"),
                "--views", "exec,nosuch"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [
    ("percentile", "0.9"),
    ("percentile", True),
    ("summary_top", "4"),
    ("summary_top", 4.0),
    ("window_width", 5),
    ("views", "exec"),
    ("views", ["exec", 1]),
    ("activities", "a"),
    ("segments", ["a", "b"]),
    ("exclude_zeros", "yes"),
    ("out", 7),
])
def test_a_mistyped_config_field_is_a_config_error(log_t_csv, tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"input": log_t_csv, "out": str(tmp_path / "o"), field: value}))
    assert run(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: field {field!r} must be ")
    assert err.rstrip().endswith(f"got {json.dumps(value)}")


def test_a_config_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('[["input", "log.csv"]]')
    assert run(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"


def test_config_fields_of_their_own_types_are_accepted(log_t_csv, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "input": log_t_csv, "out": str(tmp_path / "o"), "window_width": "20s", "percentile": 1,
        "lam": 0, "views": None, "segments": [["a", "b"]], "exclude_zeros": True, "summary_top": 2,
    }))
    assert run(["analyze", "--config", str(path)]) == 0


def test_a_latin1_log_is_an_error_naming_its_line(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(log_t_csv_text().replace("c2,a,", "c2,caf\u00e9,").encode("latin-1"))
    assert run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}, line 5: invalid UTF-8 byte 0xe9\n"


@pytest.mark.parametrize("config", [
    {"weeks": "x"},
    {"weeks": [[600, "900"]]},
    {"patient_fraction": "0.5"},
    {"seed": "5"},
], ids=["weeks", "week-bound", "patient_fraction", "seed"])
def test_a_mistyped_scenario_field_is_a_config_error(tmp_path, capsys, config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "scenario.csv"
    assert run(["generate", "--config", str(path), "--out", str(out)]) == 2
    ((field, value),) = config.items()
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario config: field {field!r} must be ")
    assert err.rstrip().endswith(f"got {json.dumps(value)}")
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("analyze", "--window-width"), ("summary", "--window-width"), ("summary", "--summary-period"),
    ("analyze", "--summary-period"),
])
def test_a_width_under_one_microsecond_is_a_config_error(log_t_csv, tmp_path, capsys, command, flag):
    args = [command, "--input", log_t_csv, "--out", str(tmp_path / "o"), flag, "0.0000001"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "at least 1 µs" in err and err.count("\n") == 1
    # checked with the config, before any artifact is written
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag,width", [
    ("--window-width", "15000000w"), ("--window-width", "99999999999w"),
    ("--window-width", "9999999999999999999999d"), ("--summary-period", "99999999999w"),
])
def test_a_width_beyond_the_span_of_datetime_is_a_config_error(log_t_csv, tmp_path, capsys, flag, width):
    # 15000000w wrapped the window starts past 2**63 µs into a traceback; the
    # others blamed the origin or printed numpy's cast warnings first
    args = ["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"), flag, width]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: width must be at most 315537897600 s") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("origin,width", [
    ("0001-01-01T12:00:00", "1d"),  # the first window starts on day 0
    ("0001-01-01T01:00:00", "1h"),  # the first window fits, its summary week does not
])
def test_an_origin_that_puts_a_window_before_year_one_is_a_config_error(
    tmp_path, capsys, origin, width
):
    path = tmp_path / "early.csv"
    path.write_text(
        "case,activity,timestamp,resource\n"
        "c1,a,0001-01-01T00:00:00,r1\nc1,b,0001-01-01T03:00:00,r2\n"
    )
    out = tmp_path / "o"
    args = ["analyze", "--input", str(path), "--out", str(out), "--origin", origin]
    assert run(args + ["--window-width", width]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --origin value {origin!r} puts a window before 0001-01-01\n"
    assert not out.exists()
    # the first event's own window and week start there
    assert run(args[:-1] + ["0001-01-01T00:00:00", "--window-width", width]) == 0


def test_an_out_of_range_scenario_start_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"start": "0001-01-01T00:00:00+05:00"}))
    out = tmp_path / "scenario.csv"
    assert run(["generate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: scenario config: start '0001-01-01T00:00:00+05:00' is out of range in UTC\n"
    assert not out.exists()


def latin1_file(tmp_path, name, text):
    """A file of ``text`` whose second line has a Latin-1 \u00e9 in it."""
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return path


def test_a_latin1_config_is_a_config_error_naming_its_line(log_t_csv, tmp_path, capsys):
    text = '{\n"input": "%s", "out": "caf\u00e9"}' % log_t_csv
    path = latin1_file(tmp_path, "config.json", text)
    assert run(["analyze", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}, line 2: invalid UTF-8 byte 0xe9\n"


def test_a_latin1_scenario_config_is_a_config_error_naming_its_line(tmp_path, capsys):
    path = latin1_file(tmp_path, "scenario.json", '{\n"batching_resource": "Ren\u00e9e"}')
    assert run(["generate", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: {path}, line 2: invalid UTF-8 byte 0xe9\n"


def test_a_latin1_flatten_order_is_a_config_error_naming_its_line(log_t_csv, tmp_path, capsys):
    path = latin1_file(tmp_path, "order.txt", "exec-a\nexec-caf\u00e9\n")
    assert run(["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"),
                "--window-width", "20s", "--flatten-order", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}, line 2: invalid UTF-8 byte 0xe9\n"


def test_unknown_flag_is_a_usage_error(log_t_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--input", log_t_csv, "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_column_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("case,activity,timestamp,resource\nc1,a,2024-01-01T00:00:00,r1\n")
    code = run([
        "analyze", "--input", str(path), "--out", str(tmp_path / "o"),
        "--case-col", "case_id",
    ])
    assert code == 2
    assert "case_id" in capsys.readouterr().err


def test_out_of_range_stamps_are_errors_not_tracebacks(log_t_csv, tmp_path, capsys):
    path = tmp_path / "edge.csv"
    path.write_text("case,activity,timestamp,resource\nc1,a,9999-12-31T23:00:00-02:00,r1\n")
    assert run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "line 2: timestamp '9999-12-31T23:00:00-02:00' is out of range" in err
    code = run(["analyze", "--input", log_t_csv, "--out", str(tmp_path / "o"),
                "--origin", "0001-01-01T00:00:00+02:00"])
    assert code == 2
    assert "--origin value '0001-01-01T00:00:00+02:00' is out of range" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_log_fails(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("case,activity,timestamp,resource\n")
    code = run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "no events" in capsys.readouterr().err


def test_links_subcommand(log_t_csv, tmp_path, capsys):
    assert run(["links", "--input", log_t_csv, "--window-width", "20s"]) == 0
    out = capsys.readouterr().out
    assert "kind1,component1,kind2,component2,link" in out
    assert "activity,a,activity,b,1.0" in out
    assert "activity,a,activity,c" not in out  # zero pairs omitted by default
    assert run(["links", "--input", log_t_csv, "--window-width", "20s", "--include-zeros"]) == 0
    out = capsys.readouterr().out
    assert "activity,a,activity,c,0.0" in out
    # the same table as the full pipeline writes
    assert run(["analyze", "--input", log_t_csv, "--window-width", "20s", "--include-zeros",
                "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()
    assert (tmp_path / "full" / "links.csv").read_text() == out


def test_segments_of_one_label_share_one_row_in_label_then_segment_order(tmp_path, capsys):
    # ("a,a", "a") and ("a", "a,a") are both labelled (a,a,a); chained once
    # one way round and twice the other, each way is worth 1/3 and 2/3
    path = tmp_path / "commas.csv"
    path.write_text(
        "case,activity,timestamp,resource\n"
        '1,"a,a",2024-01-01T00:00:00,r\n1,a,2024-01-01T00:01:00,r\n1,"a,a",2024-01-01T00:02:00,r\n'
        '2,a,2024-01-01T00:00:00,r\n2,"a,a",2024-01-01T00:01:00,r\n2,a,2024-01-01T00:02:00,r\n'
        '3,a,2024-01-01T00:00:00,r\n3,"a,a",2024-01-01T00:01:00,r\n3,a,2024-01-01T00:02:00,r\n'
    )
    assert run(["links", "--input", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r for r in rows if r.startswith("segment,")] == [
        'segment,"(a,a,a)",segment,"(a,a,a)",0.6666666666666666'
    ]


def test_summary_subcommand(log_t_csv, tmp_path):
    out = tmp_path / "summary.csv"
    assert run([
        "summary", "--input", log_t_csv, "--window-width", "20s",
        "--percentile", "0", "--summary-period", "1m", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("period,start,events,hles")
    assert len(lines) >= 2


def test_summary_stdout_matches_out_file_under_custom_format(tmp_path, capsys):
    path = tmp_path / "dmy.csv"
    path.write_text(
        "case,activity,timestamp,resource\n"
        "c1,a,02/01/2023 09:00,r1\n"
        "c1,b,02/01/2023 09:30,r2\n"
        "c2,a,05/01/2023 10:00,r1\n"
        "c2,b,05/01/2023 11:15,r2\n"
    )
    args = ["summary", "--input", str(path), "--timestamp-format", "%d/%m/%Y %H:%M",
            "--window-width", "1h", "--percentile", "0.5"]
    assert run(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "summary.csv"
    assert run(args + ["--out", str(out)]) == 0
    assert printed == out.read_text()
    assert "02/01/2023 00:00" in printed


def test_dfg_subcommand(log_t_csv, tmp_path, capsys):
    options = ["--input", log_t_csv, "--window-width", "20s", "--percentile", "0"]
    assert run(["dfg", *options]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("digraph") and "->" in printed
    path = tmp_path / "g.dot"
    assert run(["dfg", *options, "--out", str(path)]) == 0
    assert run(["analyze", *options, "--out", str(tmp_path / "out")]) == 0
    assert printed.encode() == path.read_bytes() == (tmp_path / "out" / "dfg.dot").read_bytes()


def test_summary_on_stdout_equals_the_analyze_artifact(log_t_csv, tmp_path, capsys):
    options = ["--input", log_t_csv, "--window-width", "20s", "--percentile", "0", "--summary-period", "30s"]
    assert run(["summary", *options]) == 0
    printed = capsys.readouterr().out
    assert len(printed.splitlines()) > 2
    assert run(["analyze", *options, "--out", str(tmp_path / "out")]) == 0
    assert printed.encode() == (tmp_path / "out" / "summary.csv").read_bytes()


def test_generate_and_analyze_end_to_end(tmp_path, capsys):
    csv_path = tmp_path / "gen.csv"
    scenario = {"weeks": [[600, 900]], "seed": 5}
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps(scenario))
    assert run(["generate", "--config", str(config_path), "--out", str(csv_path)]) == 0
    assert "generated" in capsys.readouterr().out
    out = tmp_path / "out"
    assert run([
        "analyze", "--input", str(csv_path), "--out", str(out),
        "--window-width", "1h", "--percentile", "0.8",
    ]) == 0
    assert (out / "hlel.csv").exists()


def test_generate_seed_flag_overrides_config(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    config_path = tmp_path / "scenario.json"
    config_path.write_text(json.dumps({"weeks": [[600, 900]], "seed": 5}))
    assert run(["generate", "--config", str(config_path), "--out", str(a), "--seed", "6"]) == 0
    assert run(["generate", "--config", str(config_path), "--out", str(b), "--seed", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_views_filter_and_exclude_zeros_are_plumbed(log_t_csv, tmp_path):
    out = tmp_path / "out"
    assert run([
        "analyze", "--input", log_t_csv, "--out", str(out),
        "--window-width", "20s", "--views", "exec,delay", "--exclude-zeros",
        "--dump-matrix",
    ]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["views"] == ["exec", "delay"]
    assert config["exclude_zeros"] is True
    views = {line.split(",")[0] for line in (out / "matrix.csv").read_text().splitlines()[1:]}
    assert views == {"exec", "delay"}


def test_component_filters_via_config_file(log_t_csv, tmp_path):
    config = {
        "input": log_t_csv,
        "out": str(tmp_path / "out"),
        "window_width": "20s",
        "percentile": 0.0,
        "activities": ["a"],
        "resources": ["r1"],
        "segments": [["a", "b"]],
        "dump_matrix": True,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert run(["analyze", "--config", str(path)]) == 0
    import csv as csv_mod

    with open(tmp_path / "out" / "matrix.csv", newline="") as fh:
        rows = list(csv_mod.reader(fh))[1:]
    components = {(r[0], r[1]) for r in rows}
    allowed = {("exec", "a"), ("enter", "(a,b)"), ("exit", "(a,b)"),
               ("progr", "(a,b)"), ("delay", "(a,b)"),
               ("do", "r1"), ("todo", "r1"), ("wl", "r1")}
    assert components <= allowed and ("exec", "a") in components
    # unknown component in a selection is a configuration problem
    config["activities"] = ["nope"]
    path.write_text(json.dumps(config))
    assert run(["analyze", "--config", str(path)]) == 2


def test_matrix_dump(log_t_csv, tmp_path):
    out = tmp_path / "out"
    assert run([
        "analyze", "--input", log_t_csv, "--out", str(out),
        "--window-width", "20s", "--dump-matrix",
    ]) == 0
    lines = (out / "matrix.csv").read_text().splitlines()
    assert lines[0] == "view,component,window,value"
    assert any(line.startswith("delay,") for line in lines[1:])
