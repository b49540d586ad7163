"""Golden artifacts: `highline analyze` on the committed demo scenario must
reproduce the committed outputs in `demo_output/` byte for byte.

The inputs and expected files are written by `demos/04_service_desk_pipeline.py`
(seed 2024, three weeks, 1h windows, p 0.9, lambda 0.5). Any change to a
number, an order or a format in the pipeline shows up here as a diff against
files under version control, not only as a disagreement between two runs.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import highline._reader as reader
from highline import (
    Framing, analyze_log, default_origin, export_dfg, flatten, ingest_csv, read_hlel_csv, summarize,
    write_summary_csv,
)
from oracles import entry_reprs
from highline.cli import RunConfig, main, run_analyze
from highline.framing import parse_duration

DEMO = Path(__file__).resolve().parent.parent / "demo_output"
ARTIFACTS = ("hlel.csv", "links.csv", "summary.csv", "dfg.dot")


def quoted_crlf_copy(path: Path) -> Path:
    """The committed scenario with every field quoted and CRLF line ends,
    which the standard-layout reader leaves to csv.reader."""
    copy = path / "scenario_quoted.csv"
    with open(DEMO / "scenario.csv", newline="", encoding="utf-8") as src, \
            open(copy, "w", newline="", encoding="utf-8") as dst:
        csv.writer(dst, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(src))
    return copy


def assert_analyze_reproduces_artifacts(source: Path, out: Path) -> None:
    config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))
    assert (config["window_width"], config["percentile"], config["lam"]) == ("1h", 0.9, 0.5)
    code = main([
        "analyze",
        "--input", str(source),
        "--out", str(out),
        "--window-width", config["window_width"],
        "--percentile", str(config["percentile"]),
        "--lambda", str(config["lam"]),
        "--summary-period", config["summary_period"],
        "--summary-top", str(config["summary_top"]),
    ])
    assert code == 0
    for name in ARTIFACTS:
        expected = (DEMO / name).read_bytes()
        got = (out / name).read_bytes()
        if got != expected:
            pytest.fail(f"{name} differs from demo_output/{name}")


def count_general_reads(monkeypatch) -> list:
    """A list that grows by one for each file read by csv.reader."""
    reads = []
    read_general = reader._read_general
    monkeypatch.setattr(reader, "_read_general", lambda *args: reads.append(read_general(*args)))
    return reads


def test_analyze_reproduces_committed_demo_artifacts(tmp_path, monkeypatch):
    general = count_general_reads(monkeypatch)
    assert_analyze_reproduces_artifacts(DEMO / "scenario.csv", tmp_path / "out")
    assert not general  # the committed input is in the standard layout


def test_a_quoted_crlf_copy_of_the_input_reproduces_them_through_csv_reader(tmp_path, monkeypatch):
    general = count_general_reads(monkeypatch)
    assert_analyze_reproduces_artifacts(quoted_crlf_copy(tmp_path), tmp_path / "out")
    assert len(general) == 1


def test_a_read_back_hlel_feeds_the_stages_as_the_analysis_entries_do(tmp_path):
    config = RunConfig(**json.loads((DEMO / "config.json").read_text(encoding="utf-8")))._replace(
        input=str(DEMO / "scenario.csv"), out=str(tmp_path / "out")
    )
    result = run_analyze(config)
    back = read_hlel_csv(str(tmp_path / "out" / "hlel.csv"))
    assert entry_reprs(back) == entry_reprs(result.entries)
    assert entry_reprs(flatten(back)) == entry_reprs(result.flattened)
    assert export_dfg(flatten(back)) == export_dfg(result.flattened)
    period, origin = parse_duration(config.summary_period), result.framing.origin
    texts = []
    for hlel in (back, result.entries):
        texts.append(io.StringIO())
        write_summary_csv(summarize(result.log, hlel, period, origin), texts[-1])
    assert texts[0].getvalue() == texts[1].getvalue() == (DEMO / "summary.csv").read_text(encoding="utf-8")


def test_the_benchmark_trace_counts_the_demo_analysis_from_the_library(monkeypatch):
    """``perfbench/trace_child.py`` counts each layer of a run through the
    library's object views; a change that breaks one of them shows here,
    not only when the benchmark runs."""
    monkeypatch.syspath_prepend(str(DEMO.parent / "perfbench"))
    from trace_child import layer_counts

    log = ingest_csv(str(DEMO / "scenario.csv"))
    result = analyze_log(log, Framing(default_origin(log), parse_duration("1h")), percentile=0.9, lam=0.5)
    counts, missing = layer_counts(result, 0.5)
    assert missing == []
    matrix, hles, links = result.matrix, result.hles, result.links
    # the same counts from the columns: an edge joins events of adjacent
    # windows whose components are one, or linked at least at lambda
    near = np.eye(len(links.labels), dtype=bool)
    near[links.first, links.second] = near[links.second, links.first] = links.values >= 0.5
    component = hles.features.components[hles.codes]
    edges = (hles.windows[:, None] + 1 == hles.windows) & near[component[:, None], component]
    assert counts["features.features"] == len(matrix.features.names) == matrix.values.shape[0]
    assert counts["features.defined_cells"] == np.count_nonzero(~np.isnan(matrix.values))
    assert counts["features.hles"] == len(hles.codes)
    assert counts["linkage.edges"] == np.count_nonzero(edges)
