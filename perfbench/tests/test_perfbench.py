"""Self-tests of the benchmark harness.

Run from the root of the checkout: python3 -m pytest perfbench/tests -q
"""

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, span_cost_s, total_times  # noqa: E402

SMALL_LOG = """case,activity,timestamp,resource
c1,request,2023-01-02T08:00:00,Ann
c1,answer,2023-01-02T08:40:00,Bob
c2,request,2023-01-02T08:10:00,Ann
c2,answer,2023-01-02T10:30:00,Bob
c3,request,2023-01-02T09:15:00,Ann
c3,answer,2023-01-02T09:20:00,Ann
c4,request,2023-01-02T11:05:00,Bob
c4,answer,2023-01-02T12:45:00,Bob
"""


def _run(work: Path, monkeypatch, corrupt: bool) -> run.Run:
    """A benchmark run over SMALL_LOG whose reference digests come from a
    clean first analyze; ``corrupt`` flips one byte of the next one's HLEL."""
    (work / "input.csv").write_text(SMALL_LOG)
    monkeypatch.setitem(harness.WORKLOADS, "small", harness.Workload("small", "1h"))
    bench = run.Run("small", work)
    _, ok = bench.analyze()
    assert ok and bench.failed == 0
    bench.reference = {"artifacts": bench.first[1]}

    real = harness.highline

    def corrupting(args, cwd, timeout_s):
        proc = real(args, cwd, timeout_s)
        hlel = cwd / "out" / "hlel.csv"
        data = bytearray(hlel.read_bytes())
        data[-2] ^= 0x01  # a digit of the last row's threshold
        hlel.write_bytes(bytes(data))
        return proc

    if corrupt:
        monkeypatch.setattr(harness, "highline", corrupting)
    _, ok = bench.analyze()
    assert ok is not corrupt
    return bench


def test_clean_rerun_passes(tmp_path, monkeypatch):
    bench = _run(tmp_path, monkeypatch, corrupt=False)
    assert (bench.attempted, bench.failed) == (2, 0)


def test_one_corrupted_byte_fails_the_run(tmp_path, monkeypatch):
    bench = _run(tmp_path, monkeypatch, corrupt=True)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_invariants_catch_a_sparse_cascade_id(tmp_path):
    (tmp_path / "input.csv").write_text(SMALL_LOG)
    proc = harness.highline(harness.Workload("small", "1h").analyze_args(), tmp_path, 60)
    out = tmp_path / "out"
    assert check.check_run(proc.returncode, proc.stdout, str(out), None)[0] == []
    hlel = out / "hlel.csv"
    lines = hlel.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = "999"
    hlel.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    errors, _ = check.check_run(proc.returncode, proc.stdout, str(out), None)
    assert any("dense" in e for e in errors)


def _span(span_id, name, start, end, parent):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_the_children():
    ms = 1_000_000
    spans = [
        _span(0, "main", 0, 100 * ms, None),
        _span(1, "a", 10 * ms, 40 * ms, 0),
        _span(2, "b", 20 * ms, 30 * ms, 1),
        _span(3, "c", 50 * ms, 90 * ms, 0),
        _span(4, "d", 60 * ms, 70 * ms, 3),
        _span(5, "b", 92 * ms, 95 * ms, 0),  # a second span of the same name
    ]
    selfs = self_times(spans)
    expected = {"main": 27, "a": 20, "b": 13, "c": 30, "d": 10}
    assert {k: round(v * 1000, 6) for k, v in selfs.items()} == expected
    assert round(total_times(spans)["b"] * 1000, 6) == 13
    assert round(sum(selfs.values()) * 1000, 6) == 100


def test_span_cost_is_positive():
    assert span_cost_s(100) > 0


def test_tracer_nests_spans_and_reports_missing_targets():
    module = argparse.Namespace(__name__="fake")
    module.outer = lambda: module.inner() + 1
    module.inner = lambda: 41
    tracer = Tracer()
    for name in ("outer", "inner", "gone"):
        tracer.wrap(module, name)
    with tracer.span("main"):
        assert module.outer() == 42
    assert tracer.missing == ["fake.gone"]
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("main", None), ("outer", 0), ("inner", 1)]
    assert tracer.results == {"inner": 41, "outer": 42}


def test_probe_does_the_same_work_every_time(tmp_path):
    outputs = {harness.probe(tmp_path, 60).stdout for _ in range(2)}
    assert len(outputs) == 1 and outputs.pop().strip().isdigit()
