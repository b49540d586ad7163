"""Golden artifacts: `highline analyze` on the committed demo scenario must
reproduce the committed outputs in `demo_output/` byte for byte.

The inputs and expected files are written by `demos/04_service_desk_pipeline.py`
(seed 2024, three weeks, 1h windows, p 0.9, lambda 0.5). Any change to a
number, an order or a format in the pipeline shows up here as a diff against
files under version control, not only as a disagreement between two runs.
"""

import json
from pathlib import Path

import pytest

from highline.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo_output"
ARTIFACTS = ("hlel.csv", "links.csv", "summary.csv", "dfg.dot")


def test_analyze_reproduces_committed_demo_artifacts(tmp_path):
    config = json.loads((DEMO / "config.json").read_text(encoding="utf-8"))
    assert (config["window_width"], config["percentile"], config["lam"]) == ("1h", 0.9, 0.5)
    out = tmp_path / "out"
    code = main([
        "analyze",
        "--input", str(DEMO / "scenario.csv"),
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
