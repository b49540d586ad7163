"""Workload inputs and child processes of the analyze benchmark.

Every timed run is a fresh ``python3 -m highline`` process started from
the checkout's ``src/``, exactly as a user runs the installed command. Its
wall time runs from spawn to exit, its CPU time and peak RSS come from the
kernel's rusage of that process (``os.wait4``).
"""

from __future__ import annotations

import csv
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 42  # the seed references.json holds digests for
PERCENTILE = "0.9"
LAMBDA = "0.5"


@dataclass(frozen=True)
class Workload:
    name: str
    window_width: str

    def analyze_args(self) -> list[str]:
        """Relative paths keep the config.json artifact independent of the work directory."""
        return ["analyze", "--input", "input.csv", "--out", "out",
                "--window-width", self.window_width,
                "--percentile", PERCENTILE, "--lambda", LAMBDA]


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-10x", "1d"),
        Workload("sparse-1m", "60s"),
    )
}


def write_input(workload: str, seed: int, path: Path) -> None:
    """Write the workload's input event log for ``seed`` to ``path``."""
    if workload == "sparse-1m":
        _write_sparse(seed, path)
        return
    from highline.events import write_event_csv
    from highline.generator import ScenarioConfig, default_weeks, generate

    write_event_csv(generate(ScenarioConfig(weeks=default_weeks() * 10, seed=seed)), str(path))


def _write_sparse(seed: int, path: Path) -> None:
    """Two request->answer cases, the second three days after the first."""
    rng = random.Random(seed)
    first = datetime(2023, 1, 2) + timedelta(minutes=rng.randrange(60))
    second = first + timedelta(days=3, minutes=rng.randrange(60))
    rows = []
    for case, start in (("c1", first), ("c2", second)):
        rows.append((case, "request", start, "Ann"))
        rows.append((case, "answer", start + timedelta(minutes=rng.randrange(5, 60)), "Bob"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["case", "activity", "timestamp", "resource"])
        for case, activity, t, resource in rows:
            writer.writerow([case, activity, t.isoformat(), resource])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass(frozen=True)
class Process:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run(cmd: list[str], cwd: Path, timeout_s: float) -> Process:
    """Run ``cmd`` to completion; kill it after ``timeout_s`` seconds."""
    log = cwd / "stdout.txt"
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=log.read_text(encoding="utf-8", errors="replace"),
    )


def highline(args: list[str], cwd: Path, timeout_s: float) -> Process:
    return run([sys.executable, "-m", "highline", *args], cwd, timeout_s)


def traced(args: list[str], cwd: Path, spans_path: str, timeout_s: float) -> Process:
    return run([sys.executable, str(BENCH_DIR / "trace_child.py"), spans_path, *args],
               cwd, timeout_s)


def probe(cwd: Path, timeout_s: float) -> Process:
    return run([sys.executable, str(BENCH_DIR / "probe.py")], cwd, timeout_s)


def make_input(workload: str, seed: int, cwd: Path, timeout_s: float) -> float:
    """Write ``cwd/input.csv`` in a child process; returns the seconds it spent.

    A child keeps this process small: a process started from a large parent
    reports the parent's resident size as its own peak RSS.
    """
    proc = run([sys.executable, str(BENCH_DIR / "harness.py"), workload, str(seed), "input.csv"],
              cwd, timeout_s)
    if proc.returncode != 0:
        raise RuntimeError(f"writing the {workload} input failed:\n{proc.stdout}")
    return float(proc.stdout)


if __name__ == "__main__":
    start = time.perf_counter()
    write_input(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(time.perf_counter() - start)
