"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import random
import re
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from conftest import BASE, random_log
import oracles
from oracles import Component

from highline import (
    ComponentKind,
    Framing,
    ScenarioConfig,
    View,
    analyze_log,
    build_link_table,
    compute_thresholds,
    default_origin,
    evaluate,
    generate,
    generate_hles,
    write_event_csv,
)
from highline.cli import main as cli_main
from highline.features import HighLevelEvent
from highline.generator import WEEK_SECONDS
from highline.linkage import cascades

BUSY_WEEKS = {2, 3, 6}
TARGET_ACTIVITIES = (
    "wl-Jane",
    "enter-(report,answer)",
    "delay-(report,answer)",
    "exec-follow",
)


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL [{name}]")
        raise
    else:
        print(f"PASS [{name}] ({time.perf_counter() - t0:.1f}s)")


# --- shared scenario fixtures -------------------------------------------------


@pytest.fixture(scope="session")
def scenario(tmp_path_factory):
    """The default 7-week scenario: config, generated log, CSV path, and the
    wall time the generation took."""
    config = ScenarioConfig()
    t0 = time.perf_counter()
    log = generate(config)
    elapsed = time.perf_counter() - t0
    path = tmp_path_factory.mktemp("scenario") / "scenario.csv"
    write_event_csv(log, str(path))
    return config, log, str(path), elapsed


@pytest.fixture(scope="session")
def scenario_analysis(scenario):
    """The scenario analyzed at the acceptance settings (1h, p=0.9, l=0.5)."""
    _, log, _, _ = scenario
    framing = Framing(default_origin(log), 3600.0)
    t0 = time.perf_counter()
    result = analyze_log(log, framing, percentile=0.9, lam=0.5)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def week_of_window(result, config, window):
    start = oracles.bounds(result.framing.origin, result.framing.width, window)[0]
    return int((start - config.start).total_seconds() // WEEK_SECONDS) + 1


# --- criteria -------------------------------------------------------------------


def test_steps_oracle_equivalence():
    with criterion("oracle equivalence: steps, 100 random logs, < 5 s"):
        rng = random.Random(101)
        t0 = time.perf_counter()
        for _ in range(100):
            log = random_log(rng, max_events=200, max_cases=20)
            got = {(s.first.id, s.second.id) for s in log.steps}
            assert got == oracles.oracle_steps(log)
        assert time.perf_counter() - t0 < 5.0


def test_features_oracle_equivalence():
    with criterion("oracle equivalence: features, 50 random logs"):
        rng = random.Random(103)
        for _ in range(50):
            span = rng.choice([1800, 3600, 7200])
            log = random_log(
                rng, max_events=rng.randint(50, 500), max_cases=25, span=span
            )
            width = rng.uniform(span / 40, span / 3)
            framing = Framing(BASE, width)
            matrix = evaluate(log, framing)
            windows = oracles.windows_of(matrix)

            steps = oracles.oracle_step_events(log)
            triggers = oracles.trigger_map(steps)
            steps_by_seg = {}
            for e1, e2 in steps:
                steps_by_seg.setdefault((e1.activity, e2.activity), []).append((e1, e2))
            steps_by_res = {}
            for e1, e2 in steps:
                steps_by_res.setdefault(e2.resource, []).append((e1, e2))

            space = oracles.code_space(log)
            for fid in oracles.feature_rows(matrix.features, space):
                comp = fid.component.key
                arr = matrix.array((fid.view, space.index(fid.component)))
                for off, w in enumerate(windows):
                    got = arr[off]
                    if fid.view is View.EXEC:
                        want = oracles.oracle_exec(log, BASE, width, comp, w)
                    elif fid.view is View.DO:
                        want = oracles.oracle_do(log, BASE, width, comp, w)
                    elif fid.view is View.TODO:
                        want = oracles.oracle_todo(
                            steps_by_res.get(comp, []), BASE, width, comp, w
                        )
                    elif fid.view is View.WL:
                        want = oracles.oracle_wl(log, steps, BASE, width, comp, w, triggers=triggers)
                    elif fid.view is View.ENTER:
                        want = oracles.oracle_enter(
                            steps_by_seg[tuple(comp)], BASE, width, comp, w
                        )
                    elif fid.view is View.EXIT:
                        want = oracles.oracle_exit(
                            steps_by_seg[tuple(comp)], BASE, width, comp, w
                        )
                    elif fid.view is View.PROGR:
                        want = oracles.oracle_progr(
                            steps_by_seg[tuple(comp)], BASE, width, comp, w
                        )
                    else:
                        want = oracles.oracle_delay(
                            steps_by_seg[tuple(comp)], BASE, width, comp, w
                        )
                    if want is None:
                        assert got != got, (fid.name, w)  # NaN marks undefined
                    elif fid.view is View.DELAY:
                        assert got == pytest.approx(want, rel=1e-9), (fid.name, w)
                    else:
                        assert got == want, (fid.name, w)

            # conservation
            for s in log.segment_names:
                code = space.index(Component(ComponentKind.SEGMENT, s))
                total = len(steps_by_seg[s])
                assert matrix.array((View.ENTER, code)).sum() == total
                assert matrix.array((View.EXIT, code)).sum() == total
            for a in log.activity_names:
                fid = (View.EXEC, space.index(Component.activity(a)))
                assert matrix.array(fid).sum() == sum(e.activity == a for e in log.events)


def test_link_bounds_and_log_t_table(log_t):
    with criterion("link bounds, symmetry, and the hand-computed table"):
        # hand-computed values on the micro fixture
        table = build_link_table(log_t)
        a, b, c = (Component.activity(x) for x in "abc")
        r1, r2 = Component.resource("r1"), Component.resource("r2")
        ab = Component.segment("a", "b")
        bc = Component.segment("b", "c")
        expected = {
            (a, b): 1.0, (b, c): 1.0, (a, c): 0.0,
            (r1, r2): 1.0,
            (a, r1): 1.0, (b, r1): 0.0, (c, r1): 1.0,
            (a, r2): 0.0, (b, r2): 1.0, (c, r2): 0.0,
            (a, ab): 1.0, (b, ab): 1.0, (c, ab): 0.0,
            (a, bc): 0.0, (b, bc): 1.0, (c, bc): 1.0,
            (r1, ab): 1.0, (r2, ab): 1.0, (r1, bc): 1.0, (r2, bc): 1.0,
            (ab, bc): 1.0,
        }
        link = oracles.link_value(table, oracles.code_space(log_t))
        for (c1, c2), want in expected.items():
            assert link(c1, c2) == pytest.approx(want), (c1.label, c2.label)

        rng = random.Random(107)
        for _ in range(30):
            log = random_log(rng, max_events=120, max_cases=10)
            table = build_link_table(log)
            # each pair is stored once, as (first, second) with first < second
            assert (table.first < table.second).all()
            assert len(set(zip(table.first.tolist(), table.second.tolist()))) == len(table)
            assert ((0.0 < table.values) & (table.values <= 1.0)).all()


def test_cascade_correctness():
    with criterion("cascades match the reachability oracle, 100 random sets"):
        rng = random.Random(109)
        for _ in range(100):
            names = [f"A{i}" for i in range(rng.randint(2, 8))]
            comps = [Component.activity(n) for n in names]
            pairs = {}
            for i, c1 in enumerate(comps):
                for c2 in comps[i + 1 :]:
                    pairs[(c1, c2)] = rng.random() if rng.random() < 0.6 else 0.0
            links = oracles.link_table(pairs)
            seen = set()
            hles = []
            while len(hles) < rng.randint(10, 200):
                key = (rng.randrange(len(comps)), rng.randint(0, 12))
                if key in seen:
                    break
                seen.add(key)
                hles.append(
                    HighLevelEvent(
                        oracles.Feature(View.EXEC, comps[key[0]]), key[1], rng.random()
                    )
                )
            lam1, lam2 = sorted((rng.random(), rng.random()))
            space = oracles.table_space(links)
            table = oracles.hle_table(hles, space)
            fine = cascades(table, links, lam2)
            def raw(c1, c2):
                # the oracle reads the raw pairs, not the table under test
                return pairs.get((c1, c2), pairs.get((c2, c1), 0.0))

            assert oracles.partition_of(fine, space) == oracles.oracle_partition(hles, raw, lam2)
            # lambda-monotone refinement: each fine cascade nests in a coarse one
            coarse = oracles.cascade_ids(cascades(table, links, lam1), space)
            for block in oracles.partition_of(fine, space):
                assert len({coarse[h] for h in block}) == 1


def test_hle_monotonicity_in_percentile(scenario_analysis):
    with criterion("HLE(0.9) subset of HLE(0.7) subset of HLE(0.5) on the scenario"):
        result, _ = scenario_analysis
        matrix = result.matrix
        sets = {
            p: set(generate_hles(matrix, compute_thresholds(matrix, p)))
            for p in (0.5, 0.7, 0.9)
        }
        assert sets[0.9] <= sets[0.7] <= sets[0.5]
        assert len(sets[0.9]) < len(sets[0.5])


def test_table_one_qualitative_reproduction(scenario, scenario_analysis, tmp_path):
    config, log, csv_path, generate_time = scenario
    result, analyze_time = scenario_analysis

    with criterion("busy weeks carry >= 3x the high-level events of quiet weeks"):
        weeks = Counter(week_of_window(result, config, h.window) for h in result.hles)
        quiet_max = max(weeks.get(w, 0) for w in set(range(1, 8)) - BUSY_WEEKS)
        for w in sorted(BUSY_WEEKS):
            assert weeks.get(w, 0) >= 3 * quiet_max > 0, (w, dict(weeks))

    with criterion("workload, traffic, delay and follow-up features share a cascade"):
        fired_weeks = {name: set() for name in TARGET_ACTIVITIES}
        space = oracles.code_space(result.log)
        for h in oracles.hle_rows(result.hles, space):
            if h.feature.name in fired_weeks:
                fired_weeks[h.feature.name].add(week_of_window(result, config, h.window))
        for name, weeks_fired in fired_weeks.items():
            assert BUSY_WEEKS <= weeks_fired, (name, weeks_fired)
        by_cascade = {}
        for h, cascade in oracles.cascade_ids(result.assignment, space).items():
            by_cascade.setdefault(cascade, set()).add(h.feature.name)
        assert any(
            set(TARGET_ACTIVITIES) <= names for names in by_cascade.values()
        ), "no cascade contains all four features"

    with criterion("dfg.dot contains a directed cycle through the four activities"):
        out = tmp_path / "scenario_out"
        code = cli_main(
            [
                "analyze",
                "--input", csv_path,
                "--out", str(out),
                "--window-width", "1h",
                "--percentile", "0.9",
                "--lambda", "0.5",
            ]
        )
        assert code == 0
        dot = (out / "dfg.dot").read_text()
        edges = re.findall(r'"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)"', dot)
        adjacency = {}
        for src, dst in edges:
            adjacency.setdefault(src, set()).add(dst)

        def reachable(source):
            seen, stack = set(), [source]
            while stack:
                for nxt in adjacency.get(stack.pop(), ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        for a, b in itertools.permutations(TARGET_ACTIVITIES, 2):
            assert b in reachable(a), f"{b} not reachable from {a}"

    with criterion(f"end-to-end runtime < 60 s on ~20k events (|E|={len(log)})"):
        assert len(log) > 10_000
        assert generate_time + analyze_time < 60.0


def test_full_run_determinism(scenario, tmp_path):
    with criterion("two analyze runs produce byte-identical artifacts"):
        _, _, csv_path, _ = scenario
        artifacts = ("hlel.csv", "links.csv", "summary.csv", "dfg.dot")
        contents = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main(
                [
                    "analyze",
                    "--input", csv_path,
                    "--out", str(out),
                    "--window-width", "1h",
                    "--percentile", "0.9",
                    "--lambda", "0.5",
                ]
            )
            assert code == 0
            contents.append({a: (out / a).read_bytes() for a in artifacts})
        assert contents[0] == contents[1]


def test_hlel_bijection(scenario_analysis, log_t):
    with criterion("high-level log entries correspond 1:1 to high-level events"):
        small = analyze_log(log_t, Framing(BASE, 20.0), percentile=0.0, lam=0.0)
        big, _ = scenario_analysis
        for result in (small, big):
            assert len(result.entries) == len(result.hles)
            space = oracles.code_space(result.log)
            by_key = {(h.feature.name, h.window): h for h in oracles.hle_rows(result.hles, space)}
            assert len(by_key) == len(result.hles)
            ids = oracles.cascade_ids(result.assignment, space)
            framing = result.framing
            for entry in oracles.entries(result.entries):
                h = by_key[(entry.activity, entry.window)]
                assert entry.activity == h.feature.name
                assert entry.case == ids[h]
                assert entry.timestamp == oracles.bounds(framing.origin, framing.width, h.window)[0]
                assert entry.value == h.value
