"""Command line interface.

Subcommands: ``analyze`` (full pipeline, writes all artifacts),
``generate`` (scenario simulator), ``links``, ``summary`` and ``dfg``
(single-artifact variants of the pipeline). Exit codes: 0 success,
1 runtime error (I/O, bad data), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime

import numpy as np

from . import events
from .errors import ConfigError, DataError, check_json_types, read_json_object
from .events import (
    ColumnMapping,
    EventLog,
    Segment,
    csv_column,
    ingest_csv,
    parse_config_timestamp,
    row_blocks,
    text_output,
    write_csv,
    write_event_csv,
)
from .features import EvaluationMatrix, View
from .framing import Framing, default_origin, parse_duration
from .hlelog import (
    FlattenOrder,
    SummaryTable,
    export_dfg,
    summarize,
    write_hlel_csv,
    write_summary_csv,
)
from .linkage import LinkTable, build_link_table
from .pipeline import AnalysisResult, analyze_log


@dataclass
class RunConfig:
    """Everything one `analyze` run depends on; echoed to the output
    directory so a run can be reproduced from its artifacts."""

    input: str
    out: str | None = None
    case_column: str = "case"
    activity_column: str = "activity"
    timestamp_column: str = "timestamp"
    resource_column: str = "resource"
    timestamp_format: str | None = None
    window_width: str = "1d"
    origin: str = "auto"
    percentile: float = 0.8
    lam: float = 0.5
    views: list[str] | None = None
    # component filters, settable through the JSON config only
    activities: list[str] | None = None
    resources: list[str] | None = None
    segments: list[list[str]] | None = None
    exclude_zeros: bool = False
    flatten_order_file: str | None = None
    summary_period: str = "1w"
    summary_top: int = 4
    include_zero_links: bool = False
    dump_matrix: bool = False

    def validate(self) -> None:
        if not 0 <= self.percentile <= 1:
            raise ConfigError(f"--percentile must lie in [0, 1], got {self.percentile}")
        if not 0 <= self.lam <= 1:
            raise ConfigError(f"--lambda must lie in [0, 1], got {self.lam}")
        for duration in (self.window_width, self.summary_period):
            Framing(datetime.min, parse_duration(duration))  # a width under 1 µs fails
        if self.views is not None:
            valid = {v.value for v in View}
            for name in self.views:
                if name not in valid:
                    raise ConfigError(f"unknown view {name!r}; choose from {sorted(valid)}")
        if self.summary_top < 1:
            raise ConfigError("--summary-top must be at least 1")
        if self.segments is not None:
            for pair in self.segments:
                if len(pair) != 2:
                    raise ConfigError(f"segments entries must be [from, to] pairs, got {pair}")

    def mapping(self) -> ColumnMapping:
        return ColumnMapping(
            case=self.case_column,
            activity=self.activity_column,
            timestamp=self.timestamp_column,
            resource=self.resource_column,
        )

    def view_selection(self) -> tuple[View, ...] | None:
        return None if self.views is None else tuple(View(name) for name in self.views)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        data = read_json_object(path)
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"{path}: unknown config fields {sorted(unknown)}")
        if "input" not in data:
            raise ConfigError(f"{path}: missing required field 'input'")
        check_json_types(data, typing.get_type_hints(cls), path)
        return cls(**data)

    def write_json(self, path: str) -> None:
        with text_output(path) as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="highline",
        description="Detect system-level congestion behavior in process event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument("--input", "-i", help="input event log CSV")
    pipeline.add_argument("--config", help="JSON run configuration (flags override it)")
    pipeline.add_argument("--case-col", dest="case_column")
    pipeline.add_argument("--activity-col", dest="activity_column")
    pipeline.add_argument("--timestamp-col", dest="timestamp_column")
    pipeline.add_argument("--resource-col", dest="resource_column")
    pipeline.add_argument("--timestamp-format", dest="timestamp_format")
    pipeline.add_argument("--window-width", help="window width, e.g. 30m, 1h, 1d")
    pipeline.add_argument("--origin", help="window origin timestamp, or 'auto'")
    pipeline.add_argument("--percentile", "-p", type=float, help="threshold percentile in [0, 1]")
    pipeline.add_argument("--lambda", dest="lam", type=float, help="propagation threshold in [0, 1]")
    pipeline.add_argument("--views", help="comma-separated view subset")
    pipeline.add_argument("--exclude-zeros", action="store_true", default=None,
                          help="drop zero measurements from the threshold pools")
    pipeline.add_argument("--flatten-order", dest="flatten_order_file",
                          help="file with one high-level activity name per line")
    pipeline.add_argument("--summary-period", help="summary bucket size, e.g. 1w")
    pipeline.add_argument("--summary-top", type=int, help="high-level activities in the summary")

    p_analyze = sub.add_parser("analyze", parents=[pipeline],
                               help="run the pipeline and write all artifacts")
    p_analyze.add_argument("--out", "-o", help="output directory")
    p_analyze.add_argument("--include-zeros", action="store_true", default=None,
                           dest="include_zero_links", help="keep zero rows in links.csv")
    p_analyze.add_argument("--dump-matrix", action="store_true", default=None,
                           help="also write the evaluation matrix to matrix.csv")

    p_generate = sub.add_parser("generate", help="simulate the service-desk scenario")
    p_generate.add_argument("--seed", type=int, help="override the config seed")
    p_generate.add_argument("--config", help="scenario config JSON")
    p_generate.add_argument("--out", "-o", required=True, help="output CSV path")

    p_links = sub.add_parser("links", parents=[pipeline], help="dump the component link table")
    p_links.add_argument("--out", "-o", help="output CSV (default stdout)")
    p_links.add_argument("--include-zeros", action="store_true", default=None,
                         dest="include_zero_links", help="also list zero-valued pairs")

    p_summary = sub.add_parser("summary", parents=[pipeline],
                               help="per-period counts of events and high-level events")
    p_summary.add_argument("--out", "-o", help="output CSV (default stdout)")

    p_dfg = sub.add_parser("dfg", parents=[pipeline],
                           help="directly-follows graph of the flattened high-level log")
    p_dfg.add_argument("--out", "-o", help="output DOT file (default stdout)")

    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        config = RunConfig.from_json(args.config)
    else:
        if not args.input:
            raise ConfigError("--input is required (or provide --config)")
        config = RunConfig(input=args.input)
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if "views" in overrides:
        overrides["views"] = [v.strip() for v in str(overrides["views"]).split(",") if v.strip()]
    for name, value in overrides.items():
        setattr(config, name, value)
    config.validate()
    return config


def _ingest(config: RunConfig) -> EventLog:
    return ingest_csv(config.input, config.mapping(), config.timestamp_format)


def _run_pipeline(config: RunConfig) -> AnalysisResult:
    log = _ingest(config)
    if config.origin == "auto":
        origin = default_origin(log)
    else:
        origin = parse_config_timestamp(config.origin, "--origin value", config.timestamp_format)
    framing = Framing(origin=origin, width=parse_duration(config.window_width))
    order = FlattenOrder.from_file(config.flatten_order_file) if config.flatten_order_file else None
    return analyze_log(
        log,
        framing,
        percentile=config.percentile,
        lam=config.lam,
        views=config.view_selection(),
        activities=config.activities,
        resources=config.resources,
        segments=[Segment(*pair) for pair in config.segments] if config.segments else None,
        exclude_zeros=config.exclude_zeros,
        flatten_order=order,
    )


def _write_links_csv(links: LinkTable, path_or_fh, include_zeros: bool) -> None:
    """The link table as CSV, pairs in code order: components by (kind,
    label), two segments of one label by (source, target), as each kind's
    name codes follow the kinds before it."""
    header = ("kind1", "component1", "kind2", "component2", "link")
    write_csv(path_or_fh, header, _link_blocks(links, csv_column(links.kinds, links.labels), include_zeros))


def _link_blocks(links: LinkTable, names: np.ndarray, include_zeros: bool):
    """The table's pairs as ``csv_lines`` blocks of first and second
    component (texts from ``names``) and value, of at most WRITE_ROWS pairs,
    or of one row of the triangle where that is longer: the nonzero pairs,
    or with ``include_zeros`` every pair i < j, row-major."""
    first, second, values = links.first, links.second, links.values
    if not include_zeros:
        yield from row_blocks((names, first), (names, second), values)
        return
    n = len(links.labels)

    def row_start(i):  # pair (i, j) is pair row_start(i) + j - i - 1 of the triangle
        return i * n - i * (i + 1) // 2

    lo = 0
    while lo < n:
        hi = min(lo + max(1, events.WRITE_ROWS // (n - lo)), n)  # row lo holds n - lo - 1 pairs
        rows, columns = np.triu_indices(hi - lo, lo + 1, n)
        dense = np.zeros(len(rows))
        a, b = np.searchsorted(first, [lo, hi])
        i, j = first[a:b], second[a:b]
        dense[row_start(i) - row_start(lo) + j - i - 1] = values[a:b]
        yield (names, rows + lo), (names, columns), dense
        lo = hi


def _write_matrix_csv(matrix: EvaluationMatrix, path: str) -> None:
    """The defined cells, by (feature name, window), at most WRITE_ROWS cells at a time."""
    names = csv_column(matrix.features.views, matrix.features.labels)
    step = max(1, events.WRITE_ROWS // len(matrix.windows))  # features per block

    def blocks():
        for start in range(0, len(names), step):
            rows, offsets = np.nonzero(~np.isnan(matrix.values[start:start + step]))
            rows += start
            yield from row_blocks((names, rows), matrix.windows.first + offsets, matrix.values[rows, offsets])

    write_csv(path, ("view", "component", "window", "value"), blocks())


def _summary(config: RunConfig, result: AnalysisResult) -> SummaryTable:
    """The summary table of a run: periods anchored at its window origin."""
    return summarize(
        result.log,
        result.entries,
        parse_duration(config.summary_period),
        result.framing.origin,
        top=config.summary_top,
    )


def run_analyze(config: RunConfig) -> AnalysisResult:
    """The `analyze` subcommand: run the pipeline and write the artifact
    files (hlel.csv, links.csv, summary.csv, dfg.dot, config.json)."""
    if not config.out:
        raise ConfigError("--out directory is required")
    result = _run_pipeline(config)
    # a rule that summarize checks fires before the directory is made
    summary, dfg = _summary(config, result), export_dfg(result.flattened)
    os.makedirs(config.out, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(config.out, name)

    write_hlel_csv(result.entries, out("hlel.csv"), config.timestamp_format)
    _write_links_csv(result.links, out("links.csv"), config.include_zero_links)
    write_summary_csv(summary, out("summary.csv"), config.timestamp_format)
    with text_output(out("dfg.dot")) as fh:
        fh.write(dfg)
    config.write_json(out("config.json"))
    if config.dump_matrix:
        _write_matrix_csv(result.matrix, out("matrix.csv"))
    return result


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            config = _run_config(args)
            result = run_analyze(config)
            print(f"events: {len(result.log)}")
            print(f"windows: {len(result.windows)}")
            print(f"high-level events: {len(result.hles)}")
            print(f"cascades: {result.cascade_count}")
            print(f"artifacts written to {config.out}")
        elif args.command == "generate":
            from .generator import ScenarioConfig, generate

            scenario = ScenarioConfig.from_json(args.config) if args.config else ScenarioConfig()
            if args.seed is not None:
                scenario = replace(scenario, seed=args.seed)
            log = generate(scenario)
            write_event_csv(log, args.out)
            print(f"generated {len(log)} events over {len(log.case_names)} cases -> {args.out}")
        elif args.command == "links":
            config = _run_config(args)
            log = _ingest(config)
            _write_links_csv(build_link_table(log), args.out or sys.stdout, config.include_zero_links)
        elif args.command == "summary":
            config = _run_config(args)
            result = _run_pipeline(config)
            write_summary_csv(
                _summary(config, result), args.out or sys.stdout, config.timestamp_format
            )
        elif args.command == "dfg":
            config = _run_config(args)
            result = _run_pipeline(config)
            with text_output(args.out or sys.stdout) as fh:
                fh.write(export_dfg(result.flattened))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
