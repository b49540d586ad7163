"""The CSV readers that ``highline analyze`` of a standard-layout file never
runs, loaded on first use so that the command does not compile them: the
general event log reader behind ``ingest_csv`` and ``EventLog.from_columns``,
and ``read_hlel_csv``."""

from __future__ import annotations

import csv
import logging
from datetime import datetime
from itertools import islice
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, not_utf8_error
from .events import _ATTRIBUTES, _EPOCH, _MICROSECOND, ColumnMapping, _naive_utc, _parser
from .events import parse_timestamp, to_microseconds

# the warnings of ingest_csv, under the name of the module that defines it
log_ = logging.getLogger("highline.events")

# the general reader takes rows this many at a time, so that only one
# chunk's fields are alive at once
_CHUNK_ROWS = 1 << 12


class _Columns:
    """Event columns given as ``str`` names, as they grow, as int64 bytes:
    case, activity and resource codes, each coded in order of first
    appearance, and microseconds since the epoch."""

    def __init__(self) -> None:
        self.codes: tuple[dict[str, int], ...] = ({}, {}, {})
        self.columns = (bytearray(), bytearray(), bytearray())
        self.times_us = bytearray()

    def add(self, names: Sequence[Sequence[str]], times_us) -> None:
        """Append cases, activities and resources (``names``) and their
        timestamps."""
        for code, column, values in zip(self.codes, self.columns, names):
            fresh = [name for name in dict.fromkeys(values) if name not in code]
            code.update(zip(fresh, range(len(code), len(code) + len(fresh))))
            column += np.fromiter(map(code.__getitem__, values), dtype=np.int64, count=len(values)).data
        self.times_us += np.ascontiguousarray(times_us, dtype=np.int64).data

    def ranked(self) -> Iterator[tuple[tuple[str, ...], np.ndarray]]:
        """Per column, the sorted names and each row's index among them."""
        for code, column in zip(self.codes, self.columns):
            names = sorted(code)
            rank = np.empty(len(names), dtype=np.intp)
            rank[list(map(code.__getitem__, names))] = np.arange(len(names))
            yield tuple(names), rank[np.frombuffer(column, dtype=np.int64)]


def _read_general(path: str, mapping: ColumnMapping, timestamp_format: str | None, columns: _Columns) -> None:
    """Fill ``columns`` from any CSV file through ``csv.reader``; raises the
    error of the first invalid row, and warns of mixed UTC offsets."""
    parse = _parser(timestamp_format)
    aware: list[np.ndarray] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        index: dict[str, int] = {}
        for attr in _ATTRIBUTES:
            column = getattr(mapping, attr)
            if column not in header:
                raise ConfigError(f"{path}: missing column {column!r} (mapped to {attr})")
            index[attr] = header.index(column)
        # each chunk is checked column by column; the first invalid row is
        # then located by a row-by-row re-read that knows its line number
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            if min(map(len, chunk)) <= max(index.values()):
                raise _row_error(path, index, timestamp_format)
            case, activity, stamp, resource = (
                list(map(str.strip, map(itemgetter(index[attr]), chunk))) for attr in _ATTRIBUTES
            )
            if "" in case or "" in activity or "" in stamp or "" in resource:
                raise _row_error(path, index, timestamp_format)
            try:
                stamps = list(map(parse, stamp))
            except ValueError:
                raise _row_error(path, index, timestamp_format) from None
            try:
                us, offset = _microseconds(stamps)
            except OverflowError:
                raise _row_error(path, index, timestamp_format) from None
            columns.add((case, activity, resource), us)
            aware.append(offset)
    if aware:
        _warn_mixed_offsets(path, np.concatenate(aware))


def _microseconds(stamps: list[datetime]) -> tuple[np.ndarray, np.ndarray]:
    """Microseconds since the epoch of parsed timestamps, offsets folded
    into naive UTC, and which of the timestamps carried an offset."""
    n = len(stamps)
    try:
        us = np.fromiter(((t - _EPOCH) // _MICROSECOND for t in stamps), dtype=np.int64, count=n)
        return us, np.zeros(n, dtype=bool)
    except TypeError:  # an offset-aware timestamp
        us = np.fromiter((to_microseconds(_naive_utc(t)) for t in stamps), dtype=np.int64, count=n)
        return us, np.fromiter((t.tzinfo is not None for t in stamps), dtype=bool, count=n)


def _warn_mixed_offsets(path: str, aware: np.ndarray) -> None:
    """Warn once when some but not all timestamps carried a UTC offset."""
    n_aware = int(aware.sum())
    if not 0 < n_aware < len(aware):
        return
    minority = n_aware <= len(aware) - n_aware
    row = int(np.argmax(aware == minority))
    line, _ = next(islice(_data_rows(path), row, None))
    log_.warning(
        "%s: %d timestamps carry a UTC offset and %d do not; all are read as naive UTC "
        "(first %s timestamp on line %d)",
        path,
        n_aware,
        len(aware) - n_aware,
        "offset-aware" if minority else "naive",
        line,
    )


def _data_rows(path: str) -> Iterator[tuple[int, list[str]]]:
    """The data rows of a CSV file, each with the line number it ends on."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            yield reader.line_num, row


def _row_error(path: str, index: dict[str, int], timestamp_format: str | None) -> DataError:
    """The error of the first invalid data row of ``path``."""
    parse = _parser(timestamp_format)
    for line, row in _data_rows(path):
        if len(row) <= max(index.values()):
            return DataError(f"{path}, line {line}: too few columns")
        values = {attr: row[i].strip() for attr, i in index.items()}
        for attr, value in values.items():
            if not value:
                return DataError(f"{path}, line {line}: empty {attr} value")
        try:
            _naive_utc(parse(values["timestamp"]))
        except ValueError:
            return DataError(f"{path}, line {line}: unparseable timestamp {values['timestamp']!r}")
        except OverflowError:
            return DataError(
                f"{path}, line {line}: timestamp {values['timestamp']!r} is out of range in UTC"
            )
    return DataError(f"{path}: changed while being read")


def read_hlel_csv(path: str, timestamp_format: str | None = None):
    """Read a ``write_hlel_csv`` export back as a ``HighLevelLog``, interning
    the feature columns and the timestamps. A malformed row raises DataError
    naming the path and its line, and so does a byte that is not UTF-8."""
    from .features import FeatureTable
    from .hlelog import HLEL_COLUMNS, HighLevelLog

    # activity, view, kind, component and threshold, keyed by the threshold's
    # text, so that -0.0 and 0.0 stay apart
    features: dict[tuple[str, str, str, str, str], int] = {}
    thresholds: list[float] = []
    stamp_code: dict[str, int] = {}
    stamps_us: list[int] = []
    rows: list[tuple[int, int, int, int, int]] = []  # id, case, window, feature, stamp
    values: list[float] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(HLEL_COLUMNS):
                raise DataError(f"{path}: not a high-level event log export")
            for row in reader:
                if len(row) != len(HLEL_COLUMNS):
                    few = "few" if len(row) < len(HLEL_COLUMNS) else "many"
                    raise DataError(f"{path}, line {reader.line_num}: too {few} columns")
                try:
                    hle_id, case, window = int(row[0]), int(row[1]), int(row[4])
                    value, threshold = float(row[8]), float(row[9])
                    if row[3] not in stamp_code:
                        stamps_us.append(to_microseconds(parse_timestamp(row[3], timestamp_format)))
                        stamp_code[row[3]] = len(stamp_code)
                except ValueError as exc:
                    raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
                code = features.setdefault((row[2], row[5], row[6], row[7], row[9]), len(features))
                if code == len(thresholds):
                    thresholds.append(threshold)
                rows.append((hle_id, case, window, code, stamp_code[row[3]]))
                values.append(value)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    ids, cases, windows, codes, stamp_codes = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    names, views, kinds, labels = (np.array([key[k] for key in features], dtype=object) for k in range(4))
    # a read-back log has no component code space
    table = FeatureTable(views, np.full(len(names), -1), kinds, labels, names)
    return HighLevelLog(
        table, np.array(thresholds), codes, cases, windows, np.array(values), ids, stamps_us, stamp_codes
    )
