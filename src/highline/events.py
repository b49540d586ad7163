"""Event log model: ingestion, directly-follows steps, component names,
and the CSV text writers.

An event log holds events, each carrying a case, an activity, a timestamp
and a resource, as columns: integer codes for case, activity and resource,
timestamps as microseconds since the epoch, and the event ids. From the
log we derive *steps* (directly-follows event pairs within one case), two
arrays of row positions, and the three component name sets: activities,
resources and segments (activity pairs realized by at least one step).
"""

from __future__ import annotations

import csv
import re
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cached_property
from typing import Callable, ContextManager, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, not_utf8_error


class Event(NamedTuple):
    """A single recorded process event.

    ``id`` is unique within one log (assigned from the input row number on
    ingestion) and doubles as the tie-breaker when two events of the same
    case share a timestamp.
    """

    id: int
    case: str
    activity: str
    timestamp: datetime
    resource: str


class Segment(NamedTuple):
    """An activity pair realized by at least one step of the log."""

    source: str
    target: str

    @property
    def label(self) -> str:
        return f"({self.source},{self.target})"


class Step(NamedTuple):
    """A directly-follows pair of events within one case.

    ``first`` strictly precedes ``second`` in the per-case (timestamp, id)
    order with no event of that case in between. We say ``first`` triggers
    ``second``.
    """

    first: Event
    second: Event


class ComponentKind(str, Enum):
    ACTIVITY = "activity"
    RESOURCE = "resource"
    SEGMENT = "segment"


class ColumnMapping(NamedTuple):
    """Names of the four mandatory columns in an input CSV."""

    case: str = "case"
    activity: str = "activity"
    timestamp: str = "timestamp"
    resource: str = "resource"


_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)


def to_microseconds(t: datetime) -> int:
    """Microseconds from the epoch to a naive (UTC) timestamp."""
    return (t - _EPOCH) // _MICROSECOND


def from_microseconds(us: int) -> datetime:
    """The naive timestamp ``us`` microseconds after the epoch."""
    return _EPOCH + timedelta(microseconds=us)


def _datetimes(times_us: np.ndarray) -> list[datetime]:
    return times_us.astype("datetime64[us]").tolist()


# the byte mask that keeps the first i bytes of a big-endian 8-byte word
_KEEP = np.array([(1 << 64) - (1 << (64 - 8 * i)) for i in range(9)], dtype=np.uint64)
# packed keys may take at most this many bytes per byte of the file read
# (a file whose names are all of one length needs less than 1); a file with
# a few much longer names is read by ``_read_general``
_KEY_BYTES_PER_BYTE = 2


class _Keys:
    """Event columns of a standard-layout file as they grow.

    Each name column is held as packed keys: its UTF-8 bytes, NUL-padded to
    whole 8-byte words and read big-endian, so that integer order is byte
    order, one uint64 array per word. Timestamps are int64 bytes of
    microseconds since the epoch. ``finish`` interns each column once.
    """

    def __init__(self) -> None:
        self.words: tuple[list[bytearray], ...] = ([], [], [])
        self.rows = 0
        self.size = 0  # bytes of the chunks added
        self.times_us = bytearray()
        self._ranked: list[tuple[tuple[str, ...], np.ndarray]] = []

    def fits(self, rows: int, size: int, words: Sequence[int]) -> bool:
        """Whether the keys stay within ``_KEY_BYTES_PER_BYTE`` bytes per
        byte read after adding ``rows`` rows of ``size`` bytes whose name
        columns need ``words`` words each."""
        total = self.rows + rows
        key_bytes = sum(8 * total * max(k, len(column)) for k, column in zip(words, self.words))
        return key_bytes <= _KEY_BYTES_PER_BYTE * (self.size + size)

    def add(self, keys: Sequence[Sequence[np.ndarray]], times_us: np.ndarray, size: int) -> None:
        """Append the words of each name column's keys (``keys``) and the
        timestamps of ``size`` bytes of rows; a column with fewer words
        than before is padded with zero words, and one with more is padded
        in the rows before."""
        n = len(times_us)
        for column, words in zip(self.words, keys):
            for j, word in enumerate(words):
                if j == len(column):
                    column.append(bytearray(8 * self.rows))
                column[j] += word.data
            for word in column[len(words) :]:
                word += bytes(8 * n)
        self.rows += n
        self.size += size
        self.times_us += times_us.data

    def finish(self) -> None:
        """Intern each column: one ``np.unique`` per word, and one more to
        fold each later word's ranks into the ranks of the words before.
        Raises ``_NotStandard`` for a name with surrounding whitespace."""
        if not self.rows:
            self._ranked = [((), np.zeros(0, dtype=np.intp))] * 3
            return
        for column in self.words:
            codes = None
            for word in column:
                values, rank = np.unique(np.frombuffer(word, dtype=np.uint64), return_inverse=True)
                if codes is not None:  # both ranks stay below rows, so the pair fits in int64
                    rank = np.unique(codes * len(values) + rank, return_inverse=True)[1]
                codes = rank
            first = np.empty(int(codes.max()) + 1, dtype=np.intp)
            first[codes] = np.arange(self.rows)
            names = _decoded(np.stack([np.frombuffer(w, dtype=np.uint64)[first] for w in column], axis=1))
            if list(map(str.strip, names)) != names:
                raise _NotStandard
            self._ranked.append((tuple(names), codes))
            column.clear()

    def ranked(self) -> list[tuple[tuple[str, ...], np.ndarray]]:
        """Per column, the sorted names and each row's index among them."""
        return self._ranked


def _decoded(keys: np.ndarray) -> list[str]:
    """The names of distinct packed keys, one per row of ``keys``, decoded
    from one buffer. UTF-8 byte order is code point order, so names of
    sorted keys come out sorted as ``str``."""
    grid = keys.astype(">u8").view(np.uint8)
    # names hold no NUL, so the nonzero bytes of a row are its name
    lines = np.concatenate([grid, np.full((len(grid), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode("utf-8").split("\n")[:-1]


def lexsort_order(keys: Sequence[np.ndarray]) -> np.ndarray | None:
    """``np.lexsort(keys)``, or None when the rows already are in that order,
    the last key primary: one pass over adjacent rows. A NaN key is never
    in order."""
    tied = True  # adjacent rows equal on every key looked at so far
    for key in reversed(keys):
        before, after = key[:-1], key[1:]
        if (tied & ~(after >= before)).any():
            return np.lexsort(keys)
        tied = tied & (after == before)
        if not tied.any():
            break
    return None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class EventLog:
    """Immutable, stably ordered event log held as integer-coded columns.

    Rows are in ascending (timestamp, case, id) order. ``case_codes``,
    ``activity_codes`` and ``resource_codes`` index ``case_names``,
    ``activity_names`` and ``resource_names``, which are sorted, so code
    order is name order. ``times_us`` holds the timestamps as microseconds
    since the epoch (naive UTC) and ``ids`` the event ids. Steps are two
    arrays of row positions (``step_rows``).

    Build a log with ``from_columns`` or ``ingest_csv``. Everything derived
    is computed once, on first use, and is read-only, so a log can be
    shared freely across workers. ``events`` and ``steps`` give the rows and
    steps as objects; the analysis never builds them.
    """

    def __init__(self, columns, ids: Sequence[int] | None = None):
        """The log of a reader's ``columns`` (their ``ranked`` names and codes,
        and ``times_us``): rank the codes by name and sort the rows, unless
        they already are in order; ids default to 1..n in the order the rows
        were added."""
        (self.case_names, case), (self.activity_names, activity), (self.resource_names, resource) = (
            columns.ranked()
        )
        times = np.frombuffer(columns.times_us, dtype=np.int64)
        default_ids = ids is None
        # a copy, so that freezing the column leaves the caller's ids writable
        ids = np.arange(1, len(case) + 1) if default_ids else np.array(ids, dtype=np.int64)
        if not len(case) == len(activity) == len(times) == len(resource) == len(ids):
            raise DataError("event columns differ in length")
        arrays = (case, activity, resource, times, ids)
        order = lexsort_order((ids, case, times))
        if order is not None:
            arrays = tuple(a[order] for a in arrays)
        self.case_codes, self.activity_codes, self.resource_codes, self.times_us, self.ids = map(
            _frozen, arrays
        )
        self._validate(default_ids)

    @classmethod
    def from_columns(
        cls,
        cases: Sequence[str],
        activities: Sequence[str],
        times_us: Sequence[int],
        resources: Sequence[str],
        ids: Sequence[int] | None = None,
    ) -> "EventLog":
        """A log from parallel columns: names, microseconds since the epoch
        and event ids (1..n in input order when omitted)."""
        from ._reader import _Columns

        columns = _Columns()
        columns.add((cases, activities, resources), times_us)
        return cls(columns, ids)

    def _validate(self, default_ids: bool) -> None:
        names = (self.case_names, self.activity_names, self.resource_names)
        # names are sorted, so an empty name comes first
        empty = any(n[:1] == ("",) for n in names)
        if not empty and (default_ids or len(np.unique(self.ids)) == len(self.ids)):
            return
        # name the first offending event in row order
        seen: set[int] = set()
        columns = (self.case_codes, self.activity_codes, self.resource_codes)
        for row, i in enumerate(self.ids.tolist()):
            if i in seen:
                raise DataError(f"duplicate event id: {i}")
            seen.add(i)
            if not all(n[c[row]] for n, c in zip(names, columns)):
                raise DataError(f"event {i}: empty attribute value")

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def step_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row positions of the first and of the second event of each step,
        steps in (case, timestamp, id) order of their first event."""
        # rows are in (timestamp, case, id) order, so a stable sort by case
        # leaves the rows of each case in (timestamp, id) order; on codes
        # of 8 or 16 bits (under 65,536 cases) numpy's stable sort is a
        # radix sort
        codes = self.case_codes.astype(np.min_scalar_type(max(len(self.case_names) - 1, 0)))
        order = np.argsort(codes, kind="stable")
        cases = codes[order]
        same = cases[1:] == cases[:-1]
        return _frozen(order[:-1][same]), _frozen(order[1:][same])

    @cached_property
    def step_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """The segment code of each step, and the (source, target) activity
        codes of each segment as an (S, 2) array. Segment codes follow label
        order, two of one label (names may hold commas) by (source, target)."""
        first, second = self.step_rows
        n, names = len(self.activity_names), self.activity_names
        pairs = self.activity_codes[first] * n + self.activity_codes[second]
        if n * n <= len(pairs):
            # few possible pairs: mark those that occur and rank them, no sort
            occurs = np.bincount(pairs, minlength=n * n) > 0
            distinct, codes = np.flatnonzero(occurs), (np.cumsum(occurs) - 1)[pairs]
        else:
            distinct, codes = np.unique(pairs, return_inverse=True)
        ends = np.stack([distinct // n, distinct % n], axis=1)
        # pairs are in (source, target) order, which a stable sort keeps among equal labels
        labels = np.array([Segment(names[s], names[t]).label for s, t in ends.tolist()], dtype=object)
        by_label = np.argsort(labels, kind="stable")
        ends, codes = ends[by_label], np.argsort(by_label)[codes]
        return _frozen(codes.reshape(-1)), _frozen(ends)

    @cached_property
    def segment_names(self) -> tuple[Segment, ...]:
        """The segments in code order: label order, then (source, target)."""
        names = self.activity_names
        return tuple(Segment(names[s], names[t]) for s, t in self.step_segments[1].tolist())

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Each component's label in code order (object array): the code
        space numbers components in (kind, label) order, so a component's
        code is its name code plus the count of components of the kinds
        before its own (activities, resources, then segments)."""
        segments = [s.label for s in self.segment_names]
        return _frozen(np.array([*self.activity_names, *self.resource_names, *segments], dtype=object))

    @cached_property
    def component_kinds(self) -> np.ndarray:
        """Each component's kind text in code order (object array)."""
        sizes = (len(self.activity_names), len(self.resource_names), len(self.segment_names))
        return _frozen(np.repeat(np.array([k.value for k in ComponentKind], dtype=object), sizes))

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The rows as ``Event`` objects."""
        cases, acts, ress = self.case_names, self.activity_names, self.resource_names
        return tuple(
            Event(i, cases[c], acts[a], t, ress[r])
            for i, c, a, t, r in zip(
                self.ids.tolist(),
                self.case_codes.tolist(),
                self.activity_codes.tolist(),
                _datetimes(self.times_us),
                self.resource_codes.tolist(),
            )
        )

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        """All directly-follows pairs as ``Step`` objects, in ``step_rows``
        order. A case with k events has k-1 steps; equal timestamps within a
        case are resolved by event id (input order)."""
        events = self.events
        first, second = self.step_rows
        return tuple(Step(events[i], events[j]) for i, j in zip(first.tolist(), second.tolist()))


def _parser(timestamp_format: str | None) -> Callable[[str], datetime]:
    """Timestamp text to datetime, offset kept: ISO 8601 or ``strptime``."""
    if timestamp_format is None:
        return datetime.fromisoformat
    return lambda text: datetime.strptime(text, timestamp_format)


def _naive_utc(t: datetime) -> datetime:
    return t if t.tzinfo is None else t.astimezone(timezone.utc).replace(tzinfo=None)


def parse_timestamp(text: str, timestamp_format: str | None = None) -> datetime:
    """Parse a timestamp string.

    With no format, ISO 8601 is accepted (fractional seconds optional).
    Timestamps carrying a UTC offset are normalized to naive UTC so that
    all timestamps of a log are comparable.
    """
    return _naive_utc(_parser(timestamp_format)(text))


def parse_config_timestamp(text: str, name: str, timestamp_format: str | None = None) -> datetime:
    """``parse_timestamp`` of a configured value, which ``name`` names in the
    ConfigError for a text that does not parse or is out of range in UTC."""
    try:
        return parse_timestamp(text, timestamp_format)
    except ValueError:
        raise ConfigError(f"unparseable {name} {text!r}") from None
    except OverflowError:
        raise ConfigError(f"{name} {text!r} is out of range in UTC") from None


_ATTRIBUTES = ("case", "activity", "timestamp", "resource")
# the standard-layout reader takes bytes this many at a time (cut at the last
# newline), so that only one chunk's fields are alive at once
_CHUNK_BYTES = 1 << 16


def ingest_csv(
    path: str,
    mapping: ColumnMapping | None = None,
    timestamp_format: str | None = None,
) -> EventLog:
    """Read an event log from a UTF-8 CSV file with a header row.

    Event ids are assigned from the input row number (first data row is 1),
    so re-ingesting the same file always yields the same ordering, equal
    timestamps included. Attribute values are stripped of surrounding
    whitespace; a value that is empty after stripping is a row error.
    A file that mixes timestamps with and without a UTC offset is read as
    naive UTC throughout, with a warning naming the first line of the
    less frequent kind. A leading byte order mark is skipped. A file that
    is not UTF-8 is an error naming the line of its first invalid byte.

    A file in the layout ``write_event_csv`` writes is parsed straight from
    its bytes with numpy, each name column interned once at the end; any
    other file, and any file read with a ``timestamp_format``, goes through
    ``csv.reader`` from its first line. Both give the same log.
    """
    mapping = mapping or ColumnMapping()
    if timestamp_format is None:
        try:
            return EventLog(_read_standard(path, mapping))
        except _NotStandard:
            pass
    from ._reader import _Columns, _read_general

    columns = _Columns()
    try:
        _read_general(path, mapping, timestamp_format, columns)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    return EventLog(columns)


class _NotStandard(Exception):
    """The file is not in the standard layout; it is read by ``_read_general``."""


def _read_standard(path: str, mapping: ColumnMapping) -> _Keys:
    """The columns of a file in the standard layout, or ``_NotStandard`` at
    the first chunk that is not in it.

    The layout: UTF-8 with no ``"``, carriage return or NUL byte; every
    line, the last one included, has the header's number of fields; names
    are non-empty and have no surrounding whitespace; timestamps are ASCII
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]``. Such a file gives ``csv.reader`` and
    ``datetime.fromisoformat`` nothing to do that numpy cannot. A chunk that
    fails sends the whole file to the general reader, since a quoted field
    may span the newline the chunk was cut at; so does a name too long to
    pack (``_KEY_BYTES_PER_BYTE``).
    """
    keys = _Keys()
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = line.decode("utf-8-sig")
        except UnicodeDecodeError:
            raise _NotStandard from None
        if '"' in header or "\r" in header or "\0" in header or len(line) > csv.field_size_limit():
            raise _NotStandard
        header = header.removesuffix("\n").split(",")
        try:
            index = [header.index(getattr(mapping, attr)) for attr in _ATTRIBUTES]
        except ValueError:
            raise _NotStandard from None
        rest = b""
        while True:
            block = fh.read(_CHUNK_BYTES)
            data = rest + block
            if not block:
                if data:
                    _add_standard(data + b"\n", len(header), index, keys)
                break
            cut = data.rfind(b"\n") + 1
            if cut:
                _add_standard(data[:cut], len(header), index, keys)
            rest = data[cut:]
            if len(rest) > csv.field_size_limit():
                raise _NotStandard  # a line csv.reader may refuse
    keys.finish()
    return keys


def _add_standard(chunk: bytes, width: int, index: list[int], keys: _Keys) -> None:
    """Add the lines of ``chunk`` (complete lines of ``width`` fields each)
    to ``keys``, or raise ``_NotStandard``. Every field is located from the
    positions of the commas and newlines, and gathered from the bytes."""
    # a NUL would pack like the padding of a shorter name
    if b'"' in chunk or b"\r" in chunk or b"\0" in chunk:
        raise _NotStandard
    try:
        chunk.decode("utf-8")
    except UnicodeDecodeError:
        raise _NotStandard from None
    raw = np.frombuffer(chunk, dtype=np.uint8)
    stops = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if len(stops) % width:
        raise _NotStandard
    # one row of field ends per line: commas, then the line's newline
    stops = stops.reshape(-1, width)
    line = np.full(width, ord(","), dtype=np.uint8)
    line[-1] = ord("\n")
    if (raw[stops] != line).any():
        raise _NotStandard
    if np.diff(stops[:, -1], prepend=-1).max() > csv.field_size_limit():
        raise _NotStandard  # a line csv.reader may refuse
    starts = np.concatenate(([0], stops.ravel()[:-1] + 1)).reshape(stops.shape)
    lengths = stops - starts
    case, activity, stamp, resource = index
    columns = [case, activity, resource]
    name_lengths = lengths[:, columns]
    if name_lengths.min() == 0:
        raise _NotStandard  # an empty name is a row error
    words = ((name_lengths.max(axis=0) + 7) // 8).tolist()
    if not keys.fits(len(stops), len(chunk), words):
        raise _NotStandard
    padded = chunk + bytes(8 * max(words) + len(_ISO_LOW))
    # every 8 bytes from each position of the chunk, as one big-endian word
    at = np.ndarray((len(padded) - 7,), dtype=">u8", buffer=padded, strides=(1,))
    packed = [
        [
            np.bitwise_and(at[starts[:, i] + 8 * j], _KEEP[np.clip(lengths[:, i] - 8 * j, 0, 8)])
            for j in range(k)
        ]
        for i, k in zip(columns, words)
    ]
    us = _standard_microseconds(np.frombuffer(padded, dtype=np.uint8), starts[:, stamp], lengths[:, stamp])
    keys.add(packed, us, len(chunk))


# a strict ISO 8601 timestamp, by byte position: lowest byte, and the span
# up to the highest, so that a minute or a second is below 60
_ISO_LOW = np.frombuffer(b"0000-00-00T00:00:00.000000", dtype=np.uint8)
_ISO_SPAN = np.frombuffer(b"9999-19-39T29:59:59.999999", dtype=np.uint8) - _ISO_LOW


# every hour of a leap year as the range of its MM-DDTHH digits, less
# _ISO_LOW and packed big-endian (hour 23 packs to 0x203), in (first, last + 1)
# pairs: a packed time is an hour of the year where searchsorted(side="right")
# is odd, and an hour of February 29 where it is _FEB29
_MONTHS = np.repeat(np.arange(1, 13), [31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS = np.arange(366) - np.searchsorted(_MONTHS, _MONTHS) + 1
_FIRST = _MONTHS // 10 << 56 | _MONTHS % 10 << 48 | _DAYS // 10 << 32 | _DAYS % 10 << 24
_HOURS, _FEB29 = np.add.outer(_FIRST, [0, 0x204]).ravel().astype(">u8"), 2 * (31 + 28) + 1


def _standard_microseconds(raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Microseconds since the epoch of the timestamps at ``starts`` in the
    bytes ``raw`` (which run on at least 26 bytes past each start), if
    they are all ASCII ``YYYY-MM-DDTHH:MM:SS`` or
    ``YYYY-MM-DDTHH:MM:SS.ffffff`` dates that exist, with a year of at
    least 1, as ``datetime.fromisoformat`` reads them; otherwise raises
    ``_NotStandard``."""
    short = lengths == 19
    width = 19 if short.all() else 26
    if width > 19 and not (short | (lengths == 26)).all():
        raise _NotStandard
    grid = sliding_window_view(raw, width)[starts]
    # a byte below the lowest wraps around to above the span
    digits = grid - _ISO_LOW[:width]
    shaped = digits <= _ISO_SPAN[:width]
    if not shaped[:, :19].all():
        raise _NotStandard
    if width > 19:
        if not (shaped[:, 19:].all(axis=1) | short).all():
            raise _NotStandard
        # short stamps among long ones are padded with NULs, which numpy drops
        grid[short, 19:] = 0
    # Every date must exist before the cast: numpy 2.4 reads year 0, and its
    # cast of a few hundred stamps with one month 13, Feb 30, hour 24, minute
    # 60 or second 60 among them (the last two out of the span) may crash the
    # process instead of raising ValueError.
    hours = np.ndarray((len(digits),), dtype=">u8", buffer=digits, offset=5, strides=(width,))
    years = np.ndarray((len(digits),), dtype=np.uint32, buffer=digits, strides=(width,))
    at = np.searchsorted(_HOURS, hours, side="right")
    # the years of stamps on February 29: leap years, divisible by 4, or by 16
    # where divisible by 25 (so by 400 where divisible by 100)
    leap = digits[at == _FEB29, :4] @ [1000, 100, 10, 1]
    if not ((at & 1).all() and years.all()) or (leap % np.where(leap % 25, 4, 16)).any():
        raise _NotStandard
    return grid.view(f"S{width}").ravel().astype("datetime64[us]").view(np.int64)


# --- text output -----------------------------------------------------------------

WRITE_ROWS = 1 << 12


class _Echo:
    """A file whose ``write`` returns what it is given, so that
    ``csv.writer(_Echo).writerow(values)`` returns the line."""

    @staticmethod
    def write(line: str) -> str:
        return line


# csv quotes a field that holds a character of the line end and, in Python
# 3.11, no other line break: "\r\n" makes it quote "\r" as well as "\n"
_row = csv.writer(_Echo, lineterminator="\r\n").writerow


def csv_fields(*values: str) -> str:
    """The values as the csv module writes them inside a row, with no line
    end; the extra empty field keeps a lone empty value unquoted."""
    return _row((*values, ""))[:-3]


def csv_column(*columns: np.ndarray) -> np.ndarray:
    """The ``csv_fields`` of each row of the given text columns, as an object array."""
    return np.frompyfunc(csv_fields, len(columns), 1)(*columns)


def csv_lines(*columns) -> str:
    """Lines of comma-separated fields, line k holding item k of each column.

    A column is an array, or a ``(texts, codes)`` pair of an object array of
    csv fields and the index of each line's field, so that one gather looks
    them up. One ``%`` format makes all lines; ``%s`` writes a float as its
    ``repr``.
    """
    fields = [c[0][c[1]].tolist() if isinstance(c, tuple) else c.tolist() for c in columns]
    rows, width = len(fields[0]), len(fields)
    flat = [None] * (rows * width)
    for k, field in enumerate(fields):
        flat[k::width] = field
    return ((",".join(["%s"] * width) + "\n") * rows) % tuple(flat)


def row_blocks(*columns) -> Iterator[list]:
    """The columns, as ``csv_lines`` takes them, in blocks of ``WRITE_ROWS``
    rows, so that only one block's Python values are alive at a time; a
    ``(texts, codes)`` column is sliced on its codes."""
    first = columns[0]
    rows = len(first[1] if isinstance(first, tuple) else first)
    for start in range(0, rows, WRITE_ROWS):
        part = slice(start, start + WRITE_ROWS)
        yield [(c[0], c[1][part]) if isinstance(c, tuple) else c[part] for c in columns]


def write_csv(path_or_fh: str | TextIO, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """Write a CSV to a path or an open text handle: the header's fields,
    then the ``csv_lines`` of each block of columns."""
    with text_output(path_or_fh) as fh:
        fh.write(csv_fields(*header) + "\n")
        for block in blocks:
            fh.write(csv_lines(*block))


def text_output(path_or_fh: str | TextIO) -> ContextManager[TextIO]:
    """A new UTF-8 file for a path, written as given (no newline
    translation) and closed on exit; an open handle as it is, left open."""
    if isinstance(path_or_fh, str):
        return open(path_or_fh, "w", newline="", encoding="utf-8")
    return nullcontext(path_or_fh)


def format_stamps(stamps_us: np.ndarray, timestamp_format: str | None = None) -> list[str]:
    """Stamps in microseconds since the epoch (naive UTC) as csv fields: ISO
    8601 as ``isoformat`` writes it, or ``strftime(timestamp_format)`` with
    ``%Y`` as four digits, so that ``strptime`` reads every year back."""
    if timestamp_format is None:
        # ISO stamps never need quoting; no fraction for a whole second
        iso = np.datetime_as_string(stamps_us.astype("datetime64[us]"), unit="us")
        return [t[:-7] if t.endswith(".000000") else t for t in iso.tolist()]
    # glibc writes a year before 1000 with fewer digits; "%%" is a literal "%"
    return [
        csv_fields(t.strftime(timestamp_format if t.year >= 1000 else re.sub(
            "%[%Y]", lambda m: "%%" if m[0] == "%%" else f"{t.year:04d}", timestamp_format
        )))
        for t in _datetimes(stamps_us)
    ]


def write_event_csv(
    log: EventLog,
    path: str,
    mapping: ColumnMapping | None = None,
    timestamp_format: str | None = None,
) -> None:
    """Write a log back to CSV in the standard four-column layout."""
    mapping = mapping or ColumnMapping()
    names = (log.case_names, log.activity_names, log.resource_names)
    cases, acts, ress = (csv_column(np.array(column, dtype=object)) for column in names)
    # rows are in timestamp order: a new stamp starts wherever the time changes
    new = np.ones(len(log), dtype=bool)
    new[1:] = log.times_us[1:] != log.times_us[:-1]
    stamp_codes = np.cumsum(new) - 1
    stamps = np.array(format_stamps(log.times_us[new], timestamp_format), dtype=object)
    write_csv(path, (mapping.case, mapping.activity, mapping.timestamp, mapping.resource), row_blocks(
        (cases, log.case_codes), (acts, log.activity_codes), (stamps, stamp_codes), (ress, log.resource_codes),
    ))
