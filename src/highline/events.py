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
import os
import re
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cached_property
from typing import Callable, ContextManager, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

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
    """Event columns of a standard-layout file, filled in place chunk by chunk.

    Each name column is held as packed keys: its UTF-8 bytes, NUL-padded to
    whole 8-byte words and read big-endian, so that integer order is byte
    order, one uint64 array per word. Timestamps are int64 microseconds
    since the epoch. ``add`` hands out the rows of the next chunk. Every
    array is sized for the rows of a file of ``file_size`` bytes, as the
    chunks so far predict them, and at least doubles when a chunk needs
    more room; a word is zero until written, so that a word past a row's
    name reads as padding. ``finish`` interns each column once.
    """

    def __init__(self, file_size: int) -> None:
        self.words: tuple[list[np.ndarray], ...] = ([], [], [])
        self.rows = 0
        self.size = 0  # bytes of the chunks added
        self.file_size = file_size
        self.times_us = np.zeros(0, dtype=np.int64)
        self._ranked: list[tuple[tuple[str, ...], np.ndarray]] = []

    def add(self, rows: int, size: int, words: Sequence[int]) -> slice:
        """The slice of every column that holds ``rows`` more rows, read from
        ``size`` bytes, whose name columns need ``words`` words each, for the
        caller to fill. Raises ``_NotStandard`` if the keys would take more
        than ``_KEY_BYTES_PER_BYTE`` bytes per byte read."""
        total = self.rows + rows
        key_bytes = sum(8 * total * max(k, len(column)) for k, column in zip(words, self.words))
        if key_bytes > _KEY_BYTES_PER_BYTE * (self.size + size):
            raise _NotStandard
        capacity = len(self.times_us)
        if total > capacity:
            # room for the file's rows at the rows per byte so far, a sixteenth more
            capacity = max(total, 2 * capacity, total * self.file_size * 17 // (16 * (self.size + size)))
            self.times_us = _grown(self.times_us, capacity, self.rows)
            for column in self.words:
                column[:] = [_grown(word, capacity, self.rows) for word in column]
        for k, column in zip(words, self.words):
            column += [np.zeros(capacity, dtype=np.uint64) for _ in range(k - len(column))]
        part = slice(self.rows, total)
        self.rows, self.size = total, self.size + size
        return part

    def finish(self) -> None:
        """Intern each column: ``_ranks`` of each word, each later word's
        ranks folded into those of the words before by ``code_pairs``, and
        the distinct keys gathered in code order. Activity and resource
        names are decoded; the case column keeps its keys, for
        ``EventLog.case_names`` to decode on first read. Raises
        ``_NotStandard`` for a name with surrounding whitespace."""
        self.times_us = self.times_us[: self.rows]
        if not self.rows:
            self._ranked = [((), np.zeros(0, dtype=np.intp))] * 3
            return
        ranked = []
        for column in self.words:
            codes = None
            for word in column:
                rank = _ranks(word[: self.rows])[1]
                codes = rank if codes is None else code_pairs(codes, rank)[2]
            first = np.empty(int(codes.max()) + 1, dtype=np.intp)
            first[codes] = np.arange(self.rows)
            keys = np.stack([word[first] for word in column], axis=1)
            column.clear()
            if _padded(keys):
                raise _NotStandard
            ranked.append((keys, codes))
        (cases, case), *named = ranked
        self._ranked = [(cases, case), *((tuple(_decoded(keys)), codes) for keys, codes in named)]

    def ranked(self) -> list[tuple[tuple[str, ...] | np.ndarray, np.ndarray]]:
        """Per column, the sorted names and each row's index among them; the
        case names as their packed keys, one row of words per name."""
        return self._ranked


def _ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of a 1-d array: the sorted
    distinct keys, and each key's index among them. Each key is looked up
    by binary search among up to 4 distinct ones, and ranked by an argsort
    among more: on 188,535 uint64 keys (2-vCPU VM) the search took 2.4 ms
    against 2.7 ms at 4 distinct keys, and already lost at 5 (2.7 against
    1.7-2.7 ms) and at 16 (5.0 against 3.1 ms)."""
    ordered = np.sort(keys)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    values = ordered[new]
    del ordered  # before the ranks, which take as much memory
    if len(values) <= 4:
        return values, np.searchsorted(values, keys)
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[np.argsort(keys)] = np.cumsum(new) - 1
    return values, ranks


def code_pairs(x: np.ndarray, y: np.ndarray, counts: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (x, y) pairs of two int columns, ``y`` holding codes
    from 0, in ascending order as two arrays, and each row's index among
    them, or with ``counts`` each pair's count instead.

    A pair is packed into one int64 key, ``(x - min x) * n_y + y``; x is
    ranked first where that would overflow. Where the key grid has no more
    cells than there are rows, the keys are counted in it, else sorted
    (``np.unique``), so that memory stays linear in the rows. On a 2-vCPU
    VM counting beat the sort up to 1-2 cells per row for counts and 4-8
    for indices, so a crossover at 1 keeps both forms on their faster side."""
    if not len(x):
        return (np.zeros(0, dtype=np.int64),) * 3
    x = np.asarray(x, dtype=np.int64)
    n_y, low = int(y.max()) + 1, int(x.min())
    span, xs = int(x.max()) - low + 1, None
    if span * n_y > 2**63:  # such as windows near both ends of int64
        xs, x = np.unique(x, return_inverse=True)
        low, span = 0, len(xs)
    if low:
        x = x - low
    keys = x * n_y + y
    if span * n_y > len(keys):
        keys, index = np.unique(keys, return_inverse=not counts, return_counts=counts)
    else:
        tally = np.bincount(keys, minlength=span * n_y)
        distinct = np.flatnonzero(tally)
        keys, index = distinct, tally[distinct] if counts else (np.cumsum(tally > 0) - 1)[keys]
    top, ys = np.divmod(keys, n_y)
    return (top + low if xs is None else xs[top]), ys, index


def code_pairs_by_y(x: np.ndarray, y: np.ndarray, n_y: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``code_pairs(x, y)`` without its sort where x is a function of y, as
    the window is of the stamp code in a log from ``build_hlel``: one pass
    over the rows shows it, and then the pairs are one per code below
    ``n_y``, indexed by ``y`` itself (a code that no row holds pairs with
    0), in order of y rather than of (x, y). Else, as in a read-back log
    that pairs them freely, the result of ``code_pairs``. On sparse-1m's
    48,193 entries it takes 0.12 ms against 1.1 ms, and ``write_hlel_csv``'s
    ``tracemalloc`` peak falls from 3.5 to 2.2 MB (2-vCPU VM)."""
    x_of = np.zeros(n_y, dtype=x.dtype)
    x_of[y] = x
    if np.array_equal(x_of[y], x):
        return x_of, np.arange(n_y), y
    return code_pairs(x, y)


def _grown(a: np.ndarray, capacity: int, rows: int) -> np.ndarray:
    """A zeroed array of ``capacity`` items that starts with ``a``'s first ``rows``."""
    grown = np.zeros(capacity, dtype=a.dtype)
    grown[:rows] = a[:rows]
    return grown


def _decoded(keys: np.ndarray) -> list[str]:
    """The names of distinct packed keys, one per row of ``keys``, decoded
    from one buffer. UTF-8 byte order is code point order, so names of
    sorted keys come out sorted as ``str``."""
    grid = keys.astype(">u8").view(np.uint8)
    # names hold no NUL, so the nonzero bytes of a row are its name
    lines = np.concatenate([grid, np.full((len(grid), 1), ord("\n"), dtype=np.uint8)], axis=1)
    return lines[lines != 0].tobytes().decode("utf-8").split("\n")[:-1]


# the ASCII characters that ``str.isspace`` holds, by byte
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[c for c in range(128) if chr(c).isspace()]] = True


def _padded(keys: np.ndarray) -> bool:
    """Whether a name of distinct packed keys has surrounding whitespace, as
    ``str.strip`` sees it: its first or last byte is an ASCII space, or is
    not ASCII and the decoded name changes when stripped. Only the names
    with such a byte at an end are decoded."""
    grid = keys.astype(">u8").view(np.uint8)
    # names hold no NUL, so the last nonzero byte of a row ends its name
    ends = np.stack([grid[:, 0], grid[np.arange(len(grid)), np.count_nonzero(grid, axis=1) - 1]])
    if _ASCII_SPACE[ends].any():
        return True
    wide = (ends >= 0x80).any(axis=0)
    if not wide.any():
        return False
    names = _decoded(keys[wide])
    return list(map(str.strip, names)) != names


def lexsort_order(keys: Sequence[np.ndarray]) -> np.ndarray | None:
    """``np.lexsort(keys)``, or None when the rows already are in that order,
    the last key primary: one pass over adjacent rows. Both keep rows tied
    on every key in their order. A NaN key is never in order."""
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
    shared freely across workers. No stage reads the case names or the ids:
    a log read by the standard reader decodes ``case_names`` from its packed
    keys on first read, and default ids in input order are made on first
    read. ``events`` and ``steps`` give the rows and steps as objects; the
    analysis never builds them.
    """

    def __init__(self, columns, ids: Sequence[int] | None = None):
        """The log of a reader's ``columns`` (their ``ranked`` names and codes,
        and ``times_us``): rank the codes by name and sort the rows, unless
        they already are in order; ids default to 1..n in the order the rows
        were added."""
        (case_names, case), (self.activity_names, activity), (self.resource_names, resource) = (
            columns.ranked()
        )
        if isinstance(case_names, tuple):
            self.case_names = case_names
        else:
            self._case_keys = case_names
        self._case_count = len(case_names)
        times = np.frombuffer(columns.times_us, dtype=np.int64)
        # a copy, so that freezing the column leaves the caller's ids writable
        given = [] if ids is None else [np.array(ids, dtype=np.int64)]
        arrays = [case, activity, resource, times, *given]
        if len(set(map(len, arrays))) > 1:
            raise DataError("event columns differ in length")
        # a stable sort keeps rows tied on time and case in input order, the
        # order of default ids
        order = lexsort_order((*given, case, times))
        if order is not None:
            arrays = [a[order] for a in arrays]
            if ids is None:
                order += 1  # each row's input row number, its default id
                arrays.append(order)
        frozen = map(_frozen, arrays)
        self.case_codes, self.activity_codes, self.resource_codes, self.times_us, *id_column = frozen
        if id_column:
            self.ids = id_column[0]
        self._validate(ids is None)

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

    @cached_property
    def case_names(self) -> tuple[str, ...]:
        """The case names in code order. A log read by the standard reader
        holds them as packed keys, and decodes them here on first read."""
        names = tuple(_decoded(self._case_keys))
        del self._case_keys
        return names

    @cached_property
    def ids(self) -> np.ndarray:
        """The event ids. Default ids of rows that kept their input order,
        1..n, are made here on first read."""
        return _frozen(np.arange(1, len(self) + 1))

    def _validate(self, default_ids: bool) -> None:
        # names are sorted, so an empty name comes first; packed case keys
        # never hold one, since the standard reader refuses an empty name
        names = (vars(self).get("case_names", ()), self.activity_names, self.resource_names)
        empty = any(n[:1] == ("",) for n in names)
        if not empty and (default_ids or len(np.unique(self.ids)) == len(self.ids)):
            return
        # name the first offending event in row order
        names = (self.case_names, self.activity_names, self.resource_names)
        seen: set[int] = set()
        columns = (self.case_codes, self.activity_codes, self.resource_codes)
        for row, i in enumerate(self.ids.tolist()):
            if i in seen:
                raise DataError(f"duplicate event id: {i}")
            seen.add(i)
            if not all(n[c[row]] for n, c in zip(names, columns)):
                raise DataError(f"event {i}: empty attribute value")

    def __len__(self) -> int:
        return len(self.times_us)

    @cached_property
    def step_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row positions of the first and of the second event of each step,
        steps in (case, timestamp, id) order of their first event."""
        # rows are in (timestamp, case, id) order, so a stable sort by case
        # leaves the rows of each case in (timestamp, id) order; on codes
        # of 8 or 16 bits (under 65,536 cases) numpy's stable sort is a
        # radix sort
        codes = self.case_codes.astype(np.min_scalar_type(max(self._case_count - 1, 0)))
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
        names = self.activity_names
        source, target, codes = code_pairs(self.activity_codes[first], self.activity_codes[second])
        ends = np.stack([source, target], axis=1)
        # pairs are in (source, target) order, which a stable sort keeps among equal labels
        labels = np.array([Segment(names[s], names[t]).label for s, t in ends.tolist()], dtype=object)
        by_label = np.argsort(labels, kind="stable")
        ends, codes = ends[by_label], np.argsort(by_label)[codes]
        return _frozen(codes), _frozen(ends)

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
# newline), so that only one chunk's fields are alive at once. Under the
# command's allocator policy the later stages reuse the heap that the chunk
# temporaries freed: on the desk-10x benchmark log, 1 MiB chunks took 1,000
# fewer page faults than 128 KiB ones and lowered the command's peak RSS by
# 1.3 MB. Without the policy they took 7,600 more faults, each chunk's
# temporaries mapped afresh.
_CHUNK_BYTES = 1 << 20


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
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]`` of a date and time that exist. Such a
    file gives ``csv.reader`` and ``datetime.fromisoformat`` nothing to do
    that numpy cannot. The file is read ``_CHUNK_BYTES`` at a time, cut at
    the last newline, and each chunk's fields are written into the columns
    in place. A chunk that fails sends the whole file to the general
    reader, since a quoted field may span the newline the chunk was cut at;
    so does a name too long to pack (``_KEY_BYTES_PER_BYTE``).
    """
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
        keys = _Keys(os.fstat(fh.fileno()).st_size)
        rest = b""  # the start of a line that the next chunk ends
        while block := fh.read(_CHUNK_BYTES):
            cut = block.rfind(b"\n") + 1
            if cut:
                _add_standard(b"".join((rest, memoryview(block)[:cut], _PAD)), len(header), index, keys)
                rest = b""
            rest += block[cut:]
            if len(rest) > csv.field_size_limit():
                raise _NotStandard  # a line csv.reader may refuse
        if rest:
            _add_standard(rest + b"\n" + _PAD, len(header), index, keys)
    keys.finish()
    return keys


# the NUL bytes after a chunk's lines: every 8-byte word from a position in
# a line, and the 26 bytes from a 19-byte stamp, end inside the chunk
_PAD = bytes(8)


def _add_standard(chunk: bytes, width: int, index: list[int], keys: _Keys) -> None:
    """Add the lines of ``chunk`` (complete lines of ``width`` fields each,
    then ``_PAD``) to ``keys``, or raise ``_NotStandard``. Every field is
    located from the positions of the commas and newlines, and gathered
    from the bytes."""
    size = len(chunk) - len(_PAD)
    # a NUL would pack like the padding of a shorter name
    if b'"' in chunk or b"\r" in chunk or chunk.find(b"\0", 0, size) >= 0:
        raise _NotStandard
    if not chunk.isascii():
        try:
            chunk.decode("utf-8")
        except UnicodeDecodeError:
            raise _NotStandard from None
    raw = np.frombuffer(chunk, dtype=np.uint8)
    # one row of field ends per line: commas, then the line's newline
    separator = raw == ord("\n")
    lines = np.count_nonzero(separator)
    separator |= raw == ord(",")
    stops = np.flatnonzero(separator)
    if len(stops) != lines * width:
        raise _NotStandard
    stops = stops.reshape(lines, width)
    if (raw[stops[:, -1]] != ord("\n")).any():
        raise _NotStandard
    starts = np.concatenate(([0], stops.ravel()[:-1] + 1)).reshape(stops.shape)
    if (stops[:, -1] + 1 - starts[:, 0]).max() > csv.field_size_limit():
        raise _NotStandard  # a line csv.reader may refuse
    lengths = stops - starts
    case, activity, stamp, resource = index
    columns = [case, activity, resource]
    name_lengths = lengths[:, columns]
    if name_lengths.min() == 0:
        raise _NotStandard  # an empty name is a row error
    words = ((name_lengths.max(axis=0) + 7) // 8).tolist()
    part = keys.add(lines, size, words)
    # every 8 bytes from each position of the chunk, as one big-endian word;
    # a word past the end of a shorter name is masked out whatever it reads
    at = np.ndarray((len(chunk) - 7,), dtype=">u8", buffer=chunk, strides=(1,))
    for i, k, column in zip(columns, words, keys.words):
        for j in range(k):
            word = at[np.minimum(starts[:, i] + 8 * j, len(at) - 1)]
            keep = _KEEP[np.minimum(np.maximum(lengths[:, i] - 8 * j, 0), 8)]
            np.bitwise_and(word, keep, out=column[j][part])
    _standard_microseconds(raw, starts[:, stamp], lengths[:, stamp], keys.times_us[part])


# a strict ISO 8601 timestamp, by byte position: lowest byte, and the span
# up to the highest, so that a minute or a second is below 60
_ISO_LOW = np.frombuffer(b"0000-00-00T00:00:00.000000", dtype=np.uint8)
_ISO_SPAN = np.frombuffer(b"9999-19-39T29:59:59.999999", dtype=np.uint8) - _ISO_LOW


def _days(year: np.ndarray, month: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Days from 1970-01-01 to a date of the proleptic Gregorian calendar,
    counted in years that start on March 1, so that a leap day ends one."""
    y = year - (month <= 2)
    return 365 * y + y // 4 - y // 100 + y // 400 + (153 * ((month + 9) % 12) + 2) // 5 + day - 719469


def _standard_microseconds(
    raw: np.ndarray, starts: np.ndarray, lengths: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write to ``out``, and return, the microseconds since the epoch of
    the timestamps at ``starts`` in the bytes ``raw`` (which run on at least
    7 bytes past each timestamp), if they are all ASCII
    ``YYYY-MM-DDTHH:MM:SS`` or ``YYYY-MM-DDTHH:MM:SS.ffffff`` of a date and
    time that exist, with a year of at least 1, as ``datetime.fromisoformat``
    reads them; otherwise raise ``_NotStandard``.

    Every stamp's bytes are checked against the shape. The date and hour
    (bytes 0-12) are checked and converted to microseconds once per run of
    rows that share them, as the rows of an hour do in a log in time order,
    by integer day-count arithmetic; each row then adds its minutes, seconds
    and fraction, digit by digit, in int32."""
    short = lengths == 19
    width = 19 if short.all() else 26
    if width > 19 and not (short | (lengths == 26)).all():
        raise _NotStandard
    # the bytes from each start, gathered as one item each
    digits = np.ndarray((len(raw) - width + 1,), dtype=f"V{width}", buffer=raw, strides=(1,))[starts]
    digits = digits.view(np.uint8).reshape(-1, width)
    # a byte below the lowest wraps around to above the span
    digits -= _ISO_LOW[:width]
    shaped = digits <= _ISO_SPAN[:width]
    if not shaped[:, :19].all() or (width > 19 and not (shaped[:, 19:].all(axis=1) | short).all()):
        raise _NotStandard
    # a run starts where bytes 0-3 or 5-12 change (byte 4 is a "-")
    n = len(digits)
    years = np.ndarray((n,), dtype=np.uint32, buffer=digits, strides=(width,))
    hours = np.ndarray((n,), dtype=np.uint64, buffer=digits, offset=5, strides=(width,))
    head = np.concatenate(([True], (hours[1:] != hours[:-1]) | (years[1:] != years[:-1])))
    h = digits[head, :13].T.astype(np.int32)
    year = ((h[0] * 10 + h[1]) * 10 + h[2]) * 10 + h[3]
    month, day, hour = h[5] * 10 + h[6], h[8] * 10 + h[9], h[11] * 10 + h[12]
    days = _days(year, month, day)
    # a day exists if it comes before the first of the next month
    exists = (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23)
    if not (exists & (days < _days(year + month // 12, month % 12 + 1, 1))).all():
        raise _NotStandard
    # minutes and seconds are below 60 by the span
    d = digits.T
    seconds = d[14] * np.int32(600) + d[15] * np.int32(60) + d[17] * np.int32(10) + d[18]
    np.multiply(seconds, 1_000_000, out=out, dtype=np.int64)
    if width > 19:
        out += np.where(short, 0, sum(d[k] * np.int32(10 ** (25 - k)) for k in range(20, 26)))
    out += ((days * 24 + hour).astype(np.int64) * 3_600_000_000)[np.cumsum(head) - 1]
    return out


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


def float_texts(values: np.ndarray, form: Callable[[float], str] = repr) -> tuple[np.ndarray, np.ndarray]:
    """The texts of the distinct values of a float column, each written by
    ``form``, as an object array, and each value's index among them. Values
    are told apart by their bits, so that -0.0 and 0.0 stay apart and each
    NaN is written on its own."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(form, bits.view(np.float64).tolist())), dtype=object), index


def csv_lines(*columns) -> str:
    """Lines of comma-separated fields, line k holding item k of each column.

    A column is an int array, a float array, or a ``(texts, codes)`` pair of
    an object array of csv fields and the index of each line's field, so
    that one gather looks them up. A float column is written as the
    ``repr`` of each value, made once per distinct value by ``float_texts``
    and gathered. One ``%`` format then makes all lines from ints and texts.
    """
    columns = [float_texts(c) if not isinstance(c, tuple) and c.dtype.kind == "f" else c for c in columns]
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
