"""Tumbling time windows: map timestamps to window indices.

A framing is a fixed-width, origin-anchored partition of the time axis.
Window ``w`` covers the half-open interval ``[origin + w*width,
origin + (w+1)*width)``; a boundary timestamp belongs to the later window.
"""

from __future__ import annotations

import re
from datetime import datetime
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError
from .events import from_microseconds, to_microseconds


# the span of datetime, 0001-01-01 to 9999-12-31 (3,652,059 days, as a float)
MAX_WIDTH = (datetime.max - datetime.min).total_seconds()


class Framing(NamedTuple("Framing", [("origin", datetime), ("width", float)])):
    """Fixed-width windows anchored at ``origin``; ``width`` in seconds."""

    __slots__ = ()

    def __new__(cls, origin: datetime, width: float):
        # below one microsecond, consecutive windows would share a start
        if not width >= 1e-6:
            raise ConfigError(f"width must be at least 1 µs (0.000001 s), got {width}")
        # above the span of datetime, the starts of the windows around a time
        # leave its range and can overflow int64 microseconds
        if width > MAX_WIDTH:
            raise ConfigError(
                f"width must be at most {MAX_WIDTH:.0f} s (0001-01-01 to 9999-12-31), got {width} s"
            )
        return super().__new__(cls, origin, width)

    def starts_us(self, windows) -> np.ndarray:
        """The start of each window in microseconds since the epoch, rounded
        as ``timedelta(seconds=w * width)`` rounds: to the microsecond, ties to even."""
        seconds = np.asarray(windows, dtype=np.int64) * self.width
        whole = seconds.astype(np.int64)  # truncated toward zero, as modf splits it
        fraction_us = np.rint((seconds - whole) * 1e6).astype(np.int64)
        return to_microseconds(self.origin) + whole * 1_000_000 + fraction_us

    def windows_of(self, times_us) -> np.ndarray:
        """The window ``w`` of each time ``t`` (microseconds since the epoch):
        ``starts_us(w) <= t < starts_us(w + 1)``."""
        t = np.asarray(times_us, dtype=np.int64)
        if t.size:
            lo, hi = self._estimates(np.array([t.min(), t.max()])).tolist()
            if hi - lo + 4 <= t.size:
                # the times outnumber the windows around them: search their starts
                return lo - 2 + np.searchsorted(self.starts_us(np.arange(lo - 1, hi + 3)), t, "right")
        w = self._estimates(t)
        return w - (self.starts_us(w) > t) + (self.starts_us(w + 1) <= t)

    def counts_of(self, times_us: np.ndarray) -> tuple[int, np.ndarray]:
        """For times in ascending order, such as a log's ``times_us``, the
        window of the first, and how many fall in each window from that one
        to the last one's: one search per window start among the times,
        where ``windows_of`` searches once per time. No windows for no times."""
        if not len(times_us):
            return 0, np.zeros(0, dtype=np.intp)
        first, last = self.windows_of(times_us[[0, -1]]).tolist()
        bounds = np.searchsorted(times_us, self.starts_us(np.arange(first + 1, last + 1)))
        return first, np.diff(bounds, prepend=0, append=len(times_us))

    def _estimates(self, times_us: np.ndarray) -> np.ndarray:
        # off by at most one window while |t - origin| spans fewer than 2**50
        # windows, so one exact comparison with each bound settles it
        elapsed_us = times_us - to_microseconds(self.origin)
        return np.floor(elapsed_us / (self.width * 1e6)).astype(np.int64)


class WindowSet(NamedTuple("WindowSet", [("first", int), ("last", int)])):
    """The contiguous window index range covering a log, bounds inclusive;
    its ``len`` is the number of windows."""

    __slots__ = ()

    def __new__(cls, first: int, last: int):
        if first > last:
            raise DataError("window set is empty")
        return super().__new__(cls, first, last)

    def __len__(self) -> int:
        return self.last - self.first + 1


def window_set(framing: Framing, log) -> WindowSet:
    """The window range from the earliest to the latest event of the log.

    Intermediate windows are included even when no event falls into them.
    The first window must start in 0001-01-01 or later, where a timestamp can.
    """
    if len(log) == 0:
        raise DataError("no events")
    first, last = framing.windows_of(log.times_us[[0, -1]]).tolist()
    check_year_one(framing, first, f"window {first}")
    return WindowSet(first, last)


def check_year_one(framing: Framing, window: int, name: str) -> None:
    """ConfigError, naming the window as ``name``, if window ``window`` of
    the framing starts before 0001-01-01, where no timestamp can."""
    if framing.starts_us(window) < to_microseconds(datetime.min):
        raise ConfigError(
            f"origin {framing.origin.isoformat()} and width {framing.width} s "
            f"put {name} before 0001-01-01"
        )


def default_origin(log) -> datetime:
    """Midnight of the first event's day."""
    if len(log) == 0:
        raise DataError("no events")
    first = from_microseconds(int(log.times_us[0]))
    return datetime(first.year, first.month, first.day)


_DURATION = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(s|m|h|d|w)?\s*$")
_UNIT_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_duration(text: str) -> float:
    """Parse durations like ``90s``, ``30m``, ``1h``, ``1d``, ``1w`` to seconds.

    A bare number is taken as seconds.
    """
    m = _DURATION.match(text)
    if not m:
        raise ConfigError(f"invalid duration: {text!r}")
    value = float(m.group(1)) * _UNIT_SECONDS[m.group(2) or "s"]
    if value <= 0:
        raise ConfigError(f"duration must be positive: {text!r}")
    return value
