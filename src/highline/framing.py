"""Tumbling time windows: map timestamps to window indices.

A framing is a fixed-width, origin-anchored partition of the time axis.
Window ``w`` covers the half-open interval ``[origin + w*width,
origin + (w+1)*width)``; a boundary timestamp belongs to the later window.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Framing:
    """Fixed-width windows anchored at ``origin``; ``width`` in seconds."""

    origin: datetime
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ConfigError(f"window width must be positive, got {self.width}")

    def seconds(self, t: datetime) -> float:
        """Seconds elapsed from the origin to ``t`` (negative before it)."""
        return (t - self.origin).total_seconds()

    def window_of(self, t: datetime) -> int:
        """The window index of a timestamp; non-decreasing in ``t``."""
        return math.floor(self.seconds(t) / self.width)

    def window_start(self, w: int) -> datetime:
        return self.origin + timedelta(seconds=w * self.width)

    def window_bounds(self, w: int) -> tuple[datetime, datetime]:
        """The half-open interval [start, end) covered by window ``w``."""
        return (self.window_start(w), self.window_start(w + 1))


@dataclass(frozen=True)
class WindowSet:
    """The contiguous window index range covering a log, bounds inclusive."""

    first: int
    last: int

    def __post_init__(self):
        if self.first > self.last:
            raise DataError("window set is empty")

    def __len__(self) -> int:
        return self.last - self.first + 1

    def __iter__(self):
        return iter(range(self.first, self.last + 1))

    def __contains__(self, w: int) -> bool:
        return self.first <= w <= self.last

    def offset(self, w: int) -> int:
        return w - self.first


def window_set(framing: Framing, log) -> WindowSet:
    """The window range from the earliest to the latest event of the log.

    Intermediate windows are included even when no event falls into them.
    """
    if len(log) == 0:
        raise DataError("no events")
    first, last = log.time_range()
    return WindowSet(framing.window_of(first), framing.window_of(last))


def default_origin(log) -> datetime:
    """Midnight of the first event's day."""
    if len(log) == 0:
        raise DataError("no events")
    first, _ = log.time_range()
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
