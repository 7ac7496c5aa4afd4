"""Core market domain types: grids, candidate radii, time-of-day codes,
driver status codes, the order stream, match records, the per-grid window row
and their checks.

``GridSpec`` and ``CandidateSet`` are frozen value types and ``OrderStream`` a
read-only table.  ``GridSpec`` also projects lon/lat to km (``to_xy``), and
``GridSpec.cells`` alone places a km point (order or driver) in a cell.
The two log rows, ``MatchRecord`` and ``MarketWindow``, are slotted records.
They are not frozen: a frozen dataclass's ``__init__`` sets every field
through ``object.__setattr__`` into a per-instance dict, which made a day's
window rows take more than twice as long to build and more memory to hold,
and the logs that hold them are plain lists, which were never read-only.
Nothing here holds simulator state: the simulator keeps its fleet and each
order's match column-wise (``sim.DriverFleet``, ``sim.Simulation``), derives
each window row's metrics from the match columns (``_close_window``) and
builds match records from them only when its match log is read (``matches``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

# km per degree of latitude; longitude is scaled by cos(latitude).
KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQ = 111.320


class TimeOfDay(IntEnum):
    EVENING = 0
    MORNING = 1
    MIDNIGHT = 2
    OTHER = 3


# Segment of each clock hour 0..23: midnight [23:00, 05:00), morning
# [07:00, 10:00), evening [17:00, 20:00) and other for the rest of the day.
TOD_BY_HOUR = (
    (TimeOfDay.MIDNIGHT,) * 5 + (TimeOfDay.OTHER,) * 2 + (TimeOfDay.MORNING,) * 3
    + (TimeOfDay.OTHER,) * 7 + (TimeOfDay.EVENING,) * 3 + (TimeOfDay.OTHER,) * 3 + (TimeOfDay.MIDNIGHT,)
)


def check_count(name: str, value, low: int = 1) -> None:
    """Raise unless value is an integer (Python or numpy), not a bool, >= low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def time_of_day(clock_s: float) -> TimeOfDay:
    """Map seconds-of-day to the four-segment day code."""
    return TOD_BY_HOUR[int((clock_s % 86400.0) / 3600.0)]


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lon/lat service rectangle split into ``side_count`` x
    ``side_count`` half-open cells, indexed row-major from the south-west
    corner (row = latitude band, column = longitude band).  ``to_xy`` projects
    lon/lat to km east and north of that corner, equirectangular at the box's
    middle latitude; the map is affine, so ``cells`` bins km points as the
    lon/lat cells would."""

    lon_min: float
    lat_min: float
    lon_max: float
    lat_max: float
    side_count: int

    def __post_init__(self) -> None:
        check_count("side_count", self.side_count)
        bounds = (self.lon_min, self.lat_min, self.lon_max, self.lat_max)
        if not (all(map(math.isfinite, bounds)) and self.lon_max > self.lon_min and self.lat_max > self.lat_min):
            raise ValueError("bounding box must be finite and not degenerate")

    @property
    def n_cells(self) -> int:
        return self.side_count * self.side_count

    @property
    def cell_width(self) -> float:
        return (self.lon_max - self.lon_min) / self.side_count

    @property
    def cell_height(self) -> float:
        return (self.lat_max - self.lat_min) / self.side_count

    def cell_center(self, index: int) -> tuple[float, float]:
        row, col = divmod(index, self.side_count)
        return (
            self.lon_min + (col + 0.5) * self.cell_width,
            self.lat_min + (row + 0.5) * self.cell_height,
        )

    @cached_property
    def km_per_deg_lon(self) -> float:
        return KM_PER_DEG_LON_EQ * math.cos(math.radians(0.5 * (self.lat_min + self.lat_max)))

    @property
    def x_max(self) -> float:
        return (self.lon_max - self.lon_min) * self.km_per_deg_lon

    @property
    def y_max(self) -> float:
        return (self.lat_max - self.lat_min) * KM_PER_DEG_LAT

    def to_xy(self, lon, lat) -> tuple[np.ndarray, np.ndarray]:
        x = (np.asarray(lon) - self.lon_min) * self.km_per_deg_lon
        return x, (np.asarray(lat) - self.lat_min) * KM_PER_DEG_LAT

    def cells(self, x, y) -> np.ndarray:
        """Row-major cell index of each km point; a point past an edge counts in the edge cell."""
        n = self.side_count
        col = np.clip((x / (self.x_max / n)).astype(int), 0, n - 1)
        row = np.clip((y / (self.y_max / n)).astype(int), 0, n - 1)
        return row * n + col


@dataclass(frozen=True)
class CandidateSet:
    """Strictly increasing, finite, positive candidate radii (km), from any 1-D sequence or array."""

    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=float)
        if r.ndim != 1 or not len(r) or not np.all(np.isfinite(r) & (r > 0)):
            raise ValueError("candidates must be a non-empty 1-D sequence of finite radii > 0 (each finite and > 0)")
        object.__setattr__(self, "radii", tuple(r.tolist()))
        if np.any(r[1:] <= r[:-1]):
            raise ValueError(f"candidate radii must be strictly increasing, got {self.radii}")

    def __len__(self) -> int:
        return len(self.radii)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:  # np.asarray(s) and CandidateSet(s) take a set too
        return np.asarray(self.radii, dtype=dtype)


class DriverStatus(IntEnum):
    IDLE = 0
    PICKUP = 1
    IN_SERVICE = 2


class OrderStream:
    """Trip requests as read-only columns; row ``i`` is order id ``i``, created
    ``t_create`` s after the episode start, ``ox, oy`` / ``dx, dy`` its origin /
    destination in km and ``cell`` the cell of its origin.  What happens to an
    order is recorded by the run (its match columns, or an expiry count), so
    one stream can be replayed under several radius policies.
    """

    def __init__(self, grid: GridSpec, t_create, origin_lon, origin_lat, dest_lon, dest_lat, fare):
        self.grid = grid
        self.t_create = t = np.array(t_create, dtype=float)
        self.fare = np.array(fare, dtype=float)
        olon, olat, dlon, dlat = (np.array(c, dtype=float) for c in (origin_lon, origin_lat, dest_lon, dest_lat))
        if any(c.ndim != 1 or len(c) != len(t) for c in (t, self.fare, olon, olat, dlon, dlat)):
            raise ValueError("order columns must be 1-D and of equal length")
        if not (np.all(np.isfinite(t) & (t >= 0)) and all(np.all(np.isfinite(c)) for c in (olon, olat, dlon, dlat))):
            raise ValueError("creation times must be finite and >= 0, and coordinates finite")
        if np.any(t[1:] < t[:-1]):
            raise ValueError("orders must be sorted by creation time")
        bad = np.flatnonzero((olon < grid.lon_min) | (olon >= grid.lon_max) | (olat < grid.lat_min)
                             | (olat >= grid.lat_max))
        if len(bad):
            raise ValueError(f"order {bad[0]} starts at ({olon[bad[0]]}, {olat[bad[0]]}), outside the grid's box")
        if not np.all(np.isfinite(self.fare) & (self.fare >= 0)):
            raise ValueError("fares must be finite and >= 0")
        self.ox, self.oy = grid.to_xy(olon, olat)
        self.dx, self.dy = grid.to_xy(dlon, dlat)
        self.cell = grid.cells(self.ox, self.oy)
        for c in (self.t_create, self.cell, self.fare, self.ox, self.oy, self.dx, self.dy):
            c.flags.writeable = False

    def __len__(self) -> int:
        return len(self.t_create)


@dataclass(slots=True)
class MatchRecord:
    """One order won by one driver: a slotted row of the match log, built
    from a run's match columns (see the module docstring)."""

    order_id: int
    driver_id: int
    grid: int
    t_match: float
    pickup_km: float
    fare: float
    radius_km: float


# TimeOfDay codes, as enum members and as the plain ints they equal
_TOD_CODES = frozenset(TimeOfDay)


def check_window_start(start_s, tod, n_idle, n_open, n_total) -> None:
    """Raise unless start_s is finite and >= 0, tod a ``TimeOfDay`` code, the counts finite, >= 0, idle <= total."""
    if not 0.0 <= start_s < math.inf:  # NaN fails both comparisons
        raise ValueError(f"start_s must be finite and >= 0, got {start_s!r}")
    if tod not in _TOD_CODES:
        raise ValueError(f"tod must be a TimeOfDay code, got {tod!r}")
    # NaN fails every comparison, and inf the upper bound; & joins Python bools as it joins numpy ones
    ok = (0 <= n_idle) & (n_idle <= n_total) & (n_total < math.inf) & (0 <= n_open) & (n_open < math.inf)
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise ValueError("counts must be finite and >= 0, and idle cannot exceed total")


@dataclass(slots=True)
class MarketWindow:
    """Per-grid aggregation over one metric window.

    n_idle / n_open / n_total are snapshots taken at the window start; the
    o/d/u/p metrics summarize what happened inside the window under radius r.
    A slotted log row, written once per grid and window (see the module
    docstring); a day's log holds tens of thousands of them.
    """

    grid: int
    window: int
    start_s: float
    n_idle: int
    n_open: int
    n_total: int
    ofr: float
    apd_km: float
    dur: float
    revenue: float
    radius_km: float
    tod: TimeOfDay

    def __post_init__(self) -> None:
        if not self.grid >= 0:
            raise ValueError(f"grid must be >= 0, got {self.grid!r}")
        if not self.window >= 0:
            raise ValueError(f"window must be >= 0, got {self.window!r}")
        if not (0.0 <= self.ofr <= 1.0 and 0.0 <= self.dur <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        # NaN fails every comparison, and inf the upper bound
        if not (0.0 <= self.apd_km < math.inf and 0.0 <= self.revenue < math.inf
                and 0.0 < self.radius_km < math.inf):
            raise ValueError("distance and revenue must be finite and >= 0, and radius finite and > 0")
        check_window_start(self.start_s, self.tod, self.n_idle, self.n_open, self.n_total)
