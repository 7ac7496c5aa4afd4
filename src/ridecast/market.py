"""Core market domain types: grids, time-of-day codes, orders, drivers and
per-window performance metrics.

Everything here is a plain value type or a pure function; nothing holds
simulator state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional, Sequence

import numpy as np

# Marker returned by grid_index for points outside the service area.
OUT_OF_AREA = -1

# km per degree of latitude; longitude is scaled by cos(latitude).
KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQ = 111.320


class TimeOfDay(IntEnum):
    EVENING = 0
    MORNING = 1
    MIDNIGHT = 2
    OTHER = 3


@dataclass(frozen=True)
class TimeOfDayBounds:
    """Clock-hour intervals for the four day segments.

    Each interval is half-open [start, end) in hours; ``midnight`` may wrap
    past 24:00.  The three named intervals must not overlap; everything not
    covered is OTHER, so the four segments always partition the day.
    """

    morning: tuple[float, float] = (7.0, 10.0)
    evening: tuple[float, float] = (17.0, 20.0)
    midnight: tuple[float, float] = (23.0, 5.0)

    def __post_init__(self) -> None:
        spans = [self._span(self.morning), self._span(self.evening), self._span(self.midnight)]
        for a, b in zip(spans, spans[1:] + spans[:1]):
            for lo1, hi1 in a:
                for lo2, hi2 in b:
                    if lo1 < hi2 and lo2 < hi1:
                        raise ValueError("time-of-day intervals overlap")

    @staticmethod
    def _span(interval: tuple[float, float]) -> list[tuple[float, float]]:
        lo, hi = interval
        if lo <= hi:
            return [(lo, hi)]
        return [(lo, 24.0), (0.0, hi)]  # wraps midnight

    def _contains(self, interval: tuple[float, float], hour: float) -> bool:
        return any(lo <= hour < hi for lo, hi in self._span(interval))

    def code_for_hour(self, hour: float) -> TimeOfDay:
        if self._contains(self.morning, hour):
            return TimeOfDay.MORNING
        if self._contains(self.evening, hour):
            return TimeOfDay.EVENING
        if self._contains(self.midnight, hour):
            return TimeOfDay.MIDNIGHT
        return TimeOfDay.OTHER


def time_of_day(clock_s: float, bounds: TimeOfDayBounds | None = None) -> TimeOfDay:
    """Map seconds-of-day to the four-segment day code."""
    bounds = bounds or TimeOfDayBounds()
    return bounds.code_for_hour((clock_s % 86400.0) / 3600.0)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lon/lat service rectangle split into ``side_count`` x
    ``side_count`` half-open cells, indexed row-major from the south-west
    corner (row = latitude band, column = longitude band)."""

    lon_min: float
    lat_min: float
    lon_max: float
    lat_max: float
    side_count: int

    def __post_init__(self) -> None:
        if self.side_count < 1:
            raise ValueError("side_count must be >= 1")
        if not (self.lon_max > self.lon_min and self.lat_max > self.lat_min):
            raise ValueError("degenerate bounding box")

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


def grid_index(lon: float, lat: float, spec: GridSpec) -> int:
    """Row-major cell index for a point, or OUT_OF_AREA.

    Cells are half-open: a point on a cell's low edge belongs to that cell,
    and the bounding box itself is treated as [min, max) on both axes.
    """
    if not (spec.lon_min <= lon < spec.lon_max and spec.lat_min <= lat < spec.lat_max):
        return OUT_OF_AREA
    col = int((lon - spec.lon_min) / spec.cell_width)
    row = int((lat - spec.lat_min) / spec.cell_height)
    # guard against fp spill on the high edge of the last cell
    col = min(col, spec.side_count - 1)
    row = min(row, spec.side_count - 1)
    return row * spec.side_count + col


class LocalProjection:
    """Equirectangular lon/lat -> km projection anchored at a grid's box.

    The projection is affine, so grid cells stay uniform rectangles in km
    space and cell indexing can be done on either side consistently.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        lat_ref = 0.5 * (spec.lat_min + spec.lat_max)
        self.km_per_deg_lon = KM_PER_DEG_LON_EQ * math.cos(math.radians(lat_ref))
        self.km_per_deg_lat = KM_PER_DEG_LAT
        self.x_max = (spec.lon_max - spec.lon_min) * self.km_per_deg_lon
        self.y_max = (spec.lat_max - spec.lat_min) * self.km_per_deg_lat

    def to_xy(self, lon, lat):
        x = (np.asarray(lon) - self.spec.lon_min) * self.km_per_deg_lon
        y = (np.asarray(lat) - self.spec.lat_min) * self.km_per_deg_lat
        return x, y

    def to_lonlat(self, x, y):
        lon = self.spec.lon_min + np.asarray(x) / self.km_per_deg_lon
        lat = self.spec.lat_min + np.asarray(y) / self.km_per_deg_lat
        return lon, lat

    def distance_km(self, lon1: float, lat1: float, lon2: float, lat2: float) -> float:
        dx = (lon2 - lon1) * self.km_per_deg_lon
        dy = (lat2 - lat1) * self.km_per_deg_lat
        return math.hypot(dx, dy)

    def cell_index_xy(self, x: float, y: float) -> int:
        n = self.spec.side_count
        if not (0.0 <= x < self.x_max and 0.0 <= y < self.y_max):
            return OUT_OF_AREA
        col = min(int(x / (self.x_max / n)), n - 1)
        row = min(int(y / (self.y_max / n)), n - 1)
        return row * n + col


class DriverStatus(IntEnum):
    IDLE = 0
    PICKUP = 1
    IN_SERVICE = 2


@dataclass(frozen=True)
class Order:
    """A trip request.  Immutable: what happens to it during a run is recorded
    by the run (a MatchRecord, or an expiry count), so one stream can be
    replayed under several radius policies."""

    id: int
    t_create: float
    origin_lon: float
    origin_lat: float
    dest_lon: float
    dest_lat: float
    fare: float
    grid: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fare) and self.fare >= 0):
            raise ValueError("fare must be finite and >= 0")


@dataclass(frozen=True)
class MatchRecord:
    """One order won by one driver; the only record of a match."""

    order_id: int
    driver_id: int
    grid: int
    t_match: float
    pickup_km: float
    fare: float
    radius_km: float


@dataclass
class Driver:
    """Driver snapshot view; the simulator stores fleets column-wise."""

    id: int
    lon: float
    lat: float
    status: DriverStatus = DriverStatus.IDLE
    occupied_s: float = 0.0
    online_s: float = 0.0
    order_id: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.order_id is not None) != (self.status != DriverStatus.IDLE):
            raise ValueError("assignment present iff driver is not idle")
        if not (0.0 <= self.occupied_s <= self.online_s or self.online_s == 0.0):
            raise ValueError("occupied time must lie within online time")


@dataclass(frozen=True)
class MarketWindow:
    """Per-grid aggregation over one metric window.

    n_idle / n_open / n_total are snapshots taken at the window start; the
    o/d/u/p metrics summarize what happened inside the window under radius r.
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
        if not (0.0 <= self.ofr <= 1.0 and 0.0 <= self.dur <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        if min(self.apd_km, self.revenue, self.radius_km) < 0:
            raise ValueError("distance, revenue and radius must be >= 0")
        if self.n_idle > self.n_total:
            raise ValueError("idle count cannot exceed total count")


@dataclass(frozen=True)
class WindowMetrics:
    ofr: float
    apd_km: float
    dur: float
    revenue: float


def metrics_from_tallies(
    created: int,
    cohort_matched: int,
    matched_distances: Sequence[float],
    matched_fares: Sequence[float],
    occupied_s: float,
    online_s: float,
) -> WindowMetrics:
    """Window metrics from event tallies; empty denominators yield zeros.

    ``cohort_matched`` counts only matches of orders created inside the same
    window, which keeps the fulfillment rate in [0, 1] when orders carried
    over from earlier windows match here; distance and revenue cover every
    match in the window.
    """
    if cohort_matched > created:
        raise ValueError("cohort matches cannot exceed creations")
    n_matched = len(matched_distances)
    ofr = cohort_matched / created if created > 0 else 0.0
    apd = float(np.mean(matched_distances)) if n_matched else 0.0
    dur = occupied_s / online_s if online_s > 0 else 0.0
    revenue = float(sum(matched_fares))
    return WindowMetrics(ofr=ofr, apd_km=apd, dur=dur, revenue=revenue)


def compute_window_metrics(
    orders: Iterable[Order],
    matches: Iterable[MatchRecord],
    window_start: float,
    window_end: float,
    occupied_s: float,
    online_s: float,
) -> WindowMetrics:
    """Windowed (ofr, apd, dur, revenue) over a fully elapsed window.

    Creations are read from ``orders`` (ids unique) and match events from
    ``matches``; each counts when its timestamp falls inside
    [window_start, window_end).  Revenue is recognized at match time.
    """
    created = {o.id for o in orders if window_start <= o.t_create < window_end}
    cohort = 0
    dists: list[float] = []
    fares: list[float] = []
    for m in matches:
        if window_start <= m.t_match < window_end:
            cohort += m.order_id in created
            dists.append(m.pickup_km)
            fares.append(m.fare)
    return metrics_from_tallies(len(created), cohort, dists, fares, occupied_s, online_s)
