"""Demand sources: CSV trip ingestion, synthetic Poisson demand generation,
and feature normalization statistics.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Optional

import numpy as np

from .market import GridSpec, LocalProjection, OrderStream, grid_index

MALFORMED_FRACTION_LIMIT = 0.10

CSV_REQUIRED_COLUMNS = ("pickup_datetime", "pickup_lon", "pickup_lat", "dropoff_lon", "dropoff_lat")


class IngestError(ValueError):
    """Unusable demand file: bad header, or too many malformed rows."""


@dataclass(frozen=True)
class FareModel:
    """fare = base + per_km * straight-line trip distance."""

    base: float = 2.5
    per_km: float = 1.0

    def fare(self, trip_km: float) -> float:
        return self.base + self.per_km * trip_km


@dataclass(frozen=True)
class IngestReport:
    total_rows: int
    emitted: int
    malformed: int
    out_of_area: int
    out_of_range: int

    def __post_init__(self) -> None:
        if self.emitted + self.malformed + self.out_of_area + self.out_of_range != self.total_rows:
            raise ValueError("ingest accounting does not add up")


def _parse_dt(raw: str) -> datetime:
    return datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))


def load_trips(
    path: str | Path,
    grid: GridSpec,
    start: datetime,
    end: datetime,
    fare_model: FareModel = FareModel(),
) -> tuple[OrderStream, IngestReport]:
    """Read trip rows into a time-ordered order stream.

    Creation times are seconds since ``start``.  Rows outside the box or the
    [start, end) range are dropped and counted; rows that fail to parse, have
    fewer or more fields than the header, or carry a non-finite coordinate or
    fare are malformed, and are skipped unless they exceed 10% of the file,
    which aborts the load.
    Missing fares are filled from the fare model.
    """
    proj = LocalProjection(grid)
    horizon_s = (end - start).total_seconds()
    raw: list[tuple[float, float, float, float, float, Optional[float]]] = []
    total = malformed = out_area = out_range = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_REQUIRED_COLUMNS if c not in header]
        if missing:
            raise IngestError(f"missing required columns: {missing}")
        for row in reader:
            total += 1
            try:
                # DictReader fills a short row with None values, and keys a long row's extras by None
                if None in row.values() or None in row:
                    raise ValueError("row length differs from the header")
                t = (_parse_dt(row["pickup_datetime"]) - start).total_seconds()
                plon = float(row["pickup_lon"])
                plat = float(row["pickup_lat"])
                dlon = float(row["dropoff_lon"])
                dlat = float(row["dropoff_lat"])
                if not all(map(math.isfinite, (plon, plat, dlon, dlat))):
                    raise ValueError("coordinates must be finite")
                fare_raw = (row.get("fare_amount") or "").strip()
                fare = float(fare_raw) if fare_raw else None
                if fare is not None and not (math.isfinite(fare) and fare >= 0):
                    raise ValueError("fare must be finite and >= 0")
            except (ValueError, TypeError):
                malformed += 1
                continue
            if not (0.0 <= t < horizon_s):
                out_range += 1
                continue
            if grid_index(plon, plat, grid) < 0 or grid_index(dlon, dlat, grid) < 0:
                out_area += 1
                continue
            raw.append((t, plon, plat, dlon, dlat, fare))
    if total > 0 and malformed / total > MALFORMED_FRACTION_LIMIT:
        raise IngestError(f"{malformed}/{total} rows malformed (limit {MALFORMED_FRACTION_LIMIT:.0%})")
    raw.sort(key=lambda r: r[0])
    rows = [
        (t, grid_index(plon, plat, grid), plon, plat, dlon, dlat,
         fare_model.fare(proj.distance_km(plon, plat, dlon, dlat)) if fare is None else fare)
        for t, plon, plat, dlon, dlat, fare in raw
    ]
    orders = OrderStream(grid, *(zip(*rows) if rows else [()] * 7))
    report = IngestReport(
        total_rows=total,
        emitted=len(orders),
        malformed=malformed,
        out_of_area=out_area,
        out_of_range=out_range,
    )
    return orders, report


# ---------------------------------------------------------------------------
# synthetic demand
# ---------------------------------------------------------------------------

# Relative hourly demand weight, bimodal with peaks at 08:00 and 18:00 and a
# trough at 05:00.
DEFAULT_HOURLY_SHAPE = np.array(
    [0.35, 0.25, 0.18, 0.14, 0.12, 0.10, 0.30, 0.70, 1.00, 0.80, 0.60, 0.55,
     0.60, 0.55, 0.50, 0.55, 0.70, 0.90, 1.00, 0.85, 0.65, 0.55, 0.50, 0.40]
)


@dataclass(frozen=True)
class DemandProfile:
    """Per-grid, per-hour arrival rates plus trip attribute samplers.

    rates[g, h] is expected orders per hour originating in grid g during
    clock hour h; dest_probs[g] is a categorical over destination grids.
    """

    rates: np.ndarray          # (n_cells, 24)
    dest_probs: np.ndarray     # (n_cells, n_cells), rows sum to 1
    fare_model: FareModel = field(default_factory=FareModel)

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        dest = np.asarray(self.dest_probs, dtype=float)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "dest_probs", dest)
        if rates.ndim != 2 or rates.shape[1] != 24:
            raise ValueError("rates must be (n_cells, 24)")
        if not np.all(np.isfinite(rates) & (rates >= 0)):
            raise ValueError("rates must be finite and >= 0")
        if dest.shape != (rates.shape[0], rates.shape[0]):
            raise ValueError("dest_probs must be (n_cells, n_cells)")
        if np.any(dest < 0) or not np.allclose(dest.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("destination rows must be distributions")


def default_profile(
    grid: GridSpec,
    daily_orders: float,
    core_concentration: float = 1.2,
    fare_model: FareModel = FareModel(),
) -> DemandProfile:
    """Bimodal-in-time, core-concentrated-in-space synthetic profile.

    Spatial weight decays with squared distance from the box center;
    ``core_concentration`` controls how sharply demand piles up downtown.
    Expected orders over a full day sum to ``daily_orders``.
    """
    n = grid.side_count
    centers = np.array([grid.cell_center(i) for i in range(grid.n_cells)])
    mid = np.array([(grid.lon_min + grid.lon_max) / 2, (grid.lat_min + grid.lat_max) / 2])
    span = max(grid.lon_max - grid.lon_min, grid.lat_max - grid.lat_min)
    d2 = ((centers - mid) ** 2).sum(axis=1) / (span / 2) ** 2
    spatial = np.exp(-core_concentration * d2)
    spatial /= spatial.sum()
    hourly = DEFAULT_HOURLY_SHAPE / DEFAULT_HOURLY_SHAPE.sum()
    rates = daily_orders * np.outer(spatial, hourly)
    dest = np.tile(spatial, (grid.n_cells, 1))
    dest /= dest.sum(axis=1, keepdims=True)
    return DemandProfile(rates=rates, dest_probs=dest, fare_model=fare_model)


def synth_demand(
    profile: DemandProfile,
    grid: GridSpec,
    seed: int,
    duration_s: float,
    day_start_s: float = 0.0,
) -> OrderStream:
    """Inhomogeneous-Poisson order stream over [0, duration_s).

    Creation times are episode-relative seconds; ``day_start_s`` anchors the
    episode on the clock so hourly rates line up.  Deterministic per seed.
    """
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError("duration must be finite and >= 0")
    rng = np.random.default_rng(seed)
    proj = LocalProjection(grid)
    n_cells = grid.n_cells
    cw, ch = grid.cell_width, grid.cell_height
    draws: list[tuple[float, int, float, float, float, float, float]] = []
    for g in range(n_cells):
        row, col = divmod(g, grid.side_count)
        lon0 = grid.lon_min + col * cw
        lat0 = grid.lat_min + row * ch
        t = 0.0
        while t < duration_s:
            hour = int(((day_start_s + t) % 86400.0) // 3600)
            slice_end = min(duration_s, t + (3600.0 - (day_start_s + t) % 3600.0))
            width = slice_end - t
            lam = profile.rates[g, hour] * width / 3600.0
            count = int(rng.poisson(lam)) if lam > 0 else 0
            for _ in range(count):
                tc = t + rng.random() * width
                olon = lon0 + rng.random() * cw
                olat = lat0 + rng.random() * ch
                dg = int(rng.choice(n_cells, p=profile.dest_probs[g]))
                drow, dcol = divmod(dg, grid.side_count)
                dlon = grid.lon_min + (dcol + rng.random()) * cw
                dlat = grid.lat_min + (drow + rng.random()) * ch
                fare = profile.fare_model.fare(proj.distance_km(olon, olat, dlon, dlat))
                draws.append((tc, g, olon, olat, dlon, dlat, fare))
            t = slice_end
    draws.sort(key=lambda r: (r[0], r[1]))
    return OrderStream(grid, *(zip(*draws) if draws else [()] * 7))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormStats:
    """Per-feature population mean/std; constant features get std forced to 1."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        std = np.asarray(self.std, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.shape != std.shape:
            raise ValueError("stats shapes must match")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std)) and np.all(std > 0)):
            raise ValueError("mean must be finite and std finite and positive")

    def as_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(mean=np.array(d["mean"]), std=np.array(d["std"]))


def fit_norm_stats(x: np.ndarray) -> NormStats:
    """Population mean/std per column over >= 2 rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return NormStats(mean=mean, std=std)


def apply_norm(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return (np.asarray(x, dtype=float) - stats.mean) / stats.std


def invert_norm(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return np.asarray(x, dtype=float) * stats.std + stats.mean
