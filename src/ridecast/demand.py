"""Demand: synthetic Poisson order generation and feature normalization
statistics.

A feature row holds one column per ``FEATURE_FIELDS`` entry, the
``MarketWindow`` field it is read from: the ``N_BASE_FEATURES`` measured ones
(counts, realized metrics and radius), then the grid index and the
``TimeOfDay`` code as exact whole numbers, -1 in both on padding rows.
Feature statistics cover only the measured columns.  The forecaster's
embedding turns each index into a learned row of its first layer, which is
what a linear layer over a one-hot computes, so the indices are never z-scored.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import KM_PER_DEG_LAT, GridSpec, OrderStream, TimeOfDay

# the feature row's MarketWindow fields in column order: the measured columns, then the two index columns
FEATURE_FIELDS = ("n_idle", "n_open", "n_total", "ofr", "apd_km", "dur", "revenue", "radius_km", "grid", "tod")
N_INPUT_COLUMNS = len(FEATURE_FIELDS)
(COL_IDLE, COL_OPEN, COL_TOTAL, COL_OFR, COL_APD, COL_DUR, COL_REV, COL_RADIUS,
 COL_GRID, COL_TOD) = range(N_INPUT_COLUMNS)
N_BASE_FEATURES = COL_GRID  # measured feature columns, the only ones feature NormStats cover
N_TOD = len(TimeOfDay)  # time-of-day codes
FARE_BASE = 2.5         # flag-fall of every fare, in currency units
FARE_PER_KM = 1.0       # fare per km of straight-line trip distance


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

    def __post_init__(self) -> None:
        # read-only copies, so that the checks below hold for the profile's life
        rates = np.array(self.rates, dtype=float)
        dest = np.array(self.dest_probs, dtype=float)
        rates.flags.writeable = dest.flags.writeable = False
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "dest_probs", dest)
        if rates.ndim != 2 or rates.shape[1] != 24:
            raise ValueError("rates must be (n_cells, 24)")
        if not np.all(np.isfinite(rates) & (rates >= 0)):
            raise ValueError("rates must be finite and >= 0")
        if dest.shape != (rates.shape[0], rates.shape[0]):
            raise ValueError("dest_probs must be (n_cells, n_cells)")
        if np.any(dest < 0) or not np.allclose(dest.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            raise ValueError("destination rows must be distributions")


def default_profile(
    grid: GridSpec,
    daily_orders: float,
    core_concentration: float = 1.2,
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
    return DemandProfile(rates=rates, dest_probs=dest)


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
    Each (grid, clock-hour slice) draws a Poisson count, then one row of six
    uniforms per order: creation time, origin lon and lat, destination cell,
    destination lon and lat.  Each fare is ``FARE_BASE`` plus ``FARE_PER_KM``
    per straight-line trip km.  Orders are sorted by creation time, then the
    cell their origin was drawn in, ties kept in draw order.
    """
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError("duration must be finite and >= 0")
    if not math.isfinite(day_start_s):
        raise ValueError("day start must be finite")
    if profile.rates.shape[0] != grid.n_cells:
        raise ValueError(f"profile has {profile.rates.shape[0]} cells, grid has {grid.n_cells}")
    rng = np.random.default_rng(seed)
    side, cw, ch = grid.side_count, grid.cell_width, grid.cell_height
    # the CDF that Generator.choice(p=...) inverts with one uniform draw
    cdf = profile.dest_probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # [0, duration_s) cut at clock-hour boundaries: (start, width, hour) per slice
    slices, t = [], 0.0
    while t < duration_s:
        end = min(duration_s, t + (3600.0 - (day_start_s + t) % 3600.0))
        slices.append((t, end - t, int(((day_start_s + t) % 86400.0) // 3600)))
        t = end
    if not slices:
        return OrderStream(grid, *[()] * 6)
    blocks, cells = [], []
    for g in range(grid.n_cells):
        for t, width, hour in slices:
            lam = profile.rates[g, hour] * width / 3600.0
            u = rng.random((int(rng.poisson(lam)), 6))
            u[:, 0] = t + u[:, 0] * width  # creation time
            u[:, 3] = cdf[g].searchsorted(u[:, 3], side="right")  # destination cell
            blocks.append(u)
            cells.append(np.full(len(u), g))
    u, cell = np.concatenate(blocks), np.concatenate(cells)
    olon = grid.lon_min + cell % side * cw + u[:, 1] * cw
    olat = grid.lat_min + cell // side * ch + u[:, 2] * ch
    dlon = grid.lon_min + (u[:, 3] % side + u[:, 4]) * cw
    dlat = grid.lat_min + (u[:, 3] // side + u[:, 5]) * ch
    # math.hypot, not np.hypot: the two differ in the last bit on some pairs
    trip_km = np.fromiter(map(math.hypot, ((dlon - olon) * grid.km_per_deg_lon).tolist(),
                              ((dlat - olat) * KM_PER_DEG_LAT).tolist()), float, len(u))
    fare = FARE_BASE + FARE_PER_KM * trip_km
    order = np.lexsort((cell, u[:, 0]))
    return OrderStream(grid, *(c[order] for c in (u[:, 0], olon, olat, dlon, dlat, fare)))


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

    def check_width(self, name: str, width: int) -> None:
        """Raise ``ValueError``, naming these as ``name`` stats, unless they cover ``width`` columns."""
        if self.mean.shape != (width,):
            raise ValueError(f"{name} stats have shape {self.mean.shape}, expected ({width},)")

    def as_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(mean=np.array(d["mean"]), std=np.array(d["std"]))


def fit_norm_stats(x: np.ndarray) -> NormStats:
    """Population mean/std per column over >= 2 rows: numpy's ``x.mean(0)`` and ``x.std(0)`` in float64.
    Callers pass narrow matrices, labels (N, 4) and ``TrainingData.real_rows()`` (M, 8), so the float64
    copy and numpy's temporaries stay small.

    A column of one value gets that value as mean and std 1, so its z-scores are exactly 0.  Its
    computed std is 0 only when the value is exact in binary; otherwise it is a rounding residue
    (1.4e-17 for seven rows of 0.1) that turns any other value into a z-score near 1e16."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    std = x.std(axis=0)
    constant = (x == x[0]).all(axis=0)
    return NormStats(mean=np.where(constant, x[0], x.mean(axis=0)), std=np.where(~constant & (std > 0), std, 1.0))


def apply_norm(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return (np.asarray(x, dtype=float) - stats.mean) / stats.std


def invert_norm(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return np.asarray(x, dtype=float) * stats.std + stats.mean
