"""Discrete-time simulator of the broadcasting matching mode.

Every tick: new orders are injected, stale ones expire, each open order is
broadcast to idle drivers within the radius of the cell it starts in (drivers
sample a grab decision; one winner is drawn among accepters), busy drivers
advance straight toward the order each holds, and time accounting is updated.
The broadcast takes distances a block of open orders at a time, against free
drivers, and walks only the rows that reach one, oldest first.  Time is one
clock, ``tick_count * tick_s``: a tick injects the orders created before the
next clock, and a metric window is ``[start_s, next start_s)`` on it.  At a
window's end, per-grid market rows are derived from the orders created and
matched in it and its driver time, and the radius source is asked for the
next window's radii.  Orders come from a read-only ``market.OrderStream``;
the run records each order's match (time, driver, pickup, radius) in columns
over it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .behavior import AcceptanceModel, sample_accepts
from .market import (
    CandidateSet,
    DriverStatus,
    GridSpec,
    MarketWindow,
    MatchRecord,
    OrderStream,
    TimeOfDay,
    check_count,
    check_window_start,
    time_of_day,
)

BROADCAST_ROWS = 64  # open orders per block of the broadcast's distance matrix


@dataclass(frozen=True)
class WindowSnapshot:
    """Per-grid market state captured at a window start, checked by ``check_window_start`` as a ``MarketWindow``."""

    window: int
    start_s: float
    tod: TimeOfDay
    n_idle: np.ndarray    # (n_cells,)
    n_open: np.ndarray
    n_total: np.ndarray

    def __post_init__(self) -> None:
        check_count("window", self.window, 0)
        n_idle, n_open, n_total = (np.asarray(c) for c in (self.n_idle, self.n_open, self.n_total))
        if not (n_idle.ndim == 1 and n_idle.shape == n_open.shape == n_total.shape):
            raise ValueError(f"counts must be 1-D and of one length, got {n_idle.shape, n_open.shape, n_total.shape}")
        check_window_start(self.start_s, self.tod, n_idle, n_open, n_total)


class RadiusSource(Protocol):
    """Supplies per-grid radii (km) for the window about to begin, and keeps no state that moves them between runs."""

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        """``history`` is the run's window log so far, whole windows oldest first: one row per grid,
        grid 0..G-1 in order, with rising window numbers."""


class ScheduleRadius:
    """Per-window, per-grid radius table, kept as a read-only copy; windows beyond the table reuse the last row."""

    def __init__(self, table: np.ndarray):
        table = np.array(table, dtype=float)
        table.flags.writeable = False  # so that the check below holds for the source's life
        if table.ndim != 2 or table.size == 0 or not np.all(np.isfinite(table) & (table > 0)):
            raise ValueError("schedule must be a nonempty (n_windows, n_cells) table of finite radii > 0")
        self._table = table

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        row = min(snapshot.window, len(self._table) - 1)
        return self._table[row]


def FixedRadius(radius_km: float, n_cells: int) -> ScheduleRadius:
    """One radius for every grid and window: a one-row ``ScheduleRadius``."""
    return ScheduleRadius(np.full((1, n_cells), float(radius_km)))


class RandomRadius:
    """Uniform draw from a ``CandidateSet``, per grid per window (exploration): window w draws from its own generator,
    seeded with (seed, w), so every run of one config draws the same radii, and a bad seed fails at construction."""

    def __init__(self, candidates: CandidateSet | Sequence[float], n_cells: int, seed: int):
        check_count("n_cells", n_cells)
        self._candidates = np.asarray(CandidateSet(candidates))
        self._n_cells, self._seed = n_cells, np.random.SeedSequence(seed).entropy

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        return np.random.default_rng([self._seed, snapshot.window]).choice(self._candidates, size=self._n_cells)


@dataclass(frozen=True)
class SimConfig:
    grid: GridSpec
    n_drivers: int
    speed_kmh: float
    radius_source: RadiusSource
    acceptance: AcceptanceModel = field(default_factory=AcceptanceModel)
    tick_s: float = 10.0
    window_s: float = 300.0
    patience_s: float = 300.0
    day_start_s: float = 0.0
    seed: int = 0
    idle_walk_kmh: float = 0.0

    def __post_init__(self) -> None:
        check_count("n_drivers", self.n_drivers)
        if not (math.isfinite(self.speed_kmh) and self.speed_kmh > 0):
            raise ValueError("vehicle speed must be finite and > 0")
        if not (0 < self.tick_s < math.inf and math.isfinite(self.window_s)):
            raise ValueError(f"tick must be finite and > 0, got {self.tick_s}, and the metric window finite")
        ratio = self.window_s / self.tick_s
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError("tick must divide the metric window")
        if not self.tick_s <= self.patience_s < math.inf:
            raise ValueError("patience must be finite and at least one tick")
        if not (math.isfinite(self.idle_walk_kmh) and self.idle_walk_kmh >= 0):
            raise ValueError("idle walk speed must be finite and >= 0")
        if not math.isfinite(self.day_start_s):
            raise ValueError("day start must be finite")

    @property
    def ticks_per_window(self) -> int:
        return int(round(self.window_s / self.tick_s))


@dataclass(frozen=True)
class EpisodeSummary:
    ofr: float
    dur: float
    revenue: float
    apd_km: float
    created: int
    matched: int
    expired: int
    open_at_end: int


class DriverFleet:
    """Column-wise driver state in projected km coordinates.

    A driver holds an order (``order_id >= 0``) exactly when it is not idle,
    and heads for its origin while ``PICKUP``, else for its destination.  Every
    driver is online every tick, so its online time is the run's clock; the
    fleet's occupied time is one run total, ``Simulation.occupied_ticks``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x.astype(float)
        self.y = y.astype(float)
        self.status = np.full(len(x), int(DriverStatus.IDLE), dtype=np.int8)
        self.order_id = np.full(len(x), -1, dtype=np.int64)


class Simulation:
    """Mutable world state plus the tick loop; deterministic given (config, stream).

    The stream is never modified: every per-run fact about its orders lives
    here, so one stream can be run any number of times.  Creation times
    ascend, so ``injected`` is the stream cursor: orders ``[0, injected)`` are
    the injected ones, those created before ``clock``, and ``[0, _front)``
    those past their patience.  The match columns ``_t_match``, ``_driver``,
    ``_pickup_km`` and ``_radius_km`` are written once, when an order
    matches, and ``_t_match`` is NaN until then: an order is open exactly when
    it lies in ``[_front, injected)`` with a NaN ``_t_match``, and ``matched``
    and ``expired`` are counted from that column.  ``snapshot`` holds the
    current window's number, start clock and time of day.  Driver time is
    counted in ticks: ``occupied_ticks`` is the run's occupied driver-ticks.
    """

    def __init__(self, config: SimConfig, stream: OrderStream):
        if stream.grid != config.grid:
            raise ValueError("order stream was built for another grid")
        self.stream = stream
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.injected = 0
        self._front = 0
        self._t_match = np.full(len(stream), np.nan)
        self._driver = np.full(len(stream), -1, dtype=np.int64)
        self._pickup_km = np.full(len(stream), np.nan)
        self._radius_km = np.full(len(stream), np.nan)

        lon = self.rng.uniform(config.grid.lon_min, config.grid.lon_max, size=config.n_drivers)
        lat = self.rng.uniform(config.grid.lat_min, config.grid.lat_max, size=config.n_drivers)
        self.fleet = DriverFleet(*config.grid.to_xy(lon, lat))

        self.clock = 0.0
        self.tick_count = 0
        self.windows: list[MarketWindow] = []
        self.occupied_ticks = 0
        self._begin_window()

    @property
    def open(self) -> np.ndarray:
        """Ids of the open orders, oldest first."""
        return self._front + np.flatnonzero(np.isnan(self._t_match[self._front:self.injected]))

    @property
    def matched(self) -> int:
        """How many orders have matched: the injected ones with a match time."""
        return int(np.count_nonzero(~np.isnan(self._t_match[:self.injected])))

    @property
    def expired(self) -> int:
        """How many orders have expired: those past their patience that never matched."""
        return int(np.count_nonzero(np.isnan(self._t_match[:self._front])))

    @property
    def matches(self) -> list[MatchRecord]:
        """The match log, one record per matched order, built from the match columns in match order."""
        s, ids = self.stream, self._matched_since(-math.inf)
        columns = (ids, self._driver[ids], s.cell[ids], self._t_match[ids], self._pickup_km[ids], s.fare[ids],
                   self._radius_km[ids])
        return [MatchRecord(*row) for row in zip(*(c.tolist() for c in columns))]

    # -- helpers -------------------------------------------------------------

    def _matched_since(self, t: float) -> np.ndarray:
        """Orders matched at ``t`` or later, by match time then id: the broadcast's order."""
        ids = np.flatnonzero(self._t_match[:self.injected] >= t)
        return ids[np.argsort(self._t_match[ids], kind="stable")]

    def _take_snapshot(self) -> WindowSnapshot:
        cfg, g = self.config, self.config.grid.n_cells
        cells = cfg.grid.cells(self.fleet.x, self.fleet.y)
        idle_mask = self.fleet.status == int(DriverStatus.IDLE)
        n_idle = np.bincount(cells[idle_mask], minlength=g)
        n_total = np.bincount(cells, minlength=g)
        n_open = np.bincount(self.stream.cell[self.open], minlength=g)
        return WindowSnapshot(
            window=self.tick_count // cfg.ticks_per_window,
            start_s=self.clock,
            tod=time_of_day(cfg.day_start_s + self.clock),
            n_idle=n_idle,
            n_open=n_open,
            n_total=n_total,
        )

    def _begin_window(self) -> None:
        """Zero the window's driver time, take its snapshot and query its radii."""
        g = self.config.grid.n_cells
        self._win_occupied = np.zeros(g, dtype=np.int64)
        self._win_online = np.zeros(g, dtype=np.int64)
        self.snapshot = self._take_snapshot()
        radii = np.asarray(self.config.radius_source.radii(self.snapshot, self.windows), dtype=float)
        if radii.shape != (g,) or not np.all(np.isfinite(radii) & (radii > 0)):
            raise ValueError("radius source must return finite positive per-grid radii")
        self.radii = radii

    # -- one tick -------------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t0 = self.clock
        tick = cfg.tick_s
        t1 = (self.tick_count + 1) * tick  # the next clock

        # 1. inject orders created in [t0, t1)
        s = self.stream
        self.injected = pos = int(np.searchsorted(s.t_create, t1, side="left"))

        # 2. expire orders past their patience; t0 - t_create falls as t_create
        #    rises, so they are a prefix of the orders not yet expired; the
        #    unmatched ones in that prefix expire
        self._front += int(np.count_nonzero(t0 - s.t_create[self._front:pos] >= cfg.patience_s))

        # 3. broadcast rounds, oldest order first; a driver gets one bid per tick
        self._broadcast(t0)

        # 4. move pickup / in-service drivers toward their targets
        self._move(cfg.speed_kmh * tick / 3600.0)
        if cfg.idle_walk_kmh > 0:
            self._idle_walk(cfg.idle_walk_kmh * tick / 3600.0)

        # 5. count occupied / online driver-ticks, attributed by position
        cells = cfg.grid.cells(self.fleet.x, self.fleet.y)
        occupied_mask = self.fleet.status != int(DriverStatus.IDLE)
        self.occupied_ticks += int(np.count_nonzero(occupied_mask))
        self._win_online += np.bincount(cells, minlength=cfg.grid.n_cells)
        self._win_occupied += np.bincount(cells[occupied_mask], minlength=cfg.grid.n_cells)

        # 6. advance the clock; close the window on a boundary
        self.tick_count += 1
        self.clock = t1
        if self.tick_count % cfg.ticks_per_window == 0:
            self._close_window()

    def _match(self, order_id: int, driver: int, pickup_km: float, t: float) -> None:
        """Hand an open order to a driver, who heads for its origin, and write its match columns, once per order."""
        if not (self._front <= order_id < self.injected and math.isnan(self._t_match[order_id])):
            raise ValueError(f"order {order_id} is not open")
        s, fleet = self.stream, self.fleet
        fleet.status[driver] = int(DriverStatus.PICKUP)
        fleet.order_id[driver] = order_id
        self._t_match[order_id] = t
        self._driver[order_id] = driver
        self._pickup_km[order_id] = pickup_km
        self._radius_km[order_id] = self.radii[s.cell[order_id]]

    def _broadcast(self, t0: float) -> None:
        """Offer each open order, oldest first, to the free drivers in its grid's radius; one of its accepters wins.

        Distances are taken ``BROADCAST_ROWS`` open orders at a time against the drivers still free, idle
        and yet to bid this tick, so the work follows the bids, not open x idle, and stops once no driver
        is free.  Only the rows that reach a driver get a round: a round without candidates draws no
        numbers, so skipping it keeps every draw.  Accepters have bid, so their columns are cleared and the
        rows still ahead that reach nobody drop out.  Candidates stay in driver-index order, as in a scan of
        the whole fleet, and map back through ``drivers``.
        """
        s, fleet, orders = self.stream, self.fleet, self.open
        free = fleet.status == int(DriverStatus.IDLE)
        for block in np.split(orders, range(BROADCAST_ROWS, len(orders), BROADCAST_ROWS)):
            drivers = np.flatnonzero(free)
            if not len(drivers):
                break
            dist = np.hypot(fleet.x[drivers] - s.ox[block, None], fleet.y[drivers] - s.oy[block, None])
            reach = dist <= self.radii[s.cell[block]][:, None]
            live = np.flatnonzero(reach.any(axis=1))
            while len(live):
                row, live = live[0], live[1:]
                cand = np.flatnonzero(reach[row])
                accepters = cand[sample_accepts(self.config.acceptance, dist[row, cand], s.fare[block[row]], self.rng)]
                if len(accepters):
                    reach[:, accepters], free[drivers[accepters]] = False, False
                    live = live[reach[live].any(axis=1)]
                    winner = int(accepters[int(self.rng.integers(len(accepters)))])
                    self._match(int(block[row]), int(drivers[winner]), float(dist[row, winner]), t0)

    def _move(self, step_km: float) -> None:
        """Step busy drivers toward their order's origin (``PICKUP``), to board, or its destination, to idle."""
        s, fleet = self.stream, self.fleet
        busy = np.flatnonzero(fleet.status != int(DriverStatus.IDLE))
        oid = fleet.order_id[busy]
        pickup = fleet.status[busy] == int(DriverStatus.PICKUP)
        tx = np.where(pickup, s.ox[oid], s.dx[oid])
        ty = np.where(pickup, s.oy[oid], s.dy[oid])
        dx, dy = tx - fleet.x[busy], ty - fleet.y[busy]
        dist = np.hypot(dx, dy)
        going = dist > step_km
        fleet.x[busy[going]] += dx[going] / dist[going] * step_km
        fleet.y[busy[going]] += dy[going] / dist[going] * step_km
        fleet.x[busy[~going]] = tx[~going]
        fleet.y[busy[~going]] = ty[~going]
        boarded, dropped = busy[~going & pickup], busy[~going & ~pickup]
        fleet.status[boarded] = int(DriverStatus.IN_SERVICE)
        fleet.status[dropped] = int(DriverStatus.IDLE)
        fleet.order_id[dropped] = -1

    def _idle_walk(self, step_km: float) -> None:
        fleet, grid = self.fleet, self.config.grid
        idle = np.flatnonzero(fleet.status == int(DriverStatus.IDLE))
        theta = self.rng.uniform(0.0, 2 * np.pi, size=len(idle))
        fleet.x[idle] = np.clip(fleet.x[idle] + step_km * np.cos(theta), 0.0, np.nextafter(grid.x_max, 0))
        fleet.y[idle] = np.clip(fleet.y[idle] + step_km * np.sin(theta), 0.0, np.nextafter(grid.y_max, 0))

    def _close_window(self) -> None:
        """Append one row per grid for the window ``[snapshot.start_s, clock)`` now ending.

        Created orders are those injected in it, from the first created at
        ``start_s`` on, and every order matched from its first tick on counts
        towards pickup distance and revenue.  The fulfilment rate counts only
        the matches of orders created in the window (``t_create >= start_s``,
        the injection rule on the same clock), which keeps it in [0, 1] when
        orders carried over from earlier windows match here.  Utilisation is
        occupied over online driver-ticks.  Empty denominators give zeros.
        Pickup distance is ``np.mean`` over a grid's pickups in match order,
        and revenue sums its fares in that order.
        """
        s, snap, n = self.stream, self.snapshot, self.config.grid.n_cells
        oid = self._matched_since(snap.start_s)
        grid = s.cell[oid]
        created = np.bincount(s.cell[np.searchsorted(s.t_create, snap.start_s):self.injected], minlength=n)
        cohort = np.bincount(grid[s.t_create[oid] >= snap.start_s], minlength=n)
        n_matched = np.bincount(grid, minlength=n)
        pickups = np.split(self._pickup_km[oid][np.argsort(grid, kind="stable")], np.cumsum(n_matched)[:-1])
        columns = dict(
            n_idle=snap.n_idle, n_open=snap.n_open, n_total=snap.n_total,
            ofr=np.divide(cohort, created, out=np.zeros(n), where=created > 0),
            apd_km=np.array([np.mean(p) if len(p) else 0.0 for p in pickups]),
            dur=np.divide(self._win_occupied, self._win_online, out=np.zeros(n), where=self._win_online > 0),
            revenue=np.bincount(grid, weights=s.fare[oid], minlength=n).astype(float),  # int when nothing matched
            radius_km=self.radii,
        )
        for g, row in enumerate(zip(*(c.tolist() for c in columns.values()))):
            self.windows.append(MarketWindow(grid=g, window=snap.window, start_s=snap.start_s, tod=snap.tod,
                                             **dict(zip(columns, row))))
        self._begin_window()

    # -- episode -------------------------------------------------------------

    def summary(self) -> EpisodeSummary:
        """Episode totals from the match columns; every driver is online every tick."""
        ids = self._matched_since(-math.inf)
        online = self.config.n_drivers * self.tick_count
        return EpisodeSummary(
            ofr=self.matched / self.injected if self.injected else 0.0,
            dur=self.occupied_ticks / online if online > 0 else 0.0,
            revenue=float(sum(self.stream.fare[ids].tolist())),  # a running sum in match order
            apd_km=float(np.mean(self._pickup_km[ids])) if self.matched else 0.0,
            created=self.injected,
            matched=self.matched,
            expired=self.expired,
            open_at_end=len(self.open),
        )


@dataclass(frozen=True)
class EpisodeResult:
    windows: list[MarketWindow]
    summary: EpisodeSummary
    matches: list[MatchRecord]


def run(config: SimConfig, stream: OrderStream, horizon_s: float) -> EpisodeResult:
    """Replay a full episode and aggregate its metrics.

    The horizon must be a whole number of metric windows so the log is clean.
    """
    ratio = horizon_s / config.window_s
    # NaN would pass both comparisons after it, and round() raises on NaN and inf
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
        raise ValueError("horizon must be a finite, positive multiple of the metric window")
    sim = Simulation(config, stream)
    for _ in range(int(round(horizon_s / config.tick_s))):
        sim.step()
    return EpisodeResult(windows=sim.windows, summary=sim.summary(), matches=sim.matches)
