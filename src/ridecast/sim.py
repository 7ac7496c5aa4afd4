"""Discrete-time simulator of the broadcasting matching mode.

Every tick: new orders are injected, stale ones expire, each open order is
broadcast to idle drivers within its grid's radius (drivers sample a grab
decision; one winner is drawn among accepters), moving drivers advance along
straight segments, and time accounting is updated.  At metric-window
boundaries, per-grid market rows are emitted and the radius source is asked
for the next window's radii.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .behavior import AcceptanceModel, sample_accepts
from .market import (
    DriverStatus,
    GridSpec,
    LocalProjection,
    MarketWindow,
    MatchRecord,
    Order,
    metrics_from_tallies,
    time_of_day,
)


@dataclass(frozen=True)
class WindowSnapshot:
    """Per-grid market state captured at a window start."""

    window: int
    start_s: float
    tod: int
    n_idle: np.ndarray    # (n_cells,)
    n_open: np.ndarray
    n_total: np.ndarray


class RadiusSource(Protocol):
    """Supplies per-grid radii (km) for the window about to begin."""

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray: ...


class FixedRadius:
    def __init__(self, radius_km: float, n_cells: int):
        if not (radius_km > 0):
            raise ValueError("radius must be > 0")
        self._radii = np.full(n_cells, float(radius_km))

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        return self._radii


class ScheduleRadius:
    """Per-window, per-grid radius table; windows beyond the table reuse the last row."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.size == 0 or not np.all(table > 0):
            raise ValueError("schedule must be a nonempty, positive (n_windows, n_cells) table")
        self._table = table

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        row = min(snapshot.window, len(self._table) - 1)
        return self._table[row]


class RandomRadius:
    """Uniform draw from a candidate set, per grid per window (exploration)."""

    def __init__(self, candidates: Sequence[float], n_cells: int, seed: int):
        if not candidates or not all(c > 0 for c in candidates):
            raise ValueError("candidates must be positive")
        self._candidates = np.asarray(candidates, dtype=float)
        self._n_cells = n_cells
        self._rng = np.random.default_rng(seed)

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        return self._rng.choice(self._candidates, size=self._n_cells)


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
        if self.n_drivers < 1:
            raise ValueError("need at least one driver")
        if self.speed_kmh <= 0:
            raise ValueError("vehicle speed must be > 0")
        ratio = self.window_s / self.tick_s
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError("tick must divide the metric window")
        if self.patience_s < self.tick_s:
            raise ValueError("patience must be at least one tick")

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
    and ``0 <= occupied_s <= online_s``.
    """

    def __init__(self, n: int, x: np.ndarray, y: np.ndarray):
        self.n = n
        self.x = x.astype(float)
        self.y = y.astype(float)
        self.status = np.full(n, int(DriverStatus.IDLE), dtype=np.int8)
        self.target_x = np.zeros(n)
        self.target_y = np.zeros(n)
        self.order_id = np.full(n, -1, dtype=np.int64)
        self.occupied_s = np.zeros(n)
        self.online_s = np.zeros(n)


class Simulation:
    """Mutable world state plus the tick loop; deterministic given (config, stream).

    The orders are never modified: every per-run fact about them (open,
    matched, expired) lives here, so one stream can be run any number of times.
    """

    def __init__(self, config: SimConfig, stream: Sequence[Order]):
        self.stream = tuple(stream)
        times = [o.t_create for o in self.stream]
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("order stream must be sorted by creation time")
        self.config = config
        self.proj = LocalProjection(config.grid)
        self.rng = np.random.default_rng(config.seed)
        self._stream_pos = 0
        ox, oy = self.proj.to_xy([o.origin_lon for o in self.stream], [o.origin_lat for o in self.stream])
        dx, dy = self.proj.to_xy([o.dest_lon for o in self.stream], [o.dest_lat for o in self.stream])
        self._order_km = {
            o.id: km for o, km in zip(self.stream, zip(ox.tolist(), oy.tolist(), dx.tolist(), dy.tolist()))
        }
        if len(self._order_km) != len(self.stream):
            raise ValueError("order ids must be unique")
        g = config.grid.n_cells
        for o in self.stream:
            if not 0 <= o.grid < g:
                raise ValueError(f"order {o.id} has grid {o.grid}, outside the {g} cells")

        lon = self.rng.uniform(config.grid.lon_min, config.grid.lon_max, size=config.n_drivers)
        lat = self.rng.uniform(config.grid.lat_min, config.grid.lat_max, size=config.n_drivers)
        x, y = self.proj.to_xy(lon, lat)
        self.fleet = DriverFleet(config.n_drivers, x, y)

        self.clock = 0.0
        self.tick_count = 0
        self.open: dict[int, Order] = {}      # insertion order == injection order
        self.windows: list[MarketWindow] = []
        self.matches: list[MatchRecord] = []
        self.injected = 0
        self.matched = 0
        self.expired = 0

        self._win_created = np.zeros(g, dtype=np.int64)
        self._win_cohort = np.zeros(g, dtype=np.int64)
        self._win_dists: list[list[float]] = [[] for _ in range(g)]
        self._win_fares: list[list[float]] = [[] for _ in range(g)]
        self._win_occupied = np.zeros(g)
        self._win_online = np.zeros(g)

        self.window_index = 0
        self.snapshot = self._take_snapshot()
        self.radii = self._query_radii()

    # -- helpers -------------------------------------------------------------

    def _driver_cells(self) -> np.ndarray:
        n = self.config.grid.side_count
        col = np.clip((self.fleet.x / (self.proj.x_max / n)).astype(int), 0, n - 1)
        row = np.clip((self.fleet.y / (self.proj.y_max / n)).astype(int), 0, n - 1)
        return row * n + col

    def _take_snapshot(self) -> WindowSnapshot:
        g = self.config.grid.n_cells
        cells = self._driver_cells()
        idle_mask = self.fleet.status == int(DriverStatus.IDLE)
        n_idle = np.bincount(cells[idle_mask], minlength=g)
        n_total = np.bincount(cells, minlength=g)
        n_open = np.zeros(g, dtype=np.int64)
        for o in self.open.values():
            n_open[o.grid] += 1
        return WindowSnapshot(
            window=self.window_index,
            start_s=self.clock,
            tod=int(time_of_day(self.config.day_start_s + self.clock)),
            n_idle=n_idle,
            n_open=n_open,
            n_total=n_total,
        )

    def _query_radii(self) -> np.ndarray:
        radii = np.asarray(self.config.radius_source.radii(self.snapshot, self.windows), dtype=float)
        if radii.shape != (self.config.grid.n_cells,) or not np.all(np.isfinite(radii) & (radii > 0)):
            raise ValueError("radius source must return finite positive per-grid radii")
        return radii

    # -- one tick -------------------------------------------------------------

    def step(self) -> None:
        cfg = self.config
        t0 = self.clock
        tick = cfg.tick_s

        # 1. inject orders created in [t0, t0 + tick)
        while self._stream_pos < len(self.stream) and self.stream[self._stream_pos].t_create < t0 + tick:
            o = self.stream[self._stream_pos]
            self._stream_pos += 1
            self.open[o.id] = o
            self.injected += 1
            self._win_created[o.grid] += 1

        # 2. expire orders past their patience
        for oid in [oid for oid, o in self.open.items() if t0 - o.t_create >= cfg.patience_s]:
            self._close(oid)
            self.expired += 1

        # 3. broadcast rounds, oldest order first; a driver gets one bid per tick
        fleet = self.fleet
        bid = np.zeros(fleet.n, dtype=bool)
        for oid in list(self.open.keys()):
            o = self.open[oid]
            ox, oy, _, _ = self._order_km[oid]
            dist = np.hypot(fleet.x - ox, fleet.y - oy)
            in_radius = (
                (fleet.status == int(DriverStatus.IDLE)) & ~bid & (dist <= self.radii[o.grid])
            )
            cand = np.flatnonzero(in_radius)
            accepters = cand[sample_accepts(cfg.acceptance, dist[cand], o.fare, self.rng)]
            if len(accepters) == 0:
                continue
            bid[accepters] = True
            winner = int(accepters[int(self.rng.integers(len(accepters)))])
            self._match(o, winner, float(dist[winner]), t0)

        # 4. move pickup / in-service drivers toward their targets
        self._move(cfg.speed_kmh * tick / 3600.0)
        if cfg.idle_walk_kmh > 0:
            self._idle_walk(cfg.idle_walk_kmh * tick / 3600.0)

        # 5. accumulate occupied / online driver time, attributed by position
        cells = self._driver_cells()
        occupied_mask = fleet.status != int(DriverStatus.IDLE)
        fleet.online_s += tick
        fleet.occupied_s[occupied_mask] += tick
        self._win_online += np.bincount(cells, minlength=cfg.grid.n_cells) * tick
        self._win_occupied += np.bincount(cells[occupied_mask], minlength=cfg.grid.n_cells) * tick

        # 6. advance the clock; close the window on a boundary
        self.tick_count += 1
        self.clock = self.tick_count * tick
        self._check_conservation()
        if self.tick_count % cfg.ticks_per_window == 0:
            self._close_window()

    def _close(self, order_id: int) -> None:
        """Take an order out of the open set; an order leaves it exactly once."""
        if self.open.pop(order_id, None) is None:
            raise ValueError(f"order {order_id} is not open")

    def _match(self, order: Order, driver: int, pickup_km: float, t: float) -> None:
        self._close(order.id)
        self.matched += 1
        fleet = self.fleet
        ox, oy, _, _ = self._order_km[order.id]
        fleet.status[driver] = int(DriverStatus.PICKUP)
        fleet.target_x[driver] = ox
        fleet.target_y[driver] = oy
        fleet.order_id[driver] = order.id
        g = order.grid
        if order.t_create >= self.window_index * self.config.window_s:
            self._win_cohort[g] += 1
        self._win_dists[g].append(pickup_km)
        self._win_fares[g].append(order.fare)
        self.matches.append(
            MatchRecord(
                order_id=order.id,
                driver_id=driver,
                grid=g,
                t_match=t,
                pickup_km=pickup_km,
                fare=order.fare,
                radius_km=float(self.radii[g]),
            )
        )

    def _move(self, step_km: float) -> None:
        fleet = self.fleet
        busy = np.flatnonzero(fleet.status != int(DriverStatus.IDLE))
        for i in busy:
            dx = fleet.target_x[i] - fleet.x[i]
            dy = fleet.target_y[i] - fleet.y[i]
            dist = float(np.hypot(dx, dy))
            if dist > step_km:
                fleet.x[i] += dx / dist * step_km
                fleet.y[i] += dy / dist * step_km
                continue
            fleet.x[i] = fleet.target_x[i]
            fleet.y[i] = fleet.target_y[i]
            if fleet.status[i] == int(DriverStatus.PICKUP):
                # passenger aboard; head for the destination
                _, _, dxk, dyk = self._order_km[int(fleet.order_id[i])]
                fleet.status[i] = int(DriverStatus.IN_SERVICE)
                fleet.target_x[i] = dxk
                fleet.target_y[i] = dyk
            else:
                fleet.status[i] = int(DriverStatus.IDLE)
                fleet.order_id[i] = -1

    def _idle_walk(self, step_km: float) -> None:
        fleet = self.fleet
        idle = np.flatnonzero(fleet.status == int(DriverStatus.IDLE))
        if len(idle) == 0:
            return
        theta = self.rng.uniform(0.0, 2 * np.pi, size=len(idle))
        nx = np.clip(fleet.x[idle] + step_km * np.cos(theta), 0.0, np.nextafter(self.proj.x_max, 0))
        ny = np.clip(fleet.y[idle] + step_km * np.sin(theta), 0.0, np.nextafter(self.proj.y_max, 0))
        fleet.x[idle] = nx
        fleet.y[idle] = ny

    def _check_conservation(self) -> None:
        if self.matched + self.expired + len(self.open) != self.injected:
            raise AssertionError(
                f"order conservation violated at tick {self.tick_count}: "
                f"{self.matched}+{self.expired}+{len(self.open)} != {self.injected}"
            )

    def _close_window(self) -> None:
        cfg = self.config
        start = self.window_index * cfg.window_s
        tod = time_of_day(cfg.day_start_s + start)
        for g in range(cfg.grid.n_cells):
            m = metrics_from_tallies(
                int(self._win_created[g]),
                int(self._win_cohort[g]),
                self._win_dists[g],
                self._win_fares[g],
                float(self._win_occupied[g]),
                float(self._win_online[g]),
            )
            self.windows.append(
                MarketWindow(
                    grid=g,
                    window=self.window_index,
                    start_s=start,
                    n_idle=int(self.snapshot.n_idle[g]),
                    n_open=int(self.snapshot.n_open[g]),
                    n_total=int(self.snapshot.n_total[g]),
                    ofr=m.ofr,
                    apd_km=m.apd_km,
                    dur=m.dur,
                    revenue=m.revenue,
                    radius_km=float(self.radii[g]),
                    tod=tod,
                )
            )
        g = cfg.grid.n_cells
        self._win_created = np.zeros(g, dtype=np.int64)
        self._win_cohort = np.zeros(g, dtype=np.int64)
        self._win_dists = [[] for _ in range(g)]
        self._win_fares = [[] for _ in range(g)]
        self._win_occupied = np.zeros(g)
        self._win_online = np.zeros(g)
        self.window_index += 1
        self.snapshot = self._take_snapshot()
        self.radii = self._query_radii()

    # -- episode -------------------------------------------------------------

    def summary(self) -> EpisodeSummary:
        pickups = [m.pickup_km for m in self.matches]
        total_online = float(self.fleet.online_s.sum())
        return EpisodeSummary(
            ofr=self.matched / self.injected if self.injected else 0.0,
            dur=float(self.fleet.occupied_s.sum()) / total_online if total_online > 0 else 0.0,
            revenue=float(sum(m.fare for m in self.matches)),
            apd_km=float(np.mean(pickups)) if pickups else 0.0,
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


def run(config: SimConfig, stream: Sequence[Order], horizon_s: float) -> EpisodeResult:
    """Replay a full episode and aggregate its metrics.

    The horizon must be a whole number of metric windows so the log is clean.
    """
    ratio = horizon_s / config.window_s
    if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
        raise ValueError("horizon must be a positive multiple of the metric window")
    sim = Simulation(config, stream)
    for _ in range(int(round(horizon_s / config.tick_s))):
        sim.step()
    return EpisodeResult(windows=sim.windows, summary=sim.summary(), matches=sim.matches)
