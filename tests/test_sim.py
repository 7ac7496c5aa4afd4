import dataclasses
import hashlib

import numpy as np
import pytest

from ridecast.behavior import AcceptanceModel
from ridecast.market import DriverStatus, GridSpec, Order, grid_index
from ridecast.sim import (
    EpisodeSummary,
    FixedRadius,
    RandomRadius,
    ScheduleRadius,
    SimConfig,
    Simulation,
    run,
)

# ~11.1 km square box split 4x4; 1 km north is +1/110.574 degrees latitude
BOX = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=0.1, lat_max=0.1, side_count=4)
KM_LAT = 1.0 / 110.574


def forced(beta0=50.0):
    return AcceptanceModel(beta0=beta0, beta1=0.0, beta2=0.0, sigma=0.0)


def mkconfig(radius=1.0, drivers=1, accept=None, seed=0, **kw):
    return SimConfig(
        grid=BOX,
        n_drivers=drivers,
        speed_kmh=20.0,
        radius_source=FixedRadius(radius, BOX.n_cells),
        acceptance=accept or forced(),
        seed=seed,
        **kw,
    )


def mkorder(oid, t, lon, lat, dlon=None, dlat=None, fare=5.0):
    return Order(id=oid, t_create=t, origin_lon=lon, origin_lat=lat,
                 dest_lon=dlon if dlon is not None else lon,
                 dest_lat=dlat if dlat is not None else lat,
                 fare=fare, grid=grid_index(lon, lat, BOX))


def sorted_stream(draws):
    """Orders from (t, lon, lat[, dlon, dlat[, fare]]) draws, ids in creation order."""
    return [mkorder(i, *d) for i, d in enumerate(sorted(draws, key=lambda d: d[0]))]


def random_stream(seed, n, t_max):
    """n orders with uniform creation times, in-box trips and fares."""
    rng = np.random.default_rng(seed)
    return sorted_stream((float(rng.uniform(0, t_max)), *rng.uniform(0.01, 0.09, 4), float(rng.uniform(3, 20)))
                         for _ in range(n))


def trace_digest(res):
    rows = [dataclasses.astuple(m) for m in res.matches] + [dataclasses.astuple(w) for w in res.windows]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def place(sim, positions):
    """Pin driver lon/lat positions and refresh the window-start snapshot."""
    lons = np.array([p[0] for p in positions])
    lats = np.array([p[1] for p in positions])
    x, y = sim.proj.to_xy(lons, lats)
    sim.fleet.x[:] = x
    sim.fleet.y[:] = y
    sim.snapshot = sim._take_snapshot()


class TestBroadcastMatching:
    def test_colocated_forced_match(self):
        order = mkorder(0, 0.0, 0.05, 0.05)
        sim = Simulation(mkconfig(radius=1.0), [order])
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert [(m.order_id, m.t_match, m.pickup_km) for m in sim.matches] == [(0, 0.0, 0.0)]
        assert not sim.open
        for _ in range(29):
            sim.step()
        w = [w for w in sim.windows if w.grid == order.grid][0]
        assert w.ofr == 1.0 and w.apd_km == 0.0 and w.revenue == 5.0

    def test_out_of_radius_order_expires(self):
        order = mkorder(0, 0.0, 0.05, 0.05)
        sim = Simulation(mkconfig(radius=1.0, patience_s=300.0), [order])
        place(sim, [(0.05, 0.05 + 2.0 * KM_LAT)])  # 2 km away, radius 1 km
        for _ in range(60):
            sim.step()
        assert not sim.open and not sim.matches
        assert sim.windows[order.grid].ofr == 0.0
        assert sim.expired == 1 and sim.matched == 0

    def test_two_drivers_one_winner_deterministic(self):
        def build():
            order = mkorder(0, 0.0, 0.05, 0.05)
            sim = Simulation(mkconfig(radius=1.0, drivers=2, seed=7), [order])
            place(sim, [(0.05, 0.05 + 0.5 * KM_LAT), (0.05, 0.05 - 0.5 * KM_LAT)])
            sim.step()
            return sim

        sims = [build() for _ in range(3)]
        winners = [int(np.flatnonzero(s.fleet.status != int(DriverStatus.IDLE))[0]) for s in sims]
        assert winners[0] == winners[1] == winners[2]
        for s in sims:
            assert (s.fleet.status == int(DriverStatus.IDLE)).sum() == 1
            assert s.matched == 1

    def test_one_bid_per_driver_per_tick(self):
        # one forced-accept driver near two simultaneous orders: the first
        # (oldest) gets matched, the second must wait for the next tick
        orders = [mkorder(0, 0.0, 0.05, 0.05), mkorder(1, 0.0, 0.05, 0.05 + 0.2 * KM_LAT)]
        sim = Simulation(mkconfig(radius=2.0), orders)
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert [m.order_id for m in sim.matches] == [0]
        assert list(sim.open) == [1]

    def test_rejecting_driver_may_consider_later_orders(self):
        # driver rejects everything; both orders stay open, nobody is consumed
        orders = [mkorder(0, 0.0, 0.05, 0.05), mkorder(1, 0.0, 0.05, 0.05 + 0.2 * KM_LAT)]
        sim = Simulation(mkconfig(radius=2.0, accept=forced(-50.0)), orders)
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert list(sim.open) == [0, 1]
        assert not sim.matches

    def test_pickup_distance_never_exceeds_radius(self):
        rng = np.random.default_rng(0)
        draws = []
        for _ in range(120):
            lon, lat = rng.uniform(0.01, 0.09, size=2)
            dlon, dlat = rng.uniform(0.01, 0.09, size=2)
            draws.append((float(rng.uniform(0, 1700)), lon, lat, dlon, dlat))
        stream = sorted_stream(draws)
        res = run(mkconfig(radius=1.5, drivers=12, accept=AcceptanceModel()), stream, horizon_s=1800.0)
        assert res.summary.matched > 0
        for m in res.matches:
            assert m.pickup_km <= m.radius_km + 1e-12


class TestLifecycleAndConservation:
    def test_order_leaves_open_set_once(self):
        order = mkorder(0, 0.0, 0.05, 0.05)
        sim = Simulation(mkconfig(radius=1.0), [order])
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert sim.matched == 1
        with pytest.raises(ValueError):
            sim._match(order, 0, 0.0, sim.clock)
        with pytest.raises(ValueError):
            sim._close(order.id)

        sim = Simulation(mkconfig(radius=1.0, patience_s=10.0), [order])
        place(sim, [(0.05, 0.05 + 2.0 * KM_LAT)])
        sim.step()
        sim.step()
        assert sim.expired == 1
        with pytest.raises(ValueError):
            sim._match(order, 0, 0.0, sim.clock)

    def test_driver_transitions_to_idle_at_destination(self):
        order = mkorder(0, 0.0, 0.05, 0.05, dlon=0.05, dlat=0.05 + 1.0 * KM_LAT)
        sim = Simulation(mkconfig(radius=1.0), [order])
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert sim.fleet.status[0] == int(DriverStatus.IN_SERVICE)
        # 1 km at 20 km/h = 180 s = 18 ticks
        for _ in range(19):
            sim.step()
        assert sim.fleet.status[0] == int(DriverStatus.IDLE)
        assert sim.fleet.order_id[0] == -1
        d = sim.fleet.as_driver(0, sim.proj)
        assert d.lat == pytest.approx(0.05 + KM_LAT, abs=1e-9)
        assert 0 < d.occupied_s <= d.online_s

    def test_conservation_every_tick(self):
        rng = np.random.default_rng(1)
        stream = sorted_stream((float(rng.uniform(0, 1500)), *rng.uniform(0.01, 0.09, 2)) for _ in range(80))
        sim = Simulation(mkconfig(radius=1.0, drivers=6, accept=AcceptanceModel(), patience_s=200.0), stream)
        for _ in range(180):
            sim.step()
            assert sim.matched + sim.expired + len(sim.open) == sim.injected

    def test_each_order_matched_at_most_once(self):
        rng = np.random.default_rng(2)
        stream = sorted_stream((float(rng.uniform(0, 800)), *rng.uniform(0.01, 0.09, 2)) for _ in range(60))
        res = run(mkconfig(radius=3.0, drivers=10, accept=AcceptanceModel()), stream, horizon_s=900.0)
        ids = [m.order_id for m in res.matches]
        assert len(ids) == len(set(ids))

    def test_zero_orders_zero_summary(self):
        res = run(mkconfig(drivers=3), [], horizon_s=600.0)
        s = res.summary
        assert s == EpisodeSummary(ofr=0.0, dur=0.0, revenue=0.0, apd_km=0.0,
                                   created=0, matched=0, expired=0, open_at_end=0)
        assert len(res.windows) == 2 * BOX.n_cells

    def test_window_snapshot_counts(self):
        sim = Simulation(mkconfig(drivers=5), [])
        for _ in range(30):
            sim.step()
        first = sim.windows[: BOX.n_cells]
        assert sum(w.n_total for w in first) == 5
        assert all(w.n_idle <= w.n_total for w in first)
        assert all(w.n_open == 0 for w in first)


class TestDeterminism:
    def _stream(self):
        rng = np.random.default_rng(3)
        return sorted_stream((float(rng.uniform(0, 1400)), *rng.uniform(0.01, 0.09, 2)) for _ in range(100))

    def test_identical_logs_for_identical_seed(self):
        r1 = run(mkconfig(radius=2.0, drivers=8, accept=AcceptanceModel(), seed=11), self._stream(), 1500.0)
        r2 = run(mkconfig(radius=2.0, drivers=8, accept=AcceptanceModel(), seed=11), self._stream(), 1500.0)
        assert r1.windows == r2.windows
        assert r1.matches == r2.matches
        assert r1.summary == r2.summary

    def test_different_seed_differs(self):
        r1 = run(mkconfig(radius=2.0, drivers=8, accept=AcceptanceModel(), seed=11), self._stream(), 1500.0)
        r2 = run(mkconfig(radius=2.0, drivers=8, accept=AcceptanceModel(), seed=12), self._stream(), 1500.0)
        assert r1.matches != r2.matches

    def test_golden_trace(self):
        # pinned match and window log of one fixed-seed episode; a refactor
        # that is meant to keep behaviour must keep this digest
        def config():  # RandomRadius draws from its own generator, so each run needs a fresh one
            return dataclasses.replace(
                mkconfig(drivers=30, accept=AcceptanceModel(), seed=21, idle_walk_kmh=5.0),
                radius_source=RandomRadius([0.5, 1.0, 2.0], BOX.n_cells, seed=4),
            )

        stream = random_stream(9, 150, 1750.0)
        res = run(config(), stream, horizon_s=1800.0)
        assert 0 < res.summary.matched < res.summary.created
        assert trace_digest(res) == "f1430f4f44211be439eb43c77a4ceab69d7c8c27c5d9d825c1fcd89489871904"
        # the stream is not consumed: a second run over the same objects replays the episode
        assert run(config(), stream, horizon_s=1800.0) == res

    def test_duplicate_order_ids_rejected(self):
        stream = [mkorder(0, 0.0, 0.05, 0.05), mkorder(0, 10.0, 0.05, 0.05)]
        with pytest.raises(ValueError):
            Simulation(mkconfig(), stream)

    def test_unsorted_stream_rejected(self):
        stream = [mkorder(0, 100.0, 0.05, 0.05), mkorder(1, 50.0, 0.05, 0.05)]
        with pytest.raises(ValueError):
            Simulation(mkconfig(), stream)


class TestRadiusSources:
    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedRadius(0.0, 16)

    def test_non_finite_radii_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            FixedRadius(nan, 16)
        with pytest.raises(ValueError):
            ScheduleRadius(np.full((2, 16), nan))
        with pytest.raises(ValueError):
            ScheduleRadius(np.zeros((0, 16)))
        with pytest.raises(ValueError):
            RandomRadius([1.0, nan], 16, seed=0)

        class ConstantRadius:
            def __init__(self, value):
                self.value = value

            def radii(self, snapshot, history):
                return np.full(BOX.n_cells, self.value)

        for bad in (nan, float("inf")):
            with pytest.raises(ValueError):
                Simulation(dataclasses.replace(mkconfig(), radius_source=ConstantRadius(bad)), [])

    def test_schedule_rows_apply_per_window(self):
        table = np.vstack([np.full(16, 1.0), np.full(16, 3.0)])
        sim = Simulation(dataclasses.replace(mkconfig(), radius_source=ScheduleRadius(table)), [])
        assert sim.radii[0] == 1.0
        for _ in range(30):
            sim.step()
        assert sim.radii[0] == 3.0
        for _ in range(30):
            sim.step()
        assert sim.radii[0] == 3.0  # table exhausted, last row reused

    def test_random_source_is_seeded(self):
        a = RandomRadius([1.0, 2.0, 3.0], 16, seed=5)
        b = RandomRadius([1.0, 2.0, 3.0], 16, seed=5)
        snap = Simulation(mkconfig(), []).snapshot
        np.testing.assert_array_equal(a.radii(snap, []), b.radii(snap, []))
        assert set(np.unique(a.radii(snap, []))) <= {1.0, 2.0, 3.0}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mkconfig(tick_s=7.0)  # does not divide 300
        with pytest.raises(ValueError):
            mkconfig(patience_s=5.0)
        with pytest.raises(ValueError):
            run(mkconfig(), [], horizon_s=450.0)  # not a whole window


class TestIdleWalk:
    def test_walk_keeps_drivers_in_area_and_changes_positions(self):
        cfg = mkconfig(drivers=10, idle_walk_kmh=5.0)
        sim = Simulation(cfg, [])
        x0 = sim.fleet.x.copy()
        for _ in range(30):
            sim.step()
        assert np.any(sim.fleet.x != x0)
        assert np.all((sim.fleet.x >= 0) & (sim.fleet.x < sim.proj.x_max))
        assert np.all((sim.fleet.y >= 0) & (sim.fleet.y < sim.proj.y_max))

    def test_default_idle_drivers_stationary(self):
        sim = Simulation(mkconfig(drivers=4), [])
        x0 = sim.fleet.x.copy()
        for _ in range(30):
            sim.step()
        np.testing.assert_array_equal(sim.fleet.x, x0)
