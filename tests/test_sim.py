import copy
import dataclasses
import hashlib
import math

import numpy as np
import pytest
from conftest import compute_window_metrics, stream_from_rows

from ridecast.behavior import AcceptanceModel
from ridecast.demand import default_profile, synth_demand
from ridecast.market import CandidateSet, DriverStatus, GridSpec, TimeOfDay
from ridecast.sim import (
    EpisodeSummary,
    FixedRadius,
    RandomRadius,
    ScheduleRadius,
    SimConfig,
    Simulation,
    WindowSnapshot,
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


def mkrow(t, lon, lat, dlon=None, dlat=None, fare=5.0):
    """One stream row; a trip without a destination ends where it starts."""
    return (t, lon, lat, dlon if dlon is not None else lon, dlat if dlat is not None else lat, fare)


def sorted_stream(draws):
    """Stream from (t, lon, lat[, dlon, dlat[, fare]]) draws, ids in creation order."""
    return stream_from_rows(BOX, [mkrow(*d) for d in sorted(draws, key=lambda d: d[0])])


EMPTY = stream_from_rows(BOX, [])


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
    x, y = sim.config.grid.to_xy(lons, lats)
    sim.fleet.x[:] = x
    sim.fleet.y[:] = y
    sim.snapshot = sim._take_snapshot()


class TestBroadcastMatching:
    def test_colocated_forced_match(self):
        stream = sorted_stream([(0.0, 0.05, 0.05)])
        sim = Simulation(mkconfig(radius=1.0), stream)
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert [(m.order_id, m.t_match, m.pickup_km) for m in sim.matches] == [(0, 0.0, 0.0)]
        assert len(sim.open) == 0
        for _ in range(29):
            sim.step()
        w = [w for w in sim.windows if w.grid == stream.cell[0]][0]
        assert w.ofr == 1.0 and w.apd_km == 0.0 and w.revenue == 5.0

    def test_out_of_radius_order_expires(self):
        stream = sorted_stream([(0.0, 0.05, 0.05)])
        sim = Simulation(mkconfig(radius=1.0, patience_s=300.0), stream)
        place(sim, [(0.05, 0.05 + 2.0 * KM_LAT)])  # 2 km away, radius 1 km
        for _ in range(60):
            sim.step()
        assert len(sim.open) == 0 and not sim.matches
        assert sim.windows[stream.cell[0]].ofr == 0.0
        assert sim.expired == 1 and sim.matched == 0

    def test_two_drivers_one_winner_deterministic(self):
        def build():
            sim = Simulation(mkconfig(radius=1.0, drivers=2, seed=7), sorted_stream([(0.0, 0.05, 0.05)]))
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
        orders = sorted_stream([(0.0, 0.05, 0.05), (0.0, 0.05, 0.05 + 0.2 * KM_LAT)])
        sim = Simulation(mkconfig(radius=2.0), orders)
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert [m.order_id for m in sim.matches] == [0]
        assert list(sim.open) == [1]

    def test_rejecting_driver_may_consider_later_orders(self):
        # driver rejects everything; both orders stay open, nobody is consumed
        orders = sorted_stream([(0.0, 0.05, 0.05), (0.0, 0.05, 0.05 + 0.2 * KM_LAT)])
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
        stream = sorted_stream([(0.0, 0.05, 0.05), (100.0, 0.05, 0.05)])
        sim = Simulation(mkconfig(radius=1.0), stream)
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert sim.matched == 1
        with pytest.raises(ValueError, match="order 0 is not open"):
            sim._match(0, 0, 0.0, sim.clock)
        with pytest.raises(ValueError, match="order 1 is not open"):
            sim._match(1, 0, 0.0, sim.clock)  # not injected yet

        sim = Simulation(mkconfig(radius=1.0, patience_s=10.0), stream)
        place(sim, [(0.05, 0.05 + 2.0 * KM_LAT)])
        sim.step()
        sim.step()
        assert sim.expired == 1
        with pytest.raises(ValueError, match="order 0 is not open"):
            sim._match(0, 0, 0.0, sim.clock)
        assert sim.matched == 0 and len(sim.open) == 0

    def test_driver_transitions_to_idle_at_destination(self):
        sim = Simulation(mkconfig(radius=1.0), sorted_stream([(0.0, 0.05, 0.05, 0.05, 0.05 + 1.0 * KM_LAT)]))
        place(sim, [(0.05, 0.05)])
        sim.step()
        assert sim.fleet.status[0] == int(DriverStatus.IN_SERVICE)
        # 1 km at 20 km/h = 180 s = 18 ticks
        for _ in range(19):
            sim.step()
        assert sim.fleet.status[0] == int(DriverStatus.IDLE)
        assert sim.fleet.order_id[0] == -1
        assert sim.fleet.y[0] == pytest.approx(sim.config.grid.to_xy(0.05, 0.05 + KM_LAT)[1], abs=1e-9)
        assert 0 < sim.occupied_ticks <= sim.tick_count  # the one driver's occupied ticks

    def test_conservation_every_tick(self):
        # the counts against a recount from the match log and the stream: an
        # unmatched injected order has expired once the tick's start clock is
        # its patience past its creation
        rng = np.random.default_rng(1)
        stream = sorted_stream((float(rng.uniform(0, 1500)), *rng.uniform(0.01, 0.09, 2)) for _ in range(80))
        sim = Simulation(mkconfig(radius=1.0, drivers=6, accept=AcceptanceModel(), patience_s=200.0), stream)
        expired_any = False
        for _ in range(180):
            t0 = sim.clock
            sim.step()
            matched = {m.order_id for m in sim.matches}
            injected = np.flatnonzero(stream.t_create < sim.clock).tolist()
            expired = [i for i in injected if i not in matched and t0 - stream.t_create[i] >= 200.0]
            assert sim.injected == len(injected)
            assert (sim.matched, sim.expired) == (len(matched), len(expired))
            assert sim.matched + sim.expired + len(sim.open) == sim.injected
            expired_any |= bool(expired)
        assert expired_any and sim.matched > 0

    @pytest.mark.parametrize("window_s, times", [(0.3, [3 * 0.3, 0.95]), (0.2, [0.6, 0.65])])
    def test_window_is_its_interval_on_the_tick_clock(self, window_s, times):
        # a tick of 0.1 s is no binary fraction, so k * window_s, the clock at
        # a window's first tick and that clock plus a tick can differ in the
        # last bit; an order created between them belongs to one window, both
        # in its created count and in its cohort.  Nothing matches until the
        # last window, whose wide radius matches both orders.
        grid = dataclasses.replace(BOX, side_count=1)
        n_windows = 4
        table = np.vstack([np.full((n_windows - 1, 1), 1e-6), [[100.0]]])
        config = SimConfig(grid=grid, n_drivers=2, speed_kmh=20.0, radius_source=ScheduleRadius(table),
                           acceptance=AcceptanceModel(beta0=50.0, sigma=0.0), tick_s=0.1, window_s=window_s)
        stream = stream_from_rows(grid, [mkrow(t, 0.05, 0.05) for t in times])
        sim = Simulation(config, stream)
        for _ in range(n_windows * config.ticks_per_window):
            sim.step()
        assert [m.order_id for m in sim.matches] == [0, 1]
        ends = [w.start_s for w in sim.windows[1:]] + [sim.clock]
        for w, end in zip(sim.windows, ends):
            m = compute_window_metrics(stream, [0, 1], sim.matches, w.start_s, end, occupied_s=0.0, online_s=0.0)
            assert (w.ofr, w.apd_km, w.revenue) == (m.ofr, m.apd_km, m.revenue)

    def test_move_matches_per_driver_loop(self):
        # _move is array code; the per-driver loop it replaced is the reference,
        # and the arithmetic is the same per element, so the fleets must be equal
        def reference_move(fleet, stream, step_km):
            arrivals = 0
            for i in np.flatnonzero(fleet.status != int(DriverStatus.IDLE)):
                # the held order's origin on the way to a pickup, else its destination
                oid, pickup = fleet.order_id[i], fleet.status[i] == int(DriverStatus.PICKUP)
                tx, ty = (stream.ox[oid], stream.oy[oid]) if pickup else (stream.dx[oid], stream.dy[oid])
                dx = tx - fleet.x[i]
                dy = ty - fleet.y[i]
                dist = float(np.hypot(dx, dy))
                if dist > step_km:
                    fleet.x[i] += dx / dist * step_km
                    fleet.y[i] += dy / dist * step_km
                    continue
                arrivals += 1
                fleet.x[i] = tx
                fleet.y[i] = ty
                if pickup:
                    fleet.status[i] = int(DriverStatus.IN_SERVICE)
                else:
                    fleet.status[i] = int(DriverStatus.IDLE)
                    fleet.order_id[i] = -1
            return arrivals

        sim = Simulation(mkconfig(radius=2.0, drivers=30, accept=AcceptanceModel()), random_stream(9, 150, 1750.0))
        arrivals = 0
        for _ in range(150):
            sim.step()
            twin = copy.deepcopy(sim.fleet)
            arrivals += reference_move(twin, sim.stream, 0.04)
            sim._move(0.04)
            for name in ("x", "y", "status", "order_id"):
                assert getattr(sim.fleet, name).tobytes() == getattr(twin, name).tobytes(), name
        assert arrivals > 20

    def test_each_order_matched_at_most_once(self):
        rng = np.random.default_rng(2)
        stream = sorted_stream((float(rng.uniform(0, 800)), *rng.uniform(0.01, 0.09, 2)) for _ in range(60))
        res = run(mkconfig(radius=3.0, drivers=10, accept=AcceptanceModel()), stream, horizon_s=900.0)
        ids = [m.order_id for m in res.matches]
        assert len(ids) == len(set(ids))

    def test_zero_orders_zero_summary(self):
        res = run(mkconfig(drivers=3), EMPTY, horizon_s=600.0)
        s = res.summary
        assert s == EpisodeSummary(ofr=0.0, dur=0.0, revenue=0.0, apd_km=0.0,
                                   created=0, matched=0, expired=0, open_at_end=0)
        assert len(res.windows) == 2 * BOX.n_cells

    def test_window_snapshot_counts(self):
        sim = Simulation(mkconfig(drivers=5), EMPTY)
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
        config = dataclasses.replace(mkconfig(drivers=30, accept=AcceptanceModel(), seed=21, idle_walk_kmh=5.0),
                                     radius_source=RandomRadius([0.5, 1.0, 2.0], BOX.n_cells, seed=4))
        stream = random_stream(9, 150, 1750.0)
        res = run(config, stream, horizon_s=1800.0)
        assert 0 < res.summary.matched < res.summary.created
        assert trace_digest(res) == "8e41d2adc5ed3cb90f576f9dfd9e324bc10409fdf37bc87d9f1f63f2a3819896"
        # neither the stream nor the config is consumed: a second run over the same objects replays the episode
        assert run(config, stream, horizon_s=1800.0) == res

    def _exploring_config(self):
        return dataclasses.replace(mkconfig(drivers=8, accept=AcceptanceModel(), seed=11),
                                   radius_source=RandomRadius([0.5, 1.0, 2.0], BOX.n_cells, seed=4))

    def test_one_config_replays_its_episode(self):
        config, stream = self._exploring_config(), self._stream()
        first = run(config, stream, 1500.0)
        assert 0 < first.summary.matched < first.summary.created
        for _ in range(2):
            assert run(config, stream, 1500.0) == first

    def test_interleaved_runs_of_one_config_agree(self):
        # two simulations of one config stepped in turn share its radius source
        config, stream = self._exploring_config(), self._stream()
        a, b = Simulation(config, stream), Simulation(config, stream)
        for _ in range(150):
            a.step()
            b.step()
            np.testing.assert_array_equal(a.radii, b.radii)
        assert a.windows == b.windows and a.matches == b.matches
        assert len({w.radius_km for w in a.windows}) == 3  # every candidate was drawn

    def test_golden_trace_from_synth_demand(self):
        # pinned match and window log of a fixed-seed episode over synthetic
        # demand, so the demand -> simulator path is guarded as well
        stream = synth_demand(default_profile(BOX, daily_orders=4000), BOX, seed=6,
                              duration_s=1800.0, day_start_s=8 * 3600.0)
        config = dataclasses.replace(
            mkconfig(drivers=20, accept=AcceptanceModel(), seed=5, day_start_s=8 * 3600.0),
            radius_source=RandomRadius([0.5, 1.0, 2.0], BOX.n_cells, seed=8),
        )
        res = run(config, stream, horizon_s=1800.0)
        assert 0 < res.summary.matched < res.summary.created == 152
        assert trace_digest(res) == "9911b2c952555b1ff8e585c773d9aa4ae54b4147410eb93ebabacb06776ea35b"

    def test_golden_trace_at_production_scale(self):
        # the exploration scenario at full size: a 10x10 grid, 1,000 drivers
        # and 200k daily orders over 08:00-09:00, where a tick's reach matrix
        # holds tens of thousands of cells and many rounds clear accepters
        grid = GridSpec(lon_min=-74.02, lat_min=40.70, lon_max=-73.93, lat_max=40.80, side_count=10)
        stream = synth_demand(default_profile(grid, daily_orders=200_000), grid, seed=1,
                              duration_s=3600.0, day_start_s=8 * 3600.0)
        config = SimConfig(grid=grid, n_drivers=1000, speed_kmh=25.0,
                           radius_source=RandomRadius([0.5, 1.0, 1.5, 2.0, 3.0], grid.n_cells, seed=3),
                           day_start_s=8 * 3600.0, seed=2)
        res = run(config, stream, horizon_s=3600.0)
        assert (res.summary.created, res.summary.matched) == (15612, 4953)
        assert trace_digest(res) == "115564f08d33f0d41fd2c2ae6552bf640d2b5bfb07ebd0aa38bd02de0df98189"

    def test_unsorted_stream_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            stream_from_rows(BOX, [mkrow(100.0, 0.05, 0.05), mkrow(50.0, 0.05, 0.05)])

    @pytest.mark.parametrize("lon, lat", [(-0.01, 0.05), (0.1, 0.05), (0.05, -1e-9), (0.05, 0.1)])
    def test_order_outside_the_grid_rejected(self, lon, lat):
        # the box is half-open like its cells, so its high edges are outside; km binning would clip such an
        # origin into an edge cell and broadcast it there
        rows = [mkrow(10.0 * i, 0.05, 0.05) for i in range(8)]
        rows[7] = mkrow(70.0, lon, lat, 0.05, 0.05)
        with pytest.raises(ValueError, match="order 7 starts at .* outside the grid's box"):
            stream_from_rows(BOX, rows)

    def test_stream_for_another_grid_rejected(self):
        stream = sorted_stream([(0.0, 0.05, 0.05)])
        with pytest.raises(ValueError, match="another grid"):
            Simulation(dataclasses.replace(mkconfig(), grid=dataclasses.replace(BOX, side_count=2),
                                           radius_source=FixedRadius(1.0, 4)), stream)
        other = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=0.2, lat_max=0.1, side_count=4)
        with pytest.raises(ValueError, match="another grid"):
            Simulation(mkconfig(), stream_from_rows(other, [mkrow(0.0, 0.05, 0.05)]))


def mksnapshot(**changes):
    """A two-grid snapshot with valid fields; ``changes`` override them."""
    fields = dict(window=0, start_s=0.0, tod=TimeOfDay.MORNING, n_idle=np.array([1, 0]), n_open=np.array([2, 0]),
                  n_total=np.array([3, 0]))
    return WindowSnapshot(**{**fields, **changes})


class TestWindowSnapshot:
    """A snapshot checks its counts as ``MarketWindow`` checks the same counts, so that no radius source
    reads a negative window, a time of day that is no code, or counts that no market could show."""

    @pytest.mark.parametrize("changes, match", [
        ({"window": -1}, "window must be an integer >= 0"),  # ScheduleRadius would read its table's last row
        ({"window": 1.0}, "window must be an integer >= 0"),
        ({"window": True}, "window must be an integer >= 0"),
        ({"tod": 4}, "tod must be a TimeOfDay code"),
        ({"tod": 1.5}, "tod must be a TimeOfDay code"),
        ({"n_idle": np.array([1])}, "1-D and of one length"),
        ({"n_open": np.ones((2, 1))}, "1-D and of one length"),
        ({"n_idle": np.ones((1, 2)), "n_open": np.ones((1, 2)), "n_total": np.ones((1, 2))}, "1-D"),
        ({"n_idle": np.array([-5, 0]), "n_total": np.array([-1, 0])}, "finite and >= 0"),
        ({"n_idle": np.array([np.nan, 0.0])}, "finite and >= 0"),
        ({"n_open": np.array([0.0, np.inf])}, "finite and >= 0"),
        ({"n_open": np.array([-1, 0])}, "finite and >= 0"),
        ({"n_idle": np.array([np.inf, 0.0]), "n_total": np.array([np.inf, 0.0])}, "finite and >= 0"),
        ({"n_idle": np.array([4, 0])}, "idle cannot exceed total"),
        ({"start_s": np.nan}, "start_s must be finite and >= 0"),
        ({"start_s": np.inf}, "start_s must be finite and >= 0"),
        ({"start_s": -np.inf}, "start_s must be finite and >= 0"),
        ({"start_s": -300.0}, "start_s must be finite and >= 0"),
    ])
    def test_rejects(self, changes, match):
        with pytest.raises(ValueError, match=match):
            mksnapshot(**changes)

    def test_accepts_numpy_and_enum_values(self):
        snap = mksnapshot(window=np.int64(2), tod=1, n_idle=np.array([0.0, 3.0]), n_total=np.array([0.0, 3.0]))
        assert snap.window == 2 and snap.tod == TimeOfDay.MORNING

    def test_rows_take_the_window_facts_from_its_snapshot(self):
        # from 06:55 a day runs OTHER, then MORNING from 07:00 on, in the second window
        sim = Simulation(mkconfig(day_start_s=6 * 3600.0 + 55 * 60.0), EMPTY)
        snaps = []
        for _ in range(3):
            snaps.append(sim.snapshot)
            for _ in range(sim.config.ticks_per_window):
                sim.step()
        want = [(0, 0.0, TimeOfDay.OTHER), (1, 300.0, TimeOfDay.MORNING), (2, 600.0, TimeOfDay.MORNING)]
        assert [(s.window, s.start_s, s.tod) for s in snaps] == want
        assert all(type(s.tod) is TimeOfDay for s in snaps)
        assert [(w.window, w.start_s, w.tod) for w in sim.windows] == [f for f in want for _ in range(BOX.n_cells)]
        assert sim.snapshot.window == 3 and sim.snapshot.start_s == sim.clock == 900.0


class TestRadiusSources:
    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedRadius(0.0, 16)

    def test_non_finite_radii_rejected(self):
        nan = float("nan")
        for bad in (nan, float("inf")):
            with pytest.raises(ValueError, match="finite"):
                FixedRadius(bad, 16)
            with pytest.raises(ValueError, match="finite"):
                ScheduleRadius(np.full((2, 16), bad))
            with pytest.raises(ValueError, match="finite"):
                RandomRadius([1.0, bad], 16, seed=0)
        with pytest.raises(ValueError):
            ScheduleRadius(np.zeros((0, 16)))

        class ConstantRadius:
            def __init__(self, value):
                self.value = value

            def radii(self, snapshot, history):
                return np.full(BOX.n_cells, self.value)

        for bad in (nan, float("inf")):
            with pytest.raises(ValueError):
                Simulation(dataclasses.replace(mkconfig(), radius_source=ConstantRadius(bad)), EMPTY)

    def test_schedule_table_is_a_read_only_copy(self):
        # the check made at construction holds for the source's life
        table = np.vstack([np.full(16, 1.0), np.full(16, 3.0)])
        source = ScheduleRadius(table)
        table[0, 0], table[1] = 9.0, np.nan
        snap = Simulation(mkconfig(), EMPTY).snapshot
        np.testing.assert_array_equal(source.radii(snap, []), np.full(16, 1.0))
        np.testing.assert_array_equal(source.radii(dataclasses.replace(snap, window=1), []), np.full(16, 3.0))
        with pytest.raises(ValueError, match="read-only"):
            source.radii(snap, [])[0] = 0.5

    def test_schedule_rows_apply_per_window(self):
        table = np.vstack([np.full(16, 1.0), np.full(16, 3.0)])
        sim = Simulation(dataclasses.replace(mkconfig(), radius_source=ScheduleRadius(table)), EMPTY)
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
        snap = Simulation(mkconfig(), EMPTY).snapshot
        np.testing.assert_array_equal(a.radii(snap, []), b.radii(snap, []))
        assert set(np.unique(a.radii(snap, []))) <= {1.0, 2.0, 3.0}

    @pytest.mark.parametrize("candidates", [np.array([1.0, 2.0, 3.0]), CandidateSet([1.0, 2.0, 3.0])],
                             ids=["array", "CandidateSet"])
    def test_random_source_takes_a_numpy_candidate_array(self, candidates):
        src = RandomRadius(candidates, 16, seed=5)
        snap = Simulation(mkconfig(), EMPTY).snapshot
        np.testing.assert_array_equal(src.radii(snap, []), RandomRadius([1.0, 2.0, 3.0], 16, seed=5).radii(snap, []))

    @pytest.mark.parametrize("candidates", [[1.0, float("inf")], np.array([float("-inf"), 2.0]), [], np.ones((2, 2)),
                                            [0.0, 1.0]])
    def test_random_source_rejects_bad_candidates(self, candidates):
        with pytest.raises(ValueError, match="finite radii > 0"):
            RandomRadius(candidates, 16, seed=0)

    @pytest.mark.parametrize("candidates", [[1.0, 1.0, 2.0], [2.0, 1.0]])
    def test_random_source_refuses_repeated_or_unordered_candidates(self, candidates):
        # it draws from a CandidateSet, where a repeated radius would be drawn twice as often
        with pytest.raises(ValueError, match="strictly increasing"):
            RandomRadius(candidates, 16, seed=0)

    def test_random_source_checks_its_seed_when_built(self):
        with pytest.raises(ValueError, match="non-negative"):
            RandomRadius([1.0, 2.0], 16, seed=-1)
        # no seed draws fresh entropy once, so the source still replays
        src, snap = RandomRadius([1.0, 2.0, 3.0], 16, seed=None), Simulation(mkconfig(), EMPTY).snapshot
        np.testing.assert_array_equal(src.radii(snap, []), src.radii(snap, []))

    @pytest.mark.parametrize("n_cells", [2.5, 16.0, 0, -1])
    def test_random_source_rejects_a_cell_count_that_is_not_a_whole_number_above_zero(self, n_cells):
        with pytest.raises(ValueError, match="n_cells must be an integer >= 1"):
            RandomRadius([1.0, 2.0], n_cells, seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            mkconfig(tick_s=7.0)  # does not divide 300
        with pytest.raises(ValueError):
            mkconfig(patience_s=5.0)
        with pytest.raises(ValueError):
            run(mkconfig(), EMPTY, horizon_s=450.0)  # not a whole window
        for horizon_s in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                run(mkconfig(), EMPTY, horizon_s=horizon_s)

    @pytest.mark.parametrize("tick_s", [math.inf, math.nan, 0.0])
    def test_a_tick_that_is_not_finite_and_positive_is_named(self, tick_s):
        # an infinite tick used to pass this check and fail as one that "must divide the metric window"
        with pytest.raises(ValueError, match=f"tick must be finite and > 0, got {tick_s}"):
            mkconfig(tick_s=tick_s)

    @pytest.mark.parametrize("drivers", [2.5, 2.0])
    def test_driver_count_must_be_an_integer(self, drivers):
        # 2.5 used to be accepted and fail in the fleet's set-up with a TypeError
        with pytest.raises(ValueError, match="n_drivers"):
            mkconfig(drivers=drivers)
        sim = Simulation(mkconfig(drivers=np.int64(3)), EMPTY)
        sim.step()
        assert len(sim.fleet.x) == 3

    @pytest.mark.parametrize("changes", [
        {"speed_kmh": float("nan")},
        {"speed_kmh": float("inf")},
        {"patience_s": float("nan")},  # would never expire an order
        {"idle_walk_kmh": float("nan")},  # would never walk
        {"idle_walk_kmh": float("inf")},
        {"idle_walk_kmh": -1.0},
        {"tick_s": 0.0},
        {"window_s": float("inf")},
        {"tick_s": -10.0, "window_s": -300.0, "patience_s": -5.0},  # a clock that runs backwards
        {"day_start_s": float("nan")},  # no hour of day to look up
        {"day_start_s": float("inf")},
    ])
    def test_invalid_physics_rejected(self, changes):
        assert mkconfig().idle_walk_kmh == 0.0  # standing idle drivers stay allowed
        with pytest.raises(ValueError):
            dataclasses.replace(mkconfig(), **changes)


class TestIdleWalk:
    def test_walk_keeps_drivers_in_area_and_changes_positions(self):
        cfg = mkconfig(drivers=10, idle_walk_kmh=5.0)
        sim = Simulation(cfg, EMPTY)
        x0 = sim.fleet.x.copy()
        for _ in range(30):
            sim.step()
        assert np.any(sim.fleet.x != x0)
        assert np.all((sim.fleet.x >= 0) & (sim.fleet.x < cfg.grid.x_max))
        assert np.all((sim.fleet.y >= 0) & (sim.fleet.y < cfg.grid.y_max))

    def test_default_idle_drivers_stationary(self):
        sim = Simulation(mkconfig(drivers=4), EMPTY)
        x0 = sim.fleet.x.copy()
        for _ in range(30):
            sim.step()
        np.testing.assert_array_equal(sim.fleet.x, x0)

    def test_no_idle_driver_draws_nothing(self):
        # each driver wins the order at its spot in the first tick and boards it there, 1 km from its drop-off,
        # so none idles in the second tick: the walking sim must draw nothing then and end that tick where its
        # walk-free twin does
        spots = [(0.02 + 0.015 * i, 0.05) for i in range(5)]
        stream = sorted_stream([(0.0, lon, lat, lon, lat + KM_LAT) for lon, lat in spots])
        walking, still = (Simulation(mkconfig(radius=0.5, drivers=5, idle_walk_kmh=walk), stream)
                          for walk in (5.0, 0.0))
        for sim in (walking, still):
            place(sim, spots)
            sim.step()
            assert sim.fleet.order_id.tolist() == list(range(5))
            assert np.all(sim.fleet.status == int(DriverStatus.IN_SERVICE))
        state = walking.rng.bit_generator.state
        walking.step()
        still.step()
        assert walking.rng.bit_generator.state == state
        assert np.all(walking.fleet.status == int(DriverStatus.IN_SERVICE))
        np.testing.assert_array_equal(walking.fleet.x, still.fleet.x)
        np.testing.assert_array_equal(walking.fleet.y, still.fleet.y)
