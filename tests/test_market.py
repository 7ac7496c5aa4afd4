import dataclasses
import math

import numpy as np
import pytest

from ridecast.market import (
    OUT_OF_AREA,
    Driver,
    DriverStatus,
    GridSpec,
    LocalProjection,
    MarketWindow,
    MatchRecord,
    Order,
    TimeOfDay,
    TimeOfDayBounds,
    compute_window_metrics,
    grid_index,
    metrics_from_tallies,
    time_of_day,
)

BOX = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=4.0, lat_max=4.0, side_count=4)


class TestGridIndex:
    def test_lowest_cell(self):
        assert grid_index(0.5, 0.5, BOX) == 0

    def test_highest_cell(self):
        assert grid_index(3.5, 3.5, BOX) == 15

    def test_outside_box(self):
        assert grid_index(5.0, 5.0, BOX) == OUT_OF_AREA

    def test_half_open_cells(self):
        # a point on a cell's low edge belongs to that cell
        assert grid_index(1.0, 0.0, BOX) == 1
        assert grid_index(0.0, 1.0, BOX) == 4
        # the box itself is half-open, so the high edges are out of area
        assert grid_index(4.0, 2.0, BOX) == OUT_OF_AREA
        assert grid_index(2.0, 4.0, BOX) == OUT_OF_AREA

    def test_row_major_layout(self):
        assert grid_index(2.5, 0.5, BOX) == 2
        assert grid_index(0.5, 2.5, BOX) == 8

    def test_center_roundtrip(self):
        for idx in range(BOX.n_cells):
            lon, lat = BOX.cell_center(idx)
            assert grid_index(lon, lat, BOX) == idx

    def test_partition_of_random_points(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 4.0, size=(2000, 2))
        idx = [grid_index(lon, lat, BOX) for lon, lat in pts]
        assert all(0 <= i < 16 for i in idx)
        # every in-box point maps to exactly one cell, so counts sum back up
        assert sum(idx.count(k) for k in range(16)) == len(pts)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.0, 4.0, 4.0, side_count=0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 1.0, 4.0, side_count=4)


class TestTimeOfDay:
    def test_default_codes(self):
        assert time_of_day(8 * 3600) == TimeOfDay.MORNING
        assert time_of_day(18 * 3600) == TimeOfDay.EVENING
        assert time_of_day(13 * 3600) == TimeOfDay.OTHER
        assert time_of_day(23.5 * 3600) == TimeOfDay.MIDNIGHT
        assert time_of_day(4 * 3600) == TimeOfDay.MIDNIGHT

    def test_code_values(self):
        assert TimeOfDay.EVENING == 0
        assert TimeOfDay.MORNING == 1
        assert TimeOfDay.MIDNIGHT == 2
        assert TimeOfDay.OTHER == 3

    def test_half_open_boundaries(self):
        assert time_of_day(7 * 3600) == TimeOfDay.MORNING
        assert time_of_day(10 * 3600) == TimeOfDay.OTHER
        assert time_of_day(5 * 3600) == TimeOfDay.OTHER
        assert time_of_day(0) == TimeOfDay.MIDNIGHT

    def test_partition_of_whole_day(self):
        # every second of the day gets exactly one code
        codes = [time_of_day(s) for s in range(0, 86400, 60)]
        assert all(isinstance(c, TimeOfDay) for c in codes)
        assert {TimeOfDay.MORNING, TimeOfDay.EVENING, TimeOfDay.MIDNIGHT, TimeOfDay.OTHER} == set(codes)

    def test_wraps_day_boundary(self):
        assert time_of_day(86400 + 8 * 3600) == TimeOfDay.MORNING

    def test_overlapping_bounds_rejected(self):
        with pytest.raises(ValueError):
            TimeOfDayBounds(morning=(7, 11), evening=(10, 13))
        with pytest.raises(ValueError):
            TimeOfDayBounds(midnight=(22, 8))


class TestWindowMetrics:
    def test_fulfillment_ratio(self):
        m = metrics_from_tallies(10, 5, [1.0] * 5, [1.0] * 5, 0.0, 0.0)
        assert m.ofr == 0.5

    def test_mean_pickup_distance(self):
        m = metrics_from_tallies(2, 2, [1.0, 3.0], [5.0, 5.0], 0.0, 0.0)
        assert m.apd_km == 2.0

    def test_utilization_ratio(self):
        m = metrics_from_tallies(0, 0, [], [], 150.0, 300.0)
        assert m.dur == 0.5

    def test_empty_window_yields_zeros(self):
        m = metrics_from_tallies(0, 0, [], [], 0.0, 0.0)
        assert (m.ofr, m.apd_km, m.dur, m.revenue) == (0.0, 0.0, 0.0, 0.0)

    def test_revenue_recognized_at_match(self):
        orders = [
            Order(0, t_create=10.0, origin_lon=0.5, origin_lat=0.5, dest_lon=1.5, dest_lat=1.5, fare=4.0, grid=0),
            Order(1, t_create=20.0, origin_lon=0.5, origin_lat=0.5, dest_lon=1.5, dest_lat=1.5, fare=6.0, grid=0),
        ]
        matches = [
            MatchRecord(order_id=0, driver_id=0, grid=0, t_match=50.0, pickup_km=1.0, fare=4.0, radius_km=2.0),
            # order 1 matches in the *next* window: its fare is not counted here
            MatchRecord(order_id=1, driver_id=1, grid=0, t_match=310.0, pickup_km=2.0, fare=6.0, radius_km=2.0),
        ]
        m = compute_window_metrics(orders, matches, 0.0, 300.0, occupied_s=0.0, online_s=600.0)
        assert m.revenue == 4.0
        assert m.ofr == 0.5
        assert m.apd_km == 1.0

    def test_bounds_hold_for_random_tallies(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            created = int(rng.integers(0, 20))
            matched = int(rng.integers(0, created + 1))
            dists = rng.uniform(0, 8, size=matched)
            fares = rng.uniform(0, 30, size=matched)
            online = float(rng.uniform(0, 1000))
            occupied = float(rng.uniform(0, online)) if online > 0 else 0.0
            m = metrics_from_tallies(created, matched, list(dists), list(fares), occupied, online)
            assert 0.0 <= m.ofr <= 1.0
            assert 0.0 <= m.dur <= 1.0
            assert m.apd_km >= 0.0 and m.revenue >= 0.0


class TestOrderDriverInvariants:
    def test_order_is_frozen(self):
        o = Order(0, 0.0, 0.5, 0.5, 1.5, 1.5, fare=3.0, grid=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            o.id = 1

    def test_negative_fare_rejected(self):
        with pytest.raises(ValueError):
            Order(0, 0.0, 0.5, 0.5, 1.5, 1.5, fare=-1.0, grid=0)

    def test_non_finite_fare_rejected(self):
        for fare in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Order(0, 0.0, 0.5, 0.5, 1.5, 1.5, fare=fare, grid=0)

    def test_driver_assignment_consistency(self):
        with pytest.raises(ValueError):
            Driver(0, 0.5, 0.5, status=DriverStatus.PICKUP, order_id=None)
        with pytest.raises(ValueError):
            Driver(0, 0.5, 0.5, status=DriverStatus.IDLE, order_id=3)
        d = Driver(0, 0.5, 0.5, status=DriverStatus.IN_SERVICE, order_id=3, occupied_s=10, online_s=20)
        assert d.occupied_s <= d.online_s

    def test_market_window_invariants(self):
        with pytest.raises(ValueError):
            MarketWindow(0, 0, 0.0, n_idle=5, n_open=0, n_total=3, ofr=0.5,
                         apd_km=1.0, dur=0.5, revenue=1.0, radius_km=1.0, tod=TimeOfDay.OTHER)
        with pytest.raises(ValueError):
            MarketWindow(0, 0, 0.0, n_idle=1, n_open=0, n_total=3, ofr=1.5,
                         apd_km=1.0, dur=0.5, revenue=1.0, radius_km=1.0, tod=TimeOfDay.OTHER)


class TestProjection:
    def test_roundtrip(self):
        proj = LocalProjection(BOX)
        x, y = proj.to_xy(2.3, 1.7)
        lon, lat = proj.to_lonlat(x, y)
        assert math.isclose(lon, 2.3, abs_tol=1e-12)
        assert math.isclose(lat, 1.7, abs_tol=1e-12)

    def test_northward_km(self):
        # a pure latitude displacement of 1/110.574 degrees is exactly 1 km
        proj = LocalProjection(BOX)
        d = proj.distance_km(1.0, 1.0, 1.0, 1.0 + 1.0 / 110.574)
        assert math.isclose(d, 1.0, rel_tol=1e-12)

    def test_cell_index_matches_degree_space(self):
        proj = LocalProjection(BOX)
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 4.0, size=(500, 2))
        for lon, lat in pts:
            x, y = proj.to_xy(lon, lat)
            assert proj.cell_index_xy(float(x), float(y)) == grid_index(lon, lat, BOX)
