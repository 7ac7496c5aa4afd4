import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from conftest import OUT_OF_AREA, compute_window_metrics, grid_index, stream_from_rows

from ridecast.market import (
    KM_PER_DEG_LAT,
    TOD_BY_HOUR,
    GridSpec,
    MarketWindow,
    MatchRecord,
    OrderStream,
    TimeOfDay,
    time_of_day,
)
from ridecast.behavior import AcceptanceModel
from ridecast.nn.model import ModelConfig
from ridecast.sim import FixedRadius, SimConfig, Simulation
from ridecast.training import StrategyConfig, TrainConfig

BOX = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=4.0, lat_max=4.0, side_count=4)
# ~11 km square in 2x2 cells; cell 0 holds lon and lat in [0, 0.05)
SMALL = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=0.1, lat_max=0.1, side_count=2)
KM_LAT = 1.0 / 110.574
FORCED = AcceptanceModel(beta0=50.0, beta1=0.0, beta2=0.0, sigma=0.0)


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
        with pytest.raises(ValueError, match="finite"):
            GridSpec(0.0, 0.0, math.inf, 1.0, side_count=2)

    @pytest.mark.parametrize("side", [2.5, 2.0])
    def test_side_count_must_be_an_integer(self, side):
        # 2.5 used to give n_cells == 6.25 and a TypeError far from the cause
        with pytest.raises(ValueError, match="side_count"):
            GridSpec(0.0, 0.0, 1.0, 1.0, side_count=side)
        assert GridSpec(0.0, 0.0, 1.0, 1.0, side_count=np.int64(3)).n_cells == 9


# every count of a config goes through check_count; a bool is an Integral, and True used to pass as 1
COUNTS = {
    "side_count": lambda v: GridSpec(0.0, 0.0, 1.0, 1.0, side_count=v),
    "n_drivers": lambda v: SimConfig(grid=SMALL, n_drivers=v, speed_kmh=20.0,
                                     radius_source=FixedRadius(1.0, SMALL.n_cells)),
    "n_blocks": lambda v: ModelConfig(seq_len=3, input_dim=16, n_blocks=v),
    "epochs": lambda v: TrainConfig(epochs=v),
    "history_len": lambda v: StrategyConfig(history_len=v),
}


@pytest.mark.parametrize("field", sorted(COUNTS))
def test_a_bool_is_not_a_count(field):
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {flag}"):
            COUNTS[field](flag)
    COUNTS[field](1)


# every real-valued setting of a config, with a constructor that takes it by name; patience_s=inf used to pass
CONFIGS = {
    SimConfig: lambda **kw: SimConfig(**{"grid": SMALL, "n_drivers": 1, "speed_kmh": 20.0,
                                         "radius_source": FixedRadius(1.0, SMALL.n_cells), **kw}),
    AcceptanceModel: AcceptanceModel,
    TrainConfig: TrainConfig,
    StrategyConfig: StrategyConfig,
}
REAL_SETTINGS = [(cls, f.name) for cls in CONFIGS for f in dataclasses.fields(cls) if f.type == "float"]


def test_every_real_valued_setting_is_found():
    assert len(REAL_SETTINGS) == 12 and (SimConfig, "patience_s") in REAL_SETTINGS


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", REAL_SETTINGS, ids=[f"{c.__name__}.{n}" for c, n in REAL_SETTINGS])
def test_a_non_finite_setting_is_rejected(cls, name, value):
    CONFIGS[cls]()
    with pytest.raises(ValueError):
        CONFIGS[cls](**{name: value})


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

    def test_table_matches_segment_bounds(self):
        # morning [7, 10), evening [17, 20) and midnight [23, 5) in clock hours
        for hour, code in enumerate(TOD_BY_HOUR):
            want = (TimeOfDay.MORNING if 7 <= hour < 10 else TimeOfDay.EVENING if 17 <= hour < 20
                    else TimeOfDay.MIDNIGHT if hour >= 23 or hour < 5 else TimeOfDay.OTHER)
            assert code is want
            assert time_of_day(hour * 3600.0) is time_of_day(hour * 3600.0 + 3599.5) is want
        assert len(TOD_BY_HOUR) == 24


def run_small(orders, drivers, windows=1, acceptance=FORCED, seed=0):
    """Simulation on SMALL with a 2 km radius, stepped to the end of ``windows``
    metric windows.

    ``orders`` are (t_create, lon, lat, dest_lon, dest_lat, fare) rows in
    creation order, and ``drivers`` the drivers' (lon, lat) positions.
    """
    stream = stream_from_rows(SMALL, orders)
    sim = Simulation(SimConfig(grid=SMALL, n_drivers=len(drivers), speed_kmh=20.0,
                               radius_source=FixedRadius(2.0, SMALL.n_cells), acceptance=acceptance,
                               seed=seed), stream)
    sim.fleet.x, sim.fleet.y = SMALL.to_xy([d[0] for d in drivers], [d[1] for d in drivers])
    for _ in range(windows * sim.config.ticks_per_window):
        sim.step()
    return sim


def window_row(sim, grid, window):
    (row,) = [w for w in sim.windows if (w.grid, w.window) == (grid, window)]
    return row


class TestWindowMetrics:
    """The metrics of the simulator's window rows, read off small scripted runs."""

    def test_fulfillment_ratio(self):
        # one driver at the near spot, radius 2 km; the far spot is ~4.7 km away
        near, far, north = (0.01, 0.01), (0.04, 0.04), (0.01, 0.01 + KM_LAT)
        orders = [
            (0.0, *near, *near, 5.0),      # 0: matched at t=0
            (0.0, *far, *far, 5.0),        # 1: out of radius, expires
            (285.0, *near, *north, 5.0),   # 2: matched in window 0; its 1 km trip keeps the driver busy
            (290.0, *north, *north, 5.0),  # 3: created in window 0, matched in window 1
            (300.0, *near, *near, 5.0),    # 4: created at window 1's start, matched in window 1
        ]
        sim = run_small(orders, [near], windows=2)
        assert {m.order_id: int(m.t_match // 300.0) for m in sim.matches} == {0: 0, 2: 0, 3: 1, 4: 1}
        # window 0 created 0-3 and matched 0 and 2; window 1's match of the
        # carried-over order 3 counts towards its revenue but not its rate
        assert window_row(sim, 0, 0).ofr == 0.5
        assert window_row(sim, 0, 1).ofr == 1.0
        assert window_row(sim, 0, 1).revenue == 10.0

    def test_mean_pickup_distance(self):
        # sixteen drivers around one spot bid on sixteen orders there; every
        # idle driver accepts the oldest order, so one match a tick, each
        # won by a random driver at its own distance
        rng = np.random.default_rng(5)
        spot = (0.025, 0.025)
        drivers = [(spot[0], spot[1] + KM_LAT * d) for d in rng.uniform(-1.5, 1.5, 16)]
        sim = run_small([(0.0, *spot, *spot, 5.0)] * 16, drivers)
        pickups = [m.pickup_km for m in sim.matches]
        assert len(pickups) == 16
        # np.mean's pairwise sum over the pickups in match order; on these
        # pickups a running sum rounds differently, so that would fail here
        assert window_row(sim, 0, 0).apd_km == float(np.mean(pickups)) != sum(pickups) / len(pickups)

    def test_utilization_ratio(self):
        # one driver takes a colocated order whose trip is 14.5 ticks long at
        # 20 km/h: it is occupied for ticks 0..14, 150 of the window's 300 s
        spot = (0.01, 0.01)
        dest = (0.01, 0.01 + KM_LAT * 14.5 * 20.0 * 10.0 / 3600.0)
        sim = run_small([(0.0, *spot, *dest, 5.0)], [spot])
        row = window_row(sim, 0, 0)
        assert row.dur == 0.5
        assert (row.ofr, row.revenue) == (1.0, 5.0)

    def test_empty_window_yields_zeros(self):
        # no orders; cell 0 holds the idle driver, the other cells nobody
        sim = run_small([], [(0.01, 0.01)])
        assert len(sim.windows) == SMALL.n_cells
        for w in sim.windows:
            assert (w.ofr, w.apd_km, w.dur, w.revenue) == (0.0, 0.0, 0.0, 0.0)

    def test_revenue_recognized_at_match(self):
        stream = stream_from_rows(BOX, [(10.0, 0.5, 0.5, 1.5, 1.5, 4.0), (20.0, 0.5, 0.5, 1.5, 1.5, 6.0)])
        matches = [
            MatchRecord(order_id=0, driver_id=0, grid=0, t_match=50.0, pickup_km=1.0, fare=4.0, radius_km=2.0),
            # order 1 matches in the *next* window: its fare is not counted here
            MatchRecord(order_id=1, driver_id=1, grid=0, t_match=310.0, pickup_km=2.0, fare=6.0, radius_km=2.0),
        ]
        m = compute_window_metrics(stream, [0, 1], matches, 0.0, 300.0, occupied_s=0.0, online_s=600.0)
        assert m.revenue == 4.0
        assert m.ofr == 0.5
        assert m.apd_km == 1.0

    def test_bounds_hold_over_random_episodes(self):
        # busy two-window runs where orders carry over into the next window
        carried = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(0.0, 0.1, size=(40, 4))
            orders = [(t, *p, f) for t, p, f in zip(np.sort(rng.uniform(0, 600, 40)), pts, rng.uniform(0, 30, 40))]
            sim = run_small(orders, rng.uniform(0.0, 0.1, size=(6, 2)).tolist(), windows=2,
                            acceptance=AcceptanceModel(), seed=seed)
            carried += sum(sim.stream.t_create[m.order_id] < 300.0 <= m.t_match for m in sim.matches)
            for w in sim.windows:
                assert 0.0 <= w.ofr <= 1.0 and 0.0 <= w.dur <= 1.0
                assert w.apd_km >= 0.0 and w.revenue >= 0.0
        assert carried > 0


ROW = (0.0, 0.5, 0.5, 1.5, 1.5, 3.0)  # t_create, origin lon/lat, destination lon/lat, fare


def with_value(column, value):
    """ROW with one column (an index into it) replaced."""
    return ROW[:column] + (value,) + ROW[column + 1:]


# a valid MarketWindow row, as keyword arguments
WINDOW_ROW = dict(grid=0, window=0, start_s=0.0, n_idle=1, n_open=0, n_total=3, ofr=0.5,
                  apd_km=1.0, dur=0.5, revenue=1.0, radius_km=1.0, tod=TimeOfDay.OTHER)


class TestOrderDriverInvariants:
    def test_order_is_frozen(self):
        # the columns are read-only, and the stream keeps its own copy of its inputs
        t = np.array([0.0, 5.0])
        stream = OrderStream(BOX, t, [0.5, 1.5], [0.5, 0.5], [1.5, 1.5], [1.5, 1.5], [3.0, 4.0])
        t[0] = 9.0
        assert stream.t_create[0] == 0.0 and stream.cell.tolist() == [0, 1]
        for name in ("t_create", "cell", "fare", "ox", "oy", "dx", "dy"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(stream, name)[0] = 1

    def test_negative_fare_rejected(self):
        with pytest.raises(ValueError, match="fare"):
            stream_from_rows(BOX, [with_value(5, -1.0)])

    def test_non_finite_fare_rejected(self):
        for fare in (math.nan, math.inf):
            with pytest.raises(ValueError, match="fare"):
                stream_from_rows(BOX, [with_value(5, fare)])

    def test_non_finite_creation_time_rejected(self):
        # NaN compares False both ways, so a sort check alone would let it
        # through, and injection would stop at that row for good
        rows = [with_value(0, t) for t in (0.0, math.nan, 20.0, 30.0)]
        with pytest.raises(ValueError, match="finite"):
            stream_from_rows(BOX, rows)
        with pytest.raises(ValueError, match="finite"):
            stream_from_rows(BOX, [with_value(0, math.inf)])
        # creation times are seconds from the episode start: an order created
        # before it would count as created in window 0 but never in its cohort
        with pytest.raises(ValueError, match="finite and >= 0"):
            stream_from_rows(BOX, [with_value(0, -5.0), ROW])

    @pytest.mark.parametrize("column", [1, 2, 3, 4])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, column, value):
        with pytest.raises(ValueError, match="finite"):
            stream_from_rows(BOX, [with_value(column, value)])

    def test_ragged_or_nested_columns_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            OrderStream(BOX, [0.0, 1.0], [0.5], [0.5], [1.5], [1.5], [3.0])
        with pytest.raises(ValueError, match="1-D"):
            OrderStream(BOX, [[0.0]], [[0.5]], [[0.5]], [[1.5]], [[1.5]], [[3.0]])

    def test_market_window_invariants(self):
        with pytest.raises(ValueError):
            MarketWindow(0, 0, 0.0, n_idle=5, n_open=0, n_total=3, ofr=0.5,
                         apd_km=1.0, dur=0.5, revenue=1.0, radius_km=1.0, tod=TimeOfDay.OTHER)
        with pytest.raises(ValueError):
            MarketWindow(0, 0, 0.0, n_idle=1, n_open=0, n_total=3, ofr=1.5,
                         apd_km=1.0, dur=0.5, revenue=1.0, radius_km=1.0, tod=TimeOfDay.OTHER)
        with pytest.raises(ValueError, match="finite and >= 0"):  # idle <= total holds, but every count is < 0
            MarketWindow(0, 0, 0.0, n_idle=-3, n_open=-1, n_total=-2, ofr=0.5,
                         apd_km=1.0, dur=0.5, revenue=1.0, radius_km=1.0, tod=TimeOfDay.OTHER)

    @pytest.mark.parametrize("name", ["apd_km", "revenue", "radius_km", "n_idle", "n_open", "n_total"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_market_window_amount_must_be_finite_and_non_negative(self, name, value):
        MarketWindow(**WINDOW_ROW)
        with pytest.raises(ValueError, match="finite and >= 0"):
            MarketWindow(**{**WINDOW_ROW, name: value})

    def test_market_window_radius_must_be_above_zero(self):
        # no radius source can deploy 0 km, so a row that logs it is not a simulator's
        with pytest.raises(ValueError, match="radius finite and > 0"):
            MarketWindow(**{**WINDOW_ROW, "radius_km": 0.0})

    @pytest.mark.parametrize("name, value, rule", [
        ("grid", -1, ">= 0"), ("grid", math.nan, ">= 0"), ("window", -5, ">= 0"),
        ("tod", -1, "a TimeOfDay code"), ("tod", len(TimeOfDay), "a TimeOfDay code"), ("tod", 9, "a TimeOfDay code"),
        ("tod", 2.5, "a TimeOfDay code"),
        # the simulator counts the orders created from the window start on towards its fulfilment rate
        ("start_s", math.nan, "finite and >= 0"), ("start_s", math.inf, "finite and >= 0"),
        ("start_s", -math.inf, "finite and >= 0"), ("start_s", -300.0, "finite and >= 0"),
    ])
    def test_market_window_key_out_of_range_rejected(self, name, value, rule):
        # the bad value is named where the row is made, not later where the optimizer reads the log
        with pytest.raises(ValueError, match=f"{name} must be {rule}, got {value}"):
            MarketWindow(**{**WINDOW_ROW, name: value})

    @pytest.mark.parametrize("tod", [*TimeOfDay, *map(int, TimeOfDay)])
    def test_market_window_accepts_every_time_of_day_code(self, tod):
        assert MarketWindow(**{**WINDOW_ROW, "tod": tod}).tod == tod

    @pytest.mark.parametrize("row", [MarketWindow(**WINDOW_ROW), MatchRecord(order_id=7, driver_id=3, grid=2,
                                                                             t_match=61.0, pickup_km=0.8, fare=12.5,
                                                                             radius_km=1.5)],
                             ids=["MarketWindow", "MatchRecord"])
    def test_log_rows_are_slotted_records(self, row):
        # a day holds tens of thousands of rows: none may carry a per-instance dict
        assert not hasattr(row, "__dict__")
        with pytest.raises(AttributeError):
            row.note = 1
        values = tuple(getattr(row, f.name) for f in dataclasses.fields(row))
        assert dataclasses.astuple(row) == values
        assert row == type(row)(*values) and row != dataclasses.replace(row, grid=row.grid + 1)
        assert dataclasses.replace(row, radius_km=9.0).radius_km == 9.0
        for clone in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
            assert clone == row and clone is not row and dataclasses.astuple(clone) == values


class TestProjection:
    def test_roundtrip(self):
        # the projection is affine in each axis, so its own scales invert it
        x, y = BOX.to_xy(2.3, 1.7)
        assert math.isclose(BOX.lon_min + x / BOX.km_per_deg_lon, 2.3, abs_tol=1e-12)
        assert math.isclose(BOX.lat_min + y / KM_PER_DEG_LAT, 1.7, abs_tol=1e-12)

    def test_cell_index_matches_degree_space(self):
        # orders and drivers are binned in km space; that must agree with grid_index in degrees
        rng = np.random.default_rng(11)
        for box in (BOX, GridSpec(0.0, 0.0, 0.1, 0.1, side_count=4),
                    GridSpec(-74.02, 40.70, -73.93, 40.80, side_count=10)):
            lon = rng.uniform(box.lon_min, box.lon_max, 2000)
            lat = rng.uniform(box.lat_min, box.lat_max, 2000)
            want = [grid_index(a, b, box) for a, b in zip(lon, lat)]
            assert box.cells(*box.to_xy(lon, lat)).tolist() == want
            stream = OrderStream(box, np.zeros(2000), lon, lat, lon, lat, np.ones(2000))
            assert stream.cell.tolist() == want
