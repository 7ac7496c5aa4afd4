import math
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridecast.demand import (
    N_BASE_FEATURES,
    DemandProfile,
    FareModel,
    IngestError,
    NormStats,
    apply_norm,
    default_profile,
    fit_norm_stats,
    invert_norm,
    load_trips,
    synth_demand,
)
from ridecast.market import GridSpec, LocalProjection

BOX = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=4.0, lat_max=4.0, side_count=4)
T0 = datetime(2015, 5, 1, 0, 0, 0)
T1 = datetime(2015, 5, 2, 0, 0, 0)

CSV_HEADER = "pickup_datetime,pickup_lon,pickup_lat,dropoff_lon,dropoff_lat,fare_amount\n"


def write_csv(path, rows):
    path.write_text(CSV_HEADER + "".join(rows))
    return path


class TestLoadTrips:
    def test_out_of_area_rows_dropped_and_counted(self, tmp_path):
        rows = [
            "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n",
            "2015-05-01 11:00:00,9.0,9.0,1.5,1.5,8.0\n",
            "2015-05-01 12:00:00,2.5,2.5,3.5,3.5,6.0\n",
        ]
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert len(orders) == 2
        assert report.out_of_area == 1
        assert report.total_rows == 3 and report.emitted == 2

    def test_output_sorted_by_creation_time(self, tmp_path):
        rows = [
            "2015-05-01 12:00:00,0.5,0.5,1.5,1.5,7.5\n",
            "2015-05-01 08:00:00,1.5,1.5,2.5,2.5,5.0\n",
            "2015-05-01 10:00:00,2.5,2.5,0.5,0.5,6.0\n",
        ]
        orders, _ = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert orders.t_create.tolist() == [8 * 3600.0, 10 * 3600.0, 12 * 3600.0]
        assert orders.fare.tolist() == [5.0, 6.0, 7.5]  # row i is order id i, in creation order

    def test_missing_fare_filled_by_fare_model(self, tmp_path):
        # dropoff sits exactly 2 km north of pickup, so fare = 2.5 + 1.0 * 2
        dlat = 0.5 + 2.0 / 110.574
        rows = [f"2015-05-01 10:00:00,0.5,0.5,0.5,{dlat},\n"]
        orders, _ = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1,
                               fare_model=FareModel(base=2.5, per_km=1.0))
        assert orders.fare[0] == pytest.approx(4.5, rel=1e-12)

    def test_malformed_rows_skipped_with_count(self, tmp_path):
        rows = [
            "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n",
            "not-a-date,0.5,0.5,1.5,1.5,7.5\n",
        ] + ["2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"] * 18
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert report.malformed == 1
        assert len(orders) == 19

    def test_short_row_is_malformed(self, tmp_path):
        # csv fills the fields a short row lacks with None; with the date
        # last, the row must count as malformed rather than crash the parse
        p = tmp_path / "t.csv"
        p.write_text("pickup_lon,pickup_lat,dropoff_lon,dropoff_lat,fare_amount,pickup_datetime\n"
                     + "0.5,0.5,1.5,1.5,7.5,2015-05-01 10:00:00\n" * 30 + "-73.98,40.75\n")
        orders, report = load_trips(p, BOX, T0, T1)
        assert (report.total_rows, report.malformed, report.emitted) == (31, 1, 30)
        assert len(orders) == 30

    def test_long_row_is_malformed(self, tmp_path):
        # csv files the fields past the header under the key None; a row
        # shifted by an unquoted comma must not load from its first six fields
        rows = ["2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5,99,extra\n"] + ["2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"] * 19
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert (report.total_rows, report.malformed, report.emitted) == (20, 1, 19)

    def test_non_finite_fares_are_malformed(self, tmp_path):
        good = "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"
        rows = [f"2015-05-01 10:00:00,0.5,0.5,1.5,1.5,{fare}\n" for fare in ("nan", "inf", "-inf")] + [good] * 37
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert report.malformed == 3 and report.emitted == 37
        assert np.all(orders.fare == 7.5)

    def test_non_finite_coordinates_are_malformed(self, tmp_path):
        good = "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"
        bad = [f"2015-05-01 10:00:00,{coords},7.5\n"
               for coords in ("nan,0.5,1.5,1.5", "0.5,inf,1.5,1.5", "0.5,0.5,-inf,1.5", "0.5,0.5,1.5,nan")]
        orders, report = load_trips(write_csv(tmp_path / "t.csv", bad + [good] * 36), BOX, T0, T1)
        assert (report.malformed, report.out_of_area, report.emitted) == (4, 0, 36)
        # a file of mostly non-finite coordinates fails instead of loading as a short stream
        with pytest.raises(IngestError):
            load_trips(write_csv(tmp_path / "u.csv", bad[:3] + [good]), BOX, T0, T1)

    def test_too_many_malformed_rows_fails(self, tmp_path):
        rows = ["2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"] * 5 + ["garbage,x,y,z,w,v\n"]
        with pytest.raises(IngestError):
            load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)

    def test_time_range_filter(self, tmp_path):
        rows = [
            "2015-04-30 23:00:00,0.5,0.5,1.5,1.5,7.5\n",
            "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n",
            "2015-05-02 00:00:00,0.5,0.5,1.5,1.5,7.5\n",
        ]
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert len(orders) == 1
        assert report.out_of_range == 2
        assert orders.t_create[0] == 10 * 3600.0

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(IngestError):
            load_trips(p, BOX, T0, T1)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_trips(tmp_path / "absent.csv", BOX, T0, T1)

    def test_grid_assignment(self, tmp_path):
        rows = ["2015-05-01 10:00:00,2.5,0.5,1.5,1.5,7.5\n"]
        orders, _ = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert orders.cell[0] == 2


class TestSynthDemand:
    def test_zero_rates_empty_stream(self):
        profile = DemandProfile(rates=np.zeros((16, 24)), dest_probs=np.full((16, 16), 1 / 16))
        stream = synth_demand(profile, BOX, seed=1, duration_s=3600.0)
        assert len(stream) == 0 and stream.grid == BOX

    def test_poisson_mean_matches_rate(self):
        rates = np.zeros((16, 24))
        rates[5, :] = 60.0
        profile = DemandProfile(rates=rates, dest_probs=np.full((16, 16), 1 / 16))
        counts = [len(synth_demand(profile, BOX, seed=s, duration_s=3600.0)) for s in range(100)]
        assert np.mean(counts) == pytest.approx(60.0, abs=3.0)

    def test_same_seed_identical_stream(self):
        profile = default_profile(BOX, daily_orders=500)
        a = synth_demand(profile, BOX, seed=33, duration_s=7200.0, day_start_s=6 * 3600)
        b = synth_demand(profile, BOX, seed=33, duration_s=7200.0, day_start_s=6 * 3600)
        assert len(a) == len(b) > 0
        for name in ("t_create", "cell", "ox", "oy", "dx", "dy", "fare"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_orders_sorted_and_in_area(self):
        profile = default_profile(BOX, daily_orders=800)
        stream = synth_demand(profile, BOX, seed=4, duration_s=4 * 3600.0, day_start_s=7 * 3600)
        assert np.all(np.diff(stream.t_create) >= 0)
        assert np.all((0 <= stream.cell) & (stream.cell < 16))
        assert np.all((0.0 <= stream.t_create) & (stream.t_create < 4 * 3600.0))
        # each order lies in the cell it was drawn for
        proj = LocalProjection(BOX)
        n = BOX.side_count
        col = (stream.ox / (proj.x_max / n)).astype(int)
        row = (stream.oy / (proj.y_max / n)).astype(int)
        np.testing.assert_array_equal(row * n + col, stream.cell)

    def test_hourly_rates_converge_to_profile(self):
        # law-of-large-numbers check on a single grid-hour cell
        rates = np.zeros((16, 24))
        rates[3, 10] = 40.0
        profile = DemandProfile(rates=rates, dest_probs=np.full((16, 16), 1 / 16))
        total = sum(
            len(synth_demand(profile, BOX, seed=s, duration_s=3600.0, day_start_s=10 * 3600))
            for s in range(100)
        )
        assert total / 100 == pytest.approx(40.0, rel=0.05)

    def test_default_profile_shape(self):
        profile = default_profile(BOX, daily_orders=1000)
        assert profile.rates.shape == (16, 24)
        hourly = profile.rates.sum(axis=0)
        assert hourly[8] > hourly[5] and hourly[18] > hourly[5]
        assert np.argmin(hourly) == 5
        assert profile.rates.sum() == pytest.approx(1000.0)
        # core cells carry more demand than corner cells
        assert profile.rates[5].sum() > profile.rates[0].sum()

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DemandProfile(rates=-np.ones((16, 24)), dest_probs=np.full((16, 16), 1 / 16))
        with pytest.raises(ValueError):
            DemandProfile(rates=np.ones((16, 24)), dest_probs=np.full((16, 16), 0.5))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # NaN passes a bare < 0 check, and its slot would then draw no orders
        rates = np.ones((16, 24))
        rates[4, 9] = rate
        with pytest.raises(ValueError, match="finite"):
            DemandProfile(rates=rates, dest_probs=np.full((16, 16), 1 / 16))

    @pytest.mark.parametrize("duration_s", [math.nan, -1.0])
    def test_bad_duration_rejected(self, duration_s):
        profile = default_profile(BOX, daily_orders=500)
        with pytest.raises(ValueError, match="duration"):
            synth_demand(profile, BOX, seed=1, duration_s=duration_s)


def _wide_matrix(rows, cols, magnitudes, constant, seed):
    """Columns scaled by 10**magnitudes, offset from zero, one of them constant unless ``constant`` is out of range."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** np.resize(magnitudes, cols)
    x = (rng.normal(size=(rows, cols)) + rng.normal(size=cols) * 30) * scale
    if 0 <= constant < cols:
        x[:, constant] = scale[constant] / 3
    return x


class TestNormStats:
    def test_two_point_zscore(self):
        stats = fit_norm_stats(np.array([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0 and stats.std[0] == 1.0
        np.testing.assert_array_equal(apply_norm(np.array([[1.0], [3.0]]), stats), [[-1.0], [1.0]])

    def test_constant_column_passthrough(self):
        stats = fit_norm_stats(np.array([[5.0], [5.0]]))
        np.testing.assert_array_equal(apply_norm(np.array([[5.0], [5.0]]), stats), [[0.0], [0.0]])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(50, 6))
        stats = fit_norm_stats(x)
        np.testing.assert_allclose(invert_norm(apply_norm(x, stats), stats), x, atol=1e-12)

    def test_normalized_moments(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 4)) * [1, 10, 100, 1000]
        z = apply_norm(x, fit_norm_stats(x))
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(rows=st.integers(2, 5000), cols=st.sampled_from([4, N_BASE_FEATURES]) | st.integers(1, 12),
           magnitudes=st.lists(st.floats(-8, 8), min_size=12, max_size=12), constant=st.integers(-1, 11),
           seed=st.integers(0, 2**32 - 1), float32=st.booleans(), column_major=st.booleans())
    # the shapes it is fitted on: labels (N, 4) float64 and TrainingData.real_rows() (M, 8) float32
    @example(rows=12_000, cols=4, magnitudes=[0, -1, 0, 1] * 3, constant=-1, seed=1, float32=False,
             column_major=False)
    @example(rows=57_000, cols=N_BASE_FEATURES, magnitudes=[-8, 8] * 6, constant=3, seed=1, float32=True,
             column_major=False)
    @example(rows=1_025, cols=1, magnitudes=[5] * 12, constant=-1, seed=2, float32=False, column_major=True)
    def test_same_bits_as_numpy(self, rows, cols, magnitudes, constant, seed, float32, column_major):
        # the stats are numpy's mean and std of the float64 copy, in any layout; a float32 value is exact
        # in float64.  The constant column, scale/3, is inexact in binary and gets its value and std 1.
        x = _wide_matrix(rows, cols, magnitudes, constant, seed)
        if float32:
            x = x.astype(np.float32)
        if column_major:
            x = np.asfortranarray(x)
        stats = fit_norm_stats(x)
        x64 = x.astype(np.float64)
        mean, std = x64.mean(axis=0), x64.std(axis=0)
        if 0 <= constant < cols:
            mean[constant], std[constant] = x64[0, constant], 1.0
        assert stats.mean.dtype == stats.std.dtype == np.float64
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("rows", [7, 1_000, 57_000])
    def test_constant_columns_normalise_to_exact_zero(self, rows):
        # 0.1, 0.3 and 1.1 are inexact in binary, so numpy's std of such a
        # column is a residue near 1e-17..1e-13 rather than 0
        x = np.random.default_rng(rows).normal(size=(rows, 4))
        x[:, 1:] = [0.1, 0.3, 1.1]
        stats = fit_norm_stats(x)
        np.testing.assert_array_equal(stats.mean[1:], [0.1, 0.3, 1.1])
        np.testing.assert_array_equal(stats.std[1:], 1.0)
        z = apply_norm(x, stats)
        assert np.all(z[:, 1:] == 0.0)
        np.testing.assert_allclose(apply_norm(x[:1] + 0.5, stats)[0, 1:], 0.5, rtol=1e-12)

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            fit_norm_stats(np.ones((1, 3)))

    def test_rejects_non_finite_or_non_positive(self):
        for mean, std in (([np.nan], [1.0]), ([0.0], [np.nan]), ([np.inf], [1.0]), ([0.0], [np.inf]),
                          ([0.0], [0.0]), ([0.0], [-1.0])):
            with pytest.raises(ValueError):
                NormStats(mean=np.array(mean), std=np.array(std))

    def test_dict_roundtrip(self):
        stats = NormStats(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
        again = NormStats.from_dict(stats.as_dict())
        np.testing.assert_array_equal(again.mean, stats.mean)
        np.testing.assert_array_equal(again.std, stats.std)
