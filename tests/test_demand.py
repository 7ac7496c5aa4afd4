from datetime import datetime

import numpy as np
import pytest

from ridecast.demand import (
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
from ridecast.market import GridSpec

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
        times = [o.t_create for o in orders]
        assert times == sorted(times)
        assert [o.id for o in orders] == [0, 1, 2]

    def test_missing_fare_filled_by_fare_model(self, tmp_path):
        # dropoff sits exactly 2 km north of pickup, so fare = 2.5 + 1.0 * 2
        dlat = 0.5 + 2.0 / 110.574
        rows = [f"2015-05-01 10:00:00,0.5,0.5,0.5,{dlat},\n"]
        orders, _ = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1,
                               fare_model=FareModel(base=2.5, per_km=1.0))
        assert orders[0].fare == pytest.approx(4.5, rel=1e-12)

    def test_malformed_rows_skipped_with_count(self, tmp_path):
        rows = [
            "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n",
            "not-a-date,0.5,0.5,1.5,1.5,7.5\n",
        ] + ["2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"] * 18
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert report.malformed == 1
        assert len(orders) == 19

    def test_non_finite_fares_are_malformed(self, tmp_path):
        good = "2015-05-01 10:00:00,0.5,0.5,1.5,1.5,7.5\n"
        rows = [f"2015-05-01 10:00:00,0.5,0.5,1.5,1.5,{fare}\n" for fare in ("nan", "inf", "-inf")] + [good] * 37
        orders, report = load_trips(write_csv(tmp_path / "t.csv", rows), BOX, T0, T1)
        assert report.malformed == 3 and report.emitted == 37
        assert all(o.fare == 7.5 for o in orders)

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
        assert orders[0].t_create == 10 * 3600.0

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
        assert orders[0].grid == 2


class TestSynthDemand:
    def test_zero_rates_empty_stream(self):
        profile = DemandProfile(rates=np.zeros((16, 24)), dest_probs=np.full((16, 16), 1 / 16))
        assert synth_demand(profile, BOX, seed=1, duration_s=3600.0) == []

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
        for oa, ob in zip(a, b):
            assert (oa.t_create, oa.origin_lon, oa.dest_lat, oa.fare) == \
                   (ob.t_create, ob.origin_lon, ob.dest_lat, ob.fare)

    def test_orders_sorted_and_in_area(self):
        profile = default_profile(BOX, daily_orders=800)
        stream = synth_demand(profile, BOX, seed=4, duration_s=4 * 3600.0, day_start_s=7 * 3600)
        times = [o.t_create for o in stream]
        assert times == sorted(times)
        assert all(0 <= o.grid < 16 for o in stream)
        assert all(0.0 <= o.t_create < 4 * 3600.0 for o in stream)

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

    def test_profile_json_roundtrip(self, tmp_path):
        profile = default_profile(BOX, daily_orders=300)
        path = tmp_path / "profile.json"
        profile.to_json(path)
        loaded = DemandProfile.from_json(path)
        np.testing.assert_array_equal(loaded.rates, profile.rates)
        assert loaded.fare_model == profile.fare_model


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
