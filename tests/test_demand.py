import hashlib
import math

import numpy as np
import pytest
from conftest import stream_from_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ridecast.demand import (
    FARE_BASE,
    FARE_PER_KM,
    N_BASE_FEATURES,
    DemandProfile,
    NormStats,
    apply_norm,
    default_profile,
    fit_norm_stats,
    invert_norm,
    synth_demand,
)
from ridecast.market import KM_PER_DEG_LAT, GridSpec

BOX = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=4.0, lat_max=4.0, side_count=4)


def per_order_synth_demand(profile, grid, seed, duration_s, day_start_s=0.0):
    """Reference stream: each order draws its numbers one at a time, with
    ``Generator.choice`` for its destination, and the orders are sorted as
    tuples by (creation time, origin cell)."""
    rng = np.random.default_rng(seed)
    n_cells = grid.n_cells
    cw, ch = grid.cell_width, grid.cell_height
    draws = []
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
                trip_km = math.hypot((dlon - olon) * grid.km_per_deg_lon, (dlat - olat) * KM_PER_DEG_LAT)
                draws.append((tc, g, olon, olat, dlon, dlat, FARE_BASE + FARE_PER_KM * trip_km))
            t = slice_end
    draws.sort(key=lambda r: (r[0], r[1]))
    return stream_from_rows(grid, [(tc, *rest) for tc, g, *rest in draws])


@st.composite
def demand_cases(draw):
    side = draw(st.integers(1, 4))
    n = side * side
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = rng.uniform(0.0, draw(st.sampled_from([20.0, 150.0])), (n, 24))
    rates[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0  # cells without demand
    dest = rng.dirichlet(np.full(n, draw(st.sampled_from([0.2, 1.0, 20.0]))), size=n)
    one_hot = rng.random(n) < 0.3  # rows with zero-probability destinations
    dest[one_hot] = np.eye(n)[rng.integers(n, size=int(one_hot.sum()))]
    return dict(
        profile=DemandProfile(rates=rates, dest_probs=dest),
        grid=GridSpec(lon_min=-74.02, lat_min=40.70, lon_max=-73.93, lat_max=40.80, side_count=side),
        seed=draw(st.integers(0, 2**32 - 1)),
        duration_s=draw(st.sampled_from([0.0, 900.0, 3600.0, 5400.0, 7200.0]) | st.floats(600.0, 7200.0)),
        day_start_s=draw(st.sampled_from([0.0, 7.75 * 3600, 23.5 * 3600, 86399.0]) | st.floats(0.0, 2 * 86400.0)),
    )


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

    def test_stream_bytes_pinned(self):
        # the simulator golden traces see only matched orders and window
        # aggregates; this pins every column of every order.  07:45-08:15
        # crosses an hour, so each grid draws from two Poisson slices.
        # The fares come from math.hypot: np.hypot differs in the last bit
        # on about 0.6 % of pairs and would move this digest.
        stream = synth_demand(default_profile(BOX, daily_orders=2000), BOX, seed=21,
                              duration_s=1800.0, day_start_s=7.75 * 3600)
        assert len(stream) == 69 and (stream.t_create < 900.0).sum() == 31
        digest = hashlib.sha256()
        for name in ("t_create", "cell", "fare", "ox", "oy", "dx", "dy"):
            digest.update(getattr(stream, name).tobytes())
        assert digest.hexdigest() == "3ee8efda5d237691ff984c285eada1c35725e93e6b460e4ef1cf2adc075f6914"

    def test_orders_sorted_and_in_area(self):
        profile = default_profile(BOX, daily_orders=800)
        stream = synth_demand(profile, BOX, seed=4, duration_s=4 * 3600.0, day_start_s=7 * 3600)
        assert np.all(np.diff(stream.t_create) >= 0)
        assert np.all((0 <= stream.cell) & (stream.cell < 16))
        assert np.all((0.0 <= stream.t_create) & (stream.t_create < 4 * 3600.0))
        # each order's cell is the cell its origin lies in
        n = BOX.side_count
        col = (stream.ox / (BOX.x_max / n)).astype(int)
        row = (stream.oy / (BOX.y_max / n)).astype(int)
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

    def test_profile_tables_are_read_only_copies(self):
        # the checks made at construction hold for the profile's life
        rates, dest = np.ones((16, 24)), np.full((16, 16), 1 / 16)
        profile = DemandProfile(rates=rates, dest_probs=dest)
        rates[0, 0], dest[0] = -1.0, 0.0
        assert profile.rates[0, 0] == 1.0 and profile.dest_probs[0].sum() == 1.0
        for table in (profile.rates, profile.dest_probs):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.5

    def test_destination_rows_must_sum_to_one_within_1e_9(self):
        # Generator.choice rejects sums off by more than 1.5e-8, and allclose's
        # default relative tolerance would let 1e-6 through
        dest = np.full((16, 16), 1 / 16)
        dest[3, 0] += 1e-6
        with pytest.raises(ValueError, match="distributions"):
            DemandProfile(rates=np.ones((16, 24)), dest_probs=dest)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        # NaN passes a bare < 0 check, and its slot would then draw no orders
        rates = np.ones((16, 24))
        rates[4, 9] = rate
        with pytest.raises(ValueError, match="finite"):
            DemandProfile(rates=rates, dest_probs=np.full((16, 16), 1 / 16))

    @pytest.mark.parametrize(("duration_s", "day_start_s", "match"), [
        (math.nan, 0.0, "duration"),
        (-1.0, 0.0, "duration"),
        (3600.0, math.nan, "day start"),
        (3600.0, math.inf, "day start"),
    ], ids=["nan", "-1.0", "day_start_nan", "day_start_inf"])
    def test_bad_duration_rejected(self, duration_s, day_start_s, match):
        profile = default_profile(BOX, daily_orders=500)
        with pytest.raises(ValueError, match=match):
            synth_demand(profile, BOX, seed=1, duration_s=duration_s, day_start_s=day_start_s)


    @pytest.mark.parametrize("daily_orders", [500.0, 0.0], ids=["busy", "idle"])
    def test_profile_for_another_grid_rejected(self, daily_orders):
        # a 16-cell profile on a 3x3 grid: with orders rng.choice would fail
        # on the first draw, and with none the stream would come back empty
        profile = default_profile(BOX, daily_orders=daily_orders)
        small = GridSpec(0.0, 0.0, 3.0, 3.0, side_count=3)
        with pytest.raises(ValueError, match="16 cells, grid has 9"):
            synth_demand(profile, small, seed=1, duration_s=3600.0)

    @pytest.mark.parametrize(("day_start_h", "hour"), [(9.5, 10), (23.5, 0)], ids=["morning", "midnight"])
    def test_day_start_anchors_hourly_rates(self, day_start_h, hour):
        # demand only in one clock hour that starts half-way into the episode;
        # the midnight case wraps the day
        rates = np.zeros((16, 24))
        rates[:, hour] = 50.0
        profile = DemandProfile(rates=rates, dest_probs=np.full((16, 16), 1 / 16))
        stream = synth_demand(profile, BOX, seed=8, duration_s=3600.0, day_start_s=day_start_h * 3600)
        assert len(stream) > 0
        assert np.all((1800.0 <= stream.t_create) & (stream.t_create < 3600.0))

    def test_destinations_follow_dest_probs(self):
        # every trip ends in cell 6 (row 1, column 2), at a point inside it
        dest = np.zeros((16, 16))
        dest[:, 6] = 1.0
        profile = DemandProfile(rates=np.full((16, 24), 20.0), dest_probs=dest)
        stream = synth_demand(profile, BOX, seed=2, duration_s=3600.0)
        cw, ch = BOX.x_max / 4, BOX.y_max / 4
        assert len(stream) > 0 and len(np.unique(stream.cell)) > 1
        assert np.all((2 * cw <= stream.dx) & (stream.dx < 3 * cw))
        assert np.all((ch <= stream.dy) & (stream.dy < 2 * ch))

    def test_fares_follow_fare_constants(self):
        # fare = 2.5 + 1.0 per straight-line trip km
        profile = default_profile(BOX, daily_orders=800)
        stream = synth_demand(profile, BOX, seed=9, duration_s=3600.0, day_start_s=8 * 3600)
        assert len(stream) > 0
        trip_km = np.hypot(stream.dx - stream.ox, stream.dy - stream.oy)
        np.testing.assert_allclose(stream.fare, 2.5 + 1.0 * trip_km, rtol=1e-12)

    # derandomized so that the tier-1 suite gives the same verdict on every run
    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(demand_cases())
    # 4x4 from 23:15 for 2 h: crosses midnight and two hour boundaries
    @example(dict(profile=default_profile(BOX, daily_orders=3000), grid=BOX, seed=5, duration_s=7200.0,
                  day_start_s=23.25 * 3600))
    def test_same_bytes_as_per_order_reference(self, case):
        stream, ref = synth_demand(**case), per_order_synth_demand(**case)
        assert len(stream) == len(ref)
        for name in ("t_create", "cell", "fare", "ox", "oy", "dx", "dy"):
            assert getattr(stream, name).tobytes() == getattr(ref, name).tobytes(), name


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
