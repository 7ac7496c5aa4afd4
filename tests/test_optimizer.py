import dataclasses
import hashlib
import math
import re
import tracemalloc
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    compute_window_metrics,
    identity_stats,
    reference_dataset,
    reference_features,
    stream_from_rows,
)

from ridecast.behavior import AcceptanceModel
from ridecast.demand import NormStats, apply_norm, fit_norm_stats
from ridecast.market import GridSpec, MarketWindow, TimeOfDay
from ridecast.optimizer import (
    COL_GRID,
    COL_RADIUS,
    COL_TOD,
    N_BASE_FEATURES,
    N_INPUT_COLUMNS,
    N_TOD,
    CandidateSet,
    FeatureLayout,
    ModelPredictor,
    PredictorRadiusSource,
    RadiusDecision,
    TrainingData,
    collect_training_data,
    composite_score,
    concat_datasets,
    dataset_from_windows,
    normalize_features,
)
from ridecast.nn.model import ModelConfig, TransformerRegressor
from ridecast.sim import RandomRadius, SimConfig, Simulation, WindowSnapshot, run

BOX = GridSpec(lon_min=0.0, lat_min=0.0, lon_max=0.1, lat_max=0.1, side_count=4)
LAYOUT = FeatureLayout(seq_len=4, side_count=4)
IDENT = identity_stats(4)
FEATURE_IDENT = identity_stats(N_BASE_FEATURES)


class PinnedRadiusPredictor:
    """Stub predictor: always scores one radius highest regardless of features."""

    def __init__(self, preferred_radius: float):
        self.preferred_radius = preferred_radius

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        pred = np.zeros((len(candidates), 4))
        pred[:, 3] = np.where(np.isclose(candidates, self.preferred_radius), 1.0, 0.0)
        return pred


def mksnapshot(window=0, tod=0, n_idle=1, n_open=1, n_total=1, n_cells=16):
    full = lambda v: np.broadcast_to(np.asarray(v), (n_cells,)).copy()
    return WindowSnapshot(window=window, start_s=window * 300.0, tod=tod, n_idle=full(n_idle),
                          n_open=full(n_open), n_total=full(n_total))


def mkwindow(grid=2, window=0, ofr=0.5, apd=1.2, dur=0.4, rev=30.0, radius=2.0,
             n_idle=3, n_open=4, n_total=5, tod=TimeOfDay.OTHER):
    return MarketWindow(grid=grid, window=window, start_s=window * 300.0, n_idle=n_idle,
                        n_open=n_open, n_total=n_total, ofr=ofr, apd_km=apd, dur=dur,
                        revenue=rev, radius_km=radius, tod=tod)


def whole(windows, n_cells=16, **fields):
    """A log of whole windows: every grid logs each window number in ``windows``, in grid order."""
    return [mkwindow(grid=g, window=w, **fields) for w in windows for g in range(n_cells)]


def build_one(history, n_idle, n_open, n_total, tod, grid, candidate_radius, layout=LAYOUT):
    """Grid ``grid``'s sequence of a one-candidate decision batch under identity stats, which leaves
    the raw float32 features: ``history`` holds that grid's rows, one per window, and every other grid
    logs default rows beside them."""
    log = [w if g == grid else mkwindow(grid=g, window=w.window) for w in history for g in range(layout.n_cells)]
    src = PredictorRadiusSource(PinnedRadiusPredictor(candidate_radius), CandidateSet((candidate_radius,)), layout,
                                FEATURE_IDENT, IDENT)
    snapshot = mksnapshot(window=len(history), tod=tod, n_idle=n_idle, n_open=n_open, n_total=n_total,
                          n_cells=layout.n_cells)
    return src._batch(snapshot, log)[grid]  # K = 1: grid g is row g


@pytest.mark.parametrize("seq_len, side_count, field", [(2.5, 3, "seq_len"), (3, 2.0, "side_count"),
                                                         (3.0, 2, "seq_len"), (1, 3, "seq_len"), (3, 0, "side_count")])
def test_layout_sizes_are_whole_numbers_in_range(seq_len, side_count, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
        FeatureLayout(seq_len=seq_len, side_count=side_count)


class TestBuildFeatures:
    def test_cold_start_pads_with_zeros(self):
        x = build_one([], 5, 7, 9, tod=3, grid=2, candidate_radius=1.5)
        assert x.shape == (4, N_INPUT_COLUMNS)
        np.testing.assert_array_equal(x[:3, :N_BASE_FEATURES], 0.0)
        np.testing.assert_array_equal(x[:3, COL_GRID:], -1.0)  # padding rows index nothing
        assert x[-1, 0] == 5 and x[-1, 1] == 7 and x[-1, 2] == 9
        assert x[-1, COL_RADIUS] == 1.5
        assert x[-1, COL_GRID] == 2.0              # grid index
        assert x[-1, COL_TOD] == 3.0               # time-of-day code

    @pytest.mark.parametrize("n_windows", [0, 1, 2])
    def test_padding_stays_zero_after_normalization(self, n_windows):
        # the decision batch normalizes real rows only; every grid has
        # n_windows past windows and 3 - n_windows padding rows
        stats = NormStats(mean=np.full(N_BASE_FEATURES, 7.5), std=np.full(N_BASE_FEATURES, 2.0))
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), LAYOUT, stats, IDENT)
        x = src._batch(mksnapshot(window=n_windows), whole(range(n_windows)))
        assert x.shape == (16 * 2, 4, N_INPUT_COLUMNS)
        n_pad = 3 - n_windows
        np.testing.assert_array_equal(x[:, :n_pad, :N_BASE_FEATURES], 0.0)
        np.testing.assert_array_equal(x[:, :n_pad, COL_GRID:], -1.0)
        assert np.all(x[:, n_pad:, :N_BASE_FEATURES] != 0.0)  # centered away from zero by the stats

    def test_candidate_isolated_to_final_row_radius(self):
        hist = [mkwindow(window=w) for w in range(3)]
        a = build_one(hist, 2, 2, 2, tod=1, grid=2, candidate_radius=1.0)
        b = build_one(hist, 2, 2, 2, tod=1, grid=2, candidate_radius=2.0)
        diff = np.argwhere(a != b)
        assert diff.tolist() == [[3, COL_RADIUS]]

    def test_manual_layout_trace(self):
        h0 = mkwindow(window=5, ofr=0.25, apd=2.0, dur=0.5, rev=12.0, radius=3.0,
                      n_idle=1, n_open=2, n_total=3)
        h1 = mkwindow(window=6, ofr=0.75, apd=1.0, dur=0.6, rev=20.0, radius=4.0,
                      n_idle=4, n_open=5, n_total=6)
        x = build_one([h0, h1], 7, 8, 9, tod=2, grid=2, candidate_radius=2.5)
        want = np.array([[0, 0, 0, 0, 0, 0, 0, 0, -1, -1],
                         [1, 2, 3, 0.25, 2.0, 0.5, 12.0, 3.0, 2, 2],
                         [4, 5, 6, 0.75, 1.0, 0.6, 20.0, 4.0, 2, 2],
                         [7, 8, 9, 0, 0, 0, 0, 2.5, 2, 2]])
        # raw features are float32: each value is the float64 one rounded once
        assert x.dtype == np.float32
        np.testing.assert_array_equal(x, want.astype(np.float32))

    def test_history_longer_than_window_keeps_most_recent(self):
        hist = [mkwindow(grid=g, window=w, rev=float(w)) for w in range(10) for g in range(16)]
        data = dataset_from_windows(hist, LAYOUT)
        assert data.pad_rows[-1] == 0
        np.testing.assert_array_equal(data.features[-1, :3, 6], [6.0, 7.0, 8.0])
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0,)), LAYOUT, FEATURE_IDENT, IDENT)
        x = src._batch(mksnapshot(window=10), hist)
        np.testing.assert_array_equal(x[2, :3, 6], [7.0, 8.0, 9.0])  # K = 1: grid g is row g

    @pytest.mark.parametrize("path", ["training", "decision"])
    @pytest.mark.parametrize("tod", [-1, N_TOD, 9, 1.5, 2.9, math.nan])
    def test_time_of_day_that_is_no_code_rejected(self, tod, path):
        # neither a training row nor a decision's snapshot can hold such a code, because each rejects it
        # where it is made; a cast to an integer would make 1.5 code 1 and 2.9 code 2
        with pytest.raises(ValueError, match=f"tod must be a TimeOfDay code, got {tod}"):
            if path == "training":
                dataset_from_windows(whole([0], tod=tod), LAYOUT)
            else:
                build_one([mkwindow()], 1, 1, 1, tod=tod, grid=2, candidate_radius=1.0)

    @pytest.mark.parametrize("tod", list(TimeOfDay))
    def test_every_time_of_day_code_is_kept(self, tod):
        # an IntEnum member, a float of its value and a numpy integer alike
        for value in (tod, float(tod), np.int64(tod)):
            assert build_one([mkwindow()], 1, 1, 1, tod=value, grid=2, candidate_radius=1.0)[-1, COL_TOD] == tod


# logs that break one rule of whole windows each, within the decision batch's last T-1 windows, and the
# error each gets
BROKEN_LOGS = {
    "partial window": (lambda: whole([0, 1]) + [mkwindow(grid=0, window=2)], "not whole windows"),
    "missing grid": (lambda: [w for w in whole([0, 1]) if (w.window, w.grid) != (1, 5)], "not whole windows"),
    "shuffled grids": (lambda: [whole([0])[g] for g in [1, 0, *range(2, 16)]], "row 0 is grid 1, expected grid 0"),
    "foreign grid": (lambda: whole([0])[:-1] + [mkwindow(grid=16, window=0)], "row 15 is grid 16, expected grid 15"),
    "split window": (lambda: [mkwindow(grid=g, window=int(g == 7)) for g in range(16)], "share its window number"),
    "falling windows": (lambda: whole([1, 0]), "must rise"),
    "repeated window": (lambda: whole([3, 3]), "must rise"),
    "fractional windows": (lambda: whole([0.5, 1.5]), "whole numbers, got 0.5"),
    "infinite window": (lambda: whole([0]) + [dataclasses.replace(w, window=math.inf) for w in whole([1])],
                        "whole numbers, got inf"),
}


class TestWholeWindows:
    """Both entry points read a log as whole windows and reject any other."""

    @pytest.mark.parametrize("name", sorted(BROKEN_LOGS))
    def test_dataset_rejects(self, name):
        log, match = BROKEN_LOGS[name]
        with pytest.raises(ValueError, match=match):
            dataset_from_windows(log(), LAYOUT)

    @pytest.mark.parametrize("name", sorted(BROKEN_LOGS))
    def test_radii_rejects_and_records_nothing(self, name):
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), LAYOUT, FEATURE_IDENT, IDENT)
        log, match = BROKEN_LOGS[name]
        with pytest.raises(ValueError, match=match):
            src.radii(mksnapshot(window=4), log())
        assert len(src.decisions) == 0


ROW_VALUES = st.tuples(
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),    # n_idle, n_open, extra drivers
    st.floats(0, 1), st.floats(0, 4), st.floats(0, 1),          # ofr, apd, dur
    st.floats(0, 60), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(list(TimeOfDay)),
)
# whole windows of a 2 x 2 layout: each the step up from the last window number, then its four grids' rows
WINDOWS = st.lists(st.tuples(st.integers(1, 3), st.lists(ROW_VALUES, min_size=4, max_size=4)), max_size=10)


class TestDatasetFromWindows:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(windows=WINDOWS, seq_len=st.integers(2, 5))
    @example(windows=[], seq_len=4)
    def test_matches_per_example_oracle(self, windows, seq_len):
        # 0..10 windows with random rising gaps in window numbers, so some
        # logs hold fewer than T-1 windows; the empty log must give (0, T, D)
        # features and (0, 4) labels
        layout = FeatureLayout(seq_len=seq_len, side_count=2)
        numbers = np.cumsum([step for step, _ in windows], dtype=int) - 1
        log = [mkwindow(grid=g, window=int(w), n_idle=i, n_open=o, n_total=i + extra, ofr=ofr, apd=apd, dur=dur,
                        rev=rev, radius=r, tod=tod)
               for w, (_, rows) in zip(numbers, windows)
               for g, (i, o, extra, ofr, apd, dur, rev, r, tod) in enumerate(rows)]
        got, want = dataset_from_windows(log, layout, episode=7), reference_dataset(log, layout, episode=7)
        want.features = want.features.astype(np.float32)  # raw features: the float64 values rounded once
        for name in ("features", "labels", "pad_rows", "grids", "windows", "episodes"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
        assert got.labels.flags.c_contiguous

    @pytest.mark.parametrize("episode", [1.5, np.float64(2.0), True, -1])
    def test_episode_that_is_no_count_rejected(self, episode):
        # an int array would store 1.5 and True as 1, and split_by_episode would group those rows wrongly
        with pytest.raises(ValueError, match="episode must be an integer >= 0"):
            dataset_from_windows(whole([0]), LAYOUT, episode=episode)

    def test_raw_features_are_float32(self):
        data = dataset_from_windows([mkwindow(grid=g, window=w, apd=1.2, dur=0.1 * w)
                                     for w in range(6) for g in range(16)], LAYOUT)
        assert data.features.dtype == data.real_rows().dtype == np.float32
        assert data.features.shape == (16 * 6, LAYOUT.seq_len, N_INPUT_COLUMNS) == (96, 4, 10)
        assert data.labels.dtype == np.float64  # labels keep their float64 values
        assert data.labels[0, 1] == 1.2


class TestCompositeScore:
    def test_apd_enters_negatively(self):
        better = composite_score(np.array([0.5, 1.0, 0.4, 30.0]), IDENT)
        worse = composite_score(np.array([0.5, 2.0, 0.4, 30.0]), IDENT)
        assert better > worse

    def test_zero_zscores_zero_score(self):
        stats = NormStats(mean=np.array([0.5, 1.0, 0.4, 30.0]), std=np.ones(4))
        assert composite_score(np.array([0.5, 1.0, 0.4, 30.0]), stats) == 0.0

    def test_arithmetic(self):
        # z-values (1, -1, 0.5, 2) -> 1 + 0.5 + 2 - (-1) = 4.5
        assert composite_score(np.array([1.0, -1.0, 0.5, 2.0]), IDENT) == pytest.approx(4.5)


class TestChooseRadius:
    """Argmax rules of the batched ``radii`` call, read off grid 2's decision."""

    def _choose(self, predictor, cands):
        src = PredictorRadiusSource(predictor, cands, LAYOUT, FEATURE_IDENT, IDENT)
        radii = src.radii(mksnapshot(), [])
        assert len(src.decisions) == 16
        assert np.all(radii == radii[0])  # empty history: every grid sees the same rows
        return src.decisions[2]

    def test_single_candidate(self):
        d = self._choose(PinnedRadiusPredictor(9.0), CandidateSet((2.0,)))
        assert d.chosen_radius == 2.0

    def test_pinned_predictor_argmax(self):
        d = self._choose(PinnedRadiusPredictor(2.0), CandidateSet((1.0, 2.0)))
        assert d.chosen_radius == 2.0
        assert d.scores[1] > d.scores[0]

    def test_monotone_scores_choose_largest(self):
        class MonotoneRevenue:
            def predict_for(self, features, candidates):
                pred = np.zeros((len(candidates), 4))
                pred[:, 3] = candidates
                return pred

        d = self._choose(MonotoneRevenue(), CandidateSet(tuple(float(r) for r in range(1, 11))))
        assert d.chosen_radius == 10.0

    def test_tie_breaks_to_smallest(self):
        class Flat:
            def predict_for(self, features, candidates):
                return np.zeros((len(candidates), 4))

        d = self._choose(Flat(), CandidateSet((1.0, 2.0, 3.0)))
        assert d.chosen_radius == 1.0

    def test_candidate_set_validation(self):
        with pytest.raises(ValueError):
            CandidateSet(())
        with pytest.raises(ValueError):
            CandidateSet((1.0, 1.0))
        with pytest.raises(ValueError):
            CandidateSet((-1.0, 2.0))

    def test_candidate_set_takes_a_1d_sequence_or_array(self):
        assert CandidateSet(np.array([0.5, 1.0])) == CandidateSet([0.5, 1.0]) == CandidateSet((0.5, 1.0))
        assert CandidateSet(np.array([0.5, 1.0])).radii == (0.5, 1.0)
        assert CandidateSet(CandidateSet((0.5, 1.0))) == CandidateSet((0.5, 1.0))
        np.testing.assert_array_equal(np.asarray(CandidateSet((0.5, 1.0))), [0.5, 1.0])
        with pytest.raises(ValueError, match="1-D"):
            CandidateSet(np.ones((2, 2)))

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_candidate_rejected(self, radius):
        with pytest.raises(ValueError, match="finite and > 0"):
            CandidateSet((0.5, radius))

    def test_nan_snapshot_count_names_the_grid(self):
        # a NaN count stops at the snapshot, before any grid is scored; the NaN a model would then have
        # predicted for that grid, from a stub here, still meets the non-finite guard, which names the grid
        n_idle = np.where(np.arange(LAYOUT.n_cells) == 3, np.nan, 1.0)
        with pytest.raises(ValueError, match="counts must be finite"):
            mksnapshot(n_idle=n_idle)

        class NanForGrid3:
            def predict_for(self, features, candidates):
                pred = np.ones((len(candidates), 4))
                pred[3 * 2:4 * 2] = np.nan   # both candidates of grid 3
                return pred

        src = PredictorRadiusSource(NanForGrid3(), CandidateSet((0.5, 1.0)), LAYOUT, FEATURE_IDENT, IDENT)
        with pytest.raises(ValueError, match=r"grids \[3\]"):
            src.radii(mksnapshot(), [])

    def test_argmax_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)

        class RandomPred:
            def predict_for(self, features, candidates):
                return rng.normal(size=(len(candidates), 4))

        cands = CandidateSet((1.0, 2.0, 3.0, 4.0))
        src = PredictorRadiusSource(RandomPred(), cands, LAYOUT, FEATURE_IDENT, IDENT)
        radii = src.radii(mksnapshot(), [])
        assert len({d.chosen_radius for d in src.decisions}) > 1  # the draws differ per grid
        for d, r in zip(src.decisions, radii):
            # any strictly increasing transform of the scores keeps the argmax
            transformed = np.exp(2.0 * d.scores) + 5.0
            assert cands.radii[int(np.argmax(transformed))] == d.chosen_radius == r

    def test_non_finite_prediction_names_the_grids(self):
        class NanForSomeGrids:
            def predict_for(self, features, candidates):
                pred = np.zeros((len(candidates), 4))
                pred[3 * 2 + 1, 0] = np.nan   # grid 3, second candidate
                pred[11 * 2, 2] = np.inf      # grid 11, first candidate
                return pred

        src = PredictorRadiusSource(NanForSomeGrids(), CandidateSet((1.0, 2.0)), LAYOUT, FEATURE_IDENT, IDENT)
        with pytest.raises(ValueError, match=r"grids \[3, 11\]"):
            src.radii(mksnapshot(), [])
        assert len(src.decisions) == 0

    @pytest.mark.parametrize("n_cells", [1, 5, 16])
    def test_snapshot_counts_not_one_per_grid_rejected(self, n_cells):
        # the snapshot's three counts share one length, which must be the layout's grid count
        layout = FeatureLayout(seq_len=4, side_count=2)
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), layout,
                                    identity_stats(N_BASE_FEATURES), IDENT)
        with pytest.raises(ValueError, match=rf"counts have shape \({n_cells},\), expected \(4,\)"):
            src.radii(mksnapshot(n_cells=n_cells), [])
        assert len(src.decisions) == 0


def reference_radii(predictor, cands, layout, feature_stats, label_stats, snapshot, history):
    """Per-grid decisions: one reference_features sequence per candidate, rounded
    once to float32 as raw features are, the measured columns of its real rows
    normalized in float64, and one predict_for per grid."""
    chosen, preds = [], []
    for g in range(layout.n_cells):
        own = [w for w in history if w.grid == g]
        feats = []
        for r in cands.radii:
            x, n_pad = reference_features(own, int(snapshot.n_idle[g]), int(snapshot.n_open[g]),
                                          int(snapshot.n_total[g]), snapshot.tod, g, r, layout)
            x = x.astype(np.float32).astype(np.float64)
            x[n_pad:, :N_BASE_FEATURES] = apply_norm(x[n_pad:, :N_BASE_FEATURES], feature_stats)
            feats.append(x)
        feats = np.stack(feats)
        p = predictor.predict_for(feats, np.asarray(cands))
        chosen.append(cands.radii[int(np.argmax(composite_score(p, label_stats)))])
        preds.append(p)
    return np.array(chosen), np.array(preds)


class TestPredictorRadiusSource:
    # the window numbers of whole-window histories: short has fewer than T-1
    # windows, so every sequence pads; gappy has more, with gaps in the numbers
    HISTORIES = {"short": [5, 6], "gappy": [0, 2, 3, 5, 7]}

    # LAYOUT.dim is the width of stats that would z-score a one-hot input too
    @pytest.mark.parametrize("feature_width, label_width", [(1, 4), (LAYOUT.dim, 4), (N_BASE_FEATURES, 1),
                                                            (N_BASE_FEATURES, 5)])
    def test_rejects_stats_of_the_wrong_width(self, feature_width, label_width):
        with pytest.raises(ValueError, match="feature" if feature_width != N_BASE_FEATURES else "label"):
            PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), LAYOUT,
                                  identity_stats(feature_width), identity_stats(label_width))

    # one metric column per row would broadcast against the four label stats and still pick radii
    @pytest.mark.parametrize("shape", [lambda n: (n, 1), lambda n: (n,), lambda n: (4, n)],
                             ids=["one_column", "flat", "transposed"])
    def test_rejects_predictions_of_the_wrong_shape(self, shape):
        class ShapedPredictor:
            def predict_for(self, features, candidates):
                return np.zeros(shape(len(features)))

        src = PredictorRadiusSource(ShapedPredictor(), CandidateSet((1.0, 2.0)), LAYOUT, FEATURE_IDENT, IDENT)
        with pytest.raises(ValueError, match=re.escape(f"predictions have shape {shape(32)}, expected (32, 4)")):
            src.radii(mksnapshot(n_cells=LAYOUT.n_cells), [])
        assert len(src.decisions) == 0

    @pytest.mark.parametrize("with_stats", [False, True])
    @pytest.mark.parametrize("shape", sorted(HISTORIES))
    def test_batched_matches_per_grid_reference(self, shape, with_stats):
        rng = np.random.default_rng(7)
        history = []
        for w in self.HISTORIES[shape]:
            for g in range(16):
                history.append(mkwindow(grid=g, window=w, ofr=rng.uniform(), apd=rng.uniform(0, 3),
                                        dur=rng.uniform(), rev=rng.uniform(0, 50),
                                        radius=float(rng.choice([1.0, 2.0, 3.0])),
                                        n_idle=int(rng.integers(0, 5)), n_open=int(rng.integers(0, 5)),
                                        n_total=int(rng.integers(5, 10))))
        snapshot = WindowSnapshot(window=8, start_s=2400.0, tod=2, n_idle=rng.integers(0, 5, 16),
                                  n_open=rng.integers(0, 5, 16), n_total=rng.integers(5, 10, 16))
        rows = np.array([[w.n_idle, w.n_open, w.n_total, w.ofr, w.apd_km, w.dur, w.revenue, w.radius_km]
                         for w in history])
        feature_stats = FEATURE_IDENT
        if with_stats:
            feature_stats = NormStats(mean=rows.mean(axis=0), std=rows.std(axis=0))
        label_stats = NormStats(mean=np.array([0.5, 1.5, 0.5, 25.0]), std=np.array([0.2, 0.8, 0.3, 12.0]))
        model = TransformerRegressor(ModelConfig(seq_len=LAYOUT.seq_len, input_dim=LAYOUT.dim, d_model=8,
                                                 embed_hidden=8, block_hidden=8, head_hidden=4), seed=3)
        predictor = ModelPredictor(model, label_stats)
        cands = CandidateSet((0.5, 1.0, 2.0, 3.0))

        src = PredictorRadiusSource(predictor, cands, LAYOUT, feature_stats, label_stats)
        got = src.radii(snapshot, history)
        want, want_preds = reference_radii(predictor, cands, LAYOUT, feature_stats, label_stats, snapshot, history)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(np.array([d.predictions for d in src.decisions]), want_preds,
                                   rtol=0, atol=1e-12)
        assert [d.grid for d in src.decisions] == list(range(16))
        assert len({p.tobytes() for p in want_preds}) == 16  # every grid's rows predict differently

    def test_locality_and_audit(self):
        calls = []

        class CountingPinned(PinnedRadiusPredictor):
            def predict_for(self, features, candidates):
                calls.append(len(features))
                return super().predict_for(features, candidates)

        src = PredictorRadiusSource(CountingPinned(2.0), CandidateSet((1.0, 2.0, 3.0)),
                                    LAYOUT, FEATURE_IDENT, IDENT)
        cfg = SimConfig(grid=BOX, n_drivers=5, speed_kmh=20.0, radius_source=src,
                        acceptance=AcceptanceModel(), seed=0)
        sim = Simulation(cfg, stream_from_rows(BOX, []))
        for _ in range(60):
            sim.step()
        # one decision per grid per boundary (init + 2 closes)
        assert len(src.decisions) == 16 * 3
        assert all(d.chosen_radius == 2.0 for d in src.decisions)
        assert np.all(sim.radii == 2.0)
        per = {(d.window, d.grid) for d in src.decisions}
        assert len(per) == len(src.decisions)
        assert calls == [16 * 3] * 3  # one batched prediction per boundary

    def test_batch_is_the_float64_batch_cast_to_float32(self):
        history = [mkwindow(grid=g, window=w, rev=3.0 * g + w, radius=0.5 + w) for w in range(2) for g in range(16)]
        stats = NormStats(mean=np.linspace(-1.0, 2.0, N_BASE_FEATURES), std=np.linspace(0.3, 3.0, N_BASE_FEATURES))
        cands = CandidateSet((0.1, 0.7, 1.3))
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), cands, LAYOUT, stats, IDENT)
        snapshot = mksnapshot(window=2, tod=1, n_idle=3, n_open=2, n_total=6)
        want = []
        for g in range(LAYOUT.n_cells):
            for r in cands.radii:
                x, n_pad = reference_features([w for w in history if w.grid == g], 3, 2, 6, 1, g, r, LAYOUT)
                # raw features are rounded once to float32; the candidate radius is z-scored from its float64
                x = x.astype(np.float32).astype(np.float64)
                x[-1, COL_RADIUS] = r
                x[n_pad:, :N_BASE_FEATURES] = apply_norm(x[n_pad:, :N_BASE_FEATURES], stats)
                want.append(x)
        got = src._batch(snapshot, history)
        assert got.dtype == np.float32
        assert got.tobytes() == np.array(want).astype(np.float32).tobytes()

    def test_decision_depends_only_on_own_grid_history(self):
        captured = {}

        class Spy:
            def predict_for(self, features, candidates):
                captured.setdefault("feats", []).append(features.copy())
                return np.zeros((len(candidates), 4))

        hist = [mkwindow(grid=g, window=0, rev=float(g)) for g in range(16)]
        src = PredictorRadiusSource(Spy(), CandidateSet((1.0,)), LAYOUT, FEATURE_IDENT, IDENT)
        snap_like = Simulation(
            SimConfig(grid=BOX, n_drivers=3, speed_kmh=20.0,
                      radius_source=src, acceptance=AcceptanceModel(), seed=1),
            stream_from_rows(BOX, []),
        ).snapshot
        captured.clear()  # drop the Simulation's own first call
        src.radii(snap_like, hist)
        (base,) = captured["feats"]
        # perturb every other grid's history; grid 5's rows of the batch must not move
        hist2 = [mkwindow(grid=g, window=0, rev=99.0 if g != 5 else float(g)) for g in range(16)]
        captured["feats"].clear()
        src.radii(snap_like, hist2)
        (moved,) = captured["feats"]
        np.testing.assert_array_equal(moved[5:6], base[5:6])  # K = 1: grid g is row g
        assert not np.array_equal(np.delete(moved, 5, axis=0), np.delete(base, 5, axis=0))


class TestIndexColumnsPassThrough:
    """Training and decision inputs z-score the measured columns only: whatever the stats, the grid index
    and time-of-day code reach the model as exact whole numbers on real rows, and padding rows are +0.0
    with -1 in both index columns."""

    STATS = NormStats(mean=np.linspace(-3.0, 5.0, N_BASE_FEATURES), std=np.linspace(0.2, 4.0, N_BASE_FEATURES))

    @staticmethod
    def log(n_windows):
        # whole windows; the time of day is window % 4
        rng = np.random.default_rng(8)
        return [mkwindow(grid=g, window=w, ofr=rng.uniform(), apd=rng.uniform(0, 3), rev=rng.uniform(0, 50),
                         tod=TimeOfDay(w % 4))
                for w in range(n_windows) for g in range(LAYOUT.n_cells)]

    @pytest.mark.parametrize("path", ["training", "decision"])
    def test_indices_are_exact_and_padding_is_minus_one(self, path):
        t = LAYOUT.seq_len
        if path == "training":  # 5 windows: the first three pad 3, 2 and 1 rows
            data = dataset_from_windows(self.log(5), LAYOUT)
            x, pads, grids, tods = data.normalized_features(self.STATS), data.pad_rows, data.grids, data.windows % 4
        else:  # 2 windows: every sequence pads 1 row
            k = 3
            src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((0.5, 1.0, 2.0)), LAYOUT,
                                        self.STATS, IDENT)
            x = src._batch(mksnapshot(window=2, tod=1), self.log(2))
            pads = np.full(LAYOUT.n_cells * k, 1)
            grids, tods = np.repeat(np.arange(LAYOUT.n_cells), k), np.full(LAYOUT.n_cells * k, 1)
        assert x.dtype == np.float32 and x.shape == (len(grids), t, N_INPUT_COLUMNS)
        real = np.arange(t) >= pads[:, None]
        want = np.where(real[..., None], np.stack([grids, tods], axis=1)[:, None, :], -1.0).astype(np.float32)
        assert x[:, :, COL_GRID:].tobytes() == want.tobytes()
        assert x[~real, :N_BASE_FEATURES].tobytes() == np.zeros((np.sum(~real), N_BASE_FEATURES), np.float32).tobytes()


class TestTrainServeParity:
    """A decision batch is the training example of its window: the snapshot of window w, taken from that window's
    log rows, beside the log before w gives example g*W + w's normalized sequence for each grid g, byte for byte,
    except that each candidate's final radius is z-scored from its float64 value."""

    def test_decision_batch_is_the_training_example(self):
        layout, n_windows = FeatureLayout(seq_len=4, side_count=3), 7  # more windows than T
        n_grids = layout.n_cells
        rng = np.random.default_rng(35)
        tods = rng.integers(0, N_TOD, n_windows)
        log = [mkwindow(grid=g, window=w, ofr=rng.uniform(), apd=rng.uniform(0, 3), dur=rng.uniform(),
                        rev=rng.uniform(0, 50), radius=float(rng.choice([0.5, 1.0, 2.0])),
                        n_idle=int(rng.integers(0, 9)), n_open=int(rng.integers(0, 9)),
                        n_total=int(rng.integers(9, 20)), tod=TimeOfDay(tods[w]))
               for w in range(n_windows) for g in range(n_grids)]
        stats = NormStats(mean=rng.normal(size=N_BASE_FEATURES), std=rng.uniform(0.3, 3.0, N_BASE_FEATURES))
        cands = CandidateSet((0.5, 1.0, 2.0))
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), cands, layout, stats, IDENT)
        examples = normalize_features(dataset_from_windows(log, layout).features, stats)
        for w in range(n_windows):
            rows = log[w * n_grids:(w + 1) * n_grids]
            counts = {name: np.array([getattr(r, name) for r in rows]) for name in ("n_idle", "n_open", "n_total")}
            snapshot = WindowSnapshot(window=w, start_s=w * 300.0, tod=int(tods[w]), **counts)
            got = src._batch(snapshot, log[:w * n_grids]).reshape(n_grids, len(cands), layout.seq_len, -1)
            for g in range(n_grids):
                for j, r in enumerate(cands.radii):
                    want = examples[g * n_windows + w].copy()
                    want[-1, COL_RADIUS] = np.float32((r - stats.mean[COL_RADIUS]) / stats.std[COL_RADIUS])
                    assert got[g, j].tobytes() == want.tobytes(), (w, g, r)


def golden_day():
    """Radii and predictions of a 12-window generated day on a 10 x 10 layout.

    Feature and label stats are fitted on a generated three-window log.  In
    the day, every grid logs every window, so the first T-1 decisions pad
    their sequences.  Metrics are drawn from continuous distributions, so
    most raw values are not exact in float32.
    """
    layout = FeatureLayout(seq_len=6, side_count=10)
    g = layout.n_cells
    rng = np.random.default_rng(2023)

    def rows(w, grids):
        return [MarketWindow(grid=int(i), window=w, start_s=w * 300.0, n_idle=int(rng.integers(0, 8)),
                             n_open=int(rng.integers(0, 8)), n_total=int(rng.integers(8, 16)),
                             ofr=float(rng.uniform()), apd_km=float(rng.uniform(0, 3)), dur=float(rng.uniform()),
                             revenue=float(rng.uniform(0, 60)), radius_km=float(rng.choice([0.5, 1.0, 2.0, 3.0])),
                             tod=TimeOfDay(w % 4))
                for i in grids]

    fit_log = [r for w in range(3) for r in rows(w, range(g))]
    data = dataset_from_windows(fit_log, layout)
    feature_stats, label_stats = fit_norm_stats(data.real_rows()), fit_norm_stats(data.labels)
    model = TransformerRegressor(ModelConfig(seq_len=layout.seq_len, input_dim=layout.dim, d_model=16,
                                             embed_hidden=16, block_hidden=16, head_hidden=8), seed=17)
    src = PredictorRadiusSource(ModelPredictor(model, label_stats), CandidateSet((0.5, 1.0, 1.5, 2.0, 3.0)),
                                layout, feature_stats, label_stats)
    history, chosen = [], []
    for w in range(12):
        snapshot = WindowSnapshot(window=w, start_s=w * 300.0, tod=w % 4, n_idle=rng.integers(0, 8, g),
                                  n_open=rng.integers(0, 8, g), n_total=rng.integers(8, 16, g))
        chosen.append(src.radii(snapshot, history))
        history += rows(w, range(g))
    return np.concatenate(chosen), np.array([d.predictions for d in src.decisions])


@pytest.mark.one_blas_thread
class TestGoldenDecisionTrace:
    """Pins the bytes of a fixed-seed day's decisions.  A change that moves
    them must say why in CHANGES.md and re-pin.  The pins were taken with
    numpy's OpenBLAS on x86-64; a BLAS that orders float32 sums differently
    may move the prediction bytes."""

    RADII = "d962913049c840934e5fdb5e8773b44edcadd79dca997b2809a176838ef99c01"
    PREDICTIONS = "46b84eedb7effd822fb3f30bcbb8095f91a57db121c88c986b7cba3683071640"

    def test_day(self):
        radii, preds = golden_day()
        assert radii.shape == (12 * 100,) and preds.shape == (12 * 100, 5, 4)
        assert len(np.unique(radii)) > 1  # the trace would pin nothing if every grid chose alike
        assert hashlib.sha256(radii.tobytes()).hexdigest() == self.RADII
        assert hashlib.sha256(preds.tobytes()).hexdigest() == self.PREDICTIONS


class TestDecisionLog:
    """``decisions`` against the per-grid list of ``RadiusDecision``s that
    ``radii`` used to extend, rebuilt from the predictor's outputs."""

    def test_equals_the_per_grid_list(self):
        rng = np.random.default_rng(4)
        outputs = []

        class RecordingPred:
            def predict_for(self, features, candidates):
                outputs.append(rng.normal(size=(len(candidates), 4)))
                return outputs[-1]

        cands = CandidateSet((0.5, 1.0, 2.0))
        g, k = LAYOUT.n_cells, len(cands)
        src = PredictorRadiusSource(RecordingPred(), cands, LAYOUT, FEATURE_IDENT, IDENT)
        want: list[RadiusDecision] = []
        for w in range(5):
            radii = src.radii(mksnapshot(window=10 + w), [])
            preds = outputs[-1].reshape(g, k, 4)
            scores = composite_score(outputs[-1], IDENT).reshape(g, k)
            want += [RadiusDecision(grid=i, window=10 + w, chosen_radius=cands.radii[int(np.argmax(scores[i]))],
                                    candidates=cands.radii, predictions=preds[i], scores=scores[i])
                     for i in range(g)]
            assert [d.chosen_radius for d in src.decisions[-g:]] == radii.tolist()

        def same(a, b):
            fields = attrgetter("grid", "window", "chosen_radius", "candidates")
            return (fields(a) == fields(b) and a.predictions.tobytes() == b.predictions.tobytes()
                    and a.scores.tobytes() == b.scores.tobytes())

        log = src.decisions
        assert len(log) == len(want) == 5 * g
        assert all(same(a, b) for a, b in zip(log, want, strict=True))
        assert all(same(log[i], want[i]) for i in range(-len(want), len(want)))
        assert all(same(a, b) for a, b in zip(log[-g:], want[-g:], strict=True))
        assert all(same(a, b) for a, b in zip(log[3:40:7], want[3:40:7], strict=True))
        assert same(log[-1], want[-1]) and log[-1].grid == g - 1 and log[-1].window == 14
        for bad in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                log[bad]

    def test_log_holds_the_latest_run(self):
        # two runs of one config: the second run's first call starts the log afresh, where the log used to
        # grow to 224 records with windows 0-6 twice
        src = PredictorRadiusSource(PinnedRadiusPredictor(2.0), CandidateSet((1.0, 2.0, 3.0)), LAYOUT,
                                    FEATURE_IDENT, IDENT)
        cfg, stream = SimConfig(grid=BOX, n_drivers=6, speed_kmh=22.0, radius_source=src), small_stream(3)
        first = run(cfg, stream, 1800.0)
        assert run(cfg, stream, 1800.0) == first
        assert len(src.decisions) == 112  # 16 grids x windows 0..6
        assert [d.window for d in src.decisions] == np.repeat(range(7), 16).tolist()
        # a call for window 3 drops windows 3..6 and keeps those before it
        src.radii(mksnapshot(window=3), [])
        assert [d.window for d in src.decisions] == np.repeat(range(4), 16).tolist()

    def test_retained_memory_per_decision(self):
        layout = FeatureLayout(seq_len=6, side_count=10)

        class FreshPred:
            def predict_for(self, features, candidates):
                return np.ones((len(candidates), 4))

        src = PredictorRadiusSource(FreshPred(), CandidateSet((0.5, 1.0, 1.5, 2.0, 3.0)), layout,
                                    identity_stats(N_BASE_FEATURES), IDENT)
        src.radii(mksnapshot(n_cells=layout.n_cells), [])
        calls = 96
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for w in range(1, calls + 1):
                src.radii(mksnapshot(window=w, n_cells=layout.n_cells), [])
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(src.decisions) == (calls + 1) * layout.n_cells
        # one RadiusDecision with two array views per grid kept about 540 B
        assert retained / (calls * layout.n_cells) < 350


def small_scenario_config(radius_seed, sim_seed, candidates):
    return SimConfig(
        grid=BOX,
        n_drivers=6,
        speed_kmh=22.0,
        radius_source=RandomRadius(candidates, BOX.n_cells, seed=radius_seed),
        acceptance=AcceptanceModel(),
        seed=sim_seed,
    )


def small_stream(seed):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(60):
        lon, lat = rng.uniform(0.01, 0.09, size=2)
        dlon, dlat = rng.uniform(0.01, 0.09, size=2)
        draws.append((float(rng.uniform(0, 1700)), lon, lat, dlon, dlat))
    draws.sort(key=lambda d: d[0])
    return stream_from_rows(BOX, [(*d, 6.0) for d in draws])


class TestCollect:
    def test_concat_datasets_joins_every_example_in_order(self):
        parts = [dataset_from_windows(whole(range(3), rev=1.0), LAYOUT, episode=0),
                 dataset_from_windows(whole(range(2), rev=2.0), LAYOUT, episode=4)]
        data = concat_datasets(parts)
        assert data.layout == LAYOUT and len(data) == 16 * 5
        np.testing.assert_array_equal(data.episodes, [0] * 48 + [4] * 32)
        np.testing.assert_array_equal(data.labels[:, 3], [1.0] * 48 + [2.0] * 32)
        np.testing.assert_array_equal(data.windows, np.r_[np.tile(range(3), 16), np.tile(range(2), 16)])
        np.testing.assert_array_equal(data.grids, np.r_[np.repeat(range(16), 3), np.repeat(range(16), 2)])
        np.testing.assert_array_equal(data.pad_rows, np.r_[np.tile([3, 2, 1], 16), np.tile([3, 2], 16)])
        np.testing.assert_array_equal(data.features, np.concatenate([parts[0].features, parts[1].features]))

    def test_concat_datasets_rejects_parts_of_different_layouts(self):
        # this used to join 60 examples under the first part's 2x2 layout, with grid indices up to 15
        small, large = FeatureLayout(seq_len=3, side_count=2), FeatureLayout(seq_len=3, side_count=4)
        parts = [dataset_from_windows(whole(range(3), n_cells=4), small),
                 dataset_from_windows(whole(range(3), n_cells=16), large)]
        with pytest.raises(ValueError, match=re.escape(f"cannot join examples of {small} and {large}")):
            concat_datasets(parts)

    def test_row_count_and_label_identity(self):
        data, results = collect_training_data(
            make_config=lambda i, s, rs: small_scenario_config(rs, s, [1.0, 2.0]),
            make_stream=lambda i, ds: small_stream(ds),
            episodes=2,
            horizon_s=1800.0,
            layout=LAYOUT,
            base_seed=0,
        )
        assert len(data) == 2 * 16 * 6  # episodes x grids x windows
        # labels must equal the logged window metrics exactly
        for k in range(0, len(data), 37):
            ep, g, w = data.episodes[k], data.grids[k], data.windows[k]
            row = [x for x in results[ep].windows if x.grid == g and x.window == w][0]
            np.testing.assert_array_equal(data.labels[k], [row.ofr, row.apd_km, row.dur, row.revenue])
            assert data.features[k][-1, COL_RADIUS] == row.radius_km

    def test_label_matches_metric_recomputation(self):
        streams = []

        def make_stream(i, ds):
            streams.append(small_stream(ds))
            return streams[-1]

        data, results = collect_training_data(
            make_config=lambda i, s, rs: small_scenario_config(rs, s, [1.0, 3.0]),
            make_stream=make_stream,
            episodes=1,
            horizon_s=1800.0,
            layout=LAYOUT,
            base_seed=1,
        )
        # recompute every grid-window's ofr, apd and revenue from the stream and
        # the match log; the same values are summed in the same order, so the
        # logged row and the label must match exactly
        res, stream = results[0], streams[0]
        assert len(res.windows) == 16 * 6
        for row in res.windows:
            m = compute_window_metrics(
                stream, np.flatnonzero(stream.cell == row.grid).tolist(),
                [x for x in res.matches if x.grid == row.grid],
                row.start_s, row.start_s + 300.0, occupied_s=0.0, online_s=0.0,
            )
            assert (m.ofr, m.apd_km, m.revenue) == (row.ofr, row.apd_km, row.revenue)
            labeled = data.labels[(data.grids == row.grid) & (data.windows == row.window)][0]
            np.testing.assert_array_equal(labeled[[0, 1, 3]], [m.ofr, m.apd_km, m.revenue])
        assert any(row.ofr > 0 for row in res.windows)

    def test_different_base_seeds_use_disjoint_streams(self):
        kw = dict(
            make_config=lambda i, s, rs: small_scenario_config(rs, s, [1.0, 2.0, 3.0]),
            make_stream=lambda i, ds: small_stream(ds),
            episodes=1,
            horizon_s=900.0,
            layout=LAYOUT,
        )
        d1, _ = collect_training_data(base_seed=0, **kw)
        d2, _ = collect_training_data(base_seed=1, **kw)
        assert not np.array_equal(d1.features, d2.features)

    @pytest.mark.parametrize("episodes", [True, 0, -1, 1.5, np.float64(2.0)])
    def test_episodes_that_are_no_count_rejected(self, episodes):
        # True used to run one episode, -1 to raise an OverflowError and 1.5 a TypeError
        def no_episode(*args):
            raise AssertionError("no episode may run")

        with pytest.raises(ValueError, match="episodes must be an integer >= 1"):
            collect_training_data(make_config=no_episode, make_stream=no_episode, episodes=episodes,
                                  horizon_s=900.0, layout=LAYOUT)

    def test_split_by_episode_is_disjoint(self):
        data, _ = collect_training_data(
            make_config=lambda i, s, rs: small_scenario_config(rs, s, [1.0, 2.0]),
            make_stream=lambda i, ds: small_stream(ds),
            episodes=5,
            horizon_s=600.0,
            layout=LAYOUT,
            base_seed=2,
        )
        train_mask, test_mask = data.split_by_episode(test_fraction=0.2, seed=0)
        assert not np.any(train_mask & test_mask)
        assert np.all(train_mask | test_mask)
        assert set(data.episodes[test_mask]).isdisjoint(set(data.episodes[train_mask]))

    def test_normalized_features_zero_padding(self):
        data, _ = collect_training_data(
            make_config=lambda i, s, rs: small_scenario_config(rs, s, [1.0, 2.0]),
            make_stream=lambda i, ds: small_stream(ds),
            episodes=1,
            horizon_s=900.0,
            layout=LAYOUT,
            base_seed=4,
        )
        stats = fit_norm_stats(data.real_rows())
        normed = data.normalized_features(stats)
        assert normed.dtype == np.float32
        for i in range(len(data)):
            np.testing.assert_array_equal(normed[i, : data.pad_rows[i], :N_BASE_FEATURES], 0.0)
            np.testing.assert_array_equal(normed[i, : data.pad_rows[i], COL_GRID:], -1.0)
        flat = np.concatenate([normed[i, data.pad_rows[i]:] for i in range(len(data))]).astype(np.float64)
        base = flat[:, :N_BASE_FEATURES]
        # the float32 cast moves each z-score by at most half an ulp
        tol = np.finfo(np.float32).eps * np.abs(base).max()
        assert np.max(np.abs(base.mean(axis=0))) < tol
        std = base.std(axis=0)
        assert np.all((np.abs(std - 1.0) < tol) | (std == 0.0))  # constant columns z-score to 0
        indices = np.concatenate([data.features[i, data.pad_rows[i]:, COL_GRID:] for i in range(len(data))])
        np.testing.assert_array_equal(flat[:, COL_GRID:], indices)  # passed through as whole numbers

    def test_dataset_helpers_match_per_example_loop(self):
        data, _ = collect_training_data(
            make_config=lambda i, s, rs: small_scenario_config(rs, s, [1.0, 2.0]),
            make_stream=lambda i, ds: small_stream(ds),
            episodes=1,
            horizon_s=1800.0,
            layout=LAYOUT,
            base_seed=5,
        )
        assert set(data.pad_rows.tolist()) == {0, 1, 2, 3}
        rows = np.concatenate([data.features[i, data.pad_rows[i]:, :N_BASE_FEATURES] for i in range(len(data))])
        real = data.real_rows()
        assert real.dtype == np.float32
        assert real.tobytes() == rows.tobytes()
        stats = NormStats(mean=np.full(N_BASE_FEATURES, 0.25), std=np.full(N_BASE_FEATURES, 3.0))
        want = data.features.astype(np.float64)  # padding rows are zero, -1 in the index columns
        for i in range(len(data)):
            p = data.pad_rows[i]
            want[i, p:, :N_BASE_FEATURES] = (data.features[i, p:, :N_BASE_FEATURES] - stats.mean) / stats.std
        got = data.normalized_features(stats)
        # bit-identical to the float64 arithmetic cast to float32, padding rows exactly +0.0
        assert got.tobytes() == want.astype(np.float32).tobytes()


def mkdata(n=4, layout=LAYOUT, **fields):
    """n all-zero sequences with consistent fields; ``fields`` override them."""
    t = layout.seq_len
    base = dict(features=np.zeros((n, t, N_INPUT_COLUMNS)), labels=np.zeros((n, 4)), pad_rows=np.zeros(n, dtype=int),
                grids=np.zeros(n, dtype=int), windows=np.arange(n), episodes=np.arange(n), layout=layout)
    return TrainingData(**{**base, **fields})


def mark_padding(features, pads):
    """Drawn ``features`` as sequences: the index columns made non-negative, so that no real row reads as
    padding, then -1 in both on the first ``pads[k]`` rows of sequence k, the padding marker."""
    features[..., COL_GRID:] = np.abs(features[..., COL_GRID:])
    features[np.arange(features.shape[1]) < pads[:, None], COL_GRID:] = -1.0
    return features


class TestTrainingData:
    @pytest.mark.parametrize("field, value, match", [
        ("labels", np.zeros((7, 4)), "labels"),
        ("labels", np.zeros((4, 3)), "labels"),
        ("features", np.zeros((4, LAYOUT.seq_len + 1, N_INPUT_COLUMNS)), "features"),
        ("features", np.zeros((4, LAYOUT.seq_len, N_INPUT_COLUMNS - 1)), "features"),
        ("features", np.zeros((4, LAYOUT.seq_len * N_INPUT_COLUMNS)), "features"),
        ("features", np.zeros((4, LAYOUT.seq_len, LAYOUT.dim)), "features"),  # the one-hot width
        ("pad_rows", np.zeros(5, dtype=int), "pad_rows"),
        ("grids", np.zeros((4, 1), dtype=int), "grids"),
        ("windows", np.arange(3), "windows"),
        ("episodes", np.arange(5), "episodes"),
        ("pad_rows", np.array([0, 1, LAYOUT.seq_len, 0]), "pad_rows"),
        ("pad_rows", np.array([0, -1, 0, 0]), "pad_rows"),
    ])
    def test_rejects_inconsistent_arrays(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            mkdata(**{field: value})

    def test_accepts_the_largest_padding(self):
        pads = np.full(4, LAYOUT.seq_len - 1)
        data = mkdata(features=mark_padding(np.zeros((4, LAYOUT.seq_len, N_INPUT_COLUMNS)), pads), pad_rows=pads)
        assert data.real_rows().shape == (4, N_BASE_FEATURES)

    # N_INPUT_COLUMNS and LAYOUT.dim are the widths of stats that would z-score the indices or one-hots too
    @pytest.mark.parametrize("width", [1, N_BASE_FEATURES - 1, N_INPUT_COLUMNS, LAYOUT.dim])
    def test_normalized_features_rejects_stats_of_the_wrong_width(self, width):
        with pytest.raises(ValueError, match=f"expected \\({N_BASE_FEATURES},\\)"):
            mkdata().normalized_features(identity_stats(width))

    @pytest.mark.parametrize("n", [1, 3, 130, 259])
    def test_normalized_features_is_the_float64_result_cast(self, n):
        # every column is drawn, the padding rows' measured ones too, and the real rows' index values are
        # not whole numbers, so a column that is z-scored or not, or a padding row that is zeroed or not, shows
        rng = np.random.default_rng(n)
        pads = rng.integers(0, LAYOUT.seq_len, n)
        features = rng.normal(size=(n, LAYOUT.seq_len, N_INPUT_COLUMNS)) * 10.0 ** rng.uniform(-6, 6, N_INPUT_COLUMNS)
        features = mark_padding(features, pads)
        stats = NormStats(mean=rng.normal(size=N_BASE_FEATURES), std=10.0 ** rng.uniform(-3, 3, N_BASE_FEATURES))
        got = mkdata(n, features=features, pad_rows=pads).normalized_features(stats)
        want = features.copy()
        want[..., :N_BASE_FEATURES] = (features[..., :N_BASE_FEATURES] - stats.mean) / stats.std
        want[np.arange(LAYOUT.seq_len) < pads[:, None], :N_BASE_FEATURES] = 0.0
        assert got.dtype == np.float32
        assert got.tobytes() == want.astype(np.float32).tobytes()  # padding rows +0.0, not -0.0

    def test_real_rows_copy_only_the_measured_columns(self):
        layout = FeatureLayout(seq_len=6, side_count=10)
        rng = np.random.default_rng(5)
        n = 2000
        pads = rng.integers(0, layout.seq_len, n)
        features = mark_padding(rng.normal(size=(n, layout.seq_len, N_INPUT_COLUMNS)).astype(np.float32), pads)
        data = mkdata(n, layout, features=features, pad_rows=pads)
        m = int(np.sum(layout.seq_len - pads))
        tracemalloc.start()
        try:
            rows = data.real_rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (m, N_BASE_FEATURES) and rows.dtype == np.float32
        # the (M, 8) result, the (N, T) mask and the masking's own scratch read about 1.6x the result; an
        # (M, N_INPUT_COLUMNS) copy beside the result would make 2.25x
        assert peak < 2 * rows.nbytes

    def test_normalized_features_peak_memory(self):
        layout = FeatureLayout(seq_len=6, side_count=10)
        rng = np.random.default_rng(3)
        n = 2000
        pads = rng.integers(0, layout.seq_len, n)
        data = mkdata(n, layout, features=mark_padding(rng.normal(size=(n, layout.seq_len, N_INPUT_COLUMNS)), pads),
                      pad_rows=pads)
        stats = NormStats(mean=np.full(N_BASE_FEATURES, 0.5), std=np.full(N_BASE_FEATURES, 2.0))
        tracemalloc.start()
        try:
            data.normalized_features(stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float32 result and one float64 temporary of the measured columns; a second temporary would
        # make about 1.6x their bytes, and a float64 result 1.4x
        result, scratch = n * layout.seq_len * N_INPUT_COLUMNS * 4, n * layout.seq_len * N_BASE_FEATURES * 8
        assert peak < 1.2 * (result + scratch)

    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -0.5, math.nan])
    def test_split_rejects_fractions_outside_the_open_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="test_fraction"):
            mkdata(episodes=np.array([0, 0, 1, 2])).split_by_episode(test_fraction=fraction)

    def test_split_needs_two_episodes(self):
        with pytest.raises(ValueError, match="2 episodes"):
            mkdata(episodes=np.zeros(4, dtype=int)).split_by_episode()

    @pytest.mark.parametrize("fraction, n_episodes, n_test", [(0.01, 3, 1), (0.9, 2, 1), (0.99, 5, 4),
                                                              (0.2, 10, 2), (0.5, 4, 2)])
    def test_split_keeps_an_episode_on_each_side(self, fraction, n_episodes, n_test):
        data = mkdata(2 * n_episodes, episodes=np.repeat(np.arange(n_episodes), 2))
        train_mask, test_mask = data.split_by_episode(test_fraction=fraction, seed=1)
        assert len(np.unique(data.episodes[test_mask])) == n_test
        assert len(np.unique(data.episodes[train_mask])) == n_episodes - n_test
        assert np.all(train_mask ^ test_mask)
