import dataclasses
import hashlib
import math
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
from ridecast.market import GridSpec, MarketWindow, TimeOfDay, grid_index
from ridecast.optimizer import (
    COL_RADIUS,
    N_BASE_FEATURES,
    N_TOD,
    CandidateSet,
    FeatureLayout,
    ModelPredictor,
    PredictorRadiusSource,
    RadiusDecision,
    TrainingData,
    build_feature_batch,
    collect_training_data,
    composite_score,
    dataset_from_windows,
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


def build_one(history, n_idle, n_open, n_total, tod, grid, candidate_radius, layout=LAYOUT):
    """One sequence through the batched builder: the history rows right-aligned
    in the index row, -1 before them."""
    table = np.array([[w.n_idle, w.n_open, w.n_total, w.ofr, w.apd_km, w.dur, w.revenue, w.radius_km]
                      for w in history]).reshape(-1, 8)
    index = [-1] * (layout.seq_len - 1 - len(history)) + list(range(len(history)))
    x, pads = build_feature_batch(table, [w.grid for w in history], [index], [[n_idle, n_open, n_total]],
                                  [candidate_radius], [grid], [tod], layout)
    return x[0], int(pads[0])


class TestBuildFeatures:
    def test_cold_start_pads_with_zeros(self):
        x, n_pad = build_one([], 5, 7, 9, tod=3, grid=2, candidate_radius=1.5)
        assert x.shape == (4, LAYOUT.dim)
        assert n_pad == 3
        np.testing.assert_array_equal(x[:3], 0.0)
        assert x[-1, 0] == 5 and x[-1, 1] == 7 and x[-1, 2] == 9
        assert x[-1, COL_RADIUS] == 1.5
        assert x[-1, 8 + 2] == 1.0                 # grid one-hot
        assert x[-1, 8 + 16 + 3] == 1.0            # time-of-day one-hot

    def test_padding_stays_zero_after_normalization(self):
        # the decision batch normalizes real rows only; grid 2 has one past
        # window (2 padding rows), every other grid none (3 padding rows)
        stats = NormStats(mean=np.full(N_BASE_FEATURES, 7.5), std=np.full(N_BASE_FEATURES, 2.0))
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), LAYOUT, stats, IDENT)
        x = src._batch(mksnapshot(window=1), [mkwindow(grid=2, window=0)])
        assert x.shape == (16 * 2, 4, LAYOUT.dim)
        grid2 = x[2 * 2: 3 * 2]  # grid-major: row g*K + j
        np.testing.assert_array_equal(grid2[:, :2], 0.0)
        assert np.all(grid2[:, 2:, :N_BASE_FEATURES] != 0.0)  # centered away from zero by the stats
        others = np.delete(x, [4, 5], axis=0)
        np.testing.assert_array_equal(others[:, :3], 0.0)
        assert np.all(others[:, 3, :N_BASE_FEATURES] != 0.0)

    def test_candidate_isolated_to_final_row_radius(self):
        hist = [mkwindow(window=w) for w in range(3)]
        a, _ = build_one(hist, 2, 2, 2, tod=1, grid=2, candidate_radius=1.0)
        b, _ = build_one(hist, 2, 2, 2, tod=1, grid=2, candidate_radius=2.0)
        diff = np.argwhere(a != b)
        assert diff.tolist() == [[3, COL_RADIUS]]

    def test_manual_layout_trace(self):
        h0 = mkwindow(window=5, ofr=0.25, apd=2.0, dur=0.5, rev=12.0, radius=3.0,
                      n_idle=1, n_open=2, n_total=3)
        h1 = mkwindow(window=6, ofr=0.75, apd=1.0, dur=0.6, rev=20.0, radius=4.0,
                      n_idle=4, n_open=5, n_total=6)
        x, n_pad = build_one([h0, h1], 7, 8, 9, tod=2, grid=2, candidate_radius=2.5)
        assert n_pad == 1
        grid_onehot = np.eye(16)[2]
        tod_onehot = np.eye(4)[2]
        want = np.zeros((4, LAYOUT.dim))
        want[1] = np.concatenate([[1, 2, 3, 0.25, 2.0, 0.5, 12.0, 3.0], grid_onehot, tod_onehot])
        want[2] = np.concatenate([[4, 5, 6, 0.75, 1.0, 0.6, 20.0, 4.0], grid_onehot, tod_onehot])
        want[3] = np.concatenate([[7, 8, 9, 0, 0, 0, 0, 2.5], grid_onehot, tod_onehot])
        # raw features are float32: each value is the float64 one rounded once
        assert x.dtype == np.float32
        np.testing.assert_array_equal(x, want.astype(np.float32))

    def test_history_longer_than_window_keeps_most_recent(self):
        hist = [mkwindow(window=w, rev=float(w)) for w in range(10)]
        data = dataset_from_windows(hist, LAYOUT)
        assert data.pad_rows[-1] == 0
        np.testing.assert_array_equal(data.features[-1, :3, 6], [6.0, 7.0, 8.0])
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0,)), LAYOUT, FEATURE_IDENT, IDENT)
        x = src._batch(mksnapshot(window=10), hist)
        np.testing.assert_array_equal(x[2, :3, 6], [7.0, 8.0, 9.0])  # K = 1: grid g is row g

    def test_wrong_grid_history_rejected(self):
        with pytest.raises(ValueError):
            build_one([mkwindow(grid=1)], 1, 1, 1, tod=0, grid=2, candidate_radius=1.0)

    @pytest.mark.parametrize("tod", [-1, N_TOD, 9])
    def test_time_of_day_outside_the_one_hots_rejected(self, tod):
        with pytest.raises(ValueError, match=f"time of day {tod} outside 0..{N_TOD - 1}"):
            build_one([mkwindow()], 1, 1, 1, tod=tod, grid=2, candidate_radius=1.0)


WINDOW_ROWS = st.tuples(
    st.integers(0, 3), st.integers(0, 12),                      # grid, window
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),    # n_idle, n_open, extra drivers
    st.floats(0, 1), st.floats(0, 4), st.floats(0, 1),          # ofr, apd, dur
    st.floats(0, 60), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from(list(TimeOfDay)),
)


class TestDatasetFromWindows:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(rows=st.lists(WINDOW_ROWS, max_size=40), seq_len=st.integers(2, 5))
    @example(rows=[], seq_len=4)
    def test_matches_per_example_oracle(self, rows, seq_len):
        # rows come in any order, with gaps in window numbers, duplicate
        # (grid, window) pairs and grids with fewer than T-1 windows; the
        # empty log must give (0, T, D) features and (0, 4) labels
        layout = FeatureLayout(seq_len=seq_len, side_count=2)
        log = [mkwindow(grid=g, window=w, n_idle=i, n_open=o, n_total=i + extra, ofr=ofr, apd=apd, dur=dur,
                        rev=rev, radius=r, tod=tod)
               for g, w, i, o, extra, ofr, apd, dur, rev, r, tod in rows]
        got, want = dataset_from_windows(log, layout, episode=7), reference_dataset(log, layout, episode=7)
        want.features = want.features.astype(np.float32)  # raw features: the float64 values rounded once
        for name in ("features", "labels", "pad_rows", "grids", "windows", "episodes"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
        assert got.labels.flags.c_contiguous

    def test_raw_features_are_float32(self):
        data = dataset_from_windows([mkwindow(window=w, apd=1.2, dur=0.1 * w) for w in range(6)], LAYOUT)
        assert data.features.dtype == data.real_rows().dtype == np.float32
        assert data.labels.dtype == np.float64  # labels keep their float64 values
        assert data.labels[0, 1] == 1.2

    @pytest.mark.parametrize("grid", [-1, LAYOUT.n_cells])
    def test_grid_outside_the_layout_rejected(self, grid):
        log = [mkwindow(grid=3, window=0), mkwindow(grid=grid, window=1, radius=2.0)]
        with pytest.raises(ValueError, match=f"grid {grid} outside"):
            dataset_from_windows(log, LAYOUT)


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

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_candidate_rejected(self, radius):
        with pytest.raises(ValueError, match="finite and > 0"):
            CandidateSet((0.5, radius))

    def test_nan_snapshot_count_names_the_grid(self):
        # a NaN input reaches the model's output instead of being zeroed by the
        # head's relu, so the non-finite guard names the grid
        model = TransformerRegressor(ModelConfig(seq_len=LAYOUT.seq_len, input_dim=LAYOUT.dim, d_model=8,
                                                 embed_hidden=8, block_hidden=8, head_hidden=4), seed=3)
        src = PredictorRadiusSource(ModelPredictor(model, IDENT), CandidateSet((0.5, 1.0)), LAYOUT,
                                    FEATURE_IDENT, IDENT)
        n_idle = np.where(np.arange(LAYOUT.n_cells) == 3, np.nan, 1.0)
        with pytest.raises(ValueError, match=r"grids \[3\]"):
            src.radii(mksnapshot(n_idle=n_idle), [])

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

    @pytest.mark.parametrize("field", ["n_idle", "n_open", "n_total"])
    @pytest.mark.parametrize("value", [[3], np.ones(5), np.ones((4, 1))])
    def test_snapshot_counts_not_one_per_grid_rejected(self, field, value):
        layout = FeatureLayout(seq_len=4, side_count=2)
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), layout,
                                    identity_stats(N_BASE_FEATURES), IDENT)
        snapshot = dataclasses.replace(mksnapshot(n_cells=4), **{field: np.asarray(value)})
        with pytest.raises(ValueError, match=rf"{field} has shape \({np.shape(value)[0]},.*expected \(4,\)"):
            src.radii(snapshot, [])
        assert len(src.decisions) == 0

    @pytest.mark.parametrize("grid", [-1, 16])
    def test_history_row_outside_the_layout_rejected(self, grid):
        src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0,)), LAYOUT, FEATURE_IDENT, IDENT)
        with pytest.raises(ValueError, match="outside"):
            src.radii(mksnapshot(), [mkwindow(grid=3), mkwindow(grid=grid)])


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
        p = predictor.predict_for(feats, cands.as_array())
        chosen.append(cands.radii[int(np.argmax(composite_score(p, label_stats)))])
        preds.append(p)
    return np.array(chosen), np.array(preds)


class TestPredictorRadiusSource:
    # short: grid g has min(g, 5) past windows, so some grids have none and
    # several fewer than T-1; gappy: every grid has T-1 or more, but grids skip
    # different windows, so they fill their last T-1 at different scan depths
    HISTORIES = {
        "short": lambda w, g: w >= 8 - min(g, 5),
        "gappy": lambda w, g: (w + g) % 3 != 0 and not (g % 5 == 1 and w >= 5),
    }

    # LAYOUT.dim is the width of stats that z-score the one-hots too
    @pytest.mark.parametrize("feature_width, label_width", [(1, 4), (LAYOUT.dim, 4), (N_BASE_FEATURES, 1),
                                                            (N_BASE_FEATURES, 5)])
    def test_rejects_stats_of_the_wrong_width(self, feature_width, label_width):
        with pytest.raises(ValueError, match="feature" if feature_width != N_BASE_FEATURES else "label"):
            PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((1.0, 2.0)), LAYOUT,
                                  identity_stats(feature_width), identity_stats(label_width))

    @pytest.mark.parametrize("with_stats", [False, True])
    @pytest.mark.parametrize("shape", sorted(HISTORIES))
    def test_batched_matches_per_grid_reference(self, shape, with_stats):
        rng = np.random.default_rng(7)
        history = []
        for w in range(8):
            grids = [g for g in range(16) if self.HISTORIES[shape](w, g)]
            for g in rng.permutation(grids):  # grids interleaved out of order within a window
                history.append(mkwindow(grid=int(g), window=w, ofr=rng.uniform(), apd=rng.uniform(0, 3),
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
        history = [mkwindow(grid=g, window=w, rev=3.0 * g + w, radius=0.5 + w) for w in range(2) for g in (1, 2, 9)]
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


class TestOneHotsPassThrough:
    """Training and decision inputs z-score the measured columns only: whatever the stats, the grid and
    time-of-day one-hots reach the model as exact 0/1 on real rows, and padding rows are all +0.0."""

    STATS = NormStats(mean=np.linspace(-3.0, 5.0, N_BASE_FEATURES), std=np.linspace(0.2, 4.0, N_BASE_FEATURES))

    @staticmethod
    def log():
        # grid g logs windows g % 4..4 only, 2 to 5 rows, so some sequences pad; the time of day is window % 4
        rng = np.random.default_rng(8)
        return [mkwindow(grid=g, window=w, ofr=rng.uniform(), apd=rng.uniform(0, 3), rev=rng.uniform(0, 50),
                         tod=TimeOfDay(w % 4))
                for w in range(5) for g in range(LAYOUT.n_cells) if w >= g % 4]

    @pytest.mark.parametrize("path", ["training", "decision"])
    def test_one_hots_are_0_1_and_padding_is_zero(self, path):
        t, log = LAYOUT.seq_len, self.log()
        if path == "training":
            data = dataset_from_windows(log, LAYOUT)
            x, pads, grids, tods = data.normalized_features(self.STATS), data.pad_rows, data.grids, data.windows % 4
        else:
            k = 3
            src = PredictorRadiusSource(PinnedRadiusPredictor(1.0), CandidateSet((0.5, 1.0, 2.0)), LAYOUT,
                                        self.STATS, IDENT)
            x = src._batch(mksnapshot(window=5, tod=1), log)
            lens = np.bincount([w.grid for w in log], minlength=LAYOUT.n_cells)
            pads = np.repeat(np.maximum(t - 1 - lens, 0), k)
            grids, tods = np.repeat(np.arange(LAYOUT.n_cells), k), np.full(LAYOUT.n_cells * k, 1)
        assert set(pads.tolist()) >= {0, 1} and x.dtype == np.float32
        real = np.arange(t) >= pads[:, None]
        want = np.zeros((len(x), t, LAYOUT.dim - N_BASE_FEATURES), dtype=np.float32)
        seq, row = np.nonzero(real)
        want[seq, row, grids[seq]] = 1.0
        want[seq, row, LAYOUT.n_cells + tods[seq]] = 1.0
        assert x[:, :, N_BASE_FEATURES:].tobytes() == want.tobytes()
        assert x[~real].tobytes() == np.zeros_like(x[~real]).tobytes()


def golden_day():
    """Radii and predictions of a 12-window generated day on a 10 x 10 layout.

    Feature and label stats are fitted on a generated three-window log.  In
    the day, grid g logs window w unless (w + g) % 4 == 0, and grids 90..99
    log nothing before window 6, so some grids have fewer than T-1 past rows
    and others fill them at different depths.  Metrics are drawn from
    continuous distributions, so most raw values are not exact in float32.
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
        history += rows(w, [i for i in range(g) if (w + i) % 4 and (i < 90 or w >= 6)])
    return np.concatenate(chosen), np.array([d.predictions for d in src.decisions])


class TestGoldenDecisionTrace:
    """Pins the bytes of a fixed-seed day's decisions.  A change that moves
    them must say why in CHANGES.md and re-pin.  The pins were taken with
    numpy's OpenBLAS on x86-64; a BLAS that orders float32 sums differently
    may move the prediction bytes.  Each day's 500-sequence batches run as two
    halves cut at a 16-row boundary, the bytes of one whole pass there."""

    RADII = "223d1045a753ca6725a0bbfcd5e6aeebd7c9bb1cd3f9d1b932702f3ed03dacbe"
    PREDICTIONS = "8055e3bb136ca975ace980775bb48ab921fb922217b278ebd91deac988b3e005"

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
    return stream_from_rows(BOX, [(t, grid_index(lon, lat, BOX), lon, lat, dlon, dlat, 6.0)
                                  for t, lon, lat, dlon, dlat in draws])


class TestCollect:
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
            np.testing.assert_array_equal(normed[i, : data.pad_rows[i]], 0.0)
        flat = np.concatenate([normed[i, data.pad_rows[i]:] for i in range(len(data))]).astype(np.float64)
        base = flat[:, :N_BASE_FEATURES]
        # the float32 cast moves each z-score by at most half an ulp
        tol = np.finfo(np.float32).eps * np.abs(base).max()
        assert np.max(np.abs(base.mean(axis=0))) < tol
        std = base.std(axis=0)
        assert np.all((np.abs(std - 1.0) < tol) | (std == 0.0))  # constant columns z-score to 0
        onehots = np.concatenate([data.features[i, data.pad_rows[i]:, N_BASE_FEATURES:] for i in range(len(data))])
        np.testing.assert_array_equal(flat[:, N_BASE_FEATURES:], onehots)  # passed through as 0/1

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
        want = data.features.astype(np.float64)  # padding rows are all zero, the one-hots 0/1
        for i in range(len(data)):
            p = data.pad_rows[i]
            want[i, p:, :N_BASE_FEATURES] = (data.features[i, p:, :N_BASE_FEATURES] - stats.mean) / stats.std
        got = data.normalized_features(stats)
        # bit-identical to the float64 arithmetic cast to float32, padding rows exactly +0.0
        assert got.tobytes() == want.astype(np.float32).tobytes()


def mkdata(n=4, layout=LAYOUT, **fields):
    """n all-zero sequences with consistent fields; ``fields`` override them."""
    t, d = layout.seq_len, layout.dim
    base = dict(features=np.zeros((n, t, d)), labels=np.zeros((n, 4)), pad_rows=np.zeros(n, dtype=int),
                grids=np.zeros(n, dtype=int), windows=np.arange(n), episodes=np.arange(n), layout=layout)
    return TrainingData(**{**base, **fields})


class TestTrainingData:
    @pytest.mark.parametrize("field, value, match", [
        ("labels", np.zeros((7, 4)), "labels"),
        ("labels", np.zeros((4, 3)), "labels"),
        ("features", np.zeros((4, LAYOUT.seq_len + 1, LAYOUT.dim)), "features"),
        ("features", np.zeros((4, LAYOUT.seq_len, LAYOUT.dim - 1)), "features"),
        ("features", np.zeros((4, LAYOUT.seq_len * LAYOUT.dim)), "features"),
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
        data = mkdata(pad_rows=np.full(4, LAYOUT.seq_len - 1))
        assert data.real_rows().shape == (4, N_BASE_FEATURES)

    # LAYOUT.dim is the width of stats that z-score the one-hots too
    @pytest.mark.parametrize("width", [1, N_BASE_FEATURES - 1, N_BASE_FEATURES + 1, LAYOUT.dim])
    def test_normalized_features_rejects_stats_of_the_wrong_width(self, width):
        with pytest.raises(ValueError, match=f"expected \\({N_BASE_FEATURES},\\)"):
            mkdata().normalized_features(identity_stats(width))

    @pytest.mark.parametrize("n", [1, 3, 130, 259])
    def test_normalized_features_is_the_float64_result_cast(self, n):
        # every column is drawn, the one-hot ones and the padding rows too, so a column that is
        # z-scored or not, or a padding row that is zeroed or not, shows
        rng = np.random.default_rng(n)
        pads = rng.integers(0, LAYOUT.seq_len, n)
        features = rng.normal(size=(n, LAYOUT.seq_len, LAYOUT.dim)) * 10.0 ** rng.uniform(-6, 6, LAYOUT.dim)
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
        data = mkdata(n, layout, features=rng.normal(size=(n, layout.seq_len, layout.dim)).astype(np.float32),
                      pad_rows=pads)
        m = int(np.sum(layout.seq_len - pads))
        tracemalloc.start()
        try:
            rows = data.real_rows()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (m, N_BASE_FEATURES) and rows.dtype == np.float32
        # the (M, 8) result is 8/112 of an (M, D) copy; the (N, T) mask adds less than that
        assert peak < 0.2 * m * layout.dim * 4

    def test_normalized_features_peak_memory(self):
        layout = FeatureLayout(seq_len=6, side_count=10)
        rng = np.random.default_rng(3)
        n = 2000
        data = mkdata(n, layout, features=rng.normal(size=(n, layout.seq_len, layout.dim)),
                      pad_rows=rng.integers(0, layout.seq_len, n))
        stats = NormStats(mean=np.full(N_BASE_FEATURES, 0.5), std=np.full(N_BASE_FEATURES, 2.0))
        tracemalloc.start()
        try:
            data.normalized_features(stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a float64 result alone would be 1.0x the features' bytes; a float32
        # one is 0.5x
        assert peak < 0.85 * data.features.nbytes

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
