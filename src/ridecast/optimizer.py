"""Online radius selection: build per-candidate feature sequences, run the
trained forecaster, score the predicted metrics, and commit the best radius
per grid at each window boundary.  Also hosts the offline data collection
that turns simulator window logs into supervised training examples.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .demand import NormStats, apply_norm, invert_norm
from .market import MarketWindow
from .sim import EpisodeResult, SimConfig, WindowSnapshot, run

# feature columns, per sequence row
COL_IDLE, COL_OPEN, COL_TOTAL, COL_OFR, COL_APD, COL_DUR, COL_REV, COL_RADIUS = range(8)
N_BASE_FEATURES = 8
N_TOD = 4
METRIC_NAMES = ("ofr", "apd", "dur", "revenue")
# composite sense: pickup distance is minimized, everything else maximized
METRIC_SENSE = np.array([1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class CandidateSet:
    """Strictly increasing positive candidate radii (km)."""

    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        r = tuple(float(v) for v in self.radii)
        object.__setattr__(self, "radii", r)
        if not r or any(v <= 0 for v in r):
            raise ValueError("candidate radii must be positive")
        if any(a >= b for a, b in zip(r, r[1:])):
            raise ValueError("candidate radii must be strictly increasing")

    def __len__(self) -> int:
        return len(self.radii)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.radii)


@dataclass(frozen=True)
class FeatureLayout:
    """Shape contract between window logs and the forecaster input."""

    seq_len: int
    side_count: int

    def __post_init__(self) -> None:
        if self.seq_len < 2 or self.side_count < 1:
            raise ValueError("need seq_len >= 2 and side_count >= 1")

    @property
    def n_cells(self) -> int:
        return self.side_count * self.side_count

    @property
    def dim(self) -> int:
        return N_BASE_FEATURES + self.n_cells + N_TOD

    def as_dict(self) -> dict:
        return {"seq_len": self.seq_len, "side_count": self.side_count}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureLayout":
        return cls(seq_len=d["seq_len"], side_count=d["side_count"])


def _window_row(w: MarketWindow, layout: FeatureLayout) -> np.ndarray:
    row = np.zeros(layout.dim)
    row[COL_IDLE] = w.n_idle
    row[COL_OPEN] = w.n_open
    row[COL_TOTAL] = w.n_total
    row[COL_OFR] = w.ofr
    row[COL_APD] = w.apd_km
    row[COL_DUR] = w.dur
    row[COL_REV] = w.revenue
    row[COL_RADIUS] = w.radius_km
    return row


def build_features(
    history: Sequence[MarketWindow],
    n_idle: int,
    n_open: int,
    n_total: int,
    tod: int,
    grid: int,
    candidate_radius: float,
    layout: FeatureLayout,
    stats: Optional[NormStats] = None,
) -> tuple[np.ndarray, int]:
    """Assemble one (seq_len, dim) sequence for a candidate radius.

    Rows 0..seq_len-2 carry that grid's most recent completed windows with
    realized metrics and radii (older first); the final row carries the
    current counts, zeroed metrics and the candidate radius.  The grid
    one-hot and the decision window's time-of-day one-hot are appended to
    every row.  With stats given, real rows are normalized; padding rows
    stay exactly zero.  Returns the matrix and the number of padding rows.
    """
    t = layout.seq_len
    x = np.zeros((t, layout.dim))
    recent = list(history)[-(t - 1):]
    n_pad = (t - 1) - len(recent)
    for k, w in enumerate(recent):
        if w.grid != grid:
            raise ValueError("history rows must belong to the decision grid")
        x[n_pad + k] = _window_row(w, layout)
    x[-1, COL_IDLE] = n_idle
    x[-1, COL_OPEN] = n_open
    x[-1, COL_TOTAL] = n_total
    x[-1, COL_RADIUS] = candidate_radius
    x[n_pad:, N_BASE_FEATURES + grid] = 1.0
    x[n_pad:, N_BASE_FEATURES + layout.n_cells + tod] = 1.0
    if stats is not None:
        x[n_pad:] = apply_norm(x[n_pad:], stats)
    return x, n_pad


def composite_score(
    predictions: np.ndarray,
    label_stats: NormStats,
    weights: Sequence[float] = (1.0, 1.0, 1.0, 1.0),
) -> np.ndarray:
    """Scalar ranking of predicted (ofr, apd, dur, revenue) rows.

    Each metric is z-scored against the training-label distribution so the
    sum is unit-free; pickup distance enters negatively since it is the one
    metric being minimized.
    """
    pred = np.atleast_2d(np.asarray(predictions, dtype=float))
    z = apply_norm(pred, label_stats)
    scores = z @ (METRIC_SENSE * np.asarray(weights, dtype=float))
    return scores if np.asarray(predictions).ndim > 1 else scores[0]


class Predictor(Protocol):
    """Maps normalized feature sequences to raw-unit metric predictions."""

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray: ...


class ModelPredictor:
    """Trained forecaster plus the label denormalization it was fit with."""

    def __init__(self, model, label_stats: NormStats):
        self.model = model
        self.label_stats = label_stats

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        return invert_norm(self.model.predict(features), self.label_stats)


@dataclass(frozen=True)
class RadiusDecision:
    grid: int
    window: int
    chosen_radius: float
    candidates: tuple[float, ...]
    predictions: np.ndarray   # (K, 4) raw metric units
    scores: np.ndarray        # (K,)

    def __post_init__(self) -> None:
        best = np.max(self.scores)
        if self.chosen_radius not in self.candidates:
            raise ValueError("chosen radius must come from the candidate set")
        if self.scores[self.candidates.index(self.chosen_radius)] < best:
            raise ValueError("chosen radius must attain the maximal score")


def choose_radius(
    grid: int,
    window: int,
    predictor: Predictor,
    candidates: CandidateSet,
    history: Sequence[MarketWindow],
    n_idle: int,
    n_open: int,
    n_total: int,
    tod: int,
    layout: FeatureLayout,
    feature_stats: Optional[NormStats],
    label_stats: NormStats,
    weights: Sequence[float] = (1.0, 1.0, 1.0, 1.0),
) -> RadiusDecision:
    """Evaluate every candidate and pick the argmax score (ties: smallest)."""
    feats = np.stack([
        build_features(history, n_idle, n_open, n_total, tod, grid, r, layout, feature_stats)[0]
        for r in candidates.radii
    ])
    preds = predictor.predict_for(feats, candidates.as_array())
    scores = np.asarray(composite_score(preds, label_stats, weights), dtype=float)
    best = int(np.argmax(scores))  # first max wins: candidates ascend, so ties pick the smallest
    return RadiusDecision(
        grid=grid,
        window=window,
        chosen_radius=candidates.radii[best],
        candidates=candidates.radii,
        predictions=preds,
        scores=scores,
    )


class PredictorRadiusSource:
    """Radius source driven by a predictor; keeps a full decision audit log."""

    def __init__(
        self,
        predictor: Predictor,
        candidates: CandidateSet,
        layout: FeatureLayout,
        feature_stats: Optional[NormStats],
        label_stats: NormStats,
        weights: Sequence[float] = (1.0, 1.0, 1.0, 1.0),
    ):
        self.predictor = predictor
        self.candidates = candidates
        self.layout = layout
        self.feature_stats = feature_stats
        self.label_stats = label_stats
        self.weights = tuple(weights)
        self.decisions: list[RadiusDecision] = []

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        by_grid: dict[int, list[MarketWindow]] = {g: [] for g in range(self.layout.n_cells)}
        for w in history:
            by_grid[w.grid].append(w)
        out = np.zeros(self.layout.n_cells)
        for g in range(self.layout.n_cells):
            decision = choose_radius(
                grid=g,
                window=snapshot.window,
                predictor=self.predictor,
                candidates=self.candidates,
                history=by_grid[g],
                n_idle=int(snapshot.n_idle[g]),
                n_open=int(snapshot.n_open[g]),
                n_total=int(snapshot.n_total[g]),
                tod=snapshot.tod,
                layout=self.layout,
                feature_stats=self.feature_stats,
                label_stats=self.label_stats,
                weights=self.weights,
            )
            self.decisions.append(decision)
            out[g] = decision.chosen_radius
        return out


# ---------------------------------------------------------------------------
# offline data collection
# ---------------------------------------------------------------------------


@dataclass
class TrainingData:
    """Raw (unnormalized) supervised examples extracted from window logs."""

    features: np.ndarray    # (N, T, D)
    labels: np.ndarray      # (N, 4) realized (ofr, apd, dur, revenue)
    pad_rows: np.ndarray    # (N,) leading zero rows per sequence
    grids: np.ndarray       # (N,)
    windows: np.ndarray     # (N,)
    episodes: np.ndarray    # (N,)
    layout: FeatureLayout

    def __len__(self) -> int:
        return len(self.features)

    def real_rows(self) -> np.ndarray:
        """All non-padding rows stacked to (M, D), for fitting stats."""
        rows = [self.features[i, self.pad_rows[i]:] for i in range(len(self))]
        return np.concatenate(rows, axis=0)

    def normalized_features(self, stats: NormStats) -> np.ndarray:
        out = np.zeros_like(self.features)
        for i in range(len(self)):
            p = self.pad_rows[i]
            out[i, p:] = apply_norm(self.features[i, p:], stats)
        return out

    def split_by_episode(self, test_fraction: float = 0.2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Boolean train/test row masks from an episode-level shuffle."""
        ids = np.unique(self.episodes)
        rng = np.random.default_rng(seed)
        rng.shuffle(ids)
        n_test = max(1, int(round(test_fraction * len(ids))))
        test_ids = set(ids[:n_test].tolist())
        test_mask = np.array([e in test_ids for e in self.episodes])
        return ~test_mask, test_mask

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path,
            features=self.features,
            labels=self.labels,
            pad_rows=self.pad_rows,
            grids=self.grids,
            windows=self.windows,
            episodes=self.episodes,
            layout=np.array([self.layout.seq_len, self.layout.side_count]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "TrainingData":
        z = np.load(path)
        return cls(
            features=z["features"],
            labels=z["labels"],
            pad_rows=z["pad_rows"],
            grids=z["grids"],
            windows=z["windows"],
            episodes=z["episodes"],
            layout=FeatureLayout(seq_len=int(z["layout"][0]), side_count=int(z["layout"][1])),
        )


def dataset_from_windows(
    windows: Sequence[MarketWindow],
    layout: FeatureLayout,
    episode: int = 0,
) -> TrainingData:
    """One labeled example per (grid, window) of a completed episode log.

    The example for window t uses windows t-(T-1)..t-1 as realized history,
    window t's start-of-window counts plus its actual radius as the final
    row, and window t's realized metrics as the label.
    """
    by_grid: dict[int, list[MarketWindow]] = {}
    for w in windows:
        by_grid.setdefault(w.grid, []).append(w)
    feats, labels, pads, grids, wins = [], [], [], [], []
    for g in sorted(by_grid):
        rows = sorted(by_grid[g], key=lambda w: w.window)
        for t, w in enumerate(rows):
            x, n_pad = build_features(
                history=rows[max(0, t - (layout.seq_len - 1)): t],
                n_idle=w.n_idle,
                n_open=w.n_open,
                n_total=w.n_total,
                tod=int(w.tod),
                grid=g,
                candidate_radius=w.radius_km,
                layout=layout,
                stats=None,
            )
            feats.append(x)
            labels.append([w.ofr, w.apd_km, w.dur, w.revenue])
            pads.append(n_pad)
            grids.append(g)
            wins.append(w.window)
    return TrainingData(
        features=np.array(feats),
        labels=np.array(labels),
        pad_rows=np.array(pads, dtype=int),
        grids=np.array(grids, dtype=int),
        windows=np.array(wins, dtype=int),
        episodes=np.full(len(feats), episode, dtype=int),
        layout=layout,
    )


def collect_training_data(
    make_config: Callable[[int, int, int], SimConfig],
    make_stream: Callable[[int, int], Sequence],
    episodes: int,
    horizon_s: float,
    layout: FeatureLayout,
    base_seed: int = 0,
) -> tuple[TrainingData, list[EpisodeResult]]:
    """Run exploration episodes and pool their labeled examples.

    ``make_config(i, sim_seed, radius_seed)`` must wire a randomized radius
    source with radius_seed; ``make_stream(i, demand_seed)`` supplies that
    episode's demand.  Episode seeds are spawned from base_seed so streams
    are disjoint.
    """
    ss = np.random.SeedSequence(base_seed)
    parts: list[TrainingData] = []
    results: list[EpisodeResult] = []
    for i, child in enumerate(ss.spawn(episodes)):
        sim_seed, radius_seed, demand_seed = (int(v) for v in child.generate_state(3))
        config = make_config(i, sim_seed, radius_seed)
        stream = make_stream(i, demand_seed)
        result = run(config, stream, horizon_s)
        results.append(result)
        parts.append(dataset_from_windows(result.windows, layout, episode=i))
    return _concat_datasets(parts), results


def _concat_datasets(parts: list[TrainingData]) -> TrainingData:
    if not parts:
        raise ValueError("no episodes collected")
    return TrainingData(
        features=np.concatenate([p.features for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        pad_rows=np.concatenate([p.pad_rows for p in parts]),
        grids=np.concatenate([p.grids for p in parts]),
        windows=np.concatenate([p.windows for p in parts]),
        episodes=np.concatenate([p.episodes for p in parts]),
        layout=parts[0].layout,
    )
