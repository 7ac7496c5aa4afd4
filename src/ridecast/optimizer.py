"""Online radius selection: build per-candidate feature sequences, run the
trained forecaster, score the predicted metrics, and commit the best radius
per grid at each window boundary.  Also hosts the offline data collection
that turns simulator window logs into supervised training examples.

Both build their sequences with one array builder, ``build_feature_batch``,
from a table of window rows and an index matrix of each sequence's history
rows (-1 for leading padding).  A decision's history is its grid's last T-1
logged windows; a training example's is the T-1 rows before it in its grid's
window-sorted log, by position, so gaps in window numbers do not shorten it.

Raw feature sequences are float32: each value is its float64 window metric
rounded once.  ``normalize_features`` turns them into the forecaster's
``PARAM_DTYPE`` input for training (``TrainingData.normalized_features``) and
for decisions (the radius source's batch).  It z-scores only the
``N_BASE_FEATURES`` measured columns, in float64 from the float32 values, and
passes the grid and time-of-day one-hots through as exact 0/1: a linear
embedding over a one-hot is already a learned per-grid (or per-period) row,
so z-scoring it adds nothing but a scale.  Labels and candidate radii stay
float64.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Protocol

import numpy as np

from .demand import N_BASE_FEATURES, NormStats, apply_norm, invert_norm
from .market import MarketWindow, OrderStream
from .nn.model import PARAM_DTYPE
from .sim import EpisodeResult, SimConfig, WindowSnapshot, run

# feature columns, per sequence row
COL_IDLE, COL_OPEN, COL_TOTAL, COL_OFR, COL_APD, COL_DUR, COL_REV, COL_RADIUS = range(N_BASE_FEATURES)
N_TOD = 4
METRIC_NAMES = ("ofr", "apd", "dur", "revenue")
# composite sense: pickup distance is minimized, everything else maximized
METRIC_SENSE = np.array([1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class CandidateSet:
    """Strictly increasing, finite, positive candidate radii (km)."""

    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        r = tuple(float(v) for v in self.radii)
        object.__setattr__(self, "radii", r)
        if not r or not all(0 < v < math.inf for v in r):
            raise ValueError("candidate radii must be finite and > 0")
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


_WINDOW_FIELDS = attrgetter("n_idle", "n_open", "n_total", "ofr", "apd_km", "dur", "revenue", "radius_km",
                            "grid", "window", "tod")


def _window_table(windows: Sequence[MarketWindow]) -> np.ndarray:
    """(n, 11) float rows: the eight ``COL_*`` metrics, then grid, window and
    time of day, read with one ``np.array`` over attribute tuples."""
    return np.array([_WINDOW_FIELDS(w) for w in windows], dtype=float).reshape(-1, N_BASE_FEATURES + 3)


def build_feature_batch(
    table: np.ndarray,
    table_grids: np.ndarray,
    index: np.ndarray,
    counts: np.ndarray,
    radius: np.ndarray,
    grids: np.ndarray,
    tods: np.ndarray,
    layout: FeatureLayout,
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble N raw (seq_len, dim) sequences in one pass.

    ``table`` holds n realized window rows in ``COL_*`` order and
    ``table_grids`` their grids.  Row k of ``index`` (N, seq_len-1) names
    the table rows that fill rows 0..seq_len-2 of sequence k, oldest first,
    with -1 for leading padding rows, which stay zero.  Callers pick which
    windows count as history; the builder only places them.  The final row
    carries ``counts`` (N, 3) of idle drivers, open orders and total drivers,
    zeroed metrics and ``radius``.  Every non-padding row also gets the
    sequence's grid one-hot and time-of-day one-hot.  Returns the (N, T, D)
    float32 matrix, each value rounded once from its float64 input, and the
    (N,) number of padding rows.  A grid outside the layout or a time of day
    outside 0..N_TOD-1 is rejected.
    """
    t, n_cells = layout.seq_len, layout.n_cells
    index, grids, tods = (np.asarray(a, dtype=np.int64) for a in (index, grids, tods))
    bad = np.flatnonzero((grids < 0) | (grids >= n_cells))
    if len(bad):
        raise ValueError(f"window row for grid {grids[bad[0]]} outside 0..{n_cells - 1}")
    bad = np.flatnonzero((tods < 0) | (tods >= N_TOD))
    if len(bad):
        raise ValueError(f"time of day {tods[bad[0]]} outside 0..{N_TOD - 1}")
    pad = index < 0
    seq, row = np.nonzero(~pad)
    src = index[seq, row]
    if np.any(np.asarray(table_grids)[src] != grids[seq]):
        raise ValueError("history rows must belong to the decision grid")
    x = np.zeros((len(grids), t, layout.dim), dtype=np.float32)
    x[seq, row, :N_BASE_FEATURES] = np.asarray(table)[src]
    x[:, -1, COL_IDLE:COL_TOTAL + 1] = counts
    x[:, -1, COL_RADIUS] = radius
    n_pad = np.count_nonzero(pad, axis=1)
    seq, row = np.nonzero(_real_row_mask(n_pad, t))
    x[seq, row, N_BASE_FEATURES + grids[seq]] = 1.0
    x[seq, row, N_BASE_FEATURES + n_cells + tods[seq]] = 1.0
    return x, n_pad


def composite_score(predictions: np.ndarray, label_stats: NormStats) -> np.ndarray:
    """Scalar ranking of predicted (ofr, apd, dur, revenue) rows.

    Each metric is z-scored against the training-label distribution so the
    sum is unit-free; pickup distance enters negatively since it is the one
    metric being minimized.
    """
    pred = np.atleast_2d(np.asarray(predictions, dtype=float))
    z = apply_norm(pred, label_stats)
    scores = z @ METRIC_SENSE
    return scores if np.asarray(predictions).ndim > 1 else scores[0]


class Predictor(Protocol):
    """Maps normalized feature sequences to raw-unit metric predictions.

    ``features`` arrive as float32 (``PARAM_DTYPE``) whatever the model's dtype;
    ``candidates`` holds one radius (km) per row.  ``ModelPredictor`` calls
    ``TransformerRegressor.predict``, which runs a batch of
    ``SPLIT_MIN_SEQUENCES`` or more (a 10x10 grid's 500 sequences of five
    candidates) as two halves on two threads, cut at a 16-row boundary, with
    OpenBLAS held at one thread and restored after the call; its outputs are
    the bytes of one whole forward pass."""

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray: ...


class ModelPredictor:
    """Trained forecaster plus the label denormalization it was fit with."""

    def __init__(self, model, label_stats: NormStats):
        self.model = model
        self.label_stats = label_stats

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        return invert_norm(self.model.predict(features), self.label_stats)


@dataclass(frozen=True, slots=True)
class RadiusDecision:
    grid: int
    window: int
    chosen_radius: float
    candidates: tuple[float, ...]
    predictions: np.ndarray   # (K, 4) raw metric units
    scores: np.ndarray        # (K,)


class DecisionLog(Sequence[RadiusDecision]):
    """A radius source's grid decisions, oldest first: ``calls`` keeps one (window, best,
    predictions, scores) record per ``radii`` call; item i, grid i % G of call i // G, is built on access."""

    def __init__(self, candidates: tuple[float, ...], n_grids: int):
        self.candidates, self.n_grids = candidates, n_grids
        self.calls: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self.calls) * self.n_grids

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        call, g = divmod(range(len(self))[i], self.n_grids)  # a list's bounds and negative indices
        window, best, preds, scores = self.calls[call]
        return RadiusDecision(grid=g, window=window, chosen_radius=self.candidates[best[g]],
                              candidates=self.candidates, predictions=preds[g], scores=scores[g])


def _real_row_mask(pad_rows: np.ndarray, seq_len: int) -> np.ndarray:
    """(N, T) mask of the non-padding rows of N sequences."""
    return np.arange(seq_len) >= np.asarray(pad_rows)[:, None]


def normalize_features(features: np.ndarray, pad_rows: np.ndarray, stats: NormStats) -> np.ndarray:
    """(N, T, D) raw sequences as ``PARAM_DTYPE`` model input, whatever the model's dtype.

    The ``N_BASE_FEATURES`` measured columns of the real rows are z-scored in float64 and then cast;
    padding rows get +0.0 there.  The one-hot columns are only cast, so they stay exactly 0/1 on real
    rows and 0 on padding rows.  The float64 temporary covers the measured columns only."""
    if stats.mean.shape != (N_BASE_FEATURES,):
        raise ValueError(f"feature stats have shape {stats.mean.shape}, expected ({N_BASE_FEATURES},)")
    out = features.astype(PARAM_DTYPE)
    real = _real_row_mask(pad_rows, out.shape[1])[:, :, None]
    out[:, :, :N_BASE_FEATURES] = np.where(real, (features[:, :, :N_BASE_FEATURES] - stats.mean) / stats.std, 0.0)
    return out


def _recent_rows(history: Sequence[MarketWindow], n_grids: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Each grid's last ``depth`` windows of ``history``: an (n, 11) ``_window_table`` sorted by grid, stably,
    so each grid's rows keep their log order, and its (n_grids,) row counts.  Only a tail of the history is
    read: it starts at ``depth * n_grids`` rows and doubles until every grid has ``depth`` rows in it or it
    is the whole history."""
    n = depth * n_grids
    while True:
        table = _window_table(history[-n:])
        grids = table[:, N_BASE_FEATURES].astype(np.int64)
        bad = np.flatnonzero((grids < 0) | (grids >= n_grids))
        if len(bad):
            raise ValueError(f"history row for grid {grids[bad[0]]} outside 0..{n_grids - 1}")
        counts = np.bincount(grids, minlength=n_grids)
        if n >= len(history) or counts.min() >= depth:
            return table[np.argsort(grids, kind="stable")], counts
        n *= 2


class PredictorRadiusSource:
    """Radius source driven by a predictor, one batched prediction per
    window; keeps a full decision audit log in ``decisions``."""

    def __init__(
        self,
        predictor: Predictor,
        candidates: CandidateSet,
        layout: FeatureLayout,
        feature_stats: NormStats,
        label_stats: NormStats,
    ):
        widths = (("feature", feature_stats, N_BASE_FEATURES), ("label", label_stats, len(METRIC_NAMES)))
        for name, stats, width in widths:
            if stats.mean.shape != (width,):
                raise ValueError(f"{name} stats have shape {stats.mean.shape}, expected ({width},)")
        self.predictor = predictor
        self.candidates = candidates
        self.layout = layout
        self.feature_stats = feature_stats
        self.label_stats = label_stats
        self.decisions = DecisionLog(candidates.radii, layout.n_cells)

    def _batch(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        """(G*K, T, D) model input, grid-major (row g*K + j: grid g, candidate j in its final row).  The G
        sequences go through ``normalize_features`` before the K copies, and each copy's final radius is
        z-scored from its float64 candidate.  Built apart from ``radii`` to be freed once predicted."""
        n_grids, t = self.layout.n_cells, self.layout.seq_len
        for name in ("n_idle", "n_open", "n_total"):
            shape = np.shape(getattr(snapshot, name))
            if shape != (n_grids,):  # a shorter array would broadcast one grid's count to every grid
                raise ValueError(f"snapshot {name} has shape {shape}, expected ({n_grids},)")
        counts = np.stack([snapshot.n_idle, snapshot.n_open, snapshot.n_total], axis=1)
        table, lens = _recent_rows(history, n_grids, t - 1)
        # grid g's rows end at table row cumsum(lens)[g]; column k takes the row T-1-k before that end
        ends = np.cumsum(lens)
        prev = ends[:, None] - np.arange(t - 1, 0, -1)
        index = np.where(prev >= (ends - lens)[:, None], prev, -1)
        base, pads = build_feature_batch(table[:, :N_BASE_FEATURES], table[:, N_BASE_FEATURES], index, counts,
                                         0.0, np.arange(n_grids), np.full(n_grids, snapshot.tod), self.layout)
        stats = self.feature_stats
        # normalize_features' arithmetic on the radius column alone
        final_radii = (self.candidates.as_array() - stats.mean[COL_RADIUS]) / stats.std[COL_RADIUS]
        x = np.repeat(normalize_features(base, pads, stats), len(final_radii), axis=0)
        x[:, -1, COL_RADIUS] = np.tile(final_radii, n_grids)
        return x

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        n_grids, k, radii = self.layout.n_cells, len(self.candidates), self.candidates.as_array()
        preds = self.predictor.predict_for(self._batch(snapshot, history), np.tile(radii, n_grids))
        scores = np.asarray(composite_score(preds, self.label_stats), dtype=float)
        preds, scores = preds.reshape(n_grids, k, -1), scores.reshape(n_grids, k)
        bad = ~(np.isfinite(preds).all(axis=2) & np.isfinite(scores)).all(axis=1)
        if np.any(bad):
            raise ValueError(f"non-finite predictions or scores for grids {np.flatnonzero(bad).tolist()}")
        best = np.argmax(scores, axis=1)  # first max wins: candidates ascend, so ties pick the smallest
        self.decisions.calls.append((snapshot.window, best, preds, scores))
        return radii[best]


# ---------------------------------------------------------------------------
# offline data collection
# ---------------------------------------------------------------------------


@dataclass
class TrainingData:
    """Raw (unnormalized) supervised examples extracted from window logs.

    ``dataset_from_windows`` stores ``features`` as float32, each value its
    float64 window metric rounded once.  Feature stats are fitted on the
    measured columns alone (``real_rows``), and ``normalized_features``
    z-scores only those columns: the grid and time-of-day one-hots stay 0/1.
    Labels stay float64."""

    features: np.ndarray    # (N, T, D) float32
    labels: np.ndarray      # (N, 4) realized (ofr, apd, dur, revenue)
    pad_rows: np.ndarray    # (N,) leading zero rows per sequence
    grids: np.ndarray       # (N,)
    windows: np.ndarray     # (N,)
    episodes: np.ndarray    # (N,)
    layout: FeatureLayout

    def __post_init__(self) -> None:
        n, t = len(self.features), self.layout.seq_len
        if self.features.shape != (n, t, self.layout.dim):
            raise ValueError(f"features have shape {self.features.shape}, expected (N, {t}, {self.layout.dim})")
        if self.labels.shape != (n, len(METRIC_NAMES)):
            raise ValueError(f"labels have shape {self.labels.shape}, expected ({n}, {len(METRIC_NAMES)})")
        for name in ("pad_rows", "grids", "windows", "episodes"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected ({n},)")
        if np.any((self.pad_rows < 0) | (self.pad_rows >= t)):
            raise ValueError(f"pad_rows must lie in 0..{t - 1}")

    def __len__(self) -> int:
        return len(self.features)

    def real_rows(self) -> np.ndarray:
        """The measured columns of all non-padding rows, stacked to (M, ``N_BASE_FEATURES``) in the features'
        dtype, for fitting feature stats.  Only those columns are masked, so no (M, D) copy is made."""
        return self.features[:, :, :N_BASE_FEATURES][_real_row_mask(self.pad_rows, self.layout.seq_len)]

    def normalized_features(self, stats: NormStats) -> np.ndarray:
        """``normalize_features`` of the whole set: (N, T, D) ``PARAM_DTYPE``, the measured columns z-scored
        under ``stats`` (fitted on ``real_rows``), the one-hots 0/1 and padding rows zero."""
        return normalize_features(self.features, self.pad_rows, stats)

    def split_by_episode(self, test_fraction: float = 0.2, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Boolean train/test row masks from an episode-level shuffle; each
        side gets at least one of the >= 2 episodes."""
        if not 0 < test_fraction < 1:
            raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
        ids = np.unique(self.episodes)
        if len(ids) < 2:
            raise ValueError(f"need at least 2 episodes to split, got {len(ids)}")
        rng = np.random.default_rng(seed)
        rng.shuffle(ids)
        n_test = min(max(1, int(round(test_fraction * len(ids)))), len(ids) - 1)
        test_mask = np.isin(self.episodes, ids[:n_test])
        return ~test_mask, test_mask


def dataset_from_windows(
    windows: Sequence[MarketWindow],
    layout: FeatureLayout,
    episode: int = 0,
) -> TrainingData:
    """One labeled example per (grid, window) of a completed episode log.

    Examples are ordered by grid, then window; rows that tie on both keep
    their log order.  The example for a row uses the up to T-1 rows before it
    in that order within its grid as realized history (positional: a gap in
    window numbers does not shorten it), the row's start-of-window counts
    plus its actual radius as the final row, and its realized metrics as the
    label.  A row whose grid lies outside the layout is rejected.
    """
    rows = _window_table(windows)
    grids, wins = rows[:, N_BASE_FEATURES].astype(int), rows[:, N_BASE_FEATURES + 1].astype(int)
    order = np.lexsort((wins, grids))
    rows, grids, wins = rows[order], grids[order], wins[order]
    n, t = len(rows), layout.seq_len
    prev = np.arange(n)[:, None] - np.arange(t - 1, 0, -1)  # column k: the row T-1-k positions back
    # kept while it lies in the row's own grid, whose rows start at searchsorted(grids, g)
    index = np.where(prev >= np.searchsorted(grids, grids)[:, None], prev, -1)
    features, pads = build_feature_batch(rows[:, :N_BASE_FEATURES], grids, index, rows[:, COL_IDLE:COL_TOTAL + 1],
                                         rows[:, COL_RADIUS], grids, rows[:, N_BASE_FEATURES + 2], layout)
    return TrainingData(
        features=features,
        labels=rows[:, COL_OFR:COL_RADIUS].copy(),
        pad_rows=pads,
        grids=grids,
        windows=wins,
        episodes=np.full(n, episode, dtype=int),
        layout=layout,
    )


def collect_training_data(
    make_config: Callable[[int, int, int], SimConfig],
    make_stream: Callable[[int, int], OrderStream],
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
