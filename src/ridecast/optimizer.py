"""Online radius selection: build per-candidate feature sequences, run the
trained forecaster, score the predicted metrics, and commit the best radius
per grid at each window boundary.  Also hosts the offline data collection
that turns simulator window logs into supervised training examples.

Both read a window log as whole windows: G rows per window, grid 0..G-1 in
order, with rising window numbers.  ``_window_block`` checks that and returns
the log as one (W, G, 11) block of window rows.  A row's first
``N_INPUT_COLUMNS`` columns are its ``MarketWindow``'s ``FEATURE_FIELDS``, the
feature row, and ``COL_WINDOW`` holds the window number.
``_windows`` cuts the block into sequences of T rows down one grid's column,
with T zero windows of grid -1 in front.  A training example's sequence ends
at its own window, and a decision's at the snapshot's row appended to the
log's last T-1 windows, so both inputs come from the same view.
``_sequences`` turns them into features.

Raw feature sequences are (N, T, ``N_INPUT_COLUMNS``) float32: each measured
value is its float64 window metric rounded once, and each real row carries
its sequence's grid index and time-of-day code as whole numbers.  Padding
rows hold -1 there, the one record of which rows are padding.
``normalize_features`` turns them into the forecaster's ``PARAM_DTYPE`` input
for training (``TrainingData.normalized_features``) and for decisions (the
radius source's batch).  It z-scores only the ``N_BASE_FEATURES`` measured columns, in
float64 from the float32 values, and passes the two index columns through:
the forecaster's embedding looks each index up as a learned row, so a scale
would mean nothing.  Labels and candidate radii stay float64.
"""
from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Protocol

import numpy as np

from .demand import (COL_GRID, COL_OFR, COL_RADIUS, COL_TOD, COL_TOTAL, FEATURE_FIELDS, N_BASE_FEATURES,
                     N_INPUT_COLUMNS, N_TOD, NormStats, apply_norm, invert_norm)
from .market import CandidateSet, MarketWindow, OrderStream, check_count
from .nn.model import PARAM_DTYPE
from .sim import EpisodeResult, SimConfig, WindowSnapshot, run

METRIC_NAMES = ("ofr", "apd", "dur", "revenue")
# composite sense: pickup distance is minimized, everything else maximized
METRIC_SENSE = np.array([1.0, -1.0, 1.0, 1.0])


@dataclass(frozen=True)
class FeatureLayout:
    """Shape contract between window logs and the forecaster input."""

    seq_len: int
    side_count: int

    def __post_init__(self) -> None:
        check_count("seq_len", self.seq_len, 2)
        check_count("side_count", self.side_count)

    @property
    def n_cells(self) -> int:
        return self.side_count * self.side_count

    @property
    def dim(self) -> int:
        """The forecaster's ``ModelConfig.input_dim``: the rows of its first layer, one per measured column,
        per grid and per time of day."""
        return N_BASE_FEATURES + self.n_cells + N_TOD


_WINDOW_FIELDS = attrgetter(*FEATURE_FIELDS, "window")
COL_WINDOW = N_INPUT_COLUMNS  # the window table's one column past the feature row


def _window_block(windows: Sequence[MarketWindow], n_grids: int) -> np.ndarray:
    """A log of whole windows as a (W, G, 11) float block, read with one ``np.array`` over attribute tuples:
    each row is its window's feature row (the eight measured ``COL_*`` columns, ``COL_GRID``, ``COL_TOD``), then
    its window number at ``COL_WINDOW``.

    The log must hold G rows per window: row k is grid k % G, the G rows of a
    window share its window number, and window numbers are whole and rise,
    with gaps allowed.  Any other log is rejected."""
    block = np.array([_WINDOW_FIELDS(w) for w in windows], dtype=float).reshape(-1, COL_WINDOW + 1)
    if len(block) % n_grids:
        raise ValueError(f"window log has {len(block)} rows, not whole windows of {n_grids} grids")
    block = block.reshape(-1, n_grids, COL_WINDOW + 1)
    grids, wins = block[:, :, COL_GRID], block[:, :, COL_WINDOW]
    bad = np.argwhere(grids != np.arange(n_grids))
    if len(bad):
        w, g = bad[0]
        raise ValueError(f"window log row {w * n_grids + g} is grid {grids[w, g]:g}, expected grid {g}")
    if np.any(wins != wins[:, :1]):
        raise ValueError("the rows of one window must share its window number")
    bad = np.flatnonzero(~(np.isfinite(wins[:, 0]) & (wins[:, 0] == np.floor(wins[:, 0]))))
    if len(bad):  # an integer cast would store window 0.5 as 0 and 1.5 as 1
        raise ValueError(f"window numbers must be whole numbers, got {wins[bad[0], 0]:g}")
    if np.any(wins[1:, 0] <= wins[:-1, 0]):
        raise ValueError("window numbers must rise from window to window")
    return block


def _windows(block: np.ndarray, t: int) -> np.ndarray:
    """The (W, G, T, 11) sliding view of a (W, G, 11) ``_window_block``: [w, g] is the T rows of grid g's column
    ending at window w, with T zero windows of grid -1 in front (the view's first, all-padding sequence is
    dropped, so an empty block gives W = 0)."""
    padded = np.concatenate([np.zeros((t, *block.shape[1:])), block])
    padded[:t, :, COL_GRID] = -1.0
    return np.lib.stride_tricks.sliding_window_view(padded, t, axis=0)[1:].transpose(0, 1, 3, 2)


def _sequences(rows: np.ndarray) -> np.ndarray:
    """(N, T, ``N_INPUT_COLUMNS``) float32 feature sequences from (N, T, 11) ``_windows`` rows, each value
    rounded once from float64.

    The final row keeps its counts and radius with its metrics zeroed.  Every real row gets the final row's
    time-of-day code, which its ``MarketWindow`` or ``WindowSnapshot`` has checked, and a padding row, whose
    grid is -1, gets -1 there too."""
    x = rows[:, :, :N_INPUT_COLUMNS].astype(np.float32)
    x[:, -1, COL_OFR:COL_RADIUS] = 0.0
    x[:, :, COL_TOD] = np.where(rows[:, :, COL_GRID] >= 0, rows[:, -1:, COL_TOD], -1.0)
    return x


def composite_score(predictions: np.ndarray, label_stats: NormStats) -> np.ndarray:
    """Scalar ranking of predicted (ofr, apd, dur, revenue) rows: one score per row, (4,) -> () or (N, 4) -> (N,).

    Each metric is z-scored against the training-label distribution so the
    sum is unit-free; pickup distance enters negatively since it is the one
    metric being minimized.
    """
    return apply_norm(predictions, label_stats) @ METRIC_SENSE


class Predictor(Protocol):
    """Maps normalized feature sequences to raw-unit metric predictions.

    ``features`` is an (N, T, ``N_INPUT_COLUMNS``) float32 (``PARAM_DTYPE``)
    batch whatever the model's dtype, and ``candidates`` holds one radius
    (km) per row.  The result is (N, 4), one column per ``METRIC_NAMES``
    entry, in raw units."""

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray: ...


class ModelPredictor:
    """Trained forecaster plus the label denormalization it was fit with."""

    def __init__(self, model, label_stats: NormStats):
        self.model = model
        self.label_stats = label_stats

    def predict_for(self, features: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        return invert_norm(self.model.predict(features), self.label_stats)


@dataclass(slots=True)
class RadiusDecision:
    grid: int
    window: int
    chosen_radius: float
    candidates: tuple[float, ...]
    predictions: np.ndarray   # (K, 4) raw metric units
    scores: np.ndarray        # (K,)


class DecisionLog(Sequence[RadiusDecision]):
    """A radius source's grid decisions, oldest first: ``calls`` keeps one (window, best, predictions, scores)
    record per ``radii`` call of the latest run; item i, grid i % G of call i // G, is built on access."""

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


def normalize_features(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """(N, T, ``N_INPUT_COLUMNS``) raw sequences as ``PARAM_DTYPE`` model input, whatever the model's dtype.

    The ``N_BASE_FEATURES`` measured columns of the real rows are z-scored in float64 and then cast; padding
    rows, those whose grid index is negative, get +0.0 there.  The index columns are only cast, so they keep
    their whole numbers and the padding rows' -1.  One float64 temporary covers the measured columns."""
    stats.check_width("feature", N_BASE_FEATURES)
    out = features.astype(PARAM_DTYPE)
    z = features[:, :, :N_BASE_FEATURES] - stats.mean
    z /= stats.std
    z[features[:, :, COL_GRID] < 0] = 0.0
    out[:, :, :N_BASE_FEATURES] = z
    return out


class PredictorRadiusSource:
    """Radius source driven by a predictor, one batched prediction per window.  ``decisions`` is the audit log of
    the latest run: a call for window w first drops the calls logged for window w and later, so a run's first
    call starts the log afresh, and a run that starts at a later window keeps the calls before it."""

    def __init__(
        self,
        predictor: Predictor,
        candidates: CandidateSet,
        layout: FeatureLayout,
        feature_stats: NormStats,
        label_stats: NormStats,
    ):
        feature_stats.check_width("feature", N_BASE_FEATURES)
        label_stats.check_width("label", len(METRIC_NAMES))
        self.predictor = predictor
        self.candidates = candidates
        self.layout = layout
        self.feature_stats = feature_stats
        self.label_stats = label_stats
        self.decisions = DecisionLog(candidates.radii, layout.n_cells)

    def _batch(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        """(G*K, T, ``N_INPUT_COLUMNS``) model input, grid-major (row g*K + j: grid g, candidate j in its final
        row).  The G sequences go through ``normalize_features`` before the K copies, so that it z-scores G
        sequences, not G*K, and each copy's final radius is z-scored from its float64 candidate.  The snapshot's
        row follows the last T-1 windows of ``history``, the only ones read and checked to be whole windows, and
        is windowed as a training example's window is.  Built apart from ``radii`` to be freed once predicted."""
        n_grids, t = self.layout.n_cells, self.layout.seq_len
        shape = np.shape(snapshot.n_idle)  # the snapshot's three counts share it
        if shape != (n_grids,):  # a shorter array would broadcast one grid's count to every grid
            raise ValueError(f"snapshot counts have shape {shape}, expected ({n_grids},)")
        tail = _window_block(history[-(t - 1) * n_grids:], n_grids)
        now = np.zeros((1, n_grids, COL_WINDOW + 1))  # the snapshot's row: counts, grid and time of day
        now[0, :, :COL_TOTAL + 1] = np.stack(attrgetter(*FEATURE_FIELDS[:COL_TOTAL + 1])(snapshot), axis=1)
        now[0, :, COL_GRID], now[0, :, COL_TOD] = np.arange(n_grids), snapshot.tod
        base = _sequences(_windows(np.concatenate([tail, now]), t)[-1])
        stats = self.feature_stats
        # normalize_features' arithmetic on the radius column alone
        final_radii = (np.asarray(self.candidates) - stats.mean[COL_RADIUS]) / stats.std[COL_RADIUS]
        x = np.repeat(normalize_features(base, stats), len(final_radii), axis=0)
        x[:, -1, COL_RADIUS] = np.tile(final_radii, n_grids)
        return x

    def radii(self, snapshot: WindowSnapshot, history: Sequence[MarketWindow]) -> np.ndarray:
        n_grids, k, radii = self.layout.n_cells, len(self.candidates), np.asarray(self.candidates)
        preds = self.predictor.predict_for(self._batch(snapshot, history), np.tile(radii, n_grids))
        want = (n_grids * k, len(METRIC_NAMES))
        if np.shape(preds) != want:  # a (G*K, 1) column would broadcast against the four label stats
            raise ValueError(f"predictions have shape {np.shape(preds)}, expected {want}")
        scores = composite_score(preds, self.label_stats)
        preds, scores = preds.reshape(n_grids, k, -1), scores.reshape(n_grids, k)
        bad = ~(np.isfinite(preds).all(axis=2) & np.isfinite(scores)).all(axis=1)
        if np.any(bad):
            raise ValueError(f"non-finite predictions or scores for grids {np.flatnonzero(bad).tolist()}")
        best = np.argmax(scores, axis=1)  # first max wins: candidates ascend, so ties pick the smallest
        calls = self.decisions.calls
        while calls and calls[-1][0] >= snapshot.window:
            calls.pop()
        calls.append((snapshot.window, best, preds, scores))
        return radii[best]


# ---------------------------------------------------------------------------
# offline data collection
# ---------------------------------------------------------------------------


@dataclass
class TrainingData:
    """Raw (unnormalized) supervised examples extracted from window logs.

    ``dataset_from_windows`` stores ``features`` as float32, each measured
    value its float64 window metric rounded once, then the grid index and
    time-of-day code (-1 on padding rows, the marker everything here reads).
    Feature stats are fitted on the measured columns alone (``real_rows``),
    and ``normalized_features`` z-scores only those columns.  Labels stay
    float64.  ``pad_rows`` and ``grids`` restate the index columns: only
    ``pad_rows``' range is checked, and no computation reads either."""

    features: np.ndarray    # (N, T, N_INPUT_COLUMNS) float32
    labels: np.ndarray      # (N, 4) realized (ofr, apd, dur, revenue)
    pad_rows: np.ndarray    # (N,) leading padding rows per sequence
    grids: np.ndarray       # (N,)
    windows: np.ndarray     # (N,)
    episodes: np.ndarray    # (N,)
    layout: FeatureLayout

    def __post_init__(self) -> None:
        n, t = len(self.features), self.layout.seq_len
        if self.features.shape != (n, t, N_INPUT_COLUMNS):
            raise ValueError(f"features have shape {self.features.shape}, expected (N, {t}, {N_INPUT_COLUMNS})")
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
        dtype, for fitting feature stats.  Only those columns are masked, so no (M, ``N_INPUT_COLUMNS``) copy
        is made."""
        return self.features[:, :, :N_BASE_FEATURES][self.features[:, :, COL_GRID] >= 0]

    def normalized_features(self, stats: NormStats) -> np.ndarray:
        """``normalize_features`` of the whole set: (N, T, ``N_INPUT_COLUMNS``) ``PARAM_DTYPE``, the measured
        columns z-scored under ``stats`` (fitted on ``real_rows``), the index columns as they are."""
        return normalize_features(self.features, stats)

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

    The log must be whole windows, as ``_window_block`` checks.  Examples are
    ordered by grid, then window.  The example for a row uses the up to T-1
    windows before it in the log as realized history (positional: a gap in
    window numbers does not shorten it), the row's start-of-window counts
    plus its actual radius as the final row, and its realized metrics as the
    label.
    """
    check_count("episode", episode, 0)
    block = _window_block(windows, layout.n_cells)
    n_windows, n_grids, width = block.shape
    rows = _windows(block, layout.seq_len).swapaxes(0, 1).reshape(-1, layout.seq_len, width)  # grid-major
    final = rows[:, -1]
    return TrainingData(
        features=_sequences(rows),
        labels=final[:, COL_OFR:COL_RADIUS].copy(),
        pad_rows=np.count_nonzero(rows[:, :, COL_GRID] < 0, axis=1),
        grids=np.repeat(np.arange(n_grids), n_windows),
        windows=final[:, COL_WINDOW].astype(np.int64),
        episodes=np.full(len(rows), episode, dtype=int),
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
    check_count("episodes", episodes)
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
    return concat_datasets(parts), results


def concat_datasets(parts: Sequence[TrainingData]) -> TrainingData:
    """The examples of ``parts`` in order: each array field concatenated, under the one layout they share."""
    if other := [p.layout for p in parts if p.layout != parts[0].layout]:
        raise ValueError(f"cannot join examples of {parts[0].layout} and {other[0]}")
    names = (f.name for f in dataclasses.fields(TrainingData) if f.name != "layout")
    return TrainingData(**{k: np.concatenate([getattr(p, k) for p in parts]) for k in names}, layout=parts[0].layout)
