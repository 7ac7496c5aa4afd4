import copy
from typing import Iterable, NamedTuple

import numpy as np

from ridecast.demand import COL_GRID, COL_TOD, N_BASE_FEATURES, N_INPUT_COLUMNS, N_TOD, NormStats
from ridecast.market import GridSpec, MarketWindow, MatchRecord, OrderStream
from ridecast.nn.layers import mlp_forward
from ridecast.nn.model import ModelConfig, TransformerRegressor
from ridecast.optimizer import COL_RADIUS, COL_TOTAL, FeatureLayout, TrainingData


def identity_stats(dim: int) -> NormStats:
    """Stats of width ``dim`` under which normalising is exact: (x - 0) / 1 == x."""
    return NormStats(mean=np.zeros(dim), std=np.ones(dim))


def float64_copy(model: TransformerRegressor) -> TransformerRegressor:
    """A deep copy of model with every parameter upcast to float64, so that it
    computes in float64 end to end; the source model is left as it is."""
    twin = copy.deepcopy(model)
    for k, p in twin.params.items():
        twin.params[k] = p.astype(np.float64)
    return twin


def model_input(rng: np.random.Generator, n: int, config: ModelConfig, padded: bool = False) -> np.ndarray:
    """(n, T, ``N_INPUT_COLUMNS``) float64 model input: standard-normal measured columns, and per sequence
    one grid index and one time-of-day code, drawn uniformly, in all its rows.  With ``padded``, sequence k
    opens with a drawn 0..T-1 padding rows, zero in the measured columns and -1 in both index columns."""
    t = config.seq_len
    x = np.empty((n, t, N_INPUT_COLUMNS))
    x[..., :N_BASE_FEATURES] = rng.normal(size=(n, t, N_BASE_FEATURES))
    x[..., COL_GRID] = rng.integers(0, config.n_cells, n)[:, None]
    x[..., COL_TOD] = rng.integers(0, N_TOD, n)[:, None]
    if padded:
        pad = np.arange(t) < rng.integers(0, t, n)[:, None]
        x[pad] = 0.0
        x[pad, COL_GRID:] = -1.0
    return x


def one_hot_rows(x: np.ndarray, n_cells: int) -> np.ndarray:
    """Oracle: the one-hot form of index-column input x, (..., ``N_BASE_FEATURES`` + n_cells + ``N_TOD``) in
    x's dtype: the measured columns, then a 1 in the row's grid column and one in its time-of-day column;
    a padding row (-1 in both index columns) has no 1."""
    out = np.zeros((*x.shape[:-1], N_BASE_FEATURES + n_cells + N_TOD), dtype=x.dtype)
    out[..., :N_BASE_FEATURES] = x[..., :N_BASE_FEATURES]
    for row in np.ndindex(x.shape[:-1]):
        grid, tod = x[row][COL_GRID], x[row][COL_TOD]
        if grid >= 0:
            out[row][N_BASE_FEATURES + int(grid)] = 1
            out[row][N_BASE_FEATURES + n_cells + int(tod)] = 1
    return out


def one_hot_reference(model: TransformerRegressor) -> TransformerRegressor:
    """A deep copy of model whose embedding multiplies ``one_hot_rows`` of its input by the whole first
    weight through ``mlp_forward``: the product that the embedding's lookup stands for.  Every other
    layer, and the input check, is the model's own."""
    twin = copy.deepcopy(model)
    n_cells = model.config.n_cells
    twin._chain[0] = (lambda x, *w: mlp_forward(one_hot_rows(x, n_cells), *w), twin._chain[0][1])
    return twin


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of scalar f() in every element of x, perturbed in place."""
    g = np.zeros(x.shape)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + h
        up = f()
        x[i] = orig - h
        down = f()
        x[i] = orig
        g[i] = (up - down) / (2 * h)
    return g


def weighted_loss_value(model: TransformerRegressor, x: np.ndarray, y: np.ndarray,
                        weights: np.ndarray) -> float:
    """Objective value only (no tape): sum_i w_i * mean((y_i - yhat_i)^2)."""
    pred = model.predict(x)
    per_task = ((y - pred) ** 2).mean(axis=0)
    return float(np.dot(weights, per_task))


def finite_difference_gradcheck(model: TransformerRegressor, x: np.ndarray, y: np.ndarray,
                                weights: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences,
    swept over every element of every parameter tensor."""
    model.zero_grad()
    model.backward_weighted(model.task_losses(x, y)[1], weights)
    worst = 0.0
    for name, p in model.params.items():
        analytic = model.grads[name]
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = weighted_loss_value(model, x, y, weights)
            flat[j] = orig - h
            down = weighted_loss_value(model, x, y, weights)
            flat[j] = orig
            numeric = (up - down) / (2 * h)
            a = analytic.reshape(-1)[j]
            err = abs(a - numeric) / max(1e-6, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst


# Marker returned by grid_index for points outside the service area.
OUT_OF_AREA = -1


def grid_index(lon: float, lat: float, spec: GridSpec) -> int:
    """Row-major cell index for a point, or OUT_OF_AREA.

    Cells are half-open: a point on a cell's low edge belongs to that cell,
    and the bounding box itself is treated as [min, max) on both axes.
    """
    if not (spec.lon_min <= lon < spec.lon_max and spec.lat_min <= lat < spec.lat_max):
        return OUT_OF_AREA
    col = int((lon - spec.lon_min) / spec.cell_width)
    row = int((lat - spec.lat_min) / spec.cell_height)
    # guard against fp spill on the high edge of the last cell
    col = min(col, spec.side_count - 1)
    row = min(row, spec.side_count - 1)
    return row * spec.side_count + col


def stream_from_rows(grid: GridSpec, rows: Iterable[tuple]) -> OrderStream:
    """OrderStream from (t_create, origin_lon, origin_lat, dest_lon, dest_lat,
    fare) rows; row i becomes order id i."""
    rows = list(rows)
    return OrderStream(grid, *(zip(*rows) if rows else [()] * 6))


class WindowMetrics(NamedTuple):
    ofr: float
    apd_km: float
    dur: float
    revenue: float


def compute_window_metrics(
    stream: OrderStream,
    order_ids: Iterable[int],
    matches: Iterable[MatchRecord],
    window_start: float,
    window_end: float,
    occupied_s: float,
    online_s: float,
) -> WindowMetrics:
    """Oracle: windowed (ofr, apd, dur, revenue) recomputed from a stream and
    a match log over a fully elapsed window, with no simulator code.

    Creations are read from the rows ``order_ids`` of ``stream`` and match
    events from ``matches``; each counts when its timestamp falls inside
    [window_start, window_end).  The fulfilment rate counts the matches of
    orders created in the window; pickup distance (``np.mean``, in match
    order) and revenue (``sum``, recognized at match time) cover every match
    in the window.  Empty denominators give zeros.
    """
    created = {i for i in order_ids if window_start <= stream.t_create[i] < window_end}
    cohort = 0
    dists: list[float] = []
    fares: list[float] = []
    for m in matches:
        if window_start <= m.t_match < window_end:
            cohort += m.order_id in created
            dists.append(m.pickup_km)
            fares.append(m.fare)
    return WindowMetrics(
        ofr=cohort / len(created) if created else 0.0,
        apd_km=float(np.mean(dists)) if dists else 0.0,
        dur=occupied_s / online_s if online_s > 0 else 0.0,
        revenue=float(sum(fares)),
    )


def reference_features(
    history: list[MarketWindow],
    n_idle: int,
    n_open: int,
    n_total: int,
    tod: int,
    grid: int,
    candidate_radius: float,
    layout: FeatureLayout,
) -> tuple[np.ndarray, int]:
    """Oracle: one (seq_len, ``N_INPUT_COLUMNS``) sequence assembled row by row.

    The last seq_len-1 windows of ``history`` fill the rows before the final
    one, oldest first, after leading padding rows; the final row carries the
    counts, zeroed metrics and the candidate radius; every non-padding row
    gets the grid index and the time-of-day code, and padding rows are zero
    with -1 in both.  Returns the matrix and the number of padding rows.
    """
    t = layout.seq_len
    x = np.zeros((t, N_INPUT_COLUMNS))
    recent = list(history)[-(t - 1):]
    n_pad = (t - 1) - len(recent)
    for k, w in enumerate(recent):
        if w.grid != grid:
            raise ValueError("history rows must belong to the decision grid")
        x[n_pad + k, :N_BASE_FEATURES] = [w.n_idle, w.n_open, w.n_total, w.ofr, w.apd_km, w.dur,
                                          w.revenue, w.radius_km]
    x[-1, :COL_TOTAL + 1] = [n_idle, n_open, n_total]
    x[-1, COL_RADIUS] = candidate_radius
    x[:n_pad, COL_GRID:] = -1.0
    x[n_pad:, COL_GRID] = grid
    x[n_pad:, COL_TOD] = tod
    return x, n_pad


def reference_dataset(windows: Iterable[MarketWindow], layout: FeatureLayout, episode: int = 0) -> TrainingData:
    """Oracle: one ``reference_features`` call per (grid, window) row.

    Rows are grouped by grid in ascending order and stably sorted by window
    within it; each row's history is the up to seq_len-1 rows before it in
    that order.
    """
    by_grid: dict[int, list[MarketWindow]] = {}
    for w in windows:
        by_grid.setdefault(w.grid, []).append(w)
    feats, labels, pads, grids, wins = [], [], [], [], []
    for g in sorted(by_grid):
        rows = sorted(by_grid[g], key=lambda w: w.window)
        for t, w in enumerate(rows):
            x, n_pad = reference_features(rows[max(0, t - (layout.seq_len - 1)): t], w.n_idle, w.n_open,
                                          w.n_total, int(w.tod), g, w.radius_km, layout)
            feats.append(x)
            labels.append([w.ofr, w.apd_km, w.dur, w.revenue])
            pads.append(n_pad)
            grids.append(g)
            wins.append(w.window)
    return TrainingData(
        features=np.array(feats).reshape(-1, layout.seq_len, N_INPUT_COLUMNS),
        labels=np.array(labels).reshape(-1, 4),
        pad_rows=np.array(pads, dtype=int),
        grids=np.array(grids, dtype=int),
        windows=np.array(wins, dtype=int),
        episodes=np.full(len(feats), episode, dtype=int),
        layout=layout,
    )
