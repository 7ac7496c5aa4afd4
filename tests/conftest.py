import copy
from typing import Iterable

import numpy as np

from ridecast.market import GridSpec, MatchRecord, OrderStream, WindowMetrics, metrics_from_tallies
from ridecast.nn.model import TransformerRegressor


def float64_copy(model: TransformerRegressor) -> TransformerRegressor:
    """A deep copy of model with every parameter upcast to float64, so that it
    computes in float64 end to end; the source model is left as it is."""
    twin = copy.deepcopy(model)
    for t in twin.params.values():
        t.data = t.data.astype(np.float64)
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
    """Objective value only (no graph): sum_i w_i * mean((y_i - yhat_i)^2)."""
    pred = model.predict(x)
    per_task = ((y - pred) ** 2).mean(axis=0)
    return float(np.dot(weights, per_task))


def finite_difference_gradcheck(model: TransformerRegressor, x: np.ndarray, y: np.ndarray,
                                weights: np.ndarray, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences,
    swept over every element of every parameter tensor."""
    model.zero_grad()
    losses = model.task_losses(x, y)
    model.backward_weighted(losses, weights)
    worst = 0.0
    for name, p in model.params.items():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
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


def stream_from_rows(grid: GridSpec, rows: Iterable[tuple]) -> OrderStream:
    """OrderStream from (t_create, cell, origin_lon, origin_lat, dest_lon,
    dest_lat, fare) rows; row i becomes order id i."""
    rows = list(rows)
    return OrderStream(grid, *(zip(*rows) if rows else [()] * 7))


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
    a match log over a fully elapsed window.

    Creations are read from the rows ``order_ids`` of ``stream`` and match
    events from ``matches``; each counts when its timestamp falls inside
    [window_start, window_end).  Revenue is recognized at match time.
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
    return metrics_from_tallies(len(created), cohort, dists, fares, occupied_s, online_s)
