"""Spans timed from outside the program.

The benchmark never edits or patches ``ridecast``.  It times the layers by
handing the program wrapped collaborators: a radius source for ``SimConfig``,
a predictor for ``PredictorRadiusSource`` and a model proxy for ``train`` and
``ModelPredictor``.  Each wrapper records one span per call in a ``Tracer``
held in memory; the layer metrics are computed from the spans after the run.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans per name as (start, end, n): times from ``perf_counter``, n a size."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple[float, float, int]]] = defaultdict(list)

    def add(self, name: str, start: float, end: float, n: int = 0) -> None:
        self.spans[name].append((start, end, n))

    def timed(self, name: str, n: int, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, t0, time.perf_counter(), n)
        return out

    def durations(self, name: str) -> np.ndarray:
        return np.array([e - s for s, e, _ in self.spans[name]], dtype=float)

    def sizes(self, name: str) -> np.ndarray:
        return np.array([n for _, _, n in self.spans[name]], dtype=float)

    def within(self, child: str, roots: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per root interval: summed child duration, child count and summed child size.

        A child belongs to the root interval its start falls in.  Spans are
        recorded in call order by one thread, so starts are sorted.
        """
        spans = self.spans[child]
        starts = np.array([s for s, _, _ in spans], dtype=float)
        cum_d = np.concatenate([[0.0], np.cumsum([e - s for s, e, _ in spans])])
        cum_n = np.concatenate([[0.0], np.cumsum([n for _, _, n in spans])])
        lo = np.searchsorted(starts, [a for a, _ in roots], side="left")
        hi = np.searchsorted(starts, [b for _, b in roots], side="left")
        return cum_d[hi] - cum_d[lo], (hi - lo).astype(float), cum_n[hi] - cum_n[lo]


class TimedRadiusSource:
    """``RadiusSource`` wrapper timing each ``radii`` call the simulator makes."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def radii(self, snapshot, history):
        return self._tracer.timed("sim.radius_source", len(history), self._inner.radii, snapshot, history)


class TimedPredictor:
    """``Predictor`` wrapper timing each ``predict_for`` call and counting its sequences."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def predict_for(self, features, candidates):
        return self._tracer.timed("optimizer.predictor", len(features), self._inner.predict_for, features, candidates)


class TracedModel:
    """Delegating proxy around a ``TransformerRegressor``.

    Times the four methods ``train`` and ``ModelPredictor`` call; every other
    attribute (``config``, ``params``) is the wrapped model's own.
    """

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._model, name)

    def zero_grad(self):
        return self._tracer.timed("nn.zero_grad", 0, self._model.zero_grad)

    def task_losses(self, x, y):
        return self._tracer.timed("nn.task_losses", len(x), self._model.task_losses, x, y)

    def backward_weighted(self, losses, weights):
        return self._tracer.timed("nn.backward_weighted", 0, self._model.backward_weighted, losses, weights)

    def predict(self, x):
        return self._tracer.timed("nn.predict", len(x), self._model.predict, x)
