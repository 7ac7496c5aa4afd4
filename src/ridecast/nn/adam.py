"""Adaptive moment estimation over a model's named parameter arrays, updated in place."""
from __future__ import annotations

import numpy as np

BETA1 = 0.9    # decay of the first-moment (mean) estimate
BETA2 = 0.999  # decay of the second-moment (uncentred variance) estimate
EPS = 1e-8     # added to the root of the second moment


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p) for k, p in params.items()}
        self._v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update from grads, which has a gradient for every parameter."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self._m[k]
            v = self._v[k]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
