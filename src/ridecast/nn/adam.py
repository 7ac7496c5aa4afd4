"""Adaptive moment estimation over a model's named parameter arrays, updated in place."""
from __future__ import annotations

import numpy as np


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(p) for k, p in params.items()}
        self._v = {k: np.zeros_like(p) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update from grads, which has a gradient for every parameter."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self._m[k]
            v = self._v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
