"""Driver order-grabbing behavior: logistic acceptance probability and the
sampling of one broadcast round's grab decisions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AcceptanceModel:
    """Logistic grab model P(accept) = sigmoid(b0 + b1*pickup_km + b2*fare + eps).

    The per-decision noise eps ~ N(0, sigma^2) models unobserved driver
    idiosyncrasies; sigma=0 makes decisions a deterministic function of the
    uniform draw.
    """

    beta0: float = 1.0
    beta1: float = -0.8   # per km of pickup distance
    beta2: float = 0.02   # per currency unit of fare
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not all(np.isfinite([self.beta0, self.beta1, self.beta2, self.sigma])):
            raise ValueError("coefficients must be finite")
        if self.sigma < 0:
            raise ValueError("noise std must be >= 0")


def accept_probability(model: AcceptanceModel, pickup_km, fare, eps=0.0):
    """Acceptance probability for given pickup distance, fare and noise draw.

    Works elementwise on arrays; the value lies in [0, 1].
    """
    logit = model.beta0 + model.beta1 * np.asarray(pickup_km) + model.beta2 * np.asarray(fare) + eps
    with np.errstate(over="ignore"):  # exp(-logit) is inf below logit -709, where p is 0 as it should be
        return 1.0 / (1.0 + np.exp(-logit))


def sample_accepts(
    model: AcceptanceModel, pickup_kms: np.ndarray, fare: float, rng: np.random.Generator
) -> np.ndarray:
    """Independent grab decisions for one broadcast round, one per driver.

    Each decision draws its own eps and compares a uniform draw against p;
    the draws are batched (all eps, then all uniforms, at any sigma) so big rounds stay cheap.
    """
    eps = rng.normal(0.0, model.sigma, size=len(pickup_kms))
    return rng.random(len(eps)) < accept_probability(model, pickup_kms, fare, eps)
