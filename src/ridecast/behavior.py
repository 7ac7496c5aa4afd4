"""Driver order-grabbing behavior: logistic acceptance probability, decision
sampling, and a log-loss gradient-descent fitter.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# keeps log-loss finite at saturated predictions
PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class AcceptanceModel:
    """Logistic grab model P(accept) = sigmoid(b0 + b1*pickup_km + b2*fare + eps).

    The per-decision noise eps ~ N(0, sigma^2) models unobserved driver
    idiosyncrasies; sigma=0 makes decisions a deterministic function of the
    uniform draw, which tests use to force accept/reject.
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

    def to_json(self, path: str | Path) -> None:
        payload = {"beta0": self.beta0, "beta1": self.beta1, "beta2": self.beta2, "sigma": self.sigma}
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def from_json(cls, path: str | Path) -> "AcceptanceModel":
        d = json.loads(Path(path).read_text())
        return cls(beta0=d["beta0"], beta1=d["beta1"], beta2=d["beta2"], sigma=d["sigma"])


def accept_probability(model: AcceptanceModel, pickup_km, fare, eps=0.0):
    """Acceptance probability for given pickup distance, fare and noise draw.

    Works elementwise on arrays; output is clamped to the open interval
    (0, 1) so downstream logs stay finite.
    """
    logit = model.beta0 + model.beta1 * np.asarray(pickup_km) + model.beta2 * np.asarray(fare) + eps
    p = 1.0 / (1.0 + np.exp(-logit))
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def sample_accepts(
    model: AcceptanceModel, pickup_kms: np.ndarray, fare: float, rng: np.random.Generator
) -> np.ndarray:
    """Independent grab decisions for one broadcast round, one per driver.

    Each decision draws its own eps and compares a uniform draw against p;
    the draws are batched (all eps, then all uniforms) so big rounds stay cheap.
    """
    pickup_kms = np.asarray(pickup_kms, dtype=float)
    n = pickup_kms.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    eps = rng.normal(0.0, model.sigma, size=n) if model.sigma > 0 else np.zeros(n)
    p = accept_probability(model, pickup_kms, fare, eps)
    return rng.random(n) < p


def acceptance_rate(
    model: AcceptanceModel, pickup_km: float, fare: float, rng: np.random.Generator, n: int
) -> float:
    """Monte Carlo marginal accept rate over n independent decisions."""
    return float(np.mean(sample_accepts(model, np.full(n, pickup_km), fare, rng)))


def log_loss(y, y_hat) -> float:
    """Mean binary cross-entropy with clamped predictions."""
    y = np.asarray(y, dtype=float)
    y_hat = np.clip(np.asarray(y_hat, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat)))


@dataclass(frozen=True)
class FitResult:
    model: AcceptanceModel
    final_loss: float
    n_epochs: int


def fit_logistic(
    samples: np.ndarray,
    lr: float = 0.5,
    epochs: int = 2000,
    sigma: float = 1.0,
) -> FitResult:
    """Fit (beta0, beta1, beta2) by full-batch gradient descent on log loss.

    ``samples`` is an (n, 3) array of (pickup_km, fare, label).  The noise
    term is a simulation device, not a regressor, so the fit uses eps=0.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValueError("samples must be an (n, 3) array of (pickup_km, fare, label)")
    y = samples[:, 2]
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("need at least one positive and one negative label")
    X = np.column_stack([np.ones(len(samples)), samples[:, 0], samples[:, 1]])
    beta = np.zeros(3)
    for _ in range(epochs):
        p = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (p - y) / len(y)
        beta -= lr * grad
    p = np.clip(1.0 / (1.0 + np.exp(-(X @ beta))), PROB_CLAMP, 1.0 - PROB_CLAMP)
    model = AcceptanceModel(beta0=float(beta[0]), beta1=float(beta[1]), beta2=float(beta[2]), sigma=sigma)
    return FitResult(model=model, final_loss=log_loss(y, p), n_epochs=epochs)
