import math

import numpy as np
import pytest

from ridecast.behavior import (
    AcceptanceModel,
    FitResult,
    accept_probability,
    acceptance_rate,
    fit_logistic,
    log_loss,
    sample_accepts,
)


def marginal_rate_quadrature(model: AcceptanceModel, x1: float, x2: float, n_nodes: int = 80) -> float:
    """Oracle: E_eps[sigmoid(logit + eps)] by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    eps = nodes * math.sqrt(2.0) * model.sigma
    logit = model.beta0 + model.beta1 * x1 + model.beta2 * x2 + eps
    return float(np.sum(weights / math.sqrt(math.pi) / (1.0 + np.exp(-logit))))


class TestAcceptProbability:
    def test_zero_logit_by_cancellation(self):
        m = AcceptanceModel(beta0=0.0, beta1=-1.0, beta2=0.5, sigma=1.0)
        assert accept_probability(m, pickup_km=2.0, fare=4.0, eps=0.0) == pytest.approx(0.5)

    def test_symmetric_at_zero_coefficients(self):
        m = AcceptanceModel(beta0=0.0, beta1=0.0, beta2=0.0)
        for x1, x2 in [(0.1, 3.0), (5.0, 0.0), (2.2, 9.9)]:
            assert accept_probability(m, x1, x2, 0.0) == pytest.approx(0.5)

    def test_open_interval(self):
        m = AcceptanceModel(beta0=500.0, beta1=0.0, beta2=0.0)
        p = accept_probability(m, 0.0, 0.0, 0.0)
        assert 0.0 < p < 1.0
        p = accept_probability(AcceptanceModel(beta0=-500.0), 0.0, 0.0, 0.0)
        assert 0.0 < p < 1.0

    def test_monotone_in_pickup_distance(self):
        # dp/dx1 carries the sign of beta1, checked by finite differences
        m = AcceptanceModel(beta0=1.0, beta1=-0.8, beta2=0.02)
        h = 1e-6
        for x1 in np.linspace(0.1, 6.0, 13):
            dp = (accept_probability(m, x1 + h, 5.0) - accept_probability(m, x1 - h, 5.0)) / (2 * h)
            assert dp < 0

    def test_monotone_in_fare(self):
        m = AcceptanceModel(beta0=1.0, beta1=-0.8, beta2=0.02)
        h = 1e-6
        for x2 in np.linspace(0.0, 40.0, 9):
            dp = (accept_probability(m, 2.0, x2 + h) - accept_probability(m, 2.0, x2 - h)) / (2 * h)
            assert dp > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceptanceModel(sigma=-1.0)
        with pytest.raises(ValueError):
            AcceptanceModel(beta0=float("nan"))


class TestSampleAccept:
    def test_saturated_accept(self):
        m = AcceptanceModel(beta0=50.0, beta1=0.0, beta2=0.0, sigma=1.0)
        rate = acceptance_rate(m, 1.0, 5.0, np.random.default_rng(0), n=1_000_000)
        assert rate == 1.0

    def test_saturated_reject(self):
        m = AcceptanceModel(beta0=-50.0, beta1=0.0, beta2=0.0, sigma=1.0)
        rate = acceptance_rate(m, 1.0, 5.0, np.random.default_rng(0), n=1_000_000)
        assert rate == 0.0

    def test_symmetric_marginal_rate(self):
        # with sigma=1 and zero logit the marginal accept rate is exactly 0.5
        m = AcceptanceModel(beta0=0.0, beta1=0.0, beta2=0.0, sigma=1.0)
        rate = acceptance_rate(m, 3.0, 7.0, np.random.default_rng(42), n=100_000)
        assert rate == pytest.approx(0.5, abs=0.01)

    def test_rate_matches_quadrature(self):
        m = AcceptanceModel(beta0=1.0, beta1=-0.8, beta2=0.02, sigma=1.0)
        rng = np.random.default_rng(7)
        for x1, x2 in [(0.5, 5.0), (2.0, 10.0), (4.0, 3.0)]:
            expected = marginal_rate_quadrature(m, x1, x2)
            assert acceptance_rate(m, x1, x2, rng, n=100_000) == pytest.approx(expected, abs=0.01)

    def test_deterministic_given_rng_state(self):
        m = AcceptanceModel()
        a = [sample_accepts(m, np.array([1.0]), 8.0, np.random.default_rng(123)).tolist() for _ in range(5)]
        b = [sample_accepts(m, np.array([1.0]), 8.0, np.random.default_rng(123)).tolist() for _ in range(5)]
        assert a == b

    def test_sigma_zero_is_noise_free(self):
        m = AcceptanceModel(beta0=50.0, beta1=0.0, beta2=0.0, sigma=0.0)
        assert sample_accepts(m, np.array([0.0]), 0.0, np.random.default_rng(0)).tolist() == [True]


class TestLogLoss:
    def test_perfect_prediction(self):
        assert log_loss([1.0], [1.0]) == pytest.approx(0.0, abs=1e-10)

    def test_half_prediction(self):
        assert log_loss([1.0], [0.5]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_symmetric_in_label(self):
        assert log_loss([0.0], [0.5]) == pytest.approx(math.log(2.0), rel=1e-12)


@pytest.fixture(scope="module")
def planted_fit() -> tuple[np.ndarray, FitResult]:
    rng = np.random.default_rng(2024)
    beta = np.array([0.5, -1.2, 0.8])
    x1 = rng.uniform(0.0, 4.0, size=50_000)
    x2 = rng.uniform(0.0, 4.0, size=50_000)
    p = 1.0 / (1.0 + np.exp(-(beta[0] + beta[1] * x1 + beta[2] * x2)))
    y = (rng.random(50_000) < p).astype(float)
    samples = np.column_stack([x1, x2, y])
    return beta, fit_logistic(samples, lr=0.5, epochs=3000)


class TestFitLogistic:

    def test_recovers_planted_coefficients(self, planted_fit):
        beta, res = planted_fit
        fitted = np.array([res.model.beta0, res.model.beta1, res.model.beta2])
        assert np.max(np.abs(fitted - beta)) < 0.1

    def test_gradient_near_zero_at_optimum(self, planted_fit):
        _, res = planted_fit
        # recompute the log-loss gradient at the fitted point
        rng = np.random.default_rng(2024)
        x1 = rng.uniform(0.0, 4.0, size=50_000)
        x2 = rng.uniform(0.0, 4.0, size=50_000)
        p_true = 1.0 / (1.0 + np.exp(-(0.5 - 1.2 * x1 + 0.8 * x2)))
        y = (rng.random(50_000) < p_true).astype(float)
        X = np.column_stack([np.ones(50_000), x1, x2])
        b = np.array([res.model.beta0, res.model.beta1, res.model.beta2])
        p = 1.0 / (1.0 + np.exp(-(X @ b)))
        grad = X.T @ (p - y) / len(y)
        assert np.linalg.norm(grad) < 1e-4

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(5)
        x1 = rng.uniform(0, 4, size=2000)
        x2 = rng.uniform(0, 4, size=2000)
        p = 1.0 / (1.0 + np.exp(-(0.3 - 0.9 * x1 + 0.5 * x2)))
        y = (rng.random(2000) < p).astype(float)
        samples = np.column_stack([x1, x2, y])
        losses = [fit_logistic(samples, lr=0.2, epochs=n).final_loss for n in [10, 50, 200, 800]]
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        samples = np.column_stack([np.ones(10), np.ones(10), np.ones(10)])
        with pytest.raises(ValueError):
            fit_logistic(samples)


class TestPersistence:
    def test_json_roundtrip(self, tmp_path):
        m = AcceptanceModel(beta0=0.7, beta1=-1.1, beta2=0.09, sigma=0.5)
        path = tmp_path / "accept.json"
        m.to_json(path)
        assert AcceptanceModel.from_json(path) == m
