import math

import numpy as np
import pytest

from ridecast.behavior import AcceptanceModel, accept_probability, sample_accepts


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

    def test_saturated_logit_is_the_unclamped_logistic(self):
        # the draw rng.random() < p is well defined at 0 and 1, so p is the logistic as computed
        assert accept_probability(AcceptanceModel(beta0=500.0), 0.0, 0.0, 0.0) == 1.0
        p = accept_probability(AcceptanceModel(beta0=-500.0), 0.0, 0.0, 0.0)
        assert p == 1.0 / (1.0 + math.exp(500.0)) and p > 0.0
        # below logit -709 exp(-logit) overflows to inf, silently, and p is exactly 0
        assert accept_probability(AcceptanceModel(beta0=-800.0), 0.0, 0.0, 0.0) == 0.0

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
        rate = np.mean(sample_accepts(m, np.full(1_000_000, 1.0), 5.0, np.random.default_rng(0)))
        assert rate == 1.0

    def test_saturated_reject(self):
        # at beta0=-800 exp(-logit) overflows, and the round must still reject everyone without a warning
        for beta0 in (-50.0, -800.0):
            m = AcceptanceModel(beta0=beta0, beta1=0.0, beta2=0.0, sigma=1.0)
            rate = np.mean(sample_accepts(m, np.full(1_000_000, 1.0), 5.0, np.random.default_rng(0)))
            assert rate == 0.0

    def test_symmetric_marginal_rate(self):
        # with sigma=1 and zero logit the marginal accept rate is exactly 0.5
        m = AcceptanceModel(beta0=0.0, beta1=0.0, beta2=0.0, sigma=1.0)
        rate = np.mean(sample_accepts(m, np.full(100_000, 3.0), 7.0, np.random.default_rng(42)))
        assert rate == pytest.approx(0.5, abs=0.01)

    def test_rate_matches_quadrature(self):
        m = AcceptanceModel(beta0=1.0, beta1=-0.8, beta2=0.02, sigma=1.0)
        rng = np.random.default_rng(7)
        for x1, x2 in [(0.5, 5.0), (2.0, 10.0), (4.0, 3.0)]:
            expected = marginal_rate_quadrature(m, x1, x2)
            assert np.mean(sample_accepts(m, np.full(100_000, x1), x2, rng)) == pytest.approx(expected, abs=0.01)

    def test_deterministic_given_rng_state(self):
        m = AcceptanceModel()
        a = [sample_accepts(m, np.array([1.0]), 8.0, np.random.default_rng(123)).tolist() for _ in range(5)]
        b = [sample_accepts(m, np.array([1.0]), 8.0, np.random.default_rng(123)).tolist() for _ in range(5)]
        assert a == b

    def test_sigma_zero_is_noise_free(self):
        m = AcceptanceModel(beta0=50.0, beta1=0.0, beta2=0.0, sigma=0.0)
        assert sample_accepts(m, np.array([0.0]), 0.0, np.random.default_rng(0)).tolist() == [True]

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_one_draw_layout(self, sigma):
        # every round draws n normals, then n uniforms, whatever sigma
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        sample_accepts(AcceptanceModel(sigma=sigma), np.array([0.5, 1.0, 2.0]), 5.0, rng)
        twin.normal(size=3)
        twin.random(3)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_empty_round_draws_nothing(self, sigma):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        got = sample_accepts(AcceptanceModel(sigma=sigma), np.zeros(0), 5.0, rng)
        assert got.dtype == bool and got.shape == (0,)
        assert rng.bit_generator.state == state
