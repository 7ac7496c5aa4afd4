import math

import numpy as np

from ridecast.nn.layers import layer_norm, mlp_forward, self_attention
from ridecast.nn.tensor import Tensor


def brute_mlp(x, w1, b1, w2, b2):
    """Loop-level two-layer perceptron, independent of the Tensor graph."""
    n, d = x.shape
    h = np.zeros((n, w1.shape[1]))
    for i in range(n):
        for j in range(w1.shape[1]):
            acc = b1[j]
            for k in range(d):
                acc += x[i, k] * w1[k, j]
            h[i, j] = max(acc, 0.0)
    y = np.zeros((n, w2.shape[1]))
    for i in range(n):
        for j in range(w2.shape[1]):
            acc = b2[j]
            for k in range(w1.shape[1]):
                acc += h[i, k] * w2[k, j]
            y[i, j] = acc
    return y


def brute_layer_norm(x, gamma, beta, eps):
    out = np.zeros_like(x)
    for i, row in enumerate(x):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        sigma = math.sqrt(var + eps)
        for j, v in enumerate(row):
            out[i, j] = gamma[j] * (v - mu) / sigma + beta[j]
    return out


def brute_attention(x, wq, wk, wv):
    q, k, v = x @ wq, x @ wk, x @ wv
    t, dk = k.shape
    z = np.zeros((t, wv.shape[1]))
    for i in range(t):
        scores = [sum(q[i, a] * k[j, a] for a in range(dk)) / math.sqrt(dk) for j in range(t)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        total = sum(exps)
        weights = [e / total for e in exps]
        for c in range(wv.shape[1]):
            z[i, c] = sum(weights[j] * v[j, c] for j in range(t))
    return z


class TestMlp:
    def test_identity_network_under_relu(self):
        x = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        eye = Tensor(np.eye(4))
        zero = Tensor(np.zeros(4))
        y = mlp_forward(Tensor(x), eye, zero, eye, zero)
        np.testing.assert_array_equal(y.data, x)

    def test_zero_weights_broadcast_bias(self):
        x = np.random.default_rng(1).normal(size=(5, 3))
        b2 = np.array([1.5, -2.0])
        y = mlp_forward(Tensor(x), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4)),
                        Tensor(np.zeros((4, 2))), Tensor(b2))
        np.testing.assert_array_equal(y.data, np.tile(b2, (5, 1)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w1, b1 = rng.normal(size=(4, 6)), rng.normal(size=6)
        w2, b2 = rng.normal(size=(6, 5)), rng.normal(size=5)
        y = mlp_forward(Tensor(x), Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2))
        np.testing.assert_allclose(y.data, brute_mlp(x, w1, b1, w2, b2), atol=1e-12)


class TestLayerNorm:
    def test_constant_row_returns_beta(self):
        x = np.full((2, 5), 3.7)
        beta = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        y = layer_norm(Tensor(x), Tensor(np.ones(5)), Tensor(beta), eps=1e-5)
        np.testing.assert_allclose(y.data, np.tile(beta, (2, 1)), atol=1e-12)

    def test_already_standardized_row(self):
        y = layer_norm(Tensor(np.array([[-1.0, 1.0]])), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
        np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 7)) * 3
        gamma, beta = rng.normal(size=7), rng.normal(size=7)
        y = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5)
        np.testing.assert_allclose(y.data, brute_layer_norm(x, gamma, beta, 1e-5), atol=1e-12)

    def test_output_moments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 32)) * 5
        y = layer_norm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32)), eps=1e-5).data
        assert np.max(np.abs(y.mean(axis=-1))) < 1e-9
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)


class TestSelfAttention:
    def test_single_token_passes_through_value(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        z = self_attention(Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv))
        np.testing.assert_allclose(z.data, x @ wv, atol=1e-12)

    def test_identical_rows_attend_identically(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=4)
        x = np.tile(row, (3, 1))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        z = self_attention(Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv)).data
        np.testing.assert_allclose(z[0], z[1], atol=1e-12)
        np.testing.assert_allclose(z[1], z[2], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5))
        wq, wk, wv = (rng.normal(size=(5, 5)) for _ in range(3))
        z = self_attention(Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv))
        np.testing.assert_allclose(z.data, brute_attention(x, wq, wk, wv), atol=1e-12)

    def test_output_is_convex_combination_of_values(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        wq, wk, wv = (rng.normal(size=(3, 3)) for _ in range(3))
        v = x @ wv
        z = self_attention(Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv)).data
        # each output row lies inside the axis-aligned hull of value rows
        assert np.all(z <= v.max(axis=0) + 1e-12)
        assert np.all(z >= v.min(axis=0) - 1e-12)

    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(2, 3, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        z = self_attention(Tensor(xs), Tensor(wq), Tensor(wk), Tensor(wv)).data
        for b in range(2):
            zb = self_attention(Tensor(xs[b]), Tensor(wq), Tensor(wk), Tensor(wv)).data
            np.testing.assert_allclose(z[b], zb, atol=1e-12)
