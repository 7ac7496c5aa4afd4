import math
import weakref

import numpy as np
import pytest

from conftest import model_input, numeric_grad, one_hot_rows
from ridecast.demand import COL_GRID, COL_TOD, N_BASE_FEATURES, N_TOD
from ridecast.nn.layers import (add_layer_norm, add_position, attention, embed, mlp_forward, pooled_heads,
                                self_attention, task_mse)
from ridecast.nn.model import ModelConfig


def brute_mlp(x, w1, b1, w2, b2):
    """Loop-level two-layer perceptron, independent of the layers' numpy."""
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
        eye, zero = np.eye(4), np.zeros(4)
        y = mlp_forward(x, eye, zero, eye, zero)[0]
        np.testing.assert_array_equal(y, x)

    def test_zero_weights_broadcast_bias(self):
        x = np.random.default_rng(1).normal(size=(5, 3))
        b2 = np.array([1.5, -2.0])
        y = mlp_forward(x, np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), b2)[0]
        np.testing.assert_array_equal(y, np.tile(b2, (5, 1)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        w1, b1 = rng.normal(size=(4, 6)), rng.normal(size=6)
        w2, b2 = rng.normal(size=(6, 5)), rng.normal(size=5)
        y = mlp_forward(x, w1, b1, w2, b2)[0]
        np.testing.assert_allclose(y, brute_mlp(x, w1, b1, w2, b2), atol=1e-12)


def index_input(rng: np.random.Generator, n_cells: int) -> np.ndarray:
    """A (2, 3, ``N_INPUT_COLUMNS``) ``model_input`` whose sequence 0 opens with a padding row."""
    x = model_input(rng, 2, ModelConfig(seq_len=3, input_dim=N_BASE_FEATURES + n_cells + N_TOD))
    x[0, 0] = 0.0
    x[0, 0, COL_GRID:] = -1.0
    return x


class TestEmbed:
    N_CELLS = 3

    def params(self, rng):
        return (rng.normal(size=(N_BASE_FEATURES + self.N_CELLS + N_TOD, 5)), rng.normal(size=5),
                rng.normal(size=(5, 3)), rng.normal(size=3))

    def test_matches_brute_force_on_the_one_hot_block(self):
        rng = np.random.default_rng(15)
        x, params = index_input(rng, self.N_CELLS), self.params(rng)
        y = embed(x, *params)[0]
        want = brute_mlp(one_hot_rows(x, self.N_CELLS).reshape(6, -1), *params).reshape(2, 3, -1)
        np.testing.assert_allclose(y, want, atol=1e-12)

    def test_rows_read_only_their_own_indices(self):
        # a padding row reads no index row, and a real row only its grid's and its time of day's
        rng = np.random.default_rng(16)
        x = index_input(rng, self.N_CELLS)
        w1, b1, w2, b2 = self.params(rng)
        y = embed(x, w1, b1, w2, b2)[0]
        used = {N_BASE_FEATURES + int(g) for g in x[:, -1, COL_GRID]}
        used |= {N_BASE_FEATURES + self.N_CELLS + int(t) for t in x[:, -1, COL_TOD]}
        spare = w1.copy()
        spare[[k for k in range(N_BASE_FEATURES, len(w1)) if k not in used]] = 1e6
        np.testing.assert_array_equal(embed(x, spare, b1, w2, b2)[0], y)
        padding = w1.copy()
        padding[N_BASE_FEATURES:] = 1e6
        np.testing.assert_array_equal(embed(x, padding, b1, w2, b2)[0][0, 0], y[0, 0])


class TestAddLayerNorm:
    def test_constant_row_returns_x_plus_beta(self):
        x = np.full((2, 5), 3.7)
        beta = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        y = add_layer_norm(x, np.ones(5), beta)[0]
        np.testing.assert_allclose(y, x + beta, atol=1e-12)

    def test_already_standardized_row(self):
        # unit variance, so LayerNorm only divides by sqrt(1 + LN_EPS)
        x = np.array([[-1.0, 1.0]])
        y = add_layer_norm(x, np.ones(2), np.zeros(2))[0]
        np.testing.assert_allclose(y, x + x / np.sqrt(1.0 + 1e-5), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 7)) * 3
        gamma, beta = rng.normal(size=7), rng.normal(size=7)
        y = add_layer_norm(x, gamma, beta)[0]
        np.testing.assert_allclose(y, x + brute_layer_norm(x, gamma, beta, 1e-5), atol=1e-12)

    def test_output_moments(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 32)) * 5
        y = add_layer_norm(x, np.ones(32), np.zeros(32))[0] - x
        assert np.max(np.abs(y.mean(axis=-1))) < 1e-9
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-5)


def attention_paths(x, wq, wk, wv) -> tuple[np.ndarray, np.ndarray]:
    """The outputs of the inference path and of the training path."""
    return attention(x, wq, wk, wv), self_attention(x, wq, wk, wv)[0]


class TestSelfAttention:
    def test_single_token_passes_through_value(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        z = attention(x, wq, wk, wv)
        np.testing.assert_allclose(z, x @ wv, atol=1e-12)

    def test_identical_rows_attend_identically(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=4)
        x = np.tile(row, (3, 1))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        z = attention(x, wq, wk, wv)
        np.testing.assert_allclose(z[0], z[1], atol=1e-12)
        np.testing.assert_allclose(z[1], z[2], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5))
        wq, wk, wv = (rng.normal(size=(5, 5)) for _ in range(3))
        for z in attention_paths(x, wq, wk, wv):
            np.testing.assert_allclose(z, brute_attention(x, wq, wk, wv), atol=1e-12)

    def test_output_is_convex_combination_of_values(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3))
        wq, wk, wv = (rng.normal(size=(3, 3)) for _ in range(3))
        v = x @ wv
        z = attention(x, wq, wk, wv)
        # each output row lies inside the axis-aligned hull of value rows
        assert np.all(z <= v.max(axis=0) + 1e-12)
        assert np.all(z >= v.min(axis=0) - 1e-12)

    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(2, 3, 4))
        wq, wk, wv = (rng.normal(size=(4, 4)) for _ in range(3))
        z = attention(xs, wq, wk, wv)
        for b in range(2):
            zb = attention(xs[b], wq, wk, wv)
            np.testing.assert_allclose(z[b], zb, atol=1e-12)

    def test_softmax_weights_sum_to_one_at_large_scores(self):
        # rows differ only along the first feature, which w_v ignores, so every
        # value row is the same and any convex combination of them equals it;
        # large query/key weights push the scores far past exp's range
        rng = np.random.default_rng(10)
        x = np.tile(rng.normal(size=4), (5, 1))
        x[:, 0] += np.arange(5.0)
        wq, wk = (rng.normal(size=(4, 4)) * 300 for _ in range(2))
        wv = rng.normal(size=(4, 3))
        wv[0] = 0.0
        scores = (x @ wq) @ (x @ wk).T / 2.0
        assert scores.max() > 1e3  # exp would overflow without the row shift
        for z in attention_paths(x, wq, wk, wv):
            np.testing.assert_allclose(z, np.tile(x[0] @ wv, (5, 1)), rtol=1e-12, atol=1e-12)


def brute_pooled_heads(x, w1, b1, w2, b2):
    """Loop-level mean over T, relu units, then each task's dot product with its w2 row."""
    n, t, d = x.shape
    m, h = w2.shape
    y = np.zeros((n, m))
    for i in range(n):
        pooled = [sum(x[i, s, k] for s in range(t)) / t for k in range(d)]
        for task in range(m):
            acc = b2[task]
            for u in range(h):
                col = task * h + u
                unit = max(b1[col] + sum(pooled[k] * w1[k, col] for k in range(d)), 0.0)
                acc += unit * w2[task, u]
            y[i, task] = acc
    return y


class TestAddPosition:
    def test_adds_the_table_to_every_sequence(self):
        rng = np.random.default_rng(11)
        x, pos = rng.normal(size=(3, 4, 5)), rng.normal(size=(4, 5))
        y = add_position(x, pos)[0]
        for b in range(3):
            np.testing.assert_array_equal(y[b], x[b] + pos)


class TestPooledHeads:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4, 5))
        w1, b1 = rng.normal(size=(5, 6)), rng.normal(size=6)
        w2, b2 = rng.normal(size=(3, 2)), rng.normal(size=3)
        y = pooled_heads(x, w1, b1, w2, b2)[0]
        np.testing.assert_allclose(y, brute_pooled_heads(x, w1, b1, w2, b2), atol=1e-12)

    def test_each_task_reads_only_its_own_units(self):
        # zeroing task 0's block of w1 leaves its units at relu(b1) and the
        # other task's output untouched
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3, 5))
        w1, b1 = rng.normal(size=(5, 6)), np.abs(rng.normal(size=6))
        w2, b2 = rng.normal(size=(2, 3)), rng.normal(size=2)
        cut = w1.copy()
        cut[:, :3] = 0.0
        y = pooled_heads(x, w1, b1, w2, b2)[0]
        y_cut = pooled_heads(x, cut, b1, w2, b2)[0]
        np.testing.assert_array_equal(y_cut[:, 1], y[:, 1])
        np.testing.assert_allclose(y_cut[:, 0], b1[:3] @ w2[0] + b2[0], atol=1e-12)


class TestTaskMse:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(14)
        pred, target = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        loss = task_mse(pred, target)[0]
        want = [sum((pred[i, j] - target[i, j]) ** 2 for i in range(6)) / 6 for j in range(3)]
        np.testing.assert_allclose(loss, want, atol=1e-12)


def layer_inputs(layer: str, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The arguments of one layer, by name: a batched (B, T, d) sequence input
    (``index_input`` for the embedding) and the layer's parameters, or the
    loss layer's (B, m) predictions and targets."""
    d = 4
    x = rng.normal(size=(2, 3, d))
    if layer == "embed":  # two grids, so the first layer has N_BASE_FEATURES + 2 + N_TOD rows
        return {"x": index_input(rng, 2), "w1": rng.normal(size=(N_BASE_FEATURES + 2 + N_TOD, 5)),
                "b1": rng.normal(size=5), "w2": rng.normal(size=(5, 3)), "b2": rng.normal(size=3)}
    if layer == "mlp":
        return {"x": x, "w1": rng.normal(size=(d, 5)), "b1": rng.normal(size=5),
                "w2": rng.normal(size=(5, 3)), "b2": rng.normal(size=3)}
    if layer == "add_layer_norm":
        return {"x": x * 3, "gamma": rng.normal(size=d), "beta": rng.normal(size=d)}
    if layer == "add_position":
        return {"x": x, "pos": rng.normal(size=(3, d))}
    if layer == "pooled_heads":  # m = 2 tasks of h = 3 units
        return {"x": x, "w1": rng.normal(size=(d, 6)), "b1": rng.normal(size=6),
                "w2": rng.normal(size=(2, 3)), "b2": rng.normal(size=2)}
    if layer == "task_mse":
        return {"pred": rng.normal(size=(5, 3)), "target": rng.normal(size=(5, 3))}
    return {"x": x, "w_q": rng.normal(size=(d, 3)), "w_k": rng.normal(size=(d, 3)),
            "w_v": rng.normal(size=(d, 5))}


LAYERS = {"mlp": mlp_forward, "embed": embed, "add_layer_norm": add_layer_norm, "attention": self_attention,
          "add_position": add_position, "pooled_heads": pooled_heads, "task_mse": task_mse}


def check_layer_grads(layer: str, seed: int = 0) -> None:
    """Gradients of (layer(...) * R).sum(), i.e. back seeded with a non-uniform
    R, against central differences.  back returns one per argument, in order,
    but none for task_mse's targets and None for embed's input."""
    rng = np.random.default_rng(seed)
    arrays = layer_inputs(layer, rng)
    fn = LAYERS[layer]
    y, back = fn(*arrays.values())
    r = rng.normal(size=y.shape)
    grads = back(r)
    assert len(grads) == (1 if layer == "task_mse" else len(arrays))

    def value() -> float:
        return float((fn(*arrays.values())[0] * r).sum())

    for name, g in zip(arrays, grads):
        if layer == "embed" and name == "x":
            assert g is None
        else:
            assert g.shape == arrays[name].shape, name
            np.testing.assert_allclose(g, numeric_grad(value, arrays[name]), rtol=1e-6, atol=1e-8, err_msg=name)


class TestFusedGradients:
    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_matches_finite_differences(self, layer):
        for seed in (0, 1):
            check_layer_grads(layer, seed=seed)

    def test_fused_residual_matches_finite_differences_of_x_plus_norm(self):
        # the layer's x-gradient carries both the residual path and the norm's
        rng = np.random.default_rng(3)
        x, gamma, beta = rng.normal(size=(2, 3, 4)) * 2, rng.normal(size=4), rng.normal(size=4)
        r = rng.normal(size=(2, 3, 4))
        gx = add_layer_norm(x, gamma, beta)[1](r)[0]

        def value() -> float:
            return float(((x + brute_layer_norm(x.reshape(-1, 4), gamma, beta, 1e-5).reshape(x.shape)) * r).sum())

        np.testing.assert_allclose(gx, numeric_grad(value, x), rtol=1e-6, atol=1e-8)


class TestBacksKeepOnlyWhatTheyRead:
    @pytest.mark.parametrize("layer", ["add_layer_norm", "pooled_heads", "add_position"])
    def test_back_keeps_no_input_it_does_not_read(self, layer):
        # these backs read their input for its shape alone; training holds each back until backward
        # pops it, so a back that kept the input would hold the whole array through the step
        arrays = layer_inputs(layer, np.random.default_rng(5))
        x = weakref.ref(arrays["x"])
        y, back = LAYERS[layer](*arrays.values())
        shape = arrays.pop("x").shape
        assert x() is None
        assert back(np.ones_like(y))[0].shape == shape
