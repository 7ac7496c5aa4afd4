"""The forecaster's layers, each one link of the model's chain: the two-layer
perceptron, the positional add, the pre-norm residual x + LayerNorm(x),
single-head scaled dot-product self-attention, the mean-pooled stacked
multi-task head and the per-task mean squared error.

A layer takes ndarrays and returns ``(y, back)``.  ``back(g)`` maps the
gradient of y to the gradients of the layer's input and parameters, in
argument order, from a hand-derived numpy backward that reads only what the
layer kept.  A back keeps only what it reads: ``add_layer_norm`` and
``pooled_heads`` keep their input's shape, not the input, so the arrays a
training step holds for a layer are freed once the model's backward has
run and dropped its back.  ``embed`` is the perceptron over the model's
input, whose gradient nothing reads, so its back gives None for it;
``task_mse``'s back gives the predictions' gradient alone, as the targets
are data.

The input carries the grid and the time of day as two index columns, and
``embed`` looks up their rows of its first weight instead of multiplying a
one-hot block.  On numpy's OpenBLAS a GEMM sums its inner dimension in order,
so the lookup gives the bytes of the one-hot product (tests pin this at
hidden widths 16 and 64; at width 5 OpenBLAS's small-matrix path reorders
the float32 sum).  The weight's gradient comes from that product's GEMM, over
a one-hot block that back rebuilds and drops again.  Inference
drops ``back`` at once, which frees what the layer kept, and runs attention
through ``attention``, which keeps nothing and projects Q, K and V one at a
time so that at most two of them are live: through ``self_attention``, a
500-sequence ``predict`` would peak at 3.8 instead of 2.3 MiB traced.

The encoder blocks reduce by BLAS matrix-vector products, several times
faster than numpy's ``sum`` over a short axis: row means are
``rows @ full(n, 1/n)``, row sums ``rows @ ones(n)``, and the bias, gamma
and beta gradients ``ones(R) @ rows``, each constant vector in the data's
dtype.  Per-row scale and shift apply through (R, 1) columns.  The
softmax's row maximum is T - 1 ``np.maximum`` passes over column slices,
which keeps a NaN score as ``max`` does.  The positional, head and loss
layers reduce with numpy's ``sum`` over the batch or sequence axis.
"""
from __future__ import annotations

import math

import numpy as np

from ..demand import COL_GRID, N_BASE_FEATURES, N_TOD

LN_EPS = 1e-5  # LayerNorm's variance floor, under the root


def _rows(a: np.ndarray) -> np.ndarray:
    """View the leading axes of a as one row axis."""
    return a.reshape(-1, a.shape[-1])


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the row axis of a 2-D array, as ones(R) @ a."""
    return np.ones(len(a), dtype=a.dtype) @ a


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis as a mat-vec, keeping that axis with length 1."""
    return (_rows(a) @ np.ones(a.shape[-1], dtype=a.dtype)).reshape(*a.shape[:-1], 1)


def _perceptron(h, b1, w2, b2, first_back):
    """relu(h + b1) @ w2 + b2 from the first layer's (R, n) product h, updated in place.

    back hands the first layer's gradient gh to first_back, which returns
    the gradients of the input and w1."""
    h += b1
    np.maximum(h, 0.0, out=h)
    y = h @ w2
    y += b2

    def back(g):
        g = _rows(g)
        gh = g @ w2.T
        gh *= h > 0
        return (*first_back(gh), _column_sums(gh), h.T @ g, _column_sums(g))

    return y, back


def mlp_forward(x, w1, b1, w2, b2):
    """y = relu(x @ w1 + b1) @ w2 + b2; keeps the input rows and the post-relu units."""
    x2d = _rows(x)
    y, back = _perceptron(x2d @ w1, b1, w2, b2, lambda gh: ((gh @ w1.T).reshape(x.shape), x2d.T @ gh))
    return y.reshape(*x.shape[:-1], -1), back


def _one_hot_block(measured, rows, n_in):
    """The (R, n_in) input that ``embed``'s lookup stands for: the measured
    columns, then a 1 at each of a row's two ``rows`` entries below n_in."""
    wide = np.zeros((len(measured), n_in), dtype=measured.dtype)
    wide[:, :N_BASE_FEATURES] = measured
    real = np.flatnonzero(rows[:, 0] < n_in)
    for col in rows.T:
        wide[real, col[real]] = 1.0
    return wide


def embed(x, w1, b1, w2, b2):
    """The perceptron over the model's (..., ``N_INPUT_COLUMNS``) input.

    w1 has a row per measured column, then one per grid and one per time of
    day.  The first layer is the measured columns' product with their rows,
    plus the grid's and then the time of day's row, in the order a product
    with the one-hot block would sum them; padding rows (-1 in both index
    columns) add the zero row appended after w1.  Keeps the input rows and
    the two row indices; back rebuilds the one-hot block to form w1's
    gradient as that product's gradient, and gives None for x.
    """
    x2d = _rows(x)
    n_in = len(w1)
    rows = x2d[:, COL_GRID:].astype(np.intp)
    rows += (N_BASE_FEATURES, n_in - N_TOD)
    rows[x2d[:, COL_GRID] < 0] = n_in
    table = np.concatenate([w1, np.zeros((1, w1.shape[1]), dtype=w1.dtype)])
    h = x2d[:, :N_BASE_FEATURES] @ w1[:N_BASE_FEATURES]
    for col in rows.T:
        h += table[col]
    y, back = _perceptron(h, b1, w2, b2,
                          lambda gh: (None, _one_hot_block(x2d[:, :N_BASE_FEATURES], rows, n_in).T @ gh))
    return y.reshape(*x.shape[:-1], -1), back


def add_layer_norm(x, gamma, beta):
    """x + LayerNorm(x) over the last axis, as one layer: the residual input of a block's sublayer.

    LayerNorm scales each row to zero mean and unit spread, then by gamma and
    beta; the denominator is sqrt(var + LN_EPS).
    Keeps the normalized rows xhat and the (R, 1) column of 1/sigma.
    """
    shape, x2d = x.shape, _rows(x)
    n = x2d.shape[1]
    row_mean = np.full(n, 1.0 / n, dtype=x2d.dtype)
    xhat = x2d - (x2d @ row_mean)[:, None]
    y = xhat * xhat
    rstd = (1.0 / np.sqrt(y @ row_mean + LN_EPS))[:, None]
    xhat *= rstd
    np.multiply(xhat, gamma, out=y)
    y += beta
    y += x2d

    def back(g):
        g = _rows(g)
        g_xhat = g * xhat
        g_gamma, g_beta = _column_sums(g_xhat), _column_sums(g)
        # g + rstd * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)),
        # the row means as mat-vecs with gamma/n; g_xhat is reused as scratch
        gamma_n = gamma * (1.0 / n)
        np.multiply(xhat, (g_xhat @ gamma_n)[:, None], out=g_xhat)
        g_xhat += (g @ gamma_n)[:, None]
        gx = g * gamma
        gx -= g_xhat
        gx *= rstd
        gx += g
        return gx.reshape(shape), g_gamma, g_beta

    return y.reshape(shape), back


def _softmax_rows(scores: np.ndarray, scale: float) -> np.ndarray:
    """Softmax of scale * scores over the last axis, in place, shifted by the row maximum."""
    scores *= scale
    top = scores[..., 0].copy()
    for j in range(1, scores.shape[-1]):
        np.maximum(top, scores[..., j], out=top)
    scores -= top[..., None]
    np.exp(scores, out=scores)
    scores /= _row_sums(scores)
    return scores


def attention(x, w_q, w_k, w_v) -> np.ndarray:
    """Encoder self-attention softmax(Q K^T / sqrt(d_k)) V, no mask, for
    inference: returns y alone and keeps nothing.

    Works on (T, d) inputs or batched (B, T, d); the key width d_k is taken
    from w_k's output dimension.
    """
    x2d, lead = _rows(x), x.shape[:-1]
    q, k = ((x2d @ w).reshape(*lead, -1) for w in (w_q, w_k))
    s = _softmax_rows(np.matmul(q, np.swapaxes(k, -1, -2)), 1.0 / math.sqrt(w_k.shape[-1]))
    del q, k
    return np.matmul(s, (x2d @ w_v).reshape(*lead, -1))


def self_attention(x, w_q, w_k, w_v):
    """``attention`` for training, with its back; keeps the projections and the softmax.

    Q, K and V come side by side from one GEMM, and their gradients are
    stacked the same way, so back takes one GEMM for the input and one for
    the weights.
    """
    scale = 1.0 / math.sqrt(w_k.shape[-1])
    x2d, lead = _rows(x), x.shape[:-1]
    weights = (w_q, w_k, w_v)
    w_qkv = np.concatenate(weights, axis=1)
    edges = np.cumsum([0, *(w.shape[-1] for w in weights)])
    cols = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    qkv = (x2d @ w_qkv).reshape(*lead, -1)
    q, k, v = (qkv[..., c] for c in cols)
    s = _softmax_rows(np.matmul(q, np.swapaxes(k, -1, -2)), scale)

    def back(g):
        gs = np.matmul(g, np.swapaxes(v, -1, -2))
        gs -= _row_sums(gs * s)
        gs *= s
        gs *= scale
        g_qkv = np.empty(qkv.shape, dtype=qkv.dtype)
        np.matmul(gs, k, out=g_qkv[..., cols[0]])
        np.matmul(np.swapaxes(gs, -1, -2), q, out=g_qkv[..., cols[1]])
        np.matmul(np.swapaxes(s, -1, -2), g, out=g_qkv[..., cols[2]])
        g2d = _rows(g_qkv)
        g_w = x2d.T @ g2d
        return (g2d @ w_qkv.T).reshape(x.shape), *(g_w[:, c].copy() for c in cols)

    return np.matmul(s, v), back


def add_position(x, pos):
    """x + pos for a (B, T, d) batch and a (T, d) positional table."""
    return x + pos, lambda g: (g, g.sum(axis=0))


def pooled_heads(x, w1, b1, w2, b2):
    """(B, m) task outputs of a (B, T, d) batch under the stacked head.

    The mean over T goes through relu(pooled @ w1 + b1), which gives each of
    the m tasks its own h units (task i in columns i*h..(i+1)*h of the
    (d, m*h) w1); task i's output is the dot product of its units with row i
    of the (m, h) w2, plus b2[i].  Keeps the pooled rows and the units.
    """
    shape, inv_t = x.shape, x.dtype.type(1.0 / x.shape[-2])
    pooled = x.sum(axis=-2)
    pooled *= inv_t
    h = pooled @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    units = h.reshape(len(h), *w2.shape)
    y = (units * w2).sum(axis=-1)
    y += b2

    def back(g):
        g_units = g[:, :, None] * w2
        g_units *= units > 0
        g_h = g_units.reshape(h.shape)
        g_pooled = g_h @ w1.T
        g_pooled *= inv_t
        return (np.broadcast_to(g_pooled[:, None, :], shape).copy(), pooled.T @ g_h, g_h.sum(axis=0),
                (g[:, :, None] * units).sum(axis=0), g.sum(axis=0))

    return y, back


def task_mse(pred, target):
    """(m,) mean squared error of each task's column over a (B, m) batch; keeps the errors.

    back gives the gradient of pred alone."""
    err = pred - target
    inv_b = err.dtype.type(1.0 / len(err))
    loss = (err * err).sum(axis=0)
    loss *= inv_b

    def back(g):
        g_err = (g * inv_b) * err
        g_err += g_err
        return (g_err,)

    return loss, back
