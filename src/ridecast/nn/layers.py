"""Differentiable building blocks, each one graph node: the two-layer
perceptron, the positional add, the pre-norm residual x + LayerNorm(x),
single-head scaled dot-product self-attention, the mean-pooled stacked
multi-task head and the per-task mean squared error.

Each node has a hand-derived numpy backward.  It keeps only what its
backward reads and gives gradient only to the parents that require it.
Without a graph (inference) nothing is kept, and attention projects Q, K and
V one at a time so that at most two of them are live.

The encoder blocks reduce by BLAS matrix-vector products, several times
faster than numpy's ``sum`` over a short axis: row means are
``rows @ full(n, 1/n)``, row sums ``rows @ ones(n)``, and the bias, gamma
and beta gradients ``ones(R) @ rows``, each constant vector in the data's
dtype.  Per-row scale and shift apply through (R, 1) columns.  The
softmax's row maximum is T - 1 ``np.maximum`` passes over column slices,
which keeps a NaN score as ``max`` does.  The positional, head and loss
nodes reduce with numpy's ``sum`` over the batch or sequence axis.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _send


def _rows(a: np.ndarray) -> np.ndarray:
    """View the leading axes of a as one row axis."""
    return a.reshape(-1, a.shape[-1])


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the row axis of a 2-D array, as ones(R) @ a."""
    return np.ones(len(a), dtype=a.dtype) @ a


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis as a mat-vec, keeping that axis with length 1."""
    return (_rows(a) @ np.ones(a.shape[-1], dtype=a.dtype)).reshape(*a.shape[:-1], 1)


def mlp_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """y = relu(x @ w1 + b1) @ w2 + b2; keeps the input rows and the post-relu units."""
    x2d = _rows(x.data)
    h = x2d @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    y = h @ w2.data
    y += b2.data

    def back(g):
        g = _rows(g)
        gh = g @ w2.data.T
        gh *= h > 0
        _send((w2, lambda: h.T @ g), (b2, lambda: _column_sums(g)), (w1, lambda: x2d.T @ gh),
              (b1, lambda: _column_sums(gh)), (x, lambda: (gh @ w1.data.T).reshape(x.shape)))

    return Tensor._result(y.reshape(*x.shape[:-1], -1), (x, w1, b1, w2, b2), back)


def add_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """x + LayerNorm(x) over the last axis, as one node: the residual input of a block's sublayer.

    LayerNorm scales each row to zero mean and unit spread, then by gamma and
    beta; the denominator is sqrt(var + eps), i.e. eps sits under the root.
    Keeps the normalized rows xhat and the (R, 1) column of 1/sigma.
    """
    x2d = _rows(x.data)
    n = x2d.shape[1]
    row_mean = np.full(n, 1.0 / n, dtype=x2d.dtype)
    xhat = x2d - (x2d @ row_mean)[:, None]
    y = xhat * xhat
    rstd = (1.0 / np.sqrt(y @ row_mean + eps))[:, None]
    xhat *= rstd
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    y += x2d

    def back(g):
        g = _rows(g)
        g_xhat = g * xhat
        _send((beta, lambda: _column_sums(g)), (gamma, lambda: _column_sums(g_xhat)))
        if x.requires_grad:
            # g + rstd * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)),
            # the row means as mat-vecs with gamma/n; g_xhat is reused as scratch
            gamma_n = gamma.data * (1.0 / n)
            np.multiply(xhat, (g_xhat @ gamma_n)[:, None], out=g_xhat)
            g_xhat += (g @ gamma_n)[:, None]
            gx = g * gamma.data
            gx -= g_xhat
            gx *= rstd
            gx += g
            x._accumulate(gx.reshape(x.shape))

    return Tensor._result(y.reshape(x.shape), (x, gamma, beta), back)


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


def self_attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor) -> Tensor:
    """Encoder self-attention: softmax(Q K^T / sqrt(d_k)) V, no mask.

    Works on (T, d) inputs or batched (B, T, d); the key width d_k is taken
    from w_k's output dimension.  Keeps the projections and the softmax.
    """
    scale = 1.0 / math.sqrt(w_k.shape[-1])
    x2d, lead = _rows(x.data), x.shape[:-1]
    weights = (w_q, w_k, w_v)
    if not any(t.requires_grad for t in (x, *weights)):
        q, k = ((x2d @ w.data).reshape(*lead, -1) for w in (w_q, w_k))
        s = _softmax_rows(np.matmul(q, np.swapaxes(k, -1, -2)), scale)
        del q, k
        return Tensor(np.matmul(s, (x2d @ w_v.data).reshape(*lead, -1)))

    # Q, K and V side by side from one GEMM; their gradients are stacked the
    # same way, so backward takes one GEMM for the input and one for the weights
    w_qkv = np.concatenate([w.data for w in weights], axis=1)
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
        _send((x, lambda: (g2d @ w_qkv.T).reshape(x.shape)),
              *((w, lambda c=c: g_w[:, c].copy()) for w, c in zip(weights, cols)))

    return Tensor._result(np.matmul(s, v), (x, *weights), back)


def add_position(x: Tensor, pos: Tensor) -> Tensor:
    """x + pos for a (B, T, d) batch and a (T, d) positional table."""

    def back(g):
        _send((x, lambda: g), (pos, lambda: g.sum(axis=0)))

    return Tensor._result(x.data + pos.data, (x, pos), back)


def pooled_heads(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """(B, m) task outputs of a (B, T, d) batch under the stacked head.

    The mean over T goes through relu(pooled @ w1 + b1), which gives each of
    the m tasks its own h units (task i in columns i*h..(i+1)*h of the
    (d, m*h) w1); task i's output is the dot product of its units with row i
    of the (m, h) w2, plus b2[i].  Keeps the pooled rows and the units.
    """
    inv_t = x.data.dtype.type(1.0 / x.shape[-2])
    pooled = x.data.sum(axis=-2)
    pooled *= inv_t
    h = pooled @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    units = h.reshape(len(h), *w2.shape)
    y = (units * w2.data).sum(axis=-1)
    y += b2.data

    def back(g):
        g_units = g[:, :, None] * w2.data
        g_units *= units > 0
        g_h = g_units.reshape(h.shape)
        _send((b2, lambda: g.sum(axis=0)), (w2, lambda: (g[:, :, None] * units).sum(axis=0)),
              (b1, lambda: g_h.sum(axis=0)), (w1, lambda: pooled.T @ g_h))
        if x.requires_grad:
            g_pooled = g_h @ w1.data.T
            g_pooled *= inv_t
            x._accumulate(np.broadcast_to(g_pooled[:, None, :], x.shape).copy())

    return Tensor._result(y, (x, w1, b1, w2, b2), back)


def task_mse(pred: Tensor, target: Tensor) -> Tensor:
    """(m,) mean squared error of each task's column over a (B, m) batch; keeps the errors."""
    err = pred.data - target.data
    inv_b = err.dtype.type(1.0 / len(err))
    loss = (err * err).sum(axis=0)
    loss *= inv_b

    def back(g):
        g_err = (g * inv_b) * err
        g_err += g_err
        _send((pred, lambda: g_err), (target, lambda: -g_err))

    return Tensor._result(loss, (pred, target), back)
