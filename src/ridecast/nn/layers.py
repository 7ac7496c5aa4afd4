"""Differentiable building blocks: two-layer perceptron, per-row layer
normalization, and single-head scaled dot-product self-attention.

Each block is one graph node with a hand-derived numpy backward.  The node
keeps only what its backward reads and gives gradient only to the parents
that require it.  Without a graph (inference) nothing is kept, and attention
projects Q, K and V one at a time so that at most two of them are live.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _send


def _rows(a: np.ndarray) -> np.ndarray:
    """View the leading axes of a as one row axis."""
    return a.reshape(-1, a.shape[-1])


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
        _send((w2, lambda: h.T @ g), (b2, lambda: g.sum(axis=0)), (w1, lambda: x2d.T @ gh),
              (b1, lambda: gh.sum(axis=0)), (x, lambda: (gh @ w1.data.T).reshape(x.shape)))

    return Tensor._result(y.reshape(*x.shape[:-1], -1), (x, w1, b1, w2, b2), back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean and unit spread.

    The denominator is sqrt(var + eps), i.e. eps sits under the root.  Keeps
    the normalized rows xhat and 1/sigma.
    """
    n = x.shape[-1]
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    y = xhat * xhat
    sigma = np.sqrt(y.sum(axis=-1, keepdims=True) * (1.0 / n) + eps)
    xhat /= sigma
    np.multiply(xhat, gamma.data, out=y)
    y += beta.data
    rstd = 1.0 / sigma

    def back(g):
        g_xhat = g * xhat
        _send((beta, lambda: _rows(g).sum(axis=0)), (gamma, lambda: _rows(g_xhat).sum(axis=0)))
        if x.requires_grad:
            # rstd * (g*gamma - mean(g*gamma) - xhat * mean(g*gamma*xhat)), the
            # row means as matrix-vector products; g_xhat is reused as scratch
            mean_gx = (g_xhat @ gamma.data)[..., None] * (1.0 / n)
            np.multiply(xhat, mean_gx, out=g_xhat)
            g_xhat += (g @ gamma.data)[..., None] * (1.0 / n)
            gx = g * gamma.data
            gx -= g_xhat
            gx *= rstd
            x._accumulate(gx)

    return Tensor._result(y, (x, gamma, beta), back)


def _softmax_rows(scores: np.ndarray, scale: float) -> np.ndarray:
    """Softmax of scale * scores over the last axis, in place, shifted by the row maximum."""
    scores *= scale
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
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
        gs -= (gs * s).sum(axis=-1, keepdims=True)
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
