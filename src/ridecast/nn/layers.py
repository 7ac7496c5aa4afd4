"""Differentiable building blocks: two-layer perceptron, per-row layer
normalization, and single-head scaled dot-product self-attention.

Blocks rebind one name step by step, so without a graph (inference) each
intermediate is freed as soon as the next step has used it.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


def mlp_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                activation: str = "relu") -> Tensor:
    """y = f(x @ w1 + b1) @ w2 + b2 with f applied elementwise."""
    h = x @ w1 + b1
    if activation == "relu":
        h = h.relu()
    elif activation != "linear":
        raise ValueError(f"unknown activation {activation!r}")
    h = h @ w2
    return h + b2


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of the last axis to zero mean and unit spread.

    The denominator is sqrt(var + eps), i.e. eps sits under the root.
    """
    y = x - x.mean(axis=-1, keepdims=True)
    sigma = ((y * y).mean(axis=-1, keepdims=True) + eps).sqrt()
    y = y / sigma
    y = gamma * y
    return y + beta


def self_attention(x: Tensor, w_q: Tensor, w_k: Tensor, w_v: Tensor) -> Tensor:
    """Encoder self-attention: softmax(Q K^T / sqrt(d_k)) V, no mask.

    Works on (T, d) inputs or batched (B, T, d); the key width d_k is taken
    from w_k's output dimension.
    """
    d_k = w_k.shape[-1]
    scores = ((x @ w_q) @ (x @ w_k).swap_last_axes()) * (1.0 / math.sqrt(d_k))
    return scores.softmax(axis=-1) @ (x @ w_v)
