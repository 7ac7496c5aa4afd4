"""Reverse-mode automatic differentiation over dense float arrays.

A Tensor keeps the dtype of a float32 or float64 array and turns any other
input into float64, and ``backward(seed)`` casts the seed to the root's
dtype, so a graph built on float32 data computes and backpropagates in
float32.

A Tensor wraps an ndarray plus an optional gradient.  It has no operations
of its own: every op is a fused node of ``layers.py`` that records one
backward closure through ``Tensor._result``.  ``backward()`` replays the
closures in reverse topological order, dropping each interior node's
gradient once its closure has run.  Gradients are never written in place,
so one array may be handed to several parents.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

_KEPT_DTYPES = (np.float32, np.float64)


def _send(*pairs) -> None:
    """Give each parent of a (parent, gradient thunk) pair that requires grad its gradient."""
    for parent, grad in pairs:
        if parent.requires_grad:
            parent._accumulate(grad())


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _KEPT_DTYPES else data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        self.grad = grad if self.grad is None else self.grad + grad

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Backpropagate from this node, seeded with a copy of grad in its dtype."""
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.array(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None

    def zero_grad(self) -> None:
        self.grad = None


def parameter(data, rng: Optional[np.random.Generator] = None, scale: Optional[float] = None) -> Tensor:
    """A trainable tensor; with rng+scale given, data is the shape to fill."""
    if rng is not None and scale is not None:
        data = rng.normal(0.0, scale, size=data)
    return Tensor(data, requires_grad=True)
