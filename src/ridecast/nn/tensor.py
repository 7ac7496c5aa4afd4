"""Reverse-mode automatic differentiation over dense float arrays.

A Tensor keeps the dtype of a float32 or float64 array and turns any other
input into float64.  Constants mixed into an op take the dtype of the Tensor
they meet, and ``backward()`` seeds the gradient in the root's dtype, so a
graph built on float32 data computes and backpropagates in float32.

A Tensor wraps an ndarray plus an optional gradient; operations record
backward closures and ``backward()`` replays them in reverse topological
order, dropping each interior node's gradient once its closure has run.
Gradients are never written in place, so one array may be handed to several
parents.  The ops are what the graph needs around the fused layers of
``layers.py``: broadcast add, subtract and multiply, matmul, relu, sum, mean
and reshape.
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


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        if grad is None:
            grad = np.ones_like(self.data)
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

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        """other as a Tensor; a constant takes this tensor's dtype."""
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        a, b = self, self._coerce(other)

        def back(g):
            _send((a, lambda: _unbroadcast(g, a.shape)), (b, lambda: _unbroadcast(g, b.shape)))

        return self._result(a.data + b.data, (a, b), back)

    def __sub__(self, other) -> "Tensor":
        return self + self._coerce(other) * -1.0

    def __mul__(self, other) -> "Tensor":
        a, b = self, self._coerce(other)

        def back(g):
            _send((a, lambda: _unbroadcast(g * b.data, a.shape)), (b, lambda: _unbroadcast(g * a.data, b.shape)))

        return self._result(a.data * b.data, (a, b), back)

    def __matmul__(self, other) -> "Tensor":
        a, b = self, self._coerce(other)

        def back(g):
            _send((a, lambda: _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)),
                  (b, lambda: _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)))

        return self._result(np.matmul(a.data, b.data), (a, b), back)

    # -- nonlinearities and reductions --------------------------------------

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def back(g):
            a._accumulate(g * mask)

        return self._result(np.maximum(a.data, 0.0), (a,), back)

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        a = self

        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return self._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape: int) -> "Tensor":
        a = self

        def back(g):
            a._accumulate(g.reshape(a.shape))

        return self._result(a.data.reshape(*shape), (a,), back)

    def item(self) -> float:
        return float(self.data)


def parameter(data, rng: Optional[np.random.Generator] = None, scale: Optional[float] = None) -> Tensor:
    """A trainable tensor; with rng+scale given, data is the shape to fill."""
    if rng is not None and scale is not None:
        data = rng.normal(0.0, scale, size=data)
    return Tensor(data, requires_grad=True)
