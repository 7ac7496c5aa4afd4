"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps an ndarray plus an optional gradient buffer; operations
record backward closures and ``backward()`` replays them in reverse
topological order.  The op set is exactly what the forecaster graph needs:
broadcast arithmetic, matmul, relu, softmax, reductions and reshapes.
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np


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
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    @staticmethod
    def _result(data: np.ndarray, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(parents)
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
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return self._result(a.data + b.data, (a, b), back)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self

        def back(g):
            if a.requires_grad:
                a._accumulate(-g)

        return self._result(-a.data, (a,), back)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.data, b.shape))

        return self._result(a.data * b.data, (a, b), back)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

        return self._result(a.data / b.data, (a, b), back)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        a, b = self, other
        if a.data.ndim > 2 and b.data.ndim == 2:
            # stacked rows times a weight: one 2-D GEMM over the flattened
            # leading axes, so the weight gradient needs no broadcast sum
            a2d = a.data.reshape(-1, a.shape[-1])

            def back_2d(g):
                g2d = g.reshape(-1, g.shape[-1])
                if a.requires_grad:
                    a._accumulate((g2d @ b.data.T).reshape(a.shape))
                if b.requires_grad:
                    b._accumulate(a2d.T @ g2d)

            out = (a2d @ b.data).reshape(*a.shape[:-1], b.shape[-1])
            return self._result(out, (a, b), back_2d)

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

        return self._result(np.matmul(a.data, b.data), (a, b), back)

    # -- nonlinearities and reductions --------------------------------------

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0

        def back(g):
            if a.requires_grad:
                a._accumulate(g * mask)

        return self._result(np.where(mask, a.data, 0.0), (a,), back)

    def sqrt(self) -> "Tensor":
        a = self
        out_data = np.sqrt(a.data)

        def back(g):
            if a.requires_grad:
                a._accumulate(g * 0.5 / out_data)

        return self._result(out_data, (a,), back)

    def softmax(self, axis: int = -1) -> "Tensor":
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=axis, keepdims=True)

        def back(g):
            if a.requires_grad:
                inner = (g * s).sum(axis=axis, keepdims=True)
                a._accumulate(s * (g - inner))

        return self._result(s, (a,), back)

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        a = self

        def back(g):
            if not a.requires_grad:
                return
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return self._result(a.data.sum(axis=axis, keepdims=keepdims), (a,), back)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def swap_last_axes(self) -> "Tensor":
        a = self

        def back(g):
            if a.requires_grad:
                a._accumulate(np.swapaxes(g, -1, -2))

        return self._result(np.swapaxes(a.data, -1, -2), (a,), back)

    def reshape(self, *shape: int) -> "Tensor":
        a = self

        def back(g):
            if a.requires_grad:
                a._accumulate(g.reshape(a.shape))

        return self._result(a.data.reshape(*shape), (a,), back)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(data, rng: Optional[np.random.Generator] = None, scale: Optional[float] = None) -> Tensor:
    """A trainable tensor; with rng+scale given, data is the shape to fill."""
    if rng is not None and scale is not None:
        data = rng.normal(0.0, scale, size=data)
    return Tensor(data, requires_grad=True)
