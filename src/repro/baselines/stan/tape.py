"""Tape-based reverse-mode AD (the Stan design point).

Values are wrapped in :class:`T` nodes whose operators record the
computation on a tape; :func:`backward` replays it in reverse.  Nodes
carry NumPy arrays, so model programs vectorise over data while the
*instrumentation* overhead (a Python object and closure per operation)
remains -- the design contrast with AugurV2's source-to-source AD
(paper Section 4.4: "other systems (e.g., Stan) implement AD by
instrumenting the program").
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape it broadcast from."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class T:
    """One tape node: a value, its parents, and a backward closure."""

    __slots__ = ("value", "parents", "_backward", "grad")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self._backward = backward
        self.grad = None

    # -- construction helpers ------------------------------------------

    @staticmethod
    def lift(x) -> "T":
        return x if isinstance(x, T) else T(x)

    @property
    def shape(self):
        return self.value.shape

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = T.lift(other)

        def bw(g, a=self, b=other):
            a.grad += _unbroadcast(g, a.shape)
            b.grad += _unbroadcast(g, b.shape)

        return T(self.value + other.value, (self, other), bw)

    __radd__ = __add__

    def __sub__(self, other):
        other = T.lift(other)

        def bw(g, a=self, b=other):
            a.grad += _unbroadcast(g, a.shape)
            b.grad += _unbroadcast(-g, b.shape)

        return T(self.value - other.value, (self, other), bw)

    def __rsub__(self, other):
        return T.lift(other) - self

    def __mul__(self, other):
        other = T.lift(other)

        def bw(g, a=self, b=other):
            a.grad += _unbroadcast(g * b.value, a.shape)
            b.grad += _unbroadcast(g * a.value, b.shape)

        return T(self.value * other.value, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = T.lift(other)

        def bw(g, a=self, b=other):
            a.grad += _unbroadcast(g / b.value, a.shape)
            b.grad += _unbroadcast(-g * a.value / b.value**2, b.shape)

        return T(self.value / other.value, (self, other), bw)

    def __rtruediv__(self, other):
        return T.lift(other) / self

    def __neg__(self):
        def bw(g, a=self):
            a.grad += _unbroadcast(-g, a.shape)

        return T(-self.value, (self,), bw)

    def __pow__(self, exponent: float):
        def bw(g, a=self, e=exponent):
            a.grad += _unbroadcast(g * e * a.value ** (e - 1), a.shape)

        return T(self.value**exponent, (self,), bw)

    # -- elementwise functions ---------------------------------------------

    def exp(self):
        out_val = np.exp(self.value)

        def bw(g, a=self, v=out_val):
            a.grad += _unbroadcast(g * v, a.shape)

        return T(out_val, (self,), bw)

    def log(self):
        def bw(g, a=self):
            a.grad += _unbroadcast(g / a.value, a.shape)

        with np.errstate(divide="ignore", invalid="ignore"):
            return T(np.log(self.value), (self,), bw)

    def sigmoid(self):
        v = 1.0 / (1.0 + np.exp(-self.value))

        def bw(g, a=self, v=v):
            a.grad += _unbroadcast(g * v * (1 - v), a.shape)

        return T(v, (self,), bw)

    def sum(self, axis=None):
        def bw(g, a=self, axis=axis):
            if axis is None:
                a.grad += np.broadcast_to(g, a.shape)
            else:
                a.grad += np.expand_dims(g, axis)

        return T(self.value.sum(axis=axis), (self,), bw)

    def dot(self, other):
        """Matrix/vector product (vec.vec, mat@vec, mat@mat)."""
        other = T.lift(other)

        def bw(g, a=self, b=other):
            av, bv = a.value, b.value
            if av.ndim == 1 and bv.ndim == 1:  # scalar result
                a.grad += g * bv
                b.grad += g * av
            elif av.ndim == 2 and bv.ndim == 1:  # vector result
                a.grad += np.outer(g, bv)
                b.grad += av.T @ g
            else:  # matrix result
                a.grad += g @ bv.T
                b.grad += av.T @ g

        return T(self.value @ other.value, (self, other), bw)

    def __getitem__(self, key):
        def bw(g, a=self, key=key):
            np.add.at(a.grad, key, g)

        return T(self.value[key], (self,), bw)

    def logsumexp(self, axis=-1):
        m = np.max(self.value, axis=axis, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(self.value - m)
        s = e.sum(axis=axis, keepdims=True)
        out_val = np.squeeze(m, axis=axis) + np.log(np.squeeze(s, axis=axis))
        soft = e / s

        def bw(g, a=self, soft=soft, axis=axis):
            a.grad += np.expand_dims(g, axis) * soft

        return T(out_val, (self,), bw)


def stack_last(nodes: list["T"]) -> "T":
    """Stack tape values along a new trailing axis (for mixture logits)."""
    nodes = [T.lift(n) for n in nodes]
    value = np.stack([n.value for n in nodes], axis=-1)

    def bw(g, nodes=nodes):
        for i, n in enumerate(nodes):
            n.grad += _unbroadcast(g[..., i], n.shape)

    return T(value, tuple(nodes), bw)


def backward(root: T, leaves: list[T]) -> list[np.ndarray]:
    """Reverse pass: gradients of ``root`` (a scalar) w.r.t. ``leaves``."""
    topo: list[T] = []
    seen: set[int] = set()

    def visit(node: T) -> None:
        stack = [(node, False)]
        while stack:
            n, processed = stack.pop()
            if processed:
                topo.append(n)
                continue
            if id(n) in seen:
                continue
            seen.add(id(n))
            stack.append((n, True))
            for p in n.parents:
                stack.append((p, False))

    visit(root)
    for n in topo:
        n.grad = np.zeros_like(n.value)
    root.grad = np.ones_like(root.value)
    for n in reversed(topo):
        if n._backward is not None:
            n._backward(n.grad)
    return [leaf.grad for leaf in leaves]
