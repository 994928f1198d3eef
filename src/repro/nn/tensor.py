"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a numpy array plus an optional backward closure and
parent links. Calling :meth:`Tensor.backward` on a scalar (or with an explicit
output gradient) walks the graph in reverse topological order and accumulates
gradients into every tensor with ``requires_grad=True``.

Operations live in :mod:`repro.nn.ops`; this module only holds the graph
machinery and operator-overload sugar.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.nn import config


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=config.dtype())
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: Tuple["Tensor", ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's accumulated gradient."""
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(
        self,
        grad: Optional[np.ndarray] = None,
        sink: Optional[dict] = None,
    ) -> None:
        """Backpropagate from this tensor through the recorded graph.

        With ``sink`` given, leaf gradients are accumulated into
        ``sink[id(leaf)]`` instead of the leaves' ``.grad`` — this keeps
        concurrent backward passes over shared parameters race-free (each
        worker owns a private sink, merged deterministically afterwards).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        order = _topological_order(self)
        grads = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                if sink is None:
                    node.accumulate_grad(node_grad)
                else:
                    key = id(node)
                    if key in sink:
                        sink[key] = sink[key] + node_grad
                    else:
                        sink[key] = np.array(
                            node_grad, dtype=node.data.dtype, copy=True
                        )
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pgrad = np.asarray(pgrad, dtype=parent.data.dtype)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad

    # ------------------------------------------------------------------
    # Operator sugar (implementations live in repro.nn.ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.nn import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.nn import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.nn import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.nn import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.nn import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.nn import ops

        return ops.div(other, self)

    def __neg__(self):
        from repro.nn import ops

        return ops.neg(self)

    def __matmul__(self, other):
        from repro.nn import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.nn import ops

        return ops.getitem(self, index)

    def sum(self, axis=None, keepdims: bool = False):
        from repro.nn import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.nn import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        from repro.nn import ops

        return ops.max(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.nn import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, *axes):
        from repro.nn import ops

        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return ops.transpose(self, axes or None)

    def squeeze(self, axis):
        from repro.nn import ops

        return ops.squeeze(self, axis)

    def unsqueeze(self, axis):
        from repro.nn import ops

        return ops.expand_dims(self, axis)


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if it already is one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def make_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Iterable[Optional[np.ndarray]]],
) -> Tensor:
    """Construct an op output tensor, recording the graph edge if needed.

    ``backward`` receives the upstream gradient and must return one gradient
    (or ``None``) per parent, in order.
    """
    out = Tensor(data)
    if config.grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _topological_order(root: Tensor) -> list:
    """Iterative post-order DFS returning nodes from outputs to inputs."""
    order: list = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
