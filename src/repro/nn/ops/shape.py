"""Shape-manipulation primitives with autograd support."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, make_op


def reshape(a, shape: Tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return make_op(data, (a,), backward)


def transpose(a, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(grad):
        return (grad.transpose(inverse),)

    return make_op(data, (a,), backward)


def expand_dims(a, axis: int) -> Tensor:
    a = as_tensor(a)
    data = np.expand_dims(a.data, axis)

    def backward(grad):
        return (np.squeeze(grad, axis=axis),)

    return make_op(data, (a,), backward)


def squeeze(a, axis: int) -> Tensor:
    a = as_tensor(a)
    data = np.squeeze(a.data, axis=axis)

    def backward(grad):
        return (np.expand_dims(grad, axis),)

    return make_op(data, (a,), backward)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        return tuple(np.split(grad, boundaries, axis=axis))

    return make_op(data, tuple(tensors), backward)


def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return make_op(data, tuple(tensors), backward)


def getitem(a, index) -> Tensor:
    """Differentiable basic/advanced indexing (scatter-add on backward)."""
    a = as_tensor(a)
    data = a.data[index]

    def backward(grad):
        out = np.zeros_like(a.data)
        np.add.at(out, index, grad)
        return (out,)

    return make_op(data, (a,), backward)
