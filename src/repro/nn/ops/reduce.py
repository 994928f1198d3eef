"""Reduction primitives (sum/mean/max) with autograd support."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, make_op


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _expand_for_broadcast(grad, axes, out_keepdims, in_shape):
    """Re-insert reduced axes as singletons so grad broadcasts to input shape."""
    if out_keepdims:
        return grad
    shape = list(in_shape)
    for axis in axes:
        shape[axis] = 1
    return grad.reshape(shape)


def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(grad):
        grad = _expand_for_broadcast(grad, axes, keepdims, a.shape)
        return (np.broadcast_to(grad, a.shape),)

    return make_op(data, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    data = a.data.mean(axis=axes, keepdims=keepdims)

    def backward(grad):
        grad = _expand_for_broadcast(grad, axes, keepdims, a.shape)
        return (np.broadcast_to(grad, a.shape) / count,)

    return make_op(data, (a,), backward)


def max(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    data = np.max(a.data, axis=axes, keepdims=keepdims)

    def backward(grad):
        grad = _expand_for_broadcast(grad, axes, keepdims, a.shape)
        extremum = _expand_for_broadcast(
            np.asarray(data), axes, keepdims, a.shape
        )
        mask = a.data == extremum
        # Split gradient evenly across ties so gradcheck stays symmetric.
        counts = mask.sum(axis=axes, keepdims=True)
        return (grad * mask / counts,)

    return make_op(data, (a,), backward)
