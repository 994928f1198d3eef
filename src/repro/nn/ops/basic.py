"""Elementwise and linear-algebra primitives with autograd support.

All binary ops are broadcast-aware: gradients are summed back down to each
operand's shape via :func:`repro.nn.tensor.unbroadcast`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, make_op, unbroadcast


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return make_op(data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return make_op(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return make_op(data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data**2), b.shape),
        )

    return make_op(data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(grad):
        return (-grad,)

    return make_op(-a.data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / data,)

    return make_op(data, (a,), backward)


def abs(a) -> Tensor:  # noqa: A001 - mirrors numpy naming
    a = as_tensor(a)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return make_op(np.abs(a.data), (a,), backward)


def matmul(a, b) -> Tensor:
    """Matrix product supporting 1-D, 2-D and batched operands.

    1-D operands are handled with numpy's ``@`` semantics: a 1-D left operand
    acts as a row vector, a 1-D right operand as a column vector, and the
    corresponding singleton axis is dropped from the result.
    """
    a, b = as_tensor(a), as_tensor(b)
    data = a.data @ b.data

    def backward(grad):
        a_data, b_data = a.data, b.data
        if a_data.ndim == 1 and b_data.ndim == 1:
            return grad * b_data, grad * a_data
        a2 = a_data[None, :] if a_data.ndim == 1 else a_data
        b2 = b_data[:, None] if b_data.ndim == 1 else b_data
        g2 = grad
        if a_data.ndim == 1:
            g2 = np.expand_dims(g2, axis=-2)
        if b_data.ndim == 1:
            g2 = np.expand_dims(g2, axis=-1)
        ga = g2 @ np.swapaxes(b2, -1, -2)
        gb = np.swapaxes(a2, -1, -2) @ g2
        if a_data.ndim == 1:
            # ga has shape (..., 1, n): drop the row axis, sum any batch axes.
            ga = ga[..., 0, :].reshape(-1, a_data.shape[0]).sum(axis=0)
        else:
            ga = unbroadcast(ga, a_data.shape)
        if b_data.ndim == 1:
            # gb has shape (..., n, 1): drop the column axis, sum batch axes.
            gb = gb[..., 0].reshape(-1, b_data.shape[0]).sum(axis=0)
        else:
            gb = unbroadcast(gb, b_data.shape)
        return ga, gb

    return make_op(data, (a, b), backward)
