"""Activation functions with autograd support."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor, make_op


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def backward(grad):
        return (grad * (a.data > 0),)

    return make_op(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # Numerically stable piecewise logistic.
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(grad):
        return (grad * data * (1.0 - data),)

    return make_op(data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - data**2),)

    return make_op(data, (a,), backward)
