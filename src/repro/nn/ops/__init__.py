"""Autograd operation library for the numpy substrate."""

from repro.nn.ops.basic import (
    abs,  # noqa: A004
    add,
    div,
    matmul,
    mul,
    neg,
    sqrt,
    sub,
)
from repro.nn.ops.reduce import max, mean, sum  # noqa: A004
from repro.nn.ops.shape import (
    concat,
    expand_dims,
    getitem,
    reshape,
    squeeze,
    stack,
    transpose,
)
from repro.nn.ops.activations import relu, sigmoid, tanh
from repro.nn.ops.conv import (
    conv2d,
    conv3d,
    conv_transpose3d,
    normalize_pads,
    normalize_stride,
    same_padding,
)

__all__ = [
    "abs",
    "add",
    "concat",
    "conv2d",
    "conv3d",
    "conv_transpose3d",
    "div",
    "expand_dims",
    "getitem",
    "matmul",
    "max",
    "mean",
    "mul",
    "neg",
    "normalize_pads",
    "normalize_stride",
    "relu",
    "reshape",
    "same_padding",
    "sigmoid",
    "sqrt",
    "squeeze",
    "stack",
    "sub",
    "sum",
    "tanh",
    "transpose",
]
