"""Finite-difference gradient verification for autograd ops.

Every differentiable primitive in the substrate is validated against central
finite differences in the test suite; model-level modules reuse the same
helper through :func:`gradcheck_module`.

Checks always run in float64, whatever the substrate dtype: a float32
central difference at ``epsilon=1e-5`` carries roundoff of order
``eps32 / epsilon``, about 1e-2, far above the tolerances. The inputs (and
a module's parameters) are checked on float64 copies and get their own
data back afterwards, with their gradients in their own dtype.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from repro.nn import config, engine
from repro.nn.tensor import Tensor


@contextlib.contextmanager
def _in_float64(tensors: Sequence[Tensor]):
    """Run the block in float64 on float64 views or copies of ``tensors``' data."""
    saved = [tensor.data for tensor in tensors]
    try:
        with config.use_dtype(np.float64):
            for tensor in tensors:
                tensor.data = tensor.data.astype(np.float64, copy=False)
            yield
    finally:
        for tensor, data in zip(tensors, saved):
            tensor.data = data
            if tensor.grad is not None:
                tensor.grad = tensor.grad.astype(data.dtype, copy=False)


def numeric_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    index: int,
    epsilon: float = 1e-5,
) -> np.ndarray:
    """Central finite-difference gradient of ``sum(fn(*inputs))`` w.r.t. one input.

    Computed in float64; returned in the input's own dtype.
    """
    dtype = inputs[index].data.dtype
    with _in_float64(inputs):
        target = inputs[index]
        grad = np.zeros_like(target.data)
        flat = target.data.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            upper = float(fn(*inputs).data.sum())
            flat[i] = original - epsilon
            lower = float(fn(*inputs).data.sum())
            flat[i] = original
            grad_flat[i] = (upper - lower) / (2.0 * epsilon)
    return grad.astype(dtype, copy=False)


def check_gradients(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    atol: float = 1e-6,
    rtol: float = 1e-4,
    epsilon: float = 1e-5,
) -> None:
    """Assert analytic gradients of ``sum(fn(*inputs))`` match finite differences.

    Raises ``AssertionError`` with the worst offending input index on mismatch.

    Runs in float64 (see the module docstring) with the engine's
    identity-keyed caches bypassed: the central differences perturb
    ``tensor.data`` in place without bumping the weight version, which
    would otherwise serve stale kernel FFTs / masked weights.
    """
    with engine.no_cache(), _in_float64(inputs):
        for tensor in inputs:
            tensor.zero_grad()
        output = fn(*inputs)
        output.sum().backward()
        for index, tensor in enumerate(inputs):
            if not tensor.requires_grad:
                continue
            analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
            numeric = numeric_gradient(fn, inputs, index, epsilon=epsilon)
            if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
                worst = np.max(np.abs(analytic - numeric))
                raise AssertionError(
                    f"gradient mismatch on input {index}: max abs diff {worst:.3e}\n"
                    f"analytic:\n{analytic}\nnumeric:\n{numeric}"
                )


def gradcheck_module(module, *inputs, atol: float = 1e-6, rtol: float = 1e-4) -> None:
    """Gradcheck a Module's forward w.r.t. inputs and all its parameters."""
    params = list(module.parameters())
    tensors = list(inputs) + params

    def fn(*tensors_in):
        # Parameters are checked in place: numeric_gradient perturbs
        # tensor.data directly, which the module reads on forward.
        return module(*tensors_in[: len(inputs)])

    check_gradients(fn, tensors, atol=atol, rtol=rtol)
