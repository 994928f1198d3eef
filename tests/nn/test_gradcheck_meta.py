"""Meta-tests: the gradient checker must catch wrong gradients."""

import numpy as np
import pytest

from repro.nn import Linear, Tensor
from repro.nn.config import use_dtype
from repro.nn.gradcheck import check_gradients, gradcheck_module, numeric_gradient
from repro.nn.tensor import make_op


def _buggy_double(a):
    """An op whose backward is wrong on purpose (claims gradient 3, truth 2)."""

    def backward(grad):
        return (grad * 3.0,)

    return make_op(a.data * 2.0, (a,), backward)


class TestGradcheck:
    def test_detects_wrong_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        with pytest.raises(AssertionError, match="gradient mismatch"):
            check_gradients(_buggy_double, [x])

    def test_passes_correct_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        check_gradients(lambda x: x * 2.0, [x])

    def test_numeric_gradient_of_square(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        numeric = numeric_gradient(lambda x: x * x, [x], index=0)
        assert np.allclose(numeric, [2.0, -4.0], atol=1e-6)

    def test_skips_non_grad_inputs(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        constant = Tensor(rng.standard_normal(3))  # no grad required
        check_gradients(lambda x, c: x * c, [x, constant])

    def test_float32_module_is_checked_in_float64(self, rng):
        """A float32 central difference at epsilon 1e-5 is roundoff noise;
        the check must run in float64 and hand back float32 tensors."""
        with use_dtype(np.float32):
            layer = Linear(3, 2, rng=0)
            x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            weight = layer.weight.data
            gradcheck_module(layer, x)
        assert layer.weight.data is weight
        assert x.data.dtype == np.float32
        assert layer.weight.grad.dtype == np.float32

    def test_restores_data_after_perturbation(self, rng):
        x = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        original = x.data.copy()
        numeric_gradient(lambda x: x * 2.0, [x], index=0)
        assert np.array_equal(x.data, original)
