"""Gradient checks and semantics for activation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients


def _t(array):
    return Tensor(np.asarray(array, dtype=float), requires_grad=True)


class TestGradients:
    @pytest.mark.parametrize("fn", [ops.sigmoid, ops.tanh], ids=["sigmoid", "tanh"])
    def test_smooth_activations(self, fn, rng):
        x = _t(rng.standard_normal((3, 4)) + 0.3)
        check_gradients(fn, [x])

    def test_relu_gradient_away_from_kink(self, rng):
        x = _t(rng.standard_normal((3, 4)) + 3.0)  # strictly positive
        check_gradients(lambda x: ops.relu(x), [x])
        y = _t(-np.abs(rng.standard_normal((3, 4))) - 1.0)  # strictly negative
        check_gradients(lambda y: ops.relu(y), [y])


class TestSemantics:
    def test_sigmoid_range_and_extremes(self):
        out = ops.sigmoid(Tensor([-1000.0, 0.0, 1000.0])).data
        assert np.allclose(out, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(out))

    def test_relu_values(self):
        assert np.allclose(ops.relu(Tensor([-2.0, 3.0])).data, [0.0, 3.0])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=10))
    def test_tanh_bounded(self, values):
        out = ops.tanh(Tensor(values)).data
        assert np.all(np.abs(out) <= 1.0)
