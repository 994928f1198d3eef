"""Mathematical properties of the convolution engine (hypothesis-driven)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, ops
from repro.nn.config import use_dtype
from repro.nn.ops.conv import conv3d_forward


def _rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


class TestLinearity:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000), st.floats(-3, 3), st.floats(-3, 3))
    def test_conv_is_linear_in_input(self, seed, alpha, beta):
        x1 = _rand((1, 2, 3, 4, 4), seed)
        x2 = _rand((1, 2, 3, 4, 4), seed + 1)
        w = _rand((2, 2, 2, 2, 2), seed + 2)
        pads = ((0, 0), (0, 0), (0, 0))
        combined = conv3d_forward(alpha * x1 + beta * x2, w, (1, 1, 1), pads)
        separate = alpha * conv3d_forward(x1, w, (1, 1, 1), pads) + beta * conv3d_forward(
            x2, w, (1, 1, 1), pads
        )
        assert np.allclose(combined, separate, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 1000))
    def test_conv_is_linear_in_weight(self, seed):
        x = _rand((1, 2, 3, 4, 4), seed)
        w1 = _rand((2, 2, 2, 2, 2), seed + 1)
        w2 = _rand((2, 2, 2, 2, 2), seed + 2)
        pads = ((0, 0), (0, 0), (0, 0))
        combined = conv3d_forward(x, w1 + w2, (1, 1, 1), pads)
        separate = conv3d_forward(x, w1, (1, 1, 1), pads) + conv3d_forward(x, w2, (1, 1, 1), pads)
        assert np.allclose(combined, separate, atol=1e-9)


class TestEquivariance:
    def test_translation_equivariance_spatial(self):
        """Shifting the input shifts the (valid) output identically."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 1, 2, 8, 8))
        w = rng.standard_normal((1, 1, 2, 3, 3))
        pads = ((0, 0), (0, 0), (0, 0))
        base = conv3d_forward(x, w, (1, 1, 1), pads)
        shifted = conv3d_forward(np.roll(x, 2, axis=3), w, (1, 1, 1), pads)
        # Interior rows (away from the wrap) must match the rolled base.
        assert np.allclose(shifted[:, :, :, 3:, :], np.roll(base, 2, axis=3)[:, :, :, 3:, :])

    def test_identity_kernel_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4, 5, 5))
        w = np.zeros((3, 3, 1, 1, 1))
        for c in range(3):
            w[c, c, 0, 0, 0] = 1.0
        out = conv3d_forward(x, w, (1, 1, 1), ((0, 0), (0, 0), (0, 0)))
        assert np.allclose(out, x)


class TestAdjointProperty:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 500), st.sampled_from([(1, 1, 1), (2, 1, 2), (1, 2, 2)]))
    def test_inner_product_identity(self, seed, stride):
        """<conv(x), y> == <x, conv_transpose(y)> for random shapes/strides.

        An identity to rtol 1e-9 needs float64 arithmetic.
        """
        with use_dtype(np.float64):
            self._check_identity(seed, stride)

    def _check_identity(self, seed, stride):
        x = Tensor(_rand((1, 2, 5, 6, 6), seed))
        w = Tensor(_rand((3, 2, 2, 3, 3), seed + 1))
        y_shape = ops.conv3d(x, w, stride=stride, padding=1).shape
        y = Tensor(_rand(y_shape, seed + 2))
        forward = float((ops.conv3d(x, w, stride=stride, padding=1).data * y.data).sum())
        # Output padding reconstructs the exact original spatial extent.
        opad = tuple(
            x.shape[2 + i]
            - ((y_shape[2 + i] - 1) * stride[i] - 2 * 1 + w.shape[2 + i])
            for i in range(3)
        )
        back = ops.conv_transpose3d(y, w, stride=stride, padding=1, output_padding=opad)
        backward = float((x.data * back.data).sum())
        assert np.isclose(forward, backward, rtol=1e-9)


class TestStride:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_strided_output_subsamples_dense_output(self, stride):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 6, 7, 7))
        w = rng.standard_normal((1, 1, 2, 2, 2))
        pads = ((0, 0), (0, 0), (0, 0))
        dense = conv3d_forward(x, w, (1, 1, 1), pads)
        strided = conv3d_forward(x, w, (stride, stride, stride), pads)
        assert np.allclose(strided, dense[:, :, ::stride, ::stride, ::stride])
