"""Convolution correctness: naive reference, adjointness, gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.config import use_dtype
from repro.nn.gradcheck import check_gradients
from repro.nn.ops.conv import (
    conv3d_forward,
    conv_output_size,
    normalize_pads,
    normalize_stride,
    same_padding,
)


def naive_conv3d(x, w, stride, pads):
    """Straight-loop reference implementation."""
    x = np.pad(x, ((0, 0), (0, 0)) + tuple(pads))
    n, c_in, d, h, wdt = x.shape
    c_out = w.shape[0]
    kd, kh, kw = w.shape[2:]
    sd, sh, sw = stride
    od = (d - kd) // sd + 1
    oh = (h - kh) // sh + 1
    ow = (wdt - kw) // sw + 1
    out = np.zeros((n, c_out, od, oh, ow))
    for b in range(n):
        for o in range(c_out):
            for i in range(od):
                for j in range(oh):
                    for k in range(ow):
                        patch = x[b, :, i * sd : i * sd + kd, j * sh : j * sh + kh, k * sw : k * sw + kw]
                        out[b, o, i, j, k] = (patch * w[o]).sum()
    return out


class TestHelpers:
    def test_normalize_stride(self):
        assert normalize_stride(2, 3) == (2, 2, 2)
        assert normalize_stride((1, 2, 3), 3) == (1, 2, 3)
        with pytest.raises(ValueError):
            normalize_stride((1, 2), 3)

    def test_normalize_pads(self):
        assert normalize_pads(1, 2) == ((1, 1), (1, 1))
        assert normalize_pads((1, 2), 2) == ((1, 1), (2, 2))
        assert normalize_pads(((1, 0), (0, 2)), 2) == ((1, 0), (0, 2))

    def test_same_padding(self):
        assert same_padding((3, 5, 1)) == (1, 2, 0)
        with pytest.raises(ValueError):
            same_padding((4,))

    def test_conv_output_size(self):
        assert conv_output_size(8, 3, 1, 1, 1) == 8
        assert conv_output_size(8, 3, 2, 0, 0) == 3
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0, 0)


class TestConv3DForward:
    @pytest.mark.parametrize(
        "stride, pads",
        [
            ((1, 1, 1), ((0, 0), (0, 0), (0, 0))),
            ((2, 1, 2), ((1, 1), (0, 0), (1, 1))),
            ((1, 2, 1), ((2, 0), (1, 1), (0, 2))),
        ],
    )
    def test_matches_naive(self, stride, pads, rng):
        x = rng.standard_normal((2, 3, 5, 6, 6))
        w = rng.standard_normal((4, 3, 2, 3, 3))
        fast = conv3d_forward(x, w, stride, pads)
        slow = naive_conv3d(x, w, stride, pads)
        assert np.allclose(fast, slow)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2, 2)))
        w = Tensor(np.zeros((3, 1, 1, 1, 1)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = ops.conv3d(x, w, b)
        assert np.allclose(out.data[0, :, 0, 0, 0], [1.0, 2.0, 3.0])


class TestConv3DGradients:
    @pytest.mark.parametrize(
        "stride, padding",
        [
            (1, 0),
            ((1, 2, 1), 1),
            ((2, 1, 1), ((1, 0), (1, 1), (0, 1))),
        ],
    )
    def test_gradcheck(self, stride, padding, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        check_gradients(
            lambda x, w, b: ops.conv3d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )

    def test_weight_mask_blocks_gradient(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((1, 1, 2, 2, 2)), requires_grad=True)
        mask = np.zeros((1, 1, 2, 2, 2))
        mask[0, 0, 0, 0, 0] = 1.0
        out = ops.conv3d(x, w, weight_mask=mask)
        out.sum().backward()
        assert np.all(w.grad[mask == 0] == 0)
        assert np.any(w.grad[mask == 1] != 0)

    def test_masked_weights_do_not_affect_output(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 3, 3, 3)))
        w1 = rng.standard_normal((1, 1, 2, 2, 2))
        w2 = w1.copy()
        mask = np.zeros_like(w1)
        mask[0, 0, 1, 1, 1] = 1.0
        w2[mask == 0] = 999.0  # garbage outside the mask
        out1 = ops.conv3d(x, Tensor(w1), weight_mask=mask)
        out2 = ops.conv3d(x, Tensor(w2), weight_mask=mask)
        assert np.allclose(out1.data, out2.data)


class TestConvTranspose3D:
    def test_is_exact_adjoint_of_conv(self, rng):
        """<conv(x), y> == <x, conv_transpose(y)> for all x, y."""
        stride = (2, 1, 2)
        padding = 1
        x = rng.standard_normal((1, 2, 4, 5, 4))
        w = rng.standard_normal((3, 2, 2, 3, 3))
        conv_out = ops.conv3d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        y = rng.standard_normal(conv_out.shape)
        # Transposed direction: weight viewed as (C_in=3, C_out=2).
        back = ops.conv_transpose3d(
            Tensor(y), Tensor(w), stride=stride, padding=padding,
            output_padding=(0, 0, 1),
        ).data
        # Fix output_padding so shapes match x exactly.
        assert back.shape == x.shape
        lhs = float((conv_out * y).sum())
        rhs = float((x * back).sum())
        assert np.isclose(lhs, rhs)

    @pytest.mark.parametrize(
        "stride, padding, output_padding",
        [(1, 0, 0), ((1, 2, 1), 1, (0, 1, 0)), (2, 0, 1)],
    )
    def test_gradcheck(self, stride, padding, output_padding, rng):
        x = Tensor(rng.standard_normal((2, 3, 3, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        check_gradients(
            lambda x, w, b: ops.conv_transpose3d(
                x, w, b, stride=stride, padding=padding, output_padding=output_padding
            ),
            [x, w, b],
        )

    def test_stride1_same_padding_preserves_shape(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 5, 6)))
        w = Tensor(rng.standard_normal((2, 3, 3, 3, 3)))
        out = ops.conv_transpose3d(x, w, stride=1, padding=1)
        assert out.shape == (1, 3, 4, 5, 6)

    def test_rejects_nonpositive_output(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 1, 1, 1)))
        w = Tensor(rng.standard_normal((1, 1, 2, 2, 2)))
        with pytest.raises(ValueError):
            ops.conv_transpose3d(x, w, padding=2)


class TestConv2D:
    def test_matches_conv3d_with_unit_depth(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        # Against the float64 conv3d kernel, so run conv2d in float64 too.
        with use_dtype(np.float64):
            out2d = ops.conv2d(Tensor(x), Tensor(w), padding=1).data
        out3d = conv3d_forward(
            x[:, :, None], w[:, :, None], (1, 1, 1), ((0, 0), (1, 1), (1, 1))
        )[:, :, 0]
        assert np.allclose(out2d, out3d)

    def test_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        check_gradients(lambda x, w, b: ops.conv2d(x, w, b, stride=(1, 2), padding=1), [x, w, b])
