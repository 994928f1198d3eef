"""Conv strategy equivalence: the direct kernels vs the FFT kernels.

Dispatch sends every kernel of volume < 48 to the direct strategy and the
pyramid-sized ones to FFT; these tests force each strategy on the same
inputs and pin them to the same answers for forward, weight gradient and
input gradient, across strides, asymmetric (causal) paddings, flat kernels
and both channel orders (the direct strategy expands whichever side has
fewer channels, so C_in < C_out and C_in > C_out run different code).
"""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients
from repro.nn.ops import conv as conv_module
from repro.nn.ops.conv import (
    conv3d_forward,
    conv3d_input_grad,
    conv3d_weight_grad,
)

CASES = [
    # (x shape, w shape, stride, pads)
    ((2, 3, 6, 9, 9), (4, 3, 4, 7, 7), (1, 1, 1), ((3, 0), (3, 3), (3, 3))),
    ((2, 2, 8, 10, 10), (3, 2, 3, 5, 5), (2, 1, 2), ((1, 1), (2, 2), (2, 2))),
    ((1, 1, 5, 9, 9), (1, 1, 5, 9, 9), (1, 1, 1), ((4, 0), (4, 4), (4, 4))),
    ((2, 1, 16, 6, 6), (6, 1, 4, 3, 3), (4, 1, 1), ((0, 0), (1, 1), (1, 1))),
    # Flat (depth-1) kernel: the shape of the routing vote transform.
    ((2, 3, 6, 9, 9), (4, 3, 1, 3, 3), (1, 1, 2), ((0, 0), (1, 1), (1, 1))),
    # C_in > C_out: GEMM then shifted-plane add forward, flipped-kernel
    # forward input gradient.
    ((2, 6, 5, 7, 7), (2, 6, 3, 3, 3), (1, 2, 1), ((2, 0), (1, 1), (1, 1))),
    ((3, 5, 1, 9, 8), (2, 5, 1, 3, 3), (1, 1, 2), ((0, 0), (1, 1), (1, 1))),
    # Pads wider than kernel − 1: the input gradient's tight padding crops.
    ((1, 4, 4, 5, 5), (2, 4, 2, 2, 2), (1, 1, 1), ((2, 2), (3, 1), (0, 3))),
    ((1, 2, 4, 5, 5), (3, 2, 2, 2, 2), (2, 1, 1), ((2, 2), (3, 1), (0, 3))),
]

TOLERANCE = 1e-10

# The float32 cases: the pyramid conv's 4→4 channels and 5×9×9 kernel with
# its causal padding, at batch 1, 2 and 16, so the weight gradient's
# per-sample accumulation runs for fewer and for more samples than there
# are channels. Each float32 FFT result is held to the float64 direct path
# within FLOAT32_ULPS float32 ulps (machine epsilon) of the output scale,
# max |reference|; the bound was fixed before the first measurement.
PYRAMID_W_SHAPE = (4, 4, 5, 9, 9)
PYRAMID_PADS = ((4, 0), (4, 4), (4, 4))
FLOAT32_BATCHES = (1, 2, 16)
FLOAT32_ULPS = 32


@pytest.fixture()
def strategies(monkeypatch):
    """Yield a helper that runs a callable once per conv strategy, and once
    more on the direct one with every sample in a batch chunk of its own."""

    def runner(fn):
        results = {}
        for name, use_fft, chunk_bytes in (
            ("direct", False, conv_module._CHUNK_BYTES),
            ("direct_per_sample", False, 1),
            ("fft", True, conv_module._CHUNK_BYTES),
        ):
            monkeypatch.setattr(conv_module, "_use_fft", lambda kernel, v=use_fft: v)
            monkeypatch.setattr(conv_module, "_CHUNK_BYTES", chunk_bytes)
            results[name] = fn()
        monkeypatch.undo()
        return results

    return runner


def _max_diff(results):
    return max(
        float(np.max(np.abs(results[name] - results["fft"])))
        for name in ("direct", "direct_per_sample")
    )


@pytest.mark.parametrize("x_shape, w_shape, stride, pads", CASES)
class TestPathEquivalence:
    def test_forward(self, x_shape, w_shape, stride, pads, strategies, rng):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        results = strategies(lambda: conv3d_forward(x, w, stride, pads))
        assert _max_diff(results) <= TOLERANCE

    def test_weight_grad(self, x_shape, w_shape, stride, pads, strategies, rng):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        out = conv3d_forward(x, w, stride, pads)
        gout = rng.standard_normal(out.shape)
        results = strategies(
            lambda: conv3d_weight_grad(x, gout, w_shape[2:], stride, pads)
        )
        assert _max_diff(results) <= TOLERANCE

        def from_forward_capture():
            # The im2col columns or input FFT the forward hands over.
            capture = {}
            conv3d_forward(x, w, stride, pads, _capture=capture)
            return conv3d_weight_grad(
                x, gout, w_shape[2:], stride, pads, _captured=capture
            )

        reused = strategies(from_forward_capture)
        for grad in reused.values():
            assert np.max(np.abs(grad - results["fft"])) <= TOLERANCE

    def test_input_grad(self, x_shape, w_shape, stride, pads, strategies, rng):
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        out = conv3d_forward(x, w, stride, pads)
        gout = rng.standard_normal(out.shape)
        results = strategies(
            lambda: conv3d_input_grad(gout, w, x_shape[2:], stride, pads)
        )
        assert results["direct"].shape == x_shape
        assert _max_diff(results) <= TOLERANCE


@pytest.mark.parametrize("batch", FLOAT32_BATCHES)
class TestFloat32FFTContractions:
    @staticmethod
    def _case(batch, rng):
        x = rng.standard_normal((batch, 4, 6, 8, 8)).astype(np.float32)
        w = rng.standard_normal(PYRAMID_W_SHAPE).astype(np.float32)
        gout = rng.standard_normal((batch, 4, 6, 8, 8)).astype(np.float32)
        return x, w, gout

    @staticmethod
    def _assert_within_float32_ulps(result, reference):
        assert result.dtype == np.float32
        scale = float(np.max(np.abs(reference)))
        error = float(np.max(np.abs(result.astype(np.float64) - reference)))
        assert error <= FLOAT32_ULPS * np.finfo(np.float32).eps * scale

    def test_forward(self, batch, rng, monkeypatch):
        x, w, _ = self._case(batch, rng)
        assert conv_module._use_fft(w.shape[2:])
        result = conv3d_forward(x, w, (1, 1, 1), PYRAMID_PADS)
        monkeypatch.setattr(conv_module, "_use_fft", lambda kernel: False)
        reference = conv3d_forward(
            x.astype(np.float64), w.astype(np.float64), (1, 1, 1), PYRAMID_PADS
        )
        self._assert_within_float32_ulps(result, reference)

    def test_weight_grad(self, batch, rng, monkeypatch):
        x, w, gout = self._case(batch, rng)
        capture = {}
        conv3d_forward(x, w, (1, 1, 1), PYRAMID_PADS, _capture=capture)
        results = [
            conv3d_weight_grad(x, gout, w.shape[2:], (1, 1, 1), PYRAMID_PADS),
            conv3d_weight_grad(
                x, gout, w.shape[2:], (1, 1, 1), PYRAMID_PADS, _captured=capture
            ),
        ]
        monkeypatch.setattr(conv_module, "_use_fft", lambda kernel: False)
        reference = conv3d_weight_grad(
            x.astype(np.float64), gout.astype(np.float64), w.shape[2:],
            (1, 1, 1), PYRAMID_PADS,
        )
        for result in results:
            self._assert_within_float32_ulps(result, reference)


class TestPathSelection:
    def test_small_kernels_take_the_direct_path(self):
        # Whatever the im2col size: the routing vote conv at paper geometry
        # (batch 256, 32 output channels) stays direct.
        for kernel in [(2, 3, 3), (1, 3, 3), (3, 3, 3), (5, 3, 3), (1, 1, 1)]:
            assert not conv_module._use_fft(kernel)

    def test_large_kernels_prefer_fft(self):
        for kernel in [(5, 9, 9), (4, 7, 7), (3, 5, 5), (1, 7, 7)]:
            assert conv_module._use_fft(kernel)


class TestTransposeWeightGradFromColumns:
    """C_out > C_in: the transposed forward expands x (the narrow side) and
    the weight gradient must come from those captured columns alone."""

    @pytest.mark.parametrize(
        "stride, padding, output_padding",
        [(1, 0, 0), ((1, 2, 1), 1, (0, 1, 0)), (2, (0, 1, 2), 1)],
    )
    def test_gradcheck(self, stride, padding, output_padding, rng, monkeypatch):
        def no_reexpansion(*args, **kwargs):
            raise AssertionError("weight gradient re-expanded the output gradient")

        monkeypatch.setattr(conv_module, "conv3d_weight_grad", no_reexpansion)
        x = Tensor(rng.standard_normal((2, 2, 3, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 2, 3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def transpose(x, w, b):
            return ops.conv_transpose3d(
                x, w, b, stride=stride, padding=padding, output_padding=output_padding
            )

        # A random projection, so every output gradient entry differs.
        probe = Tensor(rng.standard_normal(transpose(x, w, b).shape))
        check_gradients(lambda x, w, b: ops.mul(transpose(x, w, b), probe), [x, w, b])
