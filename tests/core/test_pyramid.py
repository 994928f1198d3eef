"""Pyramid kernel mask and PyramidConv3D (Sec. II-A, III-C)."""

import numpy as np
import pytest

from repro.core import PyramidConv3D, pyramid_cell_count, pyramid_mask
from repro.nn import Tensor
from repro.nn.config import use_dtype

# Relative roundoff of one float32 operation. The pyramid conv runs through
# FFTs, whose roundoff spreads over the whole transform: an input change of
# size d moves every output by up to about eps * d * sum|w|, not only the
# outputs the kernel reaches.
EPS32 = float(np.finfo(np.float32).eps)


def _future_perturbation(rng):
    """Outputs before and after adding 100 to time slots 4 and 5, and the bound
    ``eps * 100 * sum|w|`` on what float32 roundoff may move past slots by."""
    layer = PyramidConv3D(1, 2, size=3, rng=0)
    base = rng.standard_normal((1, 1, 6, 4, 4))
    perturbed = base.copy()
    perturbed[0, 0, 4:] += 100.0  # change only time slots 4, 5
    out_base = layer(Tensor(base)).data
    out_perturbed = layer(Tensor(perturbed)).data
    bound = EPS32 * 100.0 * float(np.abs(layer.weight.data).sum())
    return out_base, out_perturbed, bound


def _impulse_response():
    """Response to a unit impulse at time 3, two cells from the centre (3, 3),
    and the float32 roundoff bound ``eps * 1 * sum|w|``."""
    layer = PyramidConv3D(1, 1, size=3, rng=0)
    layer.bias.data[...] = 0.0
    near_in_time = np.zeros((1, 1, 6, 7, 7))
    near_in_time[0, 0, 3, 3, 5] = 1.0
    out = layer(Tensor(near_in_time)).data
    return out, EPS32 * float(np.abs(layer.weight.data).sum())


class TestPyramidMask:
    def test_shape(self):
        assert pyramid_mask(3).shape == (3, 5, 5)
        assert pyramid_mask(5).shape == (5, 9, 9)

    def test_apex_is_1x1_at_newest_slice(self):
        mask = pyramid_mask(3)
        newest = mask[-1]
        assert newest.sum() == 1
        assert newest[2, 2] == 1

    def test_base_is_full_at_oldest_slice(self):
        mask = pyramid_mask(3)
        assert mask[0].sum() == 25  # full 5x5

    def test_intermediate_slices_grow_with_age(self):
        mask = pyramid_mask(4)
        sums = [mask[d].sum() for d in range(4)]
        assert sums == [49, 25, 9, 1]

    def test_cell_count_matches_mask(self):
        for size in range(1, 6):
            assert pyramid_mask(size).sum() == pyramid_cell_count(size)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            pyramid_mask(0)

    def test_slices_are_centered(self):
        mask = pyramid_mask(4)
        center = 3
        for d in range(4):
            radius = 4 - 1 - d
            expected = np.zeros((7, 7))
            expected[center - radius : center + radius + 1, center - radius : center + radius + 1] = 1
            assert np.array_equal(mask[d], expected)


class TestPyramidConv3D:
    def test_preserves_time_and_space(self, rng):
        layer = PyramidConv3D(2, 4, size=3, rng=0)
        out = layer(Tensor(rng.standard_normal((1, 2, 6, 5, 5))))
        assert out.shape == (1, 4, 6, 5, 5)

    def test_causality_future_does_not_leak_backward(self, rng):
        """Output at time t must not depend on inputs at times > t."""
        with use_dtype(np.float64):
            out_base, out_perturbed, _ = _future_perturbation(rng)
        # Slots 0..3 must be identical; slot 4 (and 5) may differ.
        assert np.allclose(out_base[:, :, :4], out_perturbed[:, :, :4])
        assert not np.allclose(out_base[:, :, 4:], out_perturbed[:, :, 4:])

    def test_causality_in_float32_within_fft_roundoff(self, rng):
        with use_dtype(np.float32):
            out_base, out_perturbed, bound = _future_perturbation(rng)
        assert np.abs(out_base[:, :, :4] - out_perturbed[:, :, :4]).max() <= bound
        assert np.abs(out_base[:, :, 4:] - out_perturbed[:, :, 4:]).max() > 1.0

    def test_receptive_field_widens_with_age(self, rng):
        """A spatial cell 2 steps away influences the target only through
        slices >= 2 slots old — the pyramid's defining property."""
        with use_dtype(np.float64):
            out, _ = _impulse_response()
        # At output time 3 (offset 0 → 1x1 kernel): no influence possible.
        # (The FFT convolution path leaves ~1e-14 roundoff, not exact zeros.)
        assert abs(out[0, 0, 3, 3, 3]) < 1e-10
        # At output time 4 (offset 1 → 3x3): distance 2 still outside.
        assert abs(out[0, 0, 4, 3, 3]) < 1e-10
        # At output time 5 (offset 2 → 5x5): inside the pyramid base.
        assert abs(out[0, 0, 5, 3, 3]) > 1e-6

    def test_receptive_field_in_float32_within_fft_roundoff(self):
        with use_dtype(np.float32):
            out, bound = _impulse_response()
        assert abs(out[0, 0, 3, 3, 3]) <= bound
        assert abs(out[0, 0, 4, 3, 3]) <= bound
        assert abs(out[0, 0, 5, 3, 3]) > 1e-3

    def test_masked_weights_never_update(self, rng):
        layer = PyramidConv3D(1, 2, size=2, rng=0)
        x = Tensor(rng.standard_normal((2, 1, 4, 5, 5)))
        out = layer(x)
        out.sum().backward()
        mask = layer.weight_mask
        assert np.all(layer.weight.grad[mask == 0] == 0)

    def test_gradients_exist_inside_mask(self, rng):
        layer = PyramidConv3D(1, 1, size=2, rng=0)
        x = Tensor(rng.standard_normal((2, 1, 4, 5, 5)))
        layer(x).sum().backward()
        mask = layer.weight_mask
        assert np.abs(layer.weight.grad[mask == 1]).sum() > 0
