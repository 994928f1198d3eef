"""The 3D squash non-linearity (Eq. 3): invariants via hypothesis."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import capsule_length, squash
from repro.nn import Tensor
from repro.nn.config import use_dtype
from repro.nn.gradcheck import check_gradients


def _vectors(min_dim=2, max_dim=6):
    return st.lists(
        st.lists(st.floats(-10, 10), min_size=min_dim, max_size=min_dim),
        min_size=1,
        max_size=5,
    )


def _output_norms_by_input_norm(rows, dtype):
    """Norms of the squashed rows, ordered by the input rows' norms."""
    data = np.asarray(rows, dtype=float)
    with use_dtype(dtype):
        out = squash(Tensor(data), axis=-1).data
    assert out.dtype == dtype
    order = np.argsort(np.linalg.norm(data, axis=-1))
    return np.linalg.norm(out.astype(np.float64), axis=-1)[order]


class TestSquashProperties:
    @settings(max_examples=50, deadline=None)
    @given(_vectors(3, 3))
    def test_norm_strictly_below_one(self, rows):
        out = squash(Tensor(rows), axis=-1).data
        norms = np.linalg.norm(out, axis=-1)
        assert np.all(norms < 1.0)

    @settings(max_examples=50, deadline=None)
    @given(_vectors(3, 3))
    def test_direction_preserved(self, rows):
        data = np.asarray(rows, dtype=float)
        out = squash(Tensor(data), axis=-1).data
        for row_in, row_out in zip(data, out):
            norm = np.linalg.norm(row_in)
            if norm > 1e-3:
                cosine = row_in @ row_out / (norm * np.linalg.norm(row_out))
                assert cosine > 0.999

    @settings(max_examples=50, deadline=None)
    @given(_vectors(3, 3))
    def test_monotone_in_input_norm(self, rows):
        """In float64, the reference dtype, to 1e-9."""
        out_norms = _output_norms_by_input_norm(rows, np.float64)
        assert np.all(np.diff(out_norms) >= -1e-9)

    @settings(max_examples=50, deadline=None)
    @given(_vectors(3, 3))
    @example([[0, 0, 7], [0, 7, 0.0078125]])
    def test_monotone_in_input_norm_float32(self, rows):
        """In float32, the default, to a few ulps of the output norm. Rows
        whose norms nearly tie can swap: [[0, 0, 7], [0, 7, 0.0078125]]
        squash to norms 0.98 and 0.97999996, one float32 ulp apart in the
        wrong order. Each output norm carries a few ulps of roundoff; over
        20,000 sets of five near-tied rows the worst swap was 4.5 ulps."""
        out_norms = _output_norms_by_input_norm(rows, np.float32)
        ulps = np.spacing(out_norms[1:].astype(np.float32)).astype(np.float64)
        assert np.all(np.diff(out_norms) >= -16 * ulps)

    def test_long_vectors_approach_unit_norm(self):
        out = squash(Tensor([[1000.0, 0.0]]), axis=-1).data
        assert np.linalg.norm(out) > 0.999

    def test_short_vectors_shrink_to_near_zero(self):
        out = squash(Tensor([[0.01, 0.0]]), axis=-1).data
        assert np.linalg.norm(out) < 1e-3

    def test_zero_vector_is_zero_with_finite_gradient(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = squash(x, axis=-1)
        out.sum().backward()
        assert np.allclose(out.data, 0.0)
        assert np.all(np.isfinite(x.grad))

    def test_matches_equation_3(self, rng):
        data = rng.standard_normal((4, 5))
        out = squash(Tensor(data), axis=-1).data
        norms = np.linalg.norm(data, axis=-1, keepdims=True)
        expected = (norms**2 / (1 + norms**2)) * (data / norms)
        assert np.allclose(out, expected, atol=1e-6)

    def test_axis_argument(self, rng):
        data = rng.standard_normal((2, 4, 3))
        out = squash(Tensor(data), axis=1).data
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)

    def test_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)
        check_gradients(lambda x: squash(x, axis=-1), [x])


class TestCapsuleLength:
    def test_matches_numpy_norm(self, rng):
        data = rng.standard_normal((3, 4, 5))
        lengths = capsule_length(Tensor(data), axis=-1).data
        assert np.allclose(lengths, np.linalg.norm(data, axis=-1), atol=1e-6)

    def test_squashed_lengths_encode_intensity(self, rng):
        weak = squash(Tensor([[0.1, 0.0]]), axis=-1)
        strong = squash(Tensor([[5.0, 0.0]]), axis=-1)
        assert capsule_length(strong, axis=-1).item() > capsule_length(weak, axis=-1).item()
