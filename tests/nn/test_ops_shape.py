"""Gradient checks and semantics for shape ops."""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients


def _t(array):
    return Tensor(np.asarray(array, dtype=float), requires_grad=True)


class TestReshapeTranspose:
    def test_reshape_gradient(self, rng):
        x = _t(rng.standard_normal((2, 6)))
        check_gradients(lambda x: ops.reshape(x, (3, 4)), [x])

    def test_reshape_with_inferred_dim(self, rng):
        x = Tensor(rng.standard_normal((2, 6)))
        assert ops.reshape(x, (4, -1)).shape == (4, 3)

    @pytest.mark.parametrize("axes", [None, (1, 0, 2), (2, 0, 1)])
    def test_transpose_gradient(self, axes, rng):
        x = _t(rng.standard_normal((2, 3, 4)))
        check_gradients(lambda x: ops.transpose(x, axes), [x])

    def test_expand_squeeze(self, rng):
        x = _t(rng.standard_normal((2, 3)))
        check_gradients(lambda x: ops.expand_dims(x, 1), [x])
        y = _t(rng.standard_normal((2, 1, 3)))
        check_gradients(lambda y: ops.squeeze(y, 1), [y])


class TestConcatStack:
    def test_concat_values_and_gradients(self, rng):
        a = _t(rng.standard_normal((2, 3)))
        b = _t(rng.standard_normal((2, 2)))
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        check_gradients(lambda a, b: ops.concat([a, b], axis=1), [a, b])

    def test_stack_values_and_gradients(self, rng):
        a = _t(rng.standard_normal((2, 3)))
        b = _t(rng.standard_normal((2, 3)))
        out = ops.stack([a, b], axis=1)
        assert out.shape == (2, 2, 3)
        check_gradients(lambda a, b: ops.stack([a, b], axis=1), [a, b])


class TestGetitem:
    def test_getitem_slice_gradient(self, rng):
        x = _t(rng.standard_normal((4, 5)))
        check_gradients(lambda x: ops.getitem(x, (slice(1, 3), slice(None))), [x])

    def test_getitem_fancy_index_gradient_accumulates(self):
        x = _t(np.arange(4.0))
        out = ops.getitem(x, np.array([1, 1, 2]))
        out.sum().backward()
        assert np.allclose(x.grad, [0.0, 2.0, 1.0, 0.0])
