"""Gradient checks and semantics for elementwise/linear-algebra ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients


def _t(array):
    return Tensor(np.asarray(array, dtype=float), requires_grad=True)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "fn",
        [ops.add, ops.sub, ops.mul, ops.div],
        ids=["add", "sub", "mul", "div"],
    )
    def test_binary_op_gradients(self, fn, rng):
        a = _t(rng.standard_normal((3, 4)) + 2.0)
        b = _t(rng.standard_normal((3, 4)) + 2.0)
        check_gradients(lambda a, b: fn(a, b), [a, b])

    @pytest.mark.parametrize(
        "fn",
        [ops.add, ops.sub, ops.mul, ops.div],
        ids=["add", "sub", "mul", "div"],
    )
    def test_binary_op_broadcast_gradients(self, fn, rng):
        a = _t(rng.standard_normal((2, 3, 4)) + 2.0)
        b = _t(rng.standard_normal((4,)) + 2.0)
        check_gradients(lambda a, b: fn(a, b), [a, b])

    def test_neg_sqrt_abs(self, rng):
        x = _t(rng.random((3, 3)) + 0.5)
        check_gradients(lambda x: ops.neg(x), [x])
        check_gradients(lambda x: ops.sqrt(x), [x])
        shifted = _t(rng.standard_normal((3, 3)) + 5.0)
        check_gradients(lambda x: ops.abs(x), [shifted])


class TestMatmul:
    def test_2d_forward(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        assert np.allclose(ops.matmul(Tensor(a), Tensor(b)).data, a @ b)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [
            ((3, 4), (4, 5)),
            ((2, 3, 4), (4, 5)),
            ((2, 3, 4), (2, 4, 5)),
            ((4,), (4, 5)),
            ((3, 4), (4,)),
            ((4,), (4,)),
            ((2, 3, 4), (4,)),
            ((4,), (2, 4, 5)),
        ],
    )
    def test_matmul_gradients(self, shape_a, shape_b, rng):
        a = _t(rng.standard_normal(shape_a))
        b = _t(rng.standard_normal(shape_b))
        check_gradients(lambda a, b: ops.matmul(a, b), [a, b])


class TestHypothesisProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
        st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    )
    def test_add_commutes(self, left, right):
        size = min(len(left), len(right))
        a = Tensor(left[:size])
        b = Tensor(right[:size])
        assert np.allclose(ops.add(a, b).data, ops.add(b, a).data)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    def test_abs_nonnegative(self, values):
        assert (ops.abs(Tensor(values)).data >= 0).all()
