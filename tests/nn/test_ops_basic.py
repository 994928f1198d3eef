"""Gradient checks and semantics for elementwise/linear-algebra ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, ops
from repro.nn.config import use_dtype
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

    def test_neg_power_exp_log_sqrt_abs(self, rng):
        x = _t(rng.random((3, 3)) + 0.5)
        check_gradients(lambda x: ops.neg(x), [x])
        check_gradients(lambda x: ops.power(x, 3.0), [x])
        check_gradients(lambda x: ops.exp(x), [x])
        check_gradients(lambda x: ops.log(x), [x])
        check_gradients(lambda x: ops.sqrt(x), [x])
        shifted = _t(rng.standard_normal((3, 3)) + 5.0)
        check_gradients(lambda x: ops.abs(x), [shifted])

    def test_clip_gradient_masks_outside(self):
        x = _t([-2.0, 0.5, 2.0])
        out = ops.clip(x, -1.0, 1.0)
        out.sum().backward()
        assert np.allclose(out.data, [-1.0, 0.5, 1.0])
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_maximum_routes_gradient_to_larger(self):
        a = _t([1.0, 5.0])
        b = _t([2.0, 3.0])
        ops.maximum(a, b).sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0])
        assert np.allclose(b.grad, [1.0, 0.0])

    def test_where_selects_and_routes_gradient(self):
        a = _t([1.0, 2.0])
        b = _t([10.0, 20.0])
        condition = np.array([True, False])
        out = ops.where(condition, a, b)
        assert np.allclose(out.data, [1.0, 20.0])
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


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
    @given(st.lists(st.floats(0.1, 10), min_size=1, max_size=8))
    def test_exp_log_roundtrip(self, values):
        with use_dtype(np.float64):  # rtol 1e-10 is a float64 bound
            x = Tensor(values)
            assert np.allclose(ops.exp(ops.log(x)).data, x.data, rtol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
    def test_abs_nonnegative(self, values):
        assert (ops.abs(Tensor(values)).data >= 0).all()
