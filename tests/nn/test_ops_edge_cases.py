"""Edge cases across the op library: degenerate shapes, extreme values,
mixed requires_grad, and op-specific corner semantics."""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.config import use_dtype


class TestDegenerateShapes:
    def test_scalar_tensors_through_arithmetic(self):
        a = Tensor(2.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        out = ops.mul(ops.add(a, b), a)
        out.backward()
        assert a.grad == pytest.approx(7.0)  # d/da[(a+b)a] = 2a+b
        assert b.grad == pytest.approx(2.0)

    def test_empty_axis_reductions(self):
        x = Tensor(np.zeros((0, 3)))
        assert ops.sum(x).item() == 0.0

    def test_single_element_softmax(self):
        out = ops.softmax(Tensor([[5.0]]), axis=-1)
        assert out.item() == 1.0

    def test_concat_single_tensor(self):
        x = Tensor(np.ones((2, 2)))
        assert ops.concat([x], axis=0).shape == (2, 2)

    def test_stack_single_tensor(self):
        x = Tensor(np.ones((2, 2)))
        assert ops.stack([x], axis=0).shape == (1, 2, 2)

    def test_reshape_to_scalar_and_back(self):
        x = Tensor([[7.0]], requires_grad=True)
        out = ops.reshape(x, ())
        ops.reshape(out, (1, 1)).sum().backward()
        assert x.grad.shape == (1, 1)


class TestExtremeValues:
    def test_sigmoid_saturation_gradients_are_zero_not_nan(self):
        x = Tensor([-1e4, 1e4], requires_grad=True)
        ops.sigmoid(x).sum().backward()
        assert np.all(np.isfinite(x.grad))
        assert np.allclose(x.grad, 0.0)

    def test_softmax_with_neg_inf_like_logits(self):
        out = ops.softmax(Tensor([[-1e30, 0.0]]), axis=-1).data
        assert np.allclose(out, [[0.0, 1.0]])

    def test_log_of_tiny_values(self):
        with use_dtype(np.float64):  # 1e-300 is below float32's range
            x = Tensor([1e-300], requires_grad=True)
            out = ops.log(x)
            out.sum().backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(x.grad).all()

    def test_norm_of_large_vector(self):
        with use_dtype(np.float64):  # 1e150 is beyond float32's range
            x = Tensor([[1e150, 1e150]])
            # No overflow to inf through the sum-of-squares path at 1e150² = 1e300.
            assert np.isfinite(ops.norm(x, axis=1).data).all()


class TestMixedRequiresGrad:
    def test_grad_flows_only_to_marked_inputs(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0])  # constant
        out = ops.mul(a, b)
        out.sum().backward()
        assert a.grad is not None
        assert b.grad is None

    def test_constant_only_graph_produces_no_graph(self):
        a = Tensor([1.0])
        b = Tensor([2.0])
        out = ops.add(a, b)
        assert not out.requires_grad
        assert out._parents == ()

    def test_detached_branch_contributes_no_gradient(self):
        a = Tensor([2.0], requires_grad=True)
        frozen = ops.mul(a, 3.0).detach()
        out = ops.add(ops.mul(a, 1.0), frozen)
        out.sum().backward()
        assert np.allclose(a.grad, [1.0])


class TestOpSpecificCorners:
    def test_clip_degenerate_range(self):
        x = Tensor([-1.0, 0.0, 1.0])
        out = ops.clip(x, 0.0, 0.0)
        assert np.allclose(out.data, 0.0)

    def test_where_all_true_and_all_false(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([9.0, 9.0])
        assert np.allclose(ops.where(np.array([True, True]), a, b).data, a.data)
        assert np.allclose(ops.where(np.array([False, False]), a, b).data, b.data)

    def test_pad_zero_width_is_identity(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.pad(x, ((0, 0), (0, 0)))
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_flip_twice_is_identity(self, rng):
        data = rng.standard_normal((3, 4))
        assert np.allclose(ops.flip(ops.flip(Tensor(data), 0), 0).data, data)

    def test_transpose_default_reverses_axes(self, rng):
        data = rng.standard_normal((2, 3, 4))
        assert ops.transpose(Tensor(data)).shape == (4, 3, 2)

    def test_power_zero_exponent(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        out = ops.power(x, 0.0)
        assert np.allclose(out.data, 1.0)
        out.sum().backward()
        assert np.allclose(x.grad, 0.0)

    def test_maximum_with_scalar_broadcast(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        out = ops.maximum(x, 0.0)
        assert np.allclose(out.data, [0.0, 2.0])
