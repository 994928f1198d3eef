"""Autograd graph machinery tests."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, no_grad, ops
from repro.nn.tensor import unbroadcast


class TestTensorBasics:
    def test_wraps_data_as_float(self):
        tensor = Tensor([1, 2, 3])
        assert tensor.dtype == np.float32
        assert tensor.shape == (3,)

    def test_repr_shows_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == 3.5
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_as_tensor_is_identity_on_tensor(self):
        tensor = Tensor([1.0])
        assert as_tensor(tensor) is tensor

    def test_wrapping_tensor_copies_data_reference(self):
        inner = Tensor([1.0, 2.0])
        outer = Tensor(inner)
        assert np.array_equal(outer.data, inner.data)


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        assert np.allclose(x.grad, [4.0, 6.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_with_explicit_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3
        y.backward(np.array([1.0, 10.0]))
        assert np.allclose(x.grad, [3.0, 30.0])

    def test_backward_rejects_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3
        with pytest.raises(ValueError):
            y.backward(np.zeros(3))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 4
        y = (a + b).sum()
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_reused_node_receives_summed_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * x  # used twice downstream
        y = (a + a).sum()
        y.backward()
        assert np.allclose(x.grad, [8.0])

    def test_deep_chain_does_not_hit_recursion_limit(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])


class TestDetachNoGrad:
    def test_detach_blocks_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach() * 3
        assert not y.requires_grad

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        z = x * 2
        assert z.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestUnbroadcast:
    def test_no_op_when_shapes_match(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)) is grad

    def test_sums_leading_axes(self):
        grad = np.ones((4, 2, 3))
        assert unbroadcast(grad, (2, 3)).shape == (2, 3)
        assert np.all(unbroadcast(grad, (2, 3)) == 4)

    def test_sums_singleton_axes(self):
        grad = np.ones((2, 3))
        out = unbroadcast(grad, (2, 1))
        assert out.shape == (2, 1)
        assert np.all(out == 3)

    def test_scalar_target(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, ()).shape == ()


class TestOperatorSugar:
    def test_arithmetic_operators(self):
        x = Tensor([4.0])
        assert (x + 1).item() == 5.0
        assert (1 + x).item() == 5.0
        assert (x - 1).item() == 3.0
        assert (1 - x).item() == -3.0
        assert (x * 2).item() == 8.0
        assert (x / 2).item() == 2.0
        assert (2 / x).item() == 0.5
        assert (-x).item() == -4.0

    def test_matmul_operator(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0], [2.0]])
        assert np.allclose((a @ b).data, [[1.0], [2.0]])

    def test_indexing_and_reshape_helpers(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x[0, 1].item() == 1.0
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.transpose().shape == (3, 2)
        assert x.unsqueeze(0).shape == (1, 2, 3)
        assert x.unsqueeze(0).squeeze(0).shape == (2, 3)
        assert x.sum().item() == 15.0
        assert x.mean().item() == 2.5
        assert x.max().item() == 5.0
